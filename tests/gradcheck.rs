//! Property-based gradient checking: analytic gradients of random op
//! compositions must match central finite differences, eagerly and through
//! staged calls. This is the strongest evidence the §4.2 machinery is
//! implemented correctly across the whole op surface.

use proptest::prelude::*;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;

/// Smooth ops only (finite differences hate kinks like relu/abs at 0 —
/// those have targeted unit tests instead).
const SMOOTH_UNARY: &[&str] =
    &["tanh", "sigmoid", "softplus", "sin", "cos", "exp", "erf", "square"];
const SMOOTH_BINARY: &[&str] = &["add", "sub", "mul"];

#[derive(Debug, Clone)]
enum Node {
    X,
    Unary(&'static str, Box<Node>),
    Binary(&'static str, Box<Node>, Box<Node>),
    MeanLast(Box<Node>),
    MatmulW(Box<Node>),
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = Just(Node::X);
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (0..SMOOTH_UNARY.len(), inner.clone())
                .prop_map(|(i, n)| Node::Unary(SMOOTH_UNARY[i], Box::new(n))),
            (0..SMOOTH_BINARY.len(), inner.clone(), inner.clone())
                .prop_map(|(i, a, b)| Node::Binary(SMOOTH_BINARY[i], Box::new(a), Box::new(b))),
            inner.clone().prop_map(|n| Node::MeanLast(Box::new(n))),
            inner.prop_map(|n| Node::MatmulW(Box::new(n))),
        ]
    })
}

fn eval(node: &Node, x: &Tensor, w: &Tensor) -> Result<Tensor, RuntimeError> {
    match node {
        Node::X => Ok(x.clone()),
        Node::Unary(op, n) => {
            let v = eval(n, x, w)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[v], tfe_ops::Attrs::new()).map(|mut o| o.remove(0))
        }
        Node::Binary(op, a, b) => {
            let a = eval(a, x, w)?;
            let b = eval(b, x, w)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[a, b], tfe_ops::Attrs::new())
                .map(|mut o| o.remove(0))
        }
        Node::MeanLast(n) => {
            let v = eval(n, x, w)?;
            api::reduce_mean(&v, &[-1], true)
        }
        Node::MatmulW(n) => {
            // Project back to (2, 3) via a fixed weight so shapes stay put.
            let v = eval(n, x, w)?;
            api::matmul(&v, w)
        }
    }
}

fn loss(node: &Node, x: &Tensor, w: &Tensor) -> Result<f64, RuntimeError> {
    let y = eval(node, x, w)?;
    api::reduce_sum(&y, &[], false)?.scalar_f64()
}

fn tensors(xs: &[f64]) -> (Tensor, Tensor) {
    let x = Tensor::from_data(TensorData::from_vec(xs.to_vec(), Shape::from([2, 3])).unwrap());
    // A fixed, well-conditioned square-ish projection (3 -> 3).
    let w = Tensor::from_data(
        TensorData::from_vec(
            vec![0.5, -0.2, 0.1, 0.3, 0.4, -0.1, -0.3, 0.2, 0.6],
            Shape::from([3, 3]),
        )
        .unwrap(),
    );
    (x, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analytic_matches_finite_difference(
        node in arb_node(),
        xs in prop::collection::vec(-0.9f64..0.9, 6..=6),
    ) {
        tf_eager::init();
        let (x, w) = tensors(&xs);
        let Ok(base) = loss(&node, &x, &w) else { return Ok(()) };
        if !base.is_finite() {
            return Ok(());
        }

        let tape = GradientTape::new();
        tape.watch(&x);
        let y = eval(&node, &x, &w).unwrap();
        let l = api::reduce_sum(&y, &[], false).unwrap();
        let g = tape.gradient1(&l, &x).unwrap().to_f64_vec().unwrap();

        let eps = 1e-6;
        for i in 0..xs.len() {
            let mut plus = xs.clone();
            plus[i] += eps;
            let mut minus = xs.clone();
            minus[i] -= eps;
            let (xp, _) = tensors(&plus);
            let (xm, _) = tensors(&minus);
            let fd = (loss(&node, &xp, &w).unwrap() - loss(&node, &xm, &w).unwrap()) / (2.0 * eps);
            let scale = 1.0 + fd.abs().max(g[i].abs());
            prop_assert!(
                (fd - g[i]).abs() / scale < 1e-4,
                "elem {i}: fd={fd} analytic={} node={:?}",
                g[i],
                node
            );
        }
    }

    #[test]
    fn reduce_prod_gradient_matches_fd_with_zeros(
        xs in prop::collection::vec(-2.0f64..2.0, 6..=6),
        zero_count in 0usize..=2,
    ) {
        // The product is linear in each element, so central differences are
        // exact — including at zeros. Plant 0, 1, or 2 exact zeros.
        tf_eager::init();
        let mut xs = xs;
        for i in 0..zero_count {
            xs[i * 2] = 0.0;
        }
        let grad_of = |vals: &[f64]| -> Vec<f64> {
            let x = Tensor::from_data(
                TensorData::from_vec(vals.to_vec(), Shape::from([6])).unwrap(),
            );
            let tape = GradientTape::new();
            tape.watch(&x);
            let y = api::reduce_prod(&x, &[], false).unwrap();
            tape.gradient1(&y, &x).unwrap().to_f64_vec().unwrap()
        };
        let prod_of = |vals: &[f64]| -> f64 { vals.iter().product() };
        let g = grad_of(&xs);
        let eps = 1e-3;
        for i in 0..xs.len() {
            let mut plus = xs.clone();
            plus[i] += eps;
            let mut minus = xs.clone();
            minus[i] -= eps;
            let fd = (prod_of(&plus) - prod_of(&minus)) / (2.0 * eps);
            let scale = 1.0 + fd.abs().max(g[i].abs());
            prop_assert!(
                (fd - g[i]).abs() / scale < 1e-6,
                "elem {i}: fd={fd} analytic={} xs={xs:?} (zeros={zero_count})",
                g[i]
            );
        }
    }

    #[test]
    fn staged_gradient_matches_finite_difference(
        node in arb_node(),
        xs in prop::collection::vec(-0.9f64..0.9, 6..=6),
    ) {
        tf_eager::init();
        let (x, w) = tensors(&xs);
        let Ok(base) = loss(&node, &x, &w) else { return Ok(()) };
        if !base.is_finite() {
            return Ok(());
        }
        let node2 = node.clone();
        let w2 = w.clone();
        let staged = function("gradcheck_staged", move |args: &[Arg]| {
            let x = args[0].as_tensor().expect("x");
            let y = eval(&node2, x, &w2)?;
            Ok(vec![api::reduce_sum(&y, &[], false)?])
        });
        let tape = GradientTape::new();
        tape.watch(&x);
        let l = staged.call(&[Arg::from(&x)]).unwrap().remove(0);
        let g = tape.gradient1(&l, &x).unwrap().to_f64_vec().unwrap();
        let eps = 1e-6;
        for i in 0..xs.len() {
            let mut plus = xs.clone();
            plus[i] += eps;
            let mut minus = xs.clone();
            minus[i] -= eps;
            let (xp, _) = tensors(&plus);
            let (xm, _) = tensors(&minus);
            let fd = (loss(&node, &xp, &w).unwrap() - loss(&node, &xm, &w).unwrap()) / (2.0 * eps);
            let scale = 1.0 + fd.abs().max(g[i].abs());
            prop_assert!(
                (fd - g[i]).abs() / scale < 1e-4,
                "staged elem {i}: fd={fd} analytic={} node={:?}",
                g[i],
                node
            );
        }
    }
}

/// Closed-form zero cases for the reduce_prod gradient, eager and staged.
/// The masked gradient must produce: with no zeros the usual `prod/x_i`;
/// with one zero the zero element gets the product of the non-zeros and all
/// others get 0; with two or more zeros everything is 0.
#[test]
fn reduce_prod_gradient_zero_cases_closed_form() {
    tf_eager::init();
    let grad_of = |vals: &[f64], axes: &[i64], shape: &[usize]| -> Vec<f64> {
        let x = Tensor::from_data(
            TensorData::from_vec(vals.to_vec(), Shape::from(shape.to_vec())).unwrap(),
        );
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = api::reduce_prod(&x, axes, false).unwrap();
        let l = api::reduce_sum(&y, &[], false).unwrap();
        tape.gradient1(&l, &x).unwrap().to_f64_vec().unwrap()
    };

    // No zeros: classic prod/x_i.
    assert_eq!(grad_of(&[2.0, 3.0, 4.0], &[], &[3]), vec![12.0, 8.0, 6.0]);
    // One zero: that element gets the product of the others; the rest 0.
    assert_eq!(grad_of(&[2.0, 3.0, 0.0, 5.0], &[], &[4]), vec![0.0, 0.0, 30.0, 0.0]);
    // Two zeros: everything 0.
    assert_eq!(grad_of(&[0.0, 3.0, 0.0, 5.0], &[], &[4]), vec![0.0; 4]);
    // Per-axis reduction: each row is its own group.
    assert_eq!(
        grad_of(&[1.0, 0.0, 3.0, 2.0, 4.0, 5.0], &[1], &[2, 3]),
        vec![0.0, 3.0, 0.0, 20.0, 10.0, 8.0]
    );

    // Staged: the same gradient must come out of a traced function.
    let staged = function("prod_grad_staged", |args: &[Arg]| {
        let x = args[0].as_tensor().expect("x");
        Ok(vec![api::reduce_prod(x, &[], false)?])
    });
    let x = Tensor::from_data(
        TensorData::from_vec(vec![2.0, 3.0, 0.0, 5.0], Shape::from([4])).unwrap(),
    );
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = staged.call(&[Arg::from(&x)]).unwrap().remove(0);
    let g = tape.gradient1(&y, &x).unwrap().to_f64_vec().unwrap();
    assert_eq!(g, vec![0.0, 0.0, 30.0, 0.0]);
}
