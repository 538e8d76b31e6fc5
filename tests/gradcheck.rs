//! Property-based gradient checking: analytic gradients of random op
//! compositions must match central finite differences, eagerly and through
//! staged calls. This is the strongest evidence the §4.2 machinery is
//! implemented correctly across the whole op surface.

mod common;

use common::fuzz_cases;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_tensor::rng::{each_seed, Rng};

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

/// `x`, or with odds two in three (while `depth` lasts) one of four ops
/// over subtrees.
fn arb_node(rng: &mut Rng, depth: u32) -> Box<Node> {
    if depth == 0 || rng.range(0u32..3) == 0 {
        return Box::new(Node::X);
    }
    let sub = |rng: &mut Rng| arb_node(rng, depth - 1);
    Box::new(match rng.range(0u32..4) {
        0 => Node::Unary(SMOOTH_UNARY[rng.range(0..SMOOTH_UNARY.len())], sub(rng)),
        1 => Node::Binary(SMOOTH_BINARY[rng.range(0..SMOOTH_BINARY.len())], sub(rng), sub(rng)),
        2 => Node::MeanLast(sub(rng)),
        _ => Node::MatmulW(sub(rng)),
    })
}

/// Six values in `(-bound, bound)`: the elements of a `(2, 3)` input.
fn six(rng: &mut Rng, bound: f64) -> Vec<f64> {
    (0..6).map(|_| rng.range(-bound..bound)).collect()
}

fn eval(node: &Node, x: &Tensor, w: &Tensor) -> Result<Tensor, RuntimeError> {
    match node {
        Node::X => Ok(x.clone()),
        Node::Unary(op, n) => {
            let v = eval(n, x, w)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[v], tfe_ops::Params::None).map(|mut o| o.remove(0))
        }
        Node::Binary(op, a, b) => {
            let a = eval(a, x, w)?;
            let b = eval(b, x, w)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[a, b], tfe_ops::Params::None)
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

#[test]
fn analytic_matches_finite_difference() {
    each_seed(fuzz_cases(48), |rng| {
        let (node, xs) = (arb_node(rng, 3), six(rng, 0.9));
        tf_eager::init();
        let (x, w) = tensors(&xs);
        let Ok(base) = loss(&node, &x, &w) else { return };
        if !base.is_finite() {
            return;
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
            assert!(
                (fd - g[i]).abs() / scale < 1e-4,
                "elem {i}: fd={fd} analytic={} node={:?}",
                g[i],
                node
            );
        }
    });
}

#[test]
fn reduce_prod_gradient_matches_fd_with_zeros() {
    each_seed(fuzz_cases(48), |rng| {
        let (xs, zero_count) = (six(rng, 2.0), rng.range(0..=2));
        // The product is linear in each element, so central differences are
        // exact — including at zeros. Plant 0, 1, or 2 exact zeros.
        tf_eager::init();
        let mut xs = xs;
        for i in 0..zero_count {
            xs[i * 2] = 0.0;
        }
        let grad_of = |vals: &[f64]| -> Vec<f64> {
            let x =
                Tensor::from_data(TensorData::from_vec(vals.to_vec(), Shape::from([6])).unwrap());
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
            assert!(
                (fd - g[i]).abs() / scale < 1e-6,
                "elem {i}: fd={fd} analytic={} xs={xs:?} (zeros={zero_count})",
                g[i]
            );
        }
    });
}

#[test]
fn staged_gradient_matches_finite_difference() {
    each_seed(fuzz_cases(48), |rng| {
        let (node, xs) = (arb_node(rng, 3), six(rng, 0.9));
        tf_eager::init();
        let (x, w) = tensors(&xs);
        let Ok(base) = loss(&node, &x, &w) else { return };
        if !base.is_finite() {
            return;
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
            assert!(
                (fd - g[i]).abs() / scale < 1e-4,
                "staged elem {i}: fd={fd} analytic={} node={:?}",
                g[i],
                node
            );
        }
    });
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
