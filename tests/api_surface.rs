//! Coverage of the public op surface: every `api::*` wrapper is exercised
//! eagerly AND inside a trace, confirming the two paths share one
//! catalog/kernels/inference (§1's central implementation claim).

mod common;

use common::same_bits;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;

/// Run `build` eagerly and staged; assert bit-identical outputs (dtype,
/// shape and every element's bits: an i64 beyond 2^53, a NaN's payload and
/// a zero's sign included).
fn both_modes(
    name: &str,
    build: impl Fn(&[Tensor]) -> Result<Vec<Tensor>, RuntimeError> + Send + Sync + Clone + 'static,
    inputs: Vec<Tensor>,
) {
    tf_eager::init();
    let eager = build(&inputs).unwrap();
    let staged_fn = function(name, move |args: &[Arg]| {
        let tensors: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
        build(&tensors)
    });
    let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
    let staged = staged_fn.call(&args).unwrap();
    assert_eq!(eager.len(), staged.len());
    for (i, (e, s)) in eager.iter().zip(&staged).enumerate() {
        let (e, s) = (e.value().unwrap(), s.value().unwrap());
        assert!(same_bits(&e, &s), "{name} output {i}: {e:?} vs {s:?}");
    }
}

fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
    Tensor::from_data(TensorData::from_vec(v, Shape::new(s.to_vec())).unwrap())
}

#[test]
fn elementwise_surface() {
    both_modes(
        "surface_ew",
        |xs| {
            let a = &xs[0];
            let b = &xs[1];
            Ok(vec![
                api::pow(a, b)?,
                api::squared_difference(a, b)?,
                api::floor_div(a, b)?,
                api::modulo(a, b)?,
                api::log1p(a)?,
                api::rsqrt(a)?,
                api::reciprocal(a)?,
                api::erf(a)?,
                api::sign(a)?,
                api::floor(a)?,
                api::ceil(a)?,
                api::round(a)?,
                api::abs(&api::neg(a)?)?,
            ])
        },
        vec![t(vec![1.5, 2.5, 0.5], &[3]), t(vec![2.0, 0.5, 3.0], &[3])],
    );
}

#[test]
fn comparison_and_logic_surface() {
    both_modes(
        "surface_cmp",
        |xs| {
            let a = &xs[0];
            let b = &xs[1];
            let lt = api::less(a, b)?;
            let le = api::less_equal(a, b)?;
            let ne = api::not_equal(a, b)?;
            let ge = api::greater_equal(a, b)?;
            Ok(vec![
                api::logical_or(&lt, &ne)?,
                api::logical_and(&le, &ge)?,
                api::logical_not(&lt)?,
                api::select(&lt, a, b)?,
                api::cast(&lt, DType::F32)?,
            ])
        },
        vec![t(vec![1.0, 5.0, 3.0], &[3]), t(vec![2.0, 5.0, 1.0], &[3])],
    );
}

/// Int64 values beyond 2^53 keep their exact value through comparison,
/// `select`, `reduce_sum`, `argmax` and `cumsum`, eagerly and staged alike.
/// `both_modes` compares through `f64`, which rounds them, so this case
/// compares exact values.
#[test]
fn int64_beyond_2_53_exact_eager_and_staged() {
    tf_eager::init();
    let big = 1i64 << 53;
    let build = |xs: &[Tensor]| -> Result<Vec<Tensor>, RuntimeError> {
        let (x, y) = (&xs[0], &xs[1]);
        Ok(vec![
            api::cast(&api::equal(x, y)?, DType::I64)?,
            api::select(&api::greater(x, y)?, x, y)?,
            api::reduce_sum(x, &[], false)?,
            api::argmax(x, 0)?,
            api::cumsum(x, 0)?,
        ])
    };
    let x = api::constant(vec![big, big + 1, 1], [3]).unwrap();
    let y = api::constant(vec![big, big, big + 2], [3]).unwrap();
    let want = [
        vec![1, 0, 0],
        vec![big, big + 1, big + 2],
        vec![2 * big + 2],
        vec![1],
        vec![big, 2 * big + 1, 2 * big + 2],
    ];
    let eager = build(&[x.clone(), y.clone()]).unwrap();
    let staged = function("surface_int64_exact", move |args: &[Arg]| {
        let tensors: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
        build(&tensors)
    })
    .call(&[Arg::from(&x), Arg::from(&y)])
    .unwrap();
    for (mode, outs) in [("eager", eager), ("staged", staged)] {
        let got: Vec<Vec<i64>> = outs.iter().map(|t| t.value().unwrap().to_i64_vec()).collect();
        assert_eq!(got, want, "{mode}");
    }
}

#[test]
fn structural_surface() {
    both_modes(
        "surface_struct",
        |xs| {
            let a = &xs[0]; // (2, 3)
            let tiled = api::tile(a, &[2, 1])?; // (4, 3)
            let broad = api::broadcast_to(&api::reshape(a, &[2, 3, 1])?, &[2, 3, 2])?;
            let stacked = api::stack(&[a, a], 0)?; // (2, 2, 3)
            let unstacked = api::unstack(a, 1)?; // 3 x (2,)
            let padded = api::pad(a, &[(1, 0), (0, 2)], -1.0)?;
            let sliced = api::slice(&padded, &[1, 0], &[2, 3])?;
            let split = api::split(a, 3, 1)?;
            let cat = api::concat(&[&split[2], &split[0]], 1)?;
            Ok(vec![
                tiled,
                broad,
                stacked,
                unstacked[1].clone(),
                sliced,
                cat,
                api::expand_dims(a, 0)?,
                api::squeeze(&api::reshape(a, &[1, 2, 1, 3])?, &[])?,
                api::transpose(a, &[1, 0])?,
                api::shape_of(a)?,
            ])
        },
        vec![t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])],
    );
}

#[test]
fn gather_one_hot_surface() {
    tf_eager::init();
    let params = t(vec![10.0, 20.0, 30.0, 40.0], &[4]);
    let idx = Tensor::from_data(TensorData::from_vec(vec![3i64, 0, 3], Shape::from([3])).unwrap());
    let build = move |xs: &[Tensor]| -> Result<Vec<Tensor>, RuntimeError> {
        let g = api::gather(&xs[0], &xs[1], 0)?;
        let oh = api::one_hot(&xs[1], 4, DType::F32)?;
        let am = api::argmax(&oh, -1)?;
        let amin = api::argmin(&oh, -1)?;
        let cs = api::cumsum(&g, 0)?;
        Ok(vec![g, oh, api::cast(&am, DType::F32)?, api::cast(&amin, DType::F32)?, cs])
    };
    both_modes("surface_gather", build, vec![params, idx]);
}

#[test]
fn reduction_surface() {
    both_modes(
        "surface_reduce",
        |xs| {
            let a = &xs[0];
            let b = api::greater(a, &api::scalar(2.0f32))?;
            Ok(vec![
                api::reduce_prod(a, &[0], false)?,
                api::reduce_min(a, &[1], true)?,
                api::reduce_max(a, &[], false)?,
                api::cast(&api::reduce_any(&b, &[0], false)?, DType::F32)?,
                api::cast(&api::reduce_all(&b, &[1], false)?, DType::F32)?,
                api::log_softmax(a)?,
            ])
        },
        vec![t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])],
    );
}

#[test]
fn nn_surface() {
    both_modes(
        "surface_nn",
        |xs| {
            let img = &xs[0];
            let filter = &xs[1];
            let c = api::conv2d(img, filter, (1, 1), "SAME")?;
            let mp = api::max_pool(&c, (2, 2), (2, 2), "VALID")?;
            let ap = api::avg_pool(&c, (2, 2), (2, 2), "VALID")?;
            Ok(vec![c, mp, ap])
        },
        vec![
            t((0..32).map(|i| i as f32 * 0.1).collect(), &[1, 4, 4, 2]),
            t((0..8).map(|i| i as f32 * 0.2 - 0.5).collect(), &[2, 2, 2, 1]),
        ],
    );
}

#[test]
fn batch_matmul_surface() {
    both_modes(
        "surface_bmm",
        |xs| Ok(vec![api::batch_matmul(&xs[0], &xs[1])?]),
        vec![
            t((0..12).map(|i| i as f32).collect(), &[2, 2, 3]),
            t((0..6).map(|i| i as f32 * 0.5).collect(), &[1, 3, 2]),
        ],
    );
}

#[test]
fn constructor_surface() {
    both_modes(
        "surface_ctors",
        |_| {
            Ok(vec![
                api::eye(DType::F32, 3)?,
                api::range(DType::F32, 1.0, 2.0, 5)?,
                api::zeros(DType::F32, [2, 2]),
                api::ones(DType::F32, [2, 2]),
            ])
        },
        vec![t(vec![0.0], &[1])],
    );
}

#[test]
fn xent_surface() {
    tf_eager::init();
    let logits = t(vec![2.0, -1.0, 0.5, 0.0, 1.0, -0.5], &[2, 3]);
    let labels = Tensor::from_data(TensorData::from_vec(vec![0i64, 1], Shape::from([2])).unwrap());
    both_modes(
        "surface_xent",
        |xs| Ok(vec![api::sparse_softmax_xent(&xs[0], &xs[1])?, api::softmax(&xs[0])?]),
        vec![logits, labels],
    );
}

#[test]
fn operators_on_tensors() {
    tf_eager::init();
    let a = t(vec![1.0, 2.0], &[2]);
    let b = t(vec![4.0, 8.0], &[2]);
    assert_eq!((&a + &b).to_f64_vec().unwrap(), vec![5.0, 10.0]);
    assert_eq!((&b - &a).to_f64_vec().unwrap(), vec![3.0, 6.0]);
    assert_eq!((&a * &b).to_f64_vec().unwrap(), vec![4.0, 16.0]);
    assert_eq!((&b / &a).to_f64_vec().unwrap(), vec![4.0, 4.0]);
    assert_eq!((-&a).to_f64_vec().unwrap(), vec![-1.0, -2.0]);
    // Owned-value operators too.
    let c = a.clone() + b.clone();
    assert_eq!(c.to_f64_vec().unwrap(), vec![5.0, 10.0]);
}

#[test]
#[should_panic(expected = "tensor add")]
fn operator_panics_on_type_error() {
    tf_eager::init();
    let a = t(vec![1.0], &[1]);
    let b = Tensor::from_data(TensorData::from_vec(vec![1i32], Shape::from([1])).unwrap());
    let _ = &a + &b;
}
