//! Degenerate batching shapes the serving batcher hits on quiet traffic:
//! batch of 1, zero-row members, single-part split — through the concat /
//! split / reduce kernels and their gradients. Regression suite for the
//! panics fixed alongside the serving layer (zero-element reduce outputs,
//! negative `split` counts).

use tf_eager::prelude::*;
use tf_eager::GradientTape;

#[test]
fn concat_single_part() {
    let a = api::constant(vec![1.0f32, 2.0], [1, 2]).unwrap();
    let r = api::concat(&[&a], 0).unwrap();
    assert_eq!(r.to_f64_vec().unwrap(), vec![1.0, 2.0]);
}

#[test]
fn split_single_part() {
    let a = api::constant(vec![1.0f32, 2.0], [1, 2]).unwrap();
    let r = api::split(&a, 1, 0).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].to_f64_vec().unwrap(), vec![1.0, 2.0]);
}

/// Zero-row tensors must flow through the whole MLP-style op chain —
/// concat, split, matmul, broadcast add, relu, softmax, reductions.
/// `reduce` used to panic on zero-element outputs (accumulator sized
/// `max(out_n, 1)` desynced from the output length).
#[test]
fn zero_row_tensor_ops() {
    let z = api::zeros(DType::F32, [0, 2]);
    let a = api::constant(vec![1.0f32, 2.0], [1, 2]).unwrap();
    let r = api::concat(&[&z, &a], 0).unwrap();
    assert_eq!(r.shape().unwrap().dims(), &[1, 2]);
    let parts = api::split(&z, 1, 0).unwrap();
    assert_eq!(parts[0].shape().unwrap().dims(), &[0, 2]);
    let w = api::constant(vec![1.0f32, 0.0, 0.0, 1.0], [2, 2]).unwrap();
    let m = api::matmul(&z, &w).unwrap();
    let b = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
    let s = api::add(&m, &b).unwrap();
    let sm = api::softmax(&api::relu(&s).unwrap()).unwrap();
    assert_eq!(sm.shape().unwrap().dims(), &[0, 2]);
    // Reduce over the row axis: zero-element output, must not panic.
    let red = api::reduce_sum(&sm, &[1], false).unwrap();
    assert_eq!(red.shape().unwrap().dims(), &[0]);
    assert_eq!(red.to_f64_vec().unwrap(), Vec::<f64>::new());
    // keep_dims variant.
    let red_k = api::reduce_sum(&sm, &[1], true).unwrap();
    assert_eq!(red_k.shape().unwrap().dims(), &[0, 1]);
    // Mean/prod over the same empty output shape.
    assert_eq!(api::reduce_mean(&sm, &[1], false).unwrap().shape().unwrap().dims(), &[0]);
    // Reducing the zero-extent axis itself still yields identities.
    let col = api::reduce_sum(&sm, &[0], false).unwrap();
    assert_eq!(col.to_f64_vec().unwrap(), vec![0.0, 0.0]);
    // Max/min over an empty extent stays a typed error, not a panic.
    assert!(api::reduce_max(&sm, &[0], false).is_err());
}

#[test]
fn concat_grad_single_and_zero() {
    let a = api::constant(vec![1.0f32, 2.0], [1, 2]).unwrap();
    let z = api::zeros(DType::F32, [0, 2]);
    let tape = GradientTape::new();
    tape.watch(&a);
    tape.watch(&z);
    let c = api::concat(&[&z, &a], 0).unwrap();
    let y = api::reduce_sum(&c, &[0, 1], false).unwrap();
    let g = tape.gradient(&y, &[&a, &z]).unwrap();
    assert_eq!(g[0].as_ref().unwrap().shape().unwrap().dims(), &[1, 2]);
    assert_eq!(g[1].as_ref().unwrap().shape().unwrap().dims(), &[0, 2]);
}

#[test]
fn split_grad_single_part() {
    let a = api::constant(vec![1.0f32, 2.0], [1, 2]).unwrap();
    let tape = GradientTape::new();
    tape.watch(&a);
    let parts = api::split(&a, 1, 0).unwrap();
    let y = api::reduce_sum(&parts[0], &[0, 1], false).unwrap();
    let g = tape.gradient1(&y, &a).unwrap();
    assert_eq!(g.to_f64_vec().unwrap(), vec![1.0, 1.0]);
}

#[test]
fn split_grad_partial_use() {
    let a = api::constant(vec![1.0f32, 2.0, 3.0, 4.0], [2, 2]).unwrap();
    let tape = GradientTape::new();
    tape.watch(&a);
    let parts = api::split(&a, 2, 0).unwrap();
    let y = api::reduce_sum(&parts[0], &[0, 1], false).unwrap();
    let g = tape.gradient1(&y, &a).unwrap();
    assert_eq!(g.to_f64_vec().unwrap(), vec![1.0, 1.0, 0.0, 0.0]);
}

/// A negative `num` attribute used to wrap to a huge usize and abort on a
/// capacity overflow when the axis extent was 0; now a typed error on both
/// the OpDef (shape inference) and kernel paths.
#[test]
fn split_rejects_non_positive_num() {
    let z = api::zeros(DType::F32, [0, 2]);
    for num in [-3i64, 0] {
        let r = tf_eager::context::execute(
            tf_eager::Op::Split,
            std::slice::from_ref(&z),
            tf_eager::Attrs::new().with("num", num).with("axis", 0i64),
        );
        assert!(r.is_err(), "split num={num} must be a typed error, not a panic");
    }
    // The typed-API path (usize) rejects 0 as well.
    assert!(api::split(&z, 0, 0).is_err());
}

/// An empty spatial extent under SAME padding resolves to an empty output
/// with no padding. `Padding::resolve` used to compute `(out - 1) * stride`
/// with `out == 0`: a debug build panicked on the subtraction, a release
/// build wrapped to a huge pad.
#[test]
fn conv_and_pool_on_an_empty_spatial_extent() {
    let x = api::zeros(DType::F32, [1, 0, 4, 1]);
    let f = api::constant(vec![1.0f32; 18], [3, 3, 1, 2]).unwrap();
    let y = api::conv2d(&x, &f, (1, 1), "SAME").unwrap();
    assert_eq!(y.dtype(), DType::F32);
    assert_eq!(y.shape().unwrap().dims(), &[1, 0, 4, 2]);
    assert_eq!(y.to_f64_vec().unwrap(), Vec::<f64>::new());
    let p = api::max_pool(&x, (2, 2), (2, 2), "SAME").unwrap();
    assert_eq!(p.dtype(), DType::F32);
    assert_eq!(p.shape().unwrap().dims(), &[1, 0, 2, 1]);
    assert_eq!(p.to_f64_vec().unwrap(), Vec::<f64>::new());
}
