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
/// capacity overflow when the axis extent was 0; now a typed error where
/// the attributes are decoded, and where typed parameters are checked.
#[test]
fn split_rejects_non_positive_num() {
    let z = api::zeros(DType::F32, [0, 2]);
    for num in [-3i64, 0] {
        let attrs = tf_eager::Attrs::new().with("num", num).with("axis", 0i64);
        let r = tf_eager::Params::decode(tf_eager::Op::Split, &attrs);
        assert!(r.is_err(), "split num={num} must be a typed error, not a panic");
    }
    let zero = tf_eager::Params::Split { num: 0, axis: 0 };
    let r = tf_eager::context::execute(tf_eager::Op::Split, std::slice::from_ref(&z), zero);
    assert!(r.is_err(), "split num=0 must be a typed error, not a panic");
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

/// Attributes that make a count or a dim negative, one set per op that takes
/// one, with the key that is refused and the dtype of the op's input.
fn negative_counts() -> Vec<(&'static str, tf_eager::Attrs, &'static str, Option<DType>)> {
    let dtype = || tf_eager::Attrs::new().with("dtype", DType::F32);
    let shape = || dtype().with("shape", vec![2i64, -1]);
    vec![
        ("range", dtype().with("count", -1i64), "count", None),
        ("eye", dtype().with("n", -1i64), "n", None),
        ("one_hot", dtype().with("depth", -1i64), "depth", Some(DType::I64)),
        (
            "split",
            tf_eager::Attrs::new().with("num", -1i64).with("axis", 0i64),
            "num",
            Some(DType::F32),
        ),
        ("fill", shape(), "shape", None),
        ("random_normal", shape(), "shape", None),
        ("random_uniform", shape(), "shape", None),
        ("truncated_normal", shape(), "shape", None),
    ]
}

/// A negative count or dim is refused where the builder decodes the
/// attributes, with a typed error naming the key: it never reaches
/// inference or a kernel (a negative `range` count used to be accepted and
/// then abort the kernel on a capacity overflow; a negative `eye` size
/// wrapped to a one-element matrix and a loop of about 2^64 trips).
#[test]
fn negative_counts_and_dims_are_refused_at_add_node() {
    use tf_eager::graph::GraphBuilder;
    for (op, attrs, key, input) in negative_counts() {
        let mut b = GraphBuilder::new("negative_counts");
        let inputs = match input {
            Some(dtype) => {
                vec![b.placeholder(dtype, tfe_ops::SymShape::new(vec![Some(4)])).unwrap()]
            }
            None => Vec::new(),
        };
        match b.add_node(op, inputs, attrs) {
            Err(tf_eager::OpError::Attr(e)) => assert_eq!(e.key, key, "{op}"),
            other => panic!("{op}: want a typed attribute error, got {other:?}"),
        }
        assert_eq!(b.num_nodes(), usize::from(input.is_some()), "{op}: nothing was appended");
    }
}

/// A value of the wrong type is refused, not replaced by the default:
/// `padding: 7` used to run as `SAME`, and a non-string `print` message
/// used to print as `""`.
#[test]
fn mistyped_parameters_are_refused_not_defaulted() {
    use tf_eager::graph::GraphBuilder;
    use tf_eager::Attrs;
    let mut b = GraphBuilder::new("mistyped");
    let x =
        b.placeholder(DType::F32, tfe_ops::SymShape::new(vec![Some(1), Some(4), Some(4), Some(2)]));
    let f =
        b.placeholder(DType::F32, tfe_ops::SymShape::new(vec![Some(3), Some(3), Some(2), Some(2)]));
    let (x, f) = (x.unwrap(), f.unwrap());
    let padding = Attrs::new().with("strides", vec![1i64, 1]).with("padding", 7i64);
    match b.add_node("conv2d", vec![x, f], padding) {
        Err(tf_eager::OpError::Attr(e)) => assert_eq!(e.key, "padding"),
        other => panic!("padding: want a typed attribute error, got {other:?}"),
    }
    match b.add_node("print", vec![x], Attrs::new().with("message", 3i64)) {
        Err(tf_eager::OpError::Attr(e)) => assert_eq!(e.key, "message"),
        other => panic!("message: want a typed attribute error, got {other:?}"),
    }
    // Spelled right, both are accepted; a missing padding is `SAME`.
    let same = Attrs::new().with("padding", "SAME");
    assert!(b.add_node("conv2d", vec![x, f], same).is_ok());
    assert!(b.add_node("conv2d", vec![x, f], Attrs::new()).is_ok());
    assert!(b.add_node("print", vec![x], Attrs::new().with("message", "x = ")).is_ok());
}
