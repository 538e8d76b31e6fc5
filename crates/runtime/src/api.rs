//! User-visible operation wrappers — the `tf.*` surface of the paper's
//! listings. Every function here works identically in imperative and staged
//! mode because it funnels through [`crate::context::execute`].

use crate::context::execute;
use crate::error::{Result, RuntimeError};
use crate::tensor::Tensor;
use tfe_ops::{Attrs, BinaryOp, CmpOp, LogicalOp, Op, UnaryOp};
use tfe_tensor::{DType, Scalar, Shape, TensorData};

fn one(mut v: Vec<Tensor>) -> Tensor {
    v.remove(0)
}

fn run1(op: Op, inputs: &[&Tensor], attrs: Attrs) -> Result<Tensor> {
    let owned: Vec<Tensor> = inputs.iter().map(|t| (*t).clone()).collect();
    Ok(one(execute(op, &owned, attrs)?))
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

/// `tf.constant`: build a tensor from data. In a graph-building context the
/// value is embedded as a `const` node (which is exactly how the paper's
/// `add_noise` example bakes host randomness into a trace).
pub fn constant_data(value: TensorData) -> Tensor {
    if crate::context::is_tracing() {
        match crate::context::trace_constant(value) {
            Ok(t) => t,
            Err(e) => panic!("failed to record constant during tracing: {e}"),
        }
    } else {
        Tensor::from_data(value)
    }
}

/// A scalar constant.
pub fn scalar<T: Scalar>(v: T) -> Tensor {
    constant_data(TensorData::scalar(v))
}

/// A constant from a flat vector and shape.
///
/// # Errors
/// Element-count mismatch.
pub fn constant<T: Scalar>(data: Vec<T>, shape: impl Into<Shape>) -> Result<Tensor> {
    Ok(constant_data(TensorData::from_vec(data, shape)?))
}

/// A zero-filled tensor.
pub fn zeros(dtype: DType, shape: impl Into<Shape>) -> Tensor {
    constant_data(TensorData::zeros(dtype, shape))
}

/// A one-filled tensor.
pub fn ones(dtype: DType, shape: impl Into<Shape>) -> Tensor {
    constant_data(TensorData::ones(dtype, shape))
}

/// The n×n identity matrix (`tf.eye`).
///
/// # Errors
/// Execution failures.
pub fn eye(dtype: DType, n: usize) -> Result<Tensor> {
    run1(Op::Eye, &[], Attrs::new().with("dtype", dtype).with("n", n as i64))
}

/// `[start, start + step, ...)` with `count` elements (`tf.range`).
///
/// # Errors
/// Execution failures.
pub fn range(dtype: DType, start: f64, step: f64, count: usize) -> Result<Tensor> {
    run1(
        Op::Range,
        &[],
        Attrs::new()
            .with("dtype", dtype)
            .with("start", start)
            .with("step", step)
            .with("count", count as i64),
    )
}

/// Stateful standard-normal sampling (`tf.random_normal`); correctly stays
/// an operation under tracing, unlike host-side RNG (§4.1).
///
/// # Errors
/// Execution failures.
pub fn random_normal(
    dtype: DType,
    shape: impl Into<Shape>,
    mean: f64,
    stddev: f64,
) -> Result<Tensor> {
    let dims: Vec<i64> = shape.into().dims().iter().map(|&d| d as i64).collect();
    run1(
        Op::RandomNormal,
        &[],
        Attrs::new()
            .with("dtype", dtype)
            .with("shape", dims)
            .with("mean", mean)
            .with("stddev", stddev),
    )
}

/// Stateful uniform sampling on `[low, high)`.
///
/// # Errors
/// Execution failures.
pub fn random_uniform(
    dtype: DType,
    shape: impl Into<Shape>,
    low: f64,
    high: f64,
) -> Result<Tensor> {
    let dims: Vec<i64> = shape.into().dims().iter().map(|&d| d as i64).collect();
    run1(
        Op::RandomUniform,
        &[],
        Attrs::new().with("dtype", dtype).with("shape", dims).with("low", low).with("high", high),
    )
}

/// Truncated-normal sampling (the classic initializer distribution).
///
/// # Errors
/// Execution failures.
pub fn truncated_normal(dtype: DType, shape: impl Into<Shape>, stddev: f64) -> Result<Tensor> {
    let dims: Vec<i64> = shape.into().dims().iter().map(|&d| d as i64).collect();
    run1(
        Op::TruncatedNormal,
        &[],
        Attrs::new()
            .with("dtype", dtype)
            .with("shape", dims)
            .with("mean", 0.0)
            .with("stddev", stddev),
    )
}

// ---------------------------------------------------------------------------
// Elementwise math
// ---------------------------------------------------------------------------

macro_rules! binary_fn {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        /// # Errors
        /// Dtype/broadcast mismatches.
        pub fn $name(a: &Tensor, b: &Tensor) -> Result<Tensor> {
            run1($op, &[a, b], Attrs::new())
        }
    };
}

macro_rules! unary_fn {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        /// # Errors
        /// Unsupported dtype.
        pub fn $name(a: &Tensor) -> Result<Tensor> {
            run1($op, &[a], Attrs::new())
        }
    };
}

binary_fn!(
    #[doc = "Elementwise `a + b` with broadcasting."]
    add,
    Op::Binary(BinaryOp::Add)
);
binary_fn!(
    #[doc = "Elementwise `a - b` with broadcasting."]
    sub,
    Op::Binary(BinaryOp::Sub)
);
binary_fn!(
    #[doc = "Elementwise `a * b` with broadcasting."]
    mul,
    Op::Binary(BinaryOp::Mul)
);
binary_fn!(
    #[doc = "Elementwise `a / b` with broadcasting."]
    div,
    Op::Binary(BinaryOp::Div)
);
binary_fn!(
    #[doc = "Elementwise floored division."]
    floor_div,
    Op::Binary(BinaryOp::FloorDiv)
);
binary_fn!(
    #[doc = "Elementwise modulo (Python sign convention)."]
    modulo,
    Op::Binary(BinaryOp::Mod)
);
binary_fn!(
    #[doc = "Elementwise `a ^ b`."]
    pow,
    Op::Binary(BinaryOp::Pow)
);
binary_fn!(
    #[doc = "Elementwise maximum."]
    maximum,
    Op::Binary(BinaryOp::Maximum)
);
binary_fn!(
    #[doc = "Elementwise minimum."]
    minimum,
    Op::Binary(BinaryOp::Minimum)
);
binary_fn!(
    #[doc = "Elementwise `(a - b)^2`."]
    squared_difference,
    Op::Binary(BinaryOp::SquaredDifference)
);
binary_fn!(
    #[doc = "Elementwise equality, producing bools."]
    equal,
    Op::Compare(CmpOp::Eq)
);
binary_fn!(
    #[doc = "Elementwise inequality."]
    not_equal,
    Op::Compare(CmpOp::Ne)
);
binary_fn!(
    #[doc = "Elementwise `a < b`."]
    less,
    Op::Compare(CmpOp::Lt)
);
binary_fn!(
    #[doc = "Elementwise `a <= b`."]
    less_equal,
    Op::Compare(CmpOp::Le)
);
binary_fn!(
    #[doc = "Elementwise `a > b`."]
    greater,
    Op::Compare(CmpOp::Gt)
);
binary_fn!(
    #[doc = "Elementwise `a >= b`."]
    greater_equal,
    Op::Compare(CmpOp::Ge)
);
binary_fn!(
    #[doc = "Boolean AND."]
    logical_and,
    Op::Logical(LogicalOp::And)
);
binary_fn!(
    #[doc = "Boolean OR."]
    logical_or,
    Op::Logical(LogicalOp::Or)
);

unary_fn!(
    #[doc = "Elementwise negation."]
    neg,
    Op::Unary(UnaryOp::Neg)
);
unary_fn!(
    #[doc = "Elementwise absolute value."]
    abs,
    Op::Unary(UnaryOp::Abs)
);
unary_fn!(
    #[doc = "Elementwise sign."]
    sign,
    Op::Unary(UnaryOp::Sign)
);
unary_fn!(
    #[doc = "Elementwise `e^x`."]
    exp,
    Op::Unary(UnaryOp::Exp)
);
unary_fn!(
    #[doc = "Elementwise natural log."]
    log,
    Op::Unary(UnaryOp::Log)
);
unary_fn!(
    #[doc = "Elementwise `ln(1+x)`."]
    log1p,
    Op::Unary(UnaryOp::Log1p)
);
unary_fn!(
    #[doc = "Elementwise square root."]
    sqrt,
    Op::Unary(UnaryOp::Sqrt)
);
unary_fn!(
    #[doc = "Elementwise `1/sqrt(x)`."]
    rsqrt,
    Op::Unary(UnaryOp::Rsqrt)
);
unary_fn!(
    #[doc = "Elementwise square."]
    square,
    Op::Unary(UnaryOp::Square)
);
unary_fn!(
    #[doc = "Elementwise reciprocal."]
    reciprocal,
    Op::Unary(UnaryOp::Reciprocal)
);
unary_fn!(
    #[doc = "Rectified linear unit."]
    relu,
    Op::Unary(UnaryOp::Relu)
);
unary_fn!(
    #[doc = "Logistic sigmoid."]
    sigmoid,
    Op::Unary(UnaryOp::Sigmoid)
);
unary_fn!(
    #[doc = "Hyperbolic tangent."]
    tanh,
    Op::Unary(UnaryOp::Tanh)
);
unary_fn!(
    #[doc = "`ln(1+e^x)` (`tf.nn.softplus`, Listing 3)."]
    softplus,
    Op::Unary(UnaryOp::Softplus)
);
unary_fn!(
    #[doc = "Elementwise floor."]
    floor,
    Op::Unary(UnaryOp::Floor)
);
unary_fn!(
    #[doc = "Elementwise ceil."]
    ceil,
    Op::Unary(UnaryOp::Ceil)
);
unary_fn!(
    #[doc = "Elementwise round."]
    round,
    Op::Unary(UnaryOp::Round)
);
unary_fn!(
    #[doc = "Elementwise sine."]
    sin,
    Op::Unary(UnaryOp::Sin)
);
unary_fn!(
    #[doc = "Elementwise cosine."]
    cos,
    Op::Unary(UnaryOp::Cos)
);
unary_fn!(
    #[doc = "Gauss error function."]
    erf,
    Op::Unary(UnaryOp::Erf)
);
unary_fn!(
    #[doc = "Boolean NOT."]
    logical_not,
    Op::LogicalNot
);

/// `where(cond, a, b)` with broadcasting.
///
/// # Errors
/// Dtype/shape mismatches.
pub fn select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run1(Op::Select, &[cond, a, b], Attrs::new())
}

/// Convert to another dtype.
///
/// # Errors
/// Execution failures.
pub fn cast(a: &Tensor, dtype: DType) -> Result<Tensor> {
    run1(Op::Cast, &[a], Attrs::new().with("dtype", dtype))
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// 2-D matrix multiplication (`tf.matmul`).
///
/// # Errors
/// Rank/shape mismatches.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run1(Op::Matmul, &[a, b], Attrs::new())
}

/// Matmul with transpose flags.
///
/// # Errors
/// Rank/shape mismatches.
pub fn matmul_t(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool) -> Result<Tensor> {
    run1(
        Op::Matmul,
        &[a, b],
        Attrs::new().with("transpose_a", transpose_a).with("transpose_b", transpose_b),
    )
}

/// Batched matmul over the last two axes.
///
/// # Errors
/// Rank/shape mismatches.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run1(Op::BatchMatmul, &[a, b], Attrs::new())
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

macro_rules! reduce_fn {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        /// Empty `axes` reduces over all axes.
        ///
        /// # Errors
        /// Invalid axes or dtype.
        pub fn $name(a: &Tensor, axes: &[i64], keep_dims: bool) -> Result<Tensor> {
            run1(
                $op,
                &[a],
                Attrs::new().with("axes", axes.to_vec()).with("keep_dims", keep_dims),
            )
        }
    };
}

reduce_fn!(
    #[doc = "Sum over axes."]
    reduce_sum,
    Op::ReduceSum
);
reduce_fn!(
    #[doc = "Mean over axes."]
    reduce_mean,
    Op::ReduceMean
);
reduce_fn!(
    #[doc = "Maximum over axes."]
    reduce_max,
    Op::ReduceMax
);
reduce_fn!(
    #[doc = "Minimum over axes."]
    reduce_min,
    Op::ReduceMin
);
reduce_fn!(
    #[doc = "Product over axes."]
    reduce_prod,
    Op::ReduceProd
);
reduce_fn!(
    #[doc = "Boolean any over axes."]
    reduce_any,
    Op::ReduceAny
);
reduce_fn!(
    #[doc = "Boolean all over axes."]
    reduce_all,
    Op::ReduceAll
);

/// Index of the maximum along `axis` (int64 output).
///
/// # Errors
/// Invalid axis.
pub fn argmax(a: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::Argmax, &[a], Attrs::new().with("axis", axis))
}

/// Index of the minimum along `axis`.
///
/// # Errors
/// Invalid axis.
pub fn argmin(a: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::Argmin, &[a], Attrs::new().with("axis", axis))
}

/// Cumulative sum along `axis`.
///
/// # Errors
/// Invalid axis.
pub fn cumsum(a: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::Cumsum, &[a], Attrs::new().with("axis", axis))
}

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

/// Reshape with one optional `-1` wildcard.
///
/// # Errors
/// Element-count mismatch.
pub fn reshape(a: &Tensor, dims: &[i64]) -> Result<Tensor> {
    run1(Op::Reshape, &[a], Attrs::new().with("shape", dims.to_vec()))
}

/// Permute axes.
///
/// # Errors
/// Bad permutation.
pub fn transpose(a: &Tensor, perm: &[i64]) -> Result<Tensor> {
    run1(Op::Transpose, &[a], Attrs::new().with("perm", perm.to_vec()))
}

/// Insert a size-1 axis.
///
/// # Errors
/// Axis out of range.
pub fn expand_dims(a: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::ExpandDims, &[a], Attrs::new().with("axis", axis))
}

/// Remove size-1 axes (all of them when `axes` is empty).
///
/// # Errors
/// Named axis not of size 1.
pub fn squeeze(a: &Tensor, axes: &[i64]) -> Result<Tensor> {
    run1(Op::Squeeze, &[a], Attrs::new().with("axes", axes.to_vec()))
}

/// Concatenate along `axis`.
///
/// # Errors
/// Shape/dtype mismatches.
pub fn concat(parts: &[&Tensor], axis: i64) -> Result<Tensor> {
    let owned: Vec<Tensor> = parts.iter().map(|t| (*t).clone()).collect();
    Ok(one(execute(Op::Concat, &owned, Attrs::new().with("axis", axis))?))
}

/// Split into `num` equal parts along `axis`.
///
/// # Errors
/// `num` does not divide the axis.
pub fn split(a: &Tensor, num: usize, axis: i64) -> Result<Vec<Tensor>> {
    execute(
        Op::Split,
        std::slice::from_ref(a),
        Attrs::new().with("num", num as i64).with("axis", axis),
    )
}

/// Contiguous slice; `-1` size means "to the end".
///
/// # Errors
/// Out-of-range begin/size.
pub fn slice(a: &Tensor, begin: &[i64], size: &[i64]) -> Result<Tensor> {
    run1(Op::Slice, &[a], Attrs::new().with("begin", begin.to_vec()).with("size", size.to_vec()))
}

/// Constant-pad with `(before, after)` per axis.
///
/// # Errors
/// Rank mismatch.
pub fn pad(a: &Tensor, paddings: &[(i64, i64)], value: f64) -> Result<Tensor> {
    let flat: Vec<i64> = paddings.iter().flat_map(|&(b, e)| [b, e]).collect();
    run1(Op::Pad, &[a], Attrs::new().with("paddings", flat).with("value", value))
}

/// Gather rows/elements by integer indices along `axis`.
///
/// # Errors
/// Bad indices.
pub fn gather(a: &Tensor, indices: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::Gather, &[a, indices], Attrs::new().with("axis", axis))
}

/// Repeat each axis `multiples[i]` times.
///
/// # Errors
/// Rank mismatch.
pub fn tile(a: &Tensor, multiples: &[i64]) -> Result<Tensor> {
    run1(Op::Tile, &[a], Attrs::new().with("multiples", multiples.to_vec()))
}

/// Materialize a broadcast to `dims`.
///
/// # Errors
/// Incompatible shapes.
pub fn broadcast_to(a: &Tensor, dims: &[i64]) -> Result<Tensor> {
    run1(Op::BroadcastTo, &[a], Attrs::new().with("shape", dims.to_vec()))
}

/// One-hot encode integer indices.
///
/// # Errors
/// Non-integer indices.
pub fn one_hot(indices: &Tensor, depth: usize, dtype: DType) -> Result<Tensor> {
    run1(Op::OneHot, &[indices], Attrs::new().with("depth", depth as i64).with("dtype", dtype))
}

/// Stack equal-shaped tensors along a new axis.
///
/// # Errors
/// Mismatched parts.
pub fn stack(parts: &[&Tensor], axis: i64) -> Result<Tensor> {
    let expanded: Vec<Tensor> =
        parts.iter().map(|t| expand_dims(t, axis)).collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = expanded.iter().collect();
    concat(&refs, axis)
}

/// Unstack along `axis` into `dim(axis)` tensors.
///
/// # Errors
/// Unknown extent at trace time.
pub fn unstack(a: &Tensor, axis: i64) -> Result<Vec<Tensor>> {
    let shape = a.sym_shape();
    let ax = if axis < 0 { axis + shape.rank() as i64 } else { axis } as usize;
    let extent = shape.dims().get(ax).copied().flatten().ok_or_else(|| {
        RuntimeError::SymbolicValue("cannot unstack along an unknown dimension".to_string())
    })?;
    let parts = split(a, extent, axis)?;
    parts.iter().map(|p| squeeze(p, &[axis])).collect()
}

/// Reverse elements along `axis` (`tf.reverse` for one axis).
///
/// # Errors
/// Invalid axis.
pub fn reverse(a: &Tensor, axis: i64) -> Result<Tensor> {
    run1(Op::Reverse, &[a], Attrs::new().with("axis", axis))
}

/// The runtime shape as an int64 tensor (`tf.shape`).
///
/// # Errors
/// Execution failures.
pub fn shape_of(a: &Tensor) -> Result<Tensor> {
    run1(Op::ShapeOf, &[a], Attrs::new())
}

/// The rank as an int64 scalar (`tf.rank`).
///
/// # Errors
/// Execution failures.
pub fn rank_of(a: &Tensor) -> Result<Tensor> {
    run1(Op::RankOf, &[a], Attrs::new())
}

/// The element count as an int64 scalar (`tf.size`).
///
/// # Errors
/// Execution failures.
pub fn size_of(a: &Tensor) -> Result<Tensor> {
    run1(Op::SizeOf, &[a], Attrs::new())
}

// ---------------------------------------------------------------------------
// Neural-network primitives
// ---------------------------------------------------------------------------

/// 2-D convolution, NHWC×HWIO.
///
/// # Errors
/// Geometry failures.
pub fn conv2d(
    input: &Tensor,
    filter: &Tensor,
    strides: (usize, usize),
    padding: &str,
) -> Result<Tensor> {
    run1(
        Op::Conv2d,
        &[input, filter],
        Attrs::new()
            .with("strides", vec![strides.0 as i64, strides.1 as i64])
            .with("padding", padding),
    )
}

/// 2-D max pooling.
///
/// # Errors
/// Geometry failures.
pub fn max_pool(
    input: &Tensor,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: &str,
) -> Result<Tensor> {
    run1(
        Op::MaxPool,
        &[input],
        Attrs::new()
            .with("ksize", vec![ksize.0 as i64, ksize.1 as i64])
            .with("strides", vec![strides.0 as i64, strides.1 as i64])
            .with("padding", padding),
    )
}

/// 2-D average pooling.
///
/// # Errors
/// Geometry failures.
pub fn avg_pool(
    input: &Tensor,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: &str,
) -> Result<Tensor> {
    run1(
        Op::AvgPool,
        &[input],
        Attrs::new()
            .with("ksize", vec![ksize.0 as i64, ksize.1 as i64])
            .with("strides", vec![strides.0 as i64, strides.1 as i64])
            .with("padding", padding),
    )
}

/// Softmax over the last axis.
///
/// # Errors
/// Non-float input.
pub fn softmax(a: &Tensor) -> Result<Tensor> {
    run1(Op::Softmax, &[a], Attrs::new())
}

/// Log-softmax over the last axis.
///
/// # Errors
/// Non-float input.
pub fn log_softmax(a: &Tensor) -> Result<Tensor> {
    run1(Op::LogSoftmax, &[a], Attrs::new())
}

/// Per-example sparse softmax cross-entropy.
///
/// # Errors
/// Label/shape problems.
pub fn sparse_softmax_xent(logits: &Tensor, labels: &Tensor) -> Result<Tensor> {
    run1(Op::SparseSoftmaxXent, &[logits, labels], Attrs::new())
}

/// Dropout: scales kept activations by `1/keep_prob` (`tf.nn.dropout`).
///
/// # Errors
/// keep_prob outside (0, 1].
pub fn dropout(a: &Tensor, keep_prob: f64) -> Result<Tensor> {
    let mask = run1(Op::DropoutMask, &[a], Attrs::new().with("keep_prob", keep_prob))?;
    mul(a, &mask)
}

// ---------------------------------------------------------------------------
// Device movement and debugging
// ---------------------------------------------------------------------------

/// Copy to the named device (works inside traces as a `copy` node).
///
/// # Errors
/// Unknown device.
pub fn copy_to(a: &Tensor, device: &str) -> Result<Tensor> {
    run1(Op::Copy, &[a], Attrs::new().with("device", device))
}

/// Debug-print a tensor as a side-effecting op, passing the value through.
///
/// # Errors
/// Execution failures.
pub fn print(a: &Tensor, message: &str) -> Result<Tensor> {
    run1(Op::Print, &[a], Attrs::new().with("message", message))
}

impl Tensor {
    /// Copy to `/gpu:0` (Listing 4's `a.gpu()`).
    ///
    /// # Errors
    /// No GPU registered.
    pub fn gpu(&self) -> Result<Tensor> {
        copy_to(self, "/gpu:0")
    }

    /// Copy to the host CPU.
    ///
    /// # Errors
    /// Execution failures.
    pub fn cpu(&self) -> Result<Tensor> {
        copy_to(self, "/cpu:0")
    }
}

// ---------------------------------------------------------------------------
// Operator overloads (panic on error, like any Rust arithmetic operator)
// ---------------------------------------------------------------------------

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $func:ident) => {
        impl std::ops::$trait for &Tensor {
            type Output = Tensor;
            /// # Panics
            /// Panics on dtype/broadcast mismatch; the module-level free
            /// function of the same name is the fallible version.
            fn $method(self, rhs: &Tensor) -> Tensor {
                $func(self, rhs).unwrap_or_else(|e| panic!("tensor {}: {e}", stringify!($method)))
            }
        }
        impl std::ops::$trait for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mul);
impl_binop!(Div, div, div);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        neg(self).unwrap_or_else(|e| panic!("tensor neg: {e}"))
    }
}

impl std::ops::Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_add_and_operators() {
        let a = constant(vec![1.0f32, 2.0], [2]).unwrap();
        let b = constant(vec![10.0f32, 20.0], [2]).unwrap();
        assert_eq!(add(&a, &b).unwrap().to_f64_vec().unwrap(), vec![11.0, 22.0]);
        let c = &a * &b;
        assert_eq!(c.to_f64_vec().unwrap(), vec![10.0, 40.0]);
        let d = -&a;
        assert_eq!(d.to_f64_vec().unwrap(), vec![-1.0, -2.0]);
    }

    #[test]
    fn paper_select_example() {
        // §4.1's `select` example: matmul([[1, 0]], [[2], [-2]]) == [[2]].
        let a = constant(vec![1.0f32, 0.0], [1, 2]).unwrap();
        let x = constant(vec![2.0f32, -2.0], [2, 1]).unwrap();
        let y = matmul(&a, &x).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[1, 1]);
        assert_eq!(y.scalar_f64().unwrap(), 2.0);
    }

    #[test]
    fn reductions_and_shapes() {
        let a = constant(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        assert_eq!(reduce_sum(&a, &[], false).unwrap().scalar_f64().unwrap(), 21.0);
        assert_eq!(
            reduce_mean(&a, &[0], false).unwrap().to_f64_vec().unwrap(),
            vec![2.5, 3.5, 4.5]
        );
        let r = reshape(&a, &[3, -1]).unwrap();
        assert_eq!(r.shape().unwrap().dims(), &[3, 2]);
        let t = transpose(&a, &[1, 0]).unwrap();
        assert_eq!(t.shape().unwrap().dims(), &[3, 2]);
        let s = shape_of(&a).unwrap();
        assert_eq!(s.to_f64_vec().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn comparisons_and_select() {
        let a = constant(vec![1.0f32, 5.0], [2]).unwrap();
        let b = scalar(3.0f32);
        let m = greater(&a, &b).unwrap();
        assert_eq!(m.dtype(), DType::Bool);
        let s = select(&m, &a, &b).unwrap();
        assert_eq!(s.to_f64_vec().unwrap(), vec![3.0, 5.0]);
    }

    #[test]
    fn seeded_random_reproducible() {
        crate::context::set_random_seed(1234);
        let a = random_normal(DType::F32, [8], 0.0, 1.0).unwrap();
        crate::context::set_random_seed(1234);
        let b = random_normal(DType::F32, [8], 0.0, 1.0).unwrap();
        assert_eq!(a.to_f64_vec().unwrap(), b.to_f64_vec().unwrap());
    }

    #[test]
    fn dropout_scales() {
        crate::context::set_random_seed(7);
        let a = ones(DType::F32, [1000]);
        let d = dropout(&a, 0.5).unwrap();
        let vals = d.to_f64_vec().unwrap();
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn stack_and_unstack() {
        let a = constant(vec![1.0f32, 2.0], [2]).unwrap();
        let b = constant(vec![3.0f32, 4.0], [2]).unwrap();
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape().unwrap().dims(), &[2, 2]);
        let parts = unstack(&s, 0).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].to_f64_vec().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn print_passes_through() {
        let a = scalar(5.0f32);
        let b = print(&a, "test: ").unwrap();
        assert_eq!(b.scalar_f64().unwrap(), 5.0);
    }
}
