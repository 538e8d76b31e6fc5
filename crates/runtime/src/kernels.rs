//! CPU kernels for the standard op catalog.
//!
//! One kernel per primitive op, shared by the eager dispatcher and the
//! graph executor (§1: imperative and staged execution "share a single set
//! of primitive operations, kernels"). Simulated devices run these same
//! kernels (or skip them in cost-only mode).

use crate::error::{Result, RuntimeError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tfe_ops::{Attrs, OpError};
use tfe_tensor::conv::{self, Padding};
use tfe_tensor::elementwise::{self, BinaryOp, CmpOp, LogicalOp, UnaryOp};
use tfe_tensor::pool::{self, PoolKind};
use tfe_tensor::{matmul, reduce, shape_ops, softmax, Shape, TensorData, TensorError};

/// A kernel: attributes + concrete inputs → concrete outputs.
pub type Kernel = fn(&Attrs, &[Arc<TensorData>]) -> Result<Vec<TensorData>>;

fn kernels() -> &'static RwLock<HashMap<&'static str, Kernel>> {
    static K: std::sync::OnceLock<RwLock<HashMap<&'static str, Kernel>>> =
        std::sync::OnceLock::new();
    K.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Run the kernel for `op`.
///
/// # Errors
/// No kernel registered, or kernel failure.
pub fn run_kernel(op: &str, attrs: &Attrs, inputs: &[Arc<TensorData>]) -> Result<Vec<TensorData>> {
    ensure_kernels();
    let k = *kernels()
        .read()
        .get(op)
        .ok_or_else(|| RuntimeError::Internal(format!("no kernel registered for op `{op}`")))?;
    let mut sp = tfe_profile::span("kernel", || op.to_string());
    let out = k(attrs, inputs)?;
    if let Some(sp) = sp.as_mut() {
        sp.set_bytes(out.iter().map(|t| (t.num_elements() * t.dtype().size_bytes()) as u64).sum());
    }
    Ok(out)
}

/// [`run_kernel`] as the executing paths (sync eager, the async-eager job,
/// the executor's node-runner) launch it: timed into `tfe_kernel_time_ns`,
/// outputs ready to share.
pub(crate) fn launch_kernel(
    op: &str,
    attrs: &Attrs,
    inputs: &[Arc<TensorData>],
) -> Result<Vec<Arc<TensorData>>> {
    let t0 = std::time::Instant::now();
    let out = run_kernel(op, attrs, inputs)?;
    tfe_metrics::static_histogram!(
        "tfe_kernel_time_ns",
        "Wall-clock nanoseconds per compute-kernel invocation (eager and staged)",
        tfe_metrics::DEFAULT_NS_BUCKETS
    )
    .observe(t0.elapsed().as_nanos() as u64);
    Ok(out.into_iter().map(Arc::new).collect())
}

/// Whether a kernel exists for `op`.
pub fn has_kernel(op: &str) -> bool {
    ensure_kernels();
    kernels().read().contains_key(op)
}

fn one(t: TensorData) -> Result<Vec<TensorData>> {
    Ok(vec![t])
}

fn in0(inputs: &[Arc<TensorData>]) -> Result<&TensorData> {
    inputs
        .first()
        .map(|t| t.as_ref())
        .ok_or_else(|| RuntimeError::Internal("missing input 0".to_string()))
}

fn in_n(inputs: &[Arc<TensorData>], i: usize) -> Result<&TensorData> {
    inputs
        .get(i)
        .map(|t| t.as_ref())
        .ok_or_else(|| RuntimeError::Internal(format!("missing input {i}")))
}

fn attrs_err(e: tfe_ops::AttrError) -> RuntimeError {
    RuntimeError::Op(OpError::Attr(e))
}

fn strides_of(attrs: &Attrs) -> Result<(usize, usize)> {
    let s = attrs.int_list_or("strides", &[1, 1]).map_err(attrs_err)?;
    if s.len() != 2 || s.iter().any(|&x| x <= 0) {
        return Err(RuntimeError::Internal("strides must be two positive ints".to_string()));
    }
    Ok((s[0] as usize, s[1] as usize))
}

fn padding_of(attrs: &Attrs) -> Result<Padding> {
    Padding::from_name(attrs.str("padding").unwrap_or("SAME"))
        .ok_or_else(|| RuntimeError::Internal("bad padding attr".to_string()))
}

fn ksize_of(attrs: &Attrs) -> Result<(usize, usize)> {
    let s = attrs.int_list("ksize").map_err(attrs_err)?;
    if s.len() != 2 || s.iter().any(|&x| x <= 0) {
        return Err(RuntimeError::Internal("ksize must be two positive ints".to_string()));
    }
    Ok((s[0] as usize, s[1] as usize))
}

macro_rules! kernel {
    ($map:expr, $name:expr, $f:expr) => {
        $map.insert($name, $f as Kernel);
    };
}

/// Reduce `x` to the shape of `reference` by summing broadcast dimensions —
/// the adjoint of broadcasting.
pub fn sum_to_shape(x: &TensorData, target: &Shape) -> Result<TensorData> {
    if x.shape() == target {
        return Ok(x.clone());
    }
    let xr = x.shape().rank();
    let tr = target.rank();
    if tr > xr {
        return Err(RuntimeError::Internal(format!(
            "sum_to_shape: target rank {tr} exceeds value rank {xr}"
        )));
    }
    // Sum away the extra leading axes.
    let lead: Vec<i64> = (0..(xr - tr) as i64).collect();
    let mut cur = if lead.is_empty() {
        x.clone()
    } else {
        reduce::reduce(x, &lead, false, reduce::ReduceOp::Sum)?
    };
    // Sum (keeping dims) axes where the target is 1 but the value is not.
    for i in 0..tr {
        if target.dim(i) == 1 && cur.shape().dim(i) != 1 {
            cur = reduce::reduce(&cur, &[i as i64], true, reduce::ReduceOp::Sum)?;
        }
    }
    if cur.shape() != target {
        return Err(RuntimeError::Internal(format!(
            "sum_to_shape: cannot reduce {} to {}",
            x.shape(),
            target
        )));
    }
    Ok(cur)
}

/// Shared zero tensors for cost-only simulated execution.
///
/// Cost-only devices produce shape-correct zero placeholders; allocating a
/// fresh multi-hundred-megabyte buffer per op causes severe mmap churn, so
/// identical (dtype, shape) zeros share one immutable allocation.
pub fn zero_value(dtype: tfe_tensor::DType, shape: Shape) -> Arc<TensorData> {
    type ZeroCache = parking_lot::Mutex<HashMap<(tfe_tensor::DType, Vec<usize>), Arc<TensorData>>>;
    static CACHE: std::sync::OnceLock<ZeroCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| parking_lot::Mutex::new(HashMap::new()));
    cache
        .lock()
        .entry((dtype, shape.dims().to_vec()))
        .or_insert_with(|| Arc::new(TensorData::zeros(dtype, shape)))
        .clone()
}

/// Register all kernels exactly once.
pub fn ensure_kernels() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let mut map = kernels().write();
        register_elementwise(&mut map);
        register_structural(&mut map);
        register_linalg(&mut map);
        register_reduction(&mut map);
        register_nn(&mut map);
        register_random(&mut map);
        register_state(&mut map);
    });
}

fn register_elementwise(map: &mut HashMap<&'static str, Kernel>) {
    kernel!(map, "add", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Add)?));
    kernel!(map, "sub", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Sub)?));
    kernel!(map, "mul", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Mul)?));
    kernel!(map, "div", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Div)?));
    kernel!(map, "floor_div", |_, i| one(elementwise::binary(
        in0(i)?,
        in_n(i, 1)?,
        BinaryOp::FloorDiv
    )?));
    kernel!(map, "mod", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Mod)?));
    kernel!(map, "pow", |_, i| one(elementwise::binary(in0(i)?, in_n(i, 1)?, BinaryOp::Pow)?));
    kernel!(map, "maximum", |_, i| one(elementwise::binary(
        in0(i)?,
        in_n(i, 1)?,
        BinaryOp::Maximum
    )?));
    kernel!(map, "minimum", |_, i| one(elementwise::binary(
        in0(i)?,
        in_n(i, 1)?,
        BinaryOp::Minimum
    )?));
    kernel!(map, "squared_difference", |_, i| one(elementwise::binary(
        in0(i)?,
        in_n(i, 1)?,
        BinaryOp::SquaredDifference
    )?));
    // Unary family (names match UnaryOp::name()); function pointers cannot
    // close over the op, so each is spelled out.
    kernel!(map, "neg", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Neg)?));
    kernel!(map, "abs", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Abs)?));
    kernel!(map, "sign", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Sign)?));
    kernel!(map, "exp", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Exp)?));
    kernel!(map, "log", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Log)?));
    kernel!(map, "log1p", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Log1p)?));
    kernel!(map, "sqrt", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Sqrt)?));
    kernel!(map, "rsqrt", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Rsqrt)?));
    kernel!(map, "square", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Square)?));
    kernel!(map, "reciprocal", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Reciprocal)?));
    kernel!(map, "relu", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Relu)?));
    kernel!(map, "sigmoid", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Sigmoid)?));
    kernel!(map, "tanh", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Tanh)?));
    kernel!(map, "softplus", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Softplus)?));
    kernel!(map, "floor", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Floor)?));
    kernel!(map, "ceil", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Ceil)?));
    kernel!(map, "round", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Round)?));
    kernel!(map, "sin", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Sin)?));
    kernel!(map, "cos", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Cos)?));
    kernel!(map, "erf", |_, i| one(elementwise::unary(in0(i)?, UnaryOp::Erf)?));

    kernel!(map, "equal", |_, i| one(elementwise::compare(in0(i)?, in_n(i, 1)?, CmpOp::Eq)?));
    kernel!(map, "not_equal", |_, i| one(elementwise::compare(in0(i)?, in_n(i, 1)?, CmpOp::Ne)?));
    kernel!(map, "less", |_, i| one(elementwise::compare(in0(i)?, in_n(i, 1)?, CmpOp::Lt)?));
    kernel!(map, "less_equal", |_, i| one(elementwise::compare(in0(i)?, in_n(i, 1)?, CmpOp::Le)?));
    kernel!(map, "greater", |_, i| one(elementwise::compare(in0(i)?, in_n(i, 1)?, CmpOp::Gt)?));
    kernel!(map, "greater_equal", |_, i| one(elementwise::compare(
        in0(i)?,
        in_n(i, 1)?,
        CmpOp::Ge
    )?));
    kernel!(map, "logical_and", |_, i| one(elementwise::logical(
        in0(i)?,
        in_n(i, 1)?,
        LogicalOp::And
    )?));
    kernel!(map, "logical_or", |_, i| one(elementwise::logical(
        in0(i)?,
        in_n(i, 1)?,
        LogicalOp::Or
    )?));
    kernel!(map, "logical_xor", |_, i| one(elementwise::logical(
        in0(i)?,
        in_n(i, 1)?,
        LogicalOp::Xor
    )?));
    kernel!(map, "logical_not", |_, i| one(elementwise::logical_not(in0(i)?)?));
    kernel!(map, "select", |_, i| one(elementwise::select(in0(i)?, in_n(i, 1)?, in_n(i, 2)?)?));
    kernel!(map, "cast", |a, i| one(in0(i)?.cast(a.dtype("dtype").map_err(attrs_err)?)));
    kernel!(map, "fused_elementwise", |a, i| {
        let text = a.str("program").map_err(attrs_err)?;
        // Cache hit on the compiled form (warmed at fusion time) — the
        // program text is only parsed the first time it is ever seen.
        let program = tfe_graph::program::compiled(text).map_err(RuntimeError::Internal)?;
        let refs: Vec<&TensorData> = i.iter().map(|t| t.as_ref()).collect();
        one(program.eval(&refs)?)
    });
}

fn register_structural(map: &mut HashMap<&'static str, Kernel>) {
    kernel!(map, "identity", |_, i| one(in0(i)?.clone()));
    kernel!(map, "zeros_like", |_, i| {
        let x = in0(i)?;
        one(TensorData::zeros(x.dtype(), x.shape().clone()))
    });
    kernel!(map, "ones_like", |_, i| {
        let x = in0(i)?;
        one(TensorData::ones(x.dtype(), x.shape().clone()))
    });
    kernel!(map, "fill", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let dims: Vec<usize> =
            a.int_list("shape").map_err(attrs_err)?.iter().map(|&d| d as usize).collect();
        let v = a.float_or("value", 0.0).map_err(attrs_err)?;
        one(TensorData::fill_f64(dt, dims, v))
    });
    kernel!(map, "eye", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let n = a.int("n").map_err(attrs_err)? as usize;
        one(TensorData::eye(dt, n))
    });
    kernel!(map, "range", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let start = a.float_or("start", 0.0).map_err(attrs_err)?;
        let step = a.float_or("step", 1.0).map_err(attrs_err)?;
        let count = a.int("count").map_err(attrs_err)? as usize;
        one(TensorData::range_f64(dt, start, step, count))
    });
    kernel!(map, "shape_of", |_, i| {
        let dims: Vec<i64> = in0(i)?.shape().dims().iter().map(|&d| d as i64).collect();
        let n = dims.len();
        one(TensorData::from_vec(dims, Shape::from([n]))?)
    });
    kernel!(map, "rank_of", |_, i| { one(TensorData::scalar(in0(i)?.shape().rank() as i64)) });
    kernel!(map, "size_of", |_, i| { one(TensorData::scalar(in0(i)?.num_elements() as i64)) });
    kernel!(map, "reshape", |a, i| one(shape_ops::reshape(
        in0(i)?,
        a.int_list("shape").map_err(attrs_err)?
    )?));
    kernel!(map, "transpose", |a, i| {
        let perm: Vec<usize> =
            a.int_list("perm").map_err(attrs_err)?.iter().map(|&p| p as usize).collect();
        one(shape_ops::transpose(in0(i)?, &perm)?)
    });
    kernel!(map, "expand_dims", |a, i| one(shape_ops::expand_dims(
        in0(i)?,
        a.int("axis").map_err(attrs_err)?
    )?));
    kernel!(map, "squeeze", |a, i| one(shape_ops::squeeze(
        in0(i)?,
        a.int_list_or("axes", &[]).map_err(attrs_err)?
    )?));
    kernel!(map, "concat", |a, i| {
        let refs: Vec<&TensorData> = i.iter().map(|t| t.as_ref()).collect();
        one(shape_ops::concat(&refs, a.int("axis").map_err(attrs_err)?)?)
    });
    kernel!(map, "split", |a, i| {
        let num = a.int("num").map_err(attrs_err)?;
        if num < 1 {
            return Err(
                TensorError::InvalidArgument(format!("split num must be >= 1, got {num}")).into()
            );
        }
        Ok(shape_ops::split(in0(i)?, num as usize, a.int("axis").map_err(attrs_err)?)?)
    });
    kernel!(map, "slice", |a, i| one(shape_ops::slice(
        in0(i)?,
        a.int_list("begin").map_err(attrs_err)?,
        a.int_list("size").map_err(attrs_err)?
    )?));
    kernel!(map, "slice_grad", |a, i| {
        let input = in0(i)?;
        let grad = in_n(i, 1)?;
        one(shape_ops::pad_to(grad, a.int_list("begin").map_err(attrs_err)?, input.shape())?)
    });
    kernel!(map, "pad", |a, i| {
        let flat = a.int_list("paddings").map_err(attrs_err)?;
        let pairs: Vec<(usize, usize)> =
            flat.chunks(2).map(|c| (c[0] as usize, c[1] as usize)).collect();
        let v = a.float_or("value", 0.0).map_err(attrs_err)?;
        one(shape_ops::pad(in0(i)?, &pairs, v)?)
    });
    kernel!(map, "gather", |a, i| one(shape_ops::gather(
        in0(i)?,
        in_n(i, 1)?,
        a.int_or("axis", 0).map_err(attrs_err)?
    )?));
    kernel!(map, "gather_grad", |a, i| {
        let axis = a.int_or("axis", 0).map_err(attrs_err)?;
        if axis != 0 {
            return Err(RuntimeError::Unsupported(
                "gather gradient is implemented for axis 0 only".to_string(),
            ));
        }
        let params = in0(i)?;
        let indices = in_n(i, 1)?;
        let grad = in_n(i, 2)?;
        // Flatten indices and the matching leading dims of grad.
        let n_idx = indices.num_elements();
        let flat_idx = indices.with_shape([n_idx])?;
        let inner: usize = params.shape().dims()[1..].iter().product();
        let flat_grad = grad.with_shape(vec![n_idx, inner.max(1)])?;
        let scattered = shape_ops::scatter_add_rows(&flat_idx, &flat_grad, params.shape().dim(0))?;
        one(scattered.with_shape(params.shape().clone())?)
    });
    kernel!(map, "tile", |a, i| {
        let m: Vec<usize> =
            a.int_list("multiples").map_err(attrs_err)?.iter().map(|&x| x as usize).collect();
        one(shape_ops::tile(in0(i)?, &m)?)
    });
    kernel!(map, "broadcast_to", |a, i| {
        let dims: Vec<usize> =
            a.int_list("shape").map_err(attrs_err)?.iter().map(|&d| d as usize).collect();
        one(shape_ops::broadcast_to(in0(i)?, &Shape::new(dims))?)
    });
    kernel!(map, "sum_to_like", |_, i| {
        let target = in_n(i, 1)?.shape().clone();
        one(sum_to_shape(in0(i)?, &target)?)
    });
    kernel!(map, "reverse", |a, i| one(shape_ops::reverse(
        in0(i)?,
        a.int_or("axis", 0).map_err(attrs_err)?
    )?));
    kernel!(map, "one_hot", |a, i| one(shape_ops::one_hot(
        in0(i)?,
        a.int("depth").map_err(attrs_err)? as usize,
        a.dtype("dtype").map_err(attrs_err)?
    )?));
    kernel!(map, "print", |a, i| {
        let x = in0(i)?;
        let tag = a.str("message").unwrap_or("");
        eprintln!("[tfe print] {tag}{:?}", x);
        one(x.clone())
    });
}

fn register_linalg(map: &mut HashMap<&'static str, Kernel>) {
    kernel!(map, "matmul", |a, i| one(matmul::matmul(
        in0(i)?,
        in_n(i, 1)?,
        a.bool_or("transpose_a", false).map_err(attrs_err)?,
        a.bool_or("transpose_b", false).map_err(attrs_err)?
    )?));
    kernel!(map, "batch_matmul", |a, i| one(matmul::batch_matmul(
        in0(i)?,
        in_n(i, 1)?,
        a.bool_or("transpose_a", false).map_err(attrs_err)?,
        a.bool_or("transpose_b", false).map_err(attrs_err)?
    )?));
}

fn register_reduction(map: &mut HashMap<&'static str, Kernel>) {
    fn reduce_kernel(
        a: &Attrs,
        i: &[Arc<TensorData>],
        op: reduce::ReduceOp,
    ) -> Result<Vec<TensorData>> {
        let axes = a.int_list_or("axes", &[]).map_err(attrs_err)?;
        let keep = a.bool_or("keep_dims", false).map_err(attrs_err)?;
        one(reduce::reduce(in0(i)?, axes, keep, op)?)
    }
    kernel!(map, "reduce_sum", |a, i| reduce_kernel(a, i, reduce::ReduceOp::Sum));
    kernel!(map, "reduce_mean", |a, i| reduce_kernel(a, i, reduce::ReduceOp::Mean));
    kernel!(map, "reduce_max", |a, i| reduce_kernel(a, i, reduce::ReduceOp::Max));
    kernel!(map, "reduce_min", |a, i| reduce_kernel(a, i, reduce::ReduceOp::Min));
    kernel!(map, "reduce_prod", |a, i| reduce_kernel(a, i, reduce::ReduceOp::Prod));
    kernel!(map, "reduce_any", |a, i| {
        let axes = a.int_list_or("axes", &[]).map_err(attrs_err)?;
        let keep = a.bool_or("keep_dims", false).map_err(attrs_err)?;
        one(reduce::reduce_bool(in0(i)?, axes, keep, false)?)
    });
    kernel!(map, "reduce_all", |a, i| {
        let axes = a.int_list_or("axes", &[]).map_err(attrs_err)?;
        let keep = a.bool_or("keep_dims", false).map_err(attrs_err)?;
        one(reduce::reduce_bool(in0(i)?, axes, keep, true)?)
    });
    kernel!(map, "argmax", |a, i| one(reduce::argminmax(
        in0(i)?,
        a.int_or("axis", 0).map_err(attrs_err)?,
        true
    )?));
    kernel!(map, "argmin", |a, i| one(reduce::argminmax(
        in0(i)?,
        a.int_or("axis", 0).map_err(attrs_err)?,
        false
    )?));
    kernel!(map, "cumsum", |a, i| one(reduce::cumsum(
        in0(i)?,
        a.int_or("axis", 0).map_err(attrs_err)?
    )?));
}

fn register_nn(map: &mut HashMap<&'static str, Kernel>) {
    kernel!(map, "conv2d", |a, i| one(conv::conv2d(
        in0(i)?,
        in_n(i, 1)?,
        strides_of(a)?,
        padding_of(a)?
    )?));
    kernel!(map, "conv2d_backprop_input", |a, i| {
        let input = in0(i)?;
        one(conv::conv2d_backprop_input(
            input.shape(),
            in_n(i, 1)?,
            in_n(i, 2)?,
            strides_of(a)?,
            padding_of(a)?,
        )?)
    });
    kernel!(map, "conv2d_backprop_filter", |a, i| {
        let filter = in_n(i, 1)?;
        one(conv::conv2d_backprop_filter(
            in0(i)?,
            filter.shape(),
            in_n(i, 2)?,
            strides_of(a)?,
            padding_of(a)?,
        )?)
    });
    kernel!(map, "max_pool", |a, i| one(pool::pool2d(
        in0(i)?,
        ksize_of(a)?,
        strides_of(a)?,
        padding_of(a)?,
        PoolKind::Max
    )?));
    kernel!(map, "avg_pool", |a, i| one(pool::pool2d(
        in0(i)?,
        ksize_of(a)?,
        strides_of(a)?,
        padding_of(a)?,
        PoolKind::Avg
    )?));
    kernel!(map, "max_pool_grad", |a, i| one(pool::pool2d_grad(
        in0(i)?,
        in_n(i, 1)?,
        ksize_of(a)?,
        strides_of(a)?,
        padding_of(a)?,
        PoolKind::Max
    )?));
    kernel!(map, "avg_pool_grad", |a, i| one(pool::pool2d_grad(
        in0(i)?,
        in_n(i, 1)?,
        ksize_of(a)?,
        strides_of(a)?,
        padding_of(a)?,
        PoolKind::Avg
    )?));
    kernel!(map, "softmax", |_, i| one(softmax::softmax(in0(i)?)?));
    kernel!(map, "log_softmax", |_, i| one(softmax::log_softmax(in0(i)?)?));
    kernel!(map, "sparse_softmax_xent", |_, i| one(softmax::sparse_softmax_xent(
        in0(i)?,
        in_n(i, 1)?
    )?));
    kernel!(map, "softmax_xent_grad", |_, i| one(softmax::softmax_xent_grad(
        in0(i)?,
        in_n(i, 1)?,
        in_n(i, 2)?
    )?));
}

fn register_random(map: &mut HashMap<&'static str, Kernel>) {
    fn shape_attr(a: &Attrs) -> Result<Vec<usize>> {
        Ok(a.int_list("shape").map_err(attrs_err)?.iter().map(|&d| d as usize).collect())
    }
    kernel!(map, "random_normal", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let shape = shape_attr(a)?;
        let mean = a.float_or("mean", 0.0).map_err(attrs_err)?;
        let stddev = a.float_or("stddev", 1.0).map_err(attrs_err)?;
        one(crate::context::with_rng(|rng| rng.normal(dt, shape, mean, stddev))?)
    });
    kernel!(map, "truncated_normal", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let shape = shape_attr(a)?;
        let mean = a.float_or("mean", 0.0).map_err(attrs_err)?;
        let stddev = a.float_or("stddev", 1.0).map_err(attrs_err)?;
        one(crate::context::with_rng(|rng| rng.truncated_normal(dt, shape, mean, stddev))?)
    });
    kernel!(map, "random_uniform", |a, _| {
        let dt = a.dtype("dtype").map_err(attrs_err)?;
        let shape = shape_attr(a)?;
        let low = a.float_or("low", 0.0).map_err(attrs_err)?;
        let high = a.float_or("high", 1.0).map_err(attrs_err)?;
        one(crate::context::with_rng(|rng| rng.uniform(dt, shape, low, high))?)
    });
    kernel!(map, "dropout_mask", |a, i| {
        let x = in0(i)?;
        let keep = a.float("keep_prob").map_err(attrs_err)?;
        one(crate::context::with_rng(|rng| rng.dropout_mask(x.dtype(), x.shape().clone(), keep))?)
    });
}

fn register_state(map: &mut HashMap<&'static str, Kernel>) {
    kernel!(map, "read_variable", |a, _| {
        let id = a.int("var_id").map_err(attrs_err)? as u64;
        let storage = crate::variable::registry().resolve(id)?;
        one(storage.value().as_ref().clone())
    });
    kernel!(map, "assign", |a, i| {
        let id = a.int("var_id").map_err(attrs_err)? as u64;
        let storage = crate::variable::registry().resolve(id)?;
        storage.set_value(in0(i)?.clone())?;
        Ok(Vec::new())
    });
    kernel!(map, "assign_add", |a, i| {
        let id = a.int("var_id").map_err(attrs_err)? as u64;
        let storage = crate::variable::registry().resolve(id)?;
        let cur = storage.value();
        let next = elementwise::binary(&cur, in0(i)?, BinaryOp::Add)?;
        storage.set_value(next)?;
        Ok(Vec::new())
    });
    kernel!(map, "assign_sub", |a, i| {
        let id = a.int("var_id").map_err(attrs_err)? as u64;
        let storage = crate::variable::registry().resolve(id)?;
        let cur = storage.value();
        let next = elementwise::binary(&cur, in0(i)?, BinaryOp::Sub)?;
        storage.set_value(next)?;
        Ok(Vec::new())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::DType;

    #[test]
    fn kernels_cover_catalog() {
        tfe_ops::ensure_standard_ops();
        ensure_kernels();
        // Dispatcher-level ops and graph-only markers are exempt.
        let exempt = ["call", "cond", "while_loop", "host_func", "copy", "placeholder", "const"];
        for name in tfe_ops::global().names() {
            if exempt.contains(&name.as_str()) {
                continue;
            }
            assert!(has_kernel(&name), "missing kernel for `{name}`");
        }
    }

    #[test]
    fn run_kernel_basic() {
        let a = Arc::new(TensorData::scalar(2.0f32));
        let b = Arc::new(TensorData::scalar(3.0f32));
        let out = run_kernel("mul", &Attrs::new(), &[a, b]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 6.0);
        assert!(run_kernel("nope", &Attrs::new(), &[]).is_err());
    }

    #[test]
    fn sum_to_shape_reduces_broadcasts() {
        let x = TensorData::ones(DType::F32, [2, 3]);
        let t = sum_to_shape(&x, &Shape::from([3])).unwrap();
        assert_eq!(t.to_f64_vec(), vec![2.0, 2.0, 2.0]);
        let t = sum_to_shape(&x, &Shape::from([2, 1])).unwrap();
        assert_eq!(t.to_f64_vec(), vec![3.0, 3.0]);
        let t = sum_to_shape(&x, &Shape::scalar()).unwrap();
        assert_eq!(t.scalar_f64().unwrap(), 6.0);
        // identity
        let t = sum_to_shape(&x, &Shape::from([2, 3])).unwrap();
        assert_eq!(t, x);
    }

    #[test]
    fn slice_grad_kernel_is_pad_adjoint() {
        let input = Arc::new(TensorData::zeros(DType::F32, [4]));
        let grad = Arc::new(TensorData::ones(DType::F32, [2]));
        let attrs = Attrs::new().with("begin", vec![1i64]);
        let out = run_kernel("slice_grad", &attrs, &[input, grad]).unwrap();
        assert_eq!(out[0].to_f64_vec(), vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn gather_grad_kernel_scatters() {
        let params = Arc::new(TensorData::zeros(DType::F32, [3, 2]));
        let idx = Arc::new(TensorData::from_vec(vec![2i64, 0, 2], Shape::from([3])).unwrap());
        let grad = Arc::new(
            TensorData::from_vec(vec![1.0f32, 1.0, 2.0, 2.0, 4.0, 4.0], Shape::from([3, 2]))
                .unwrap(),
        );
        let out = run_kernel("gather_grad", &Attrs::new(), &[params, idx, grad]).unwrap();
        assert_eq!(out[0].to_f64_vec(), vec![2.0, 2.0, 0.0, 0.0, 5.0, 5.0]);
    }
}
