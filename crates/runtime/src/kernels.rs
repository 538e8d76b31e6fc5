//! CPU kernels for the standard op catalog.
//!
//! One kernel per primitive op, shared by the eager dispatcher and the
//! graph executor (§1: imperative and staged execution "share a single set
//! of primitive operations, kernels"). Simulated devices run these same
//! kernels (or skip them in cost-only mode). The table is one exhaustive
//! `match` over [`Op`] in [`run_kernel`]: an op without an arm does not
//! compile, and finding a kernel is a jump, not a map lookup.

use crate::error::{Result, RuntimeError};
use std::collections::HashMap;
use std::sync::Arc;
use tfe_ops::{Attrs, Op, OpError};
use tfe_tensor::conv::{self, Padding};
use tfe_tensor::elementwise::{self, BinaryOp};
use tfe_tensor::pool::{self, PoolKind};
use tfe_tensor::{matmul, reduce, shape_ops, softmax, Shape, TensorData, TensorError};

/// Run the kernel for `op`, under a `kernel` profile span.
///
/// # Errors
/// Kernel failure, or an op the dispatcher runs itself (`call`, `cond`,
/// `while_loop`, `host_func`, `copy`) or that only marks a graph position
/// (`placeholder`, `const`).
pub fn run_kernel(op: Op, attrs: &Attrs, inputs: &[Arc<TensorData>]) -> Result<Vec<TensorData>> {
    let mut sp = tfe_profile::span("kernel", || op.name().to_string());
    let out = kernel(op, attrs, inputs)?;
    if let Some(sp) = sp.as_mut() {
        sp.set_bytes(out.iter().map(|t| (t.num_elements() * t.dtype().size_bytes()) as u64).sum());
    }
    Ok(out)
}

/// [`run_kernel`] as the executing paths (sync eager, the async-eager job,
/// the executor's node-runner) launch it: timed into `tfe_kernel_time_ns`,
/// outputs ready to share.
pub(crate) fn launch_kernel(
    op: Op,
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

fn shape_attr(a: &Attrs) -> Result<Vec<usize>> {
    Ok(a.int_list("shape").map_err(attrs_err)?.iter().map(|&d| d as usize).collect())
}

fn reduce_attrs(a: &Attrs) -> Result<(&[i64], bool)> {
    let axes = a.int_list_or("axes", &[]).map_err(attrs_err)?;
    Ok((axes, a.bool_or("keep_dims", false).map_err(attrs_err)?))
}

fn reduce_kernel(
    a: &Attrs,
    i: &[Arc<TensorData>],
    op: reduce::ReduceOp,
) -> Result<Vec<TensorData>> {
    let (axes, keep) = reduce_attrs(a)?;
    one(reduce::reduce(in0(i)?, axes, keep, op)?)
}

fn variable(a: &Attrs) -> Result<Arc<crate::variable::VarStorage>> {
    crate::variable::registry().resolve(a.int("var_id").map_err(attrs_err)? as u64)
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

/// The kernel table.
#[allow(clippy::too_many_lines)]
fn kernel(op: Op, a: &Attrs, i: &[Arc<TensorData>]) -> Result<Vec<TensorData>> {
    match op {
        // --- elementwise --------------------------------------------------
        Op::Unary(op) => one(elementwise::unary(in0(i)?, op)?),
        Op::Binary(op) => one(elementwise::binary(in0(i)?, in_n(i, 1)?, op)?),
        Op::Compare(op) => one(elementwise::compare(in0(i)?, in_n(i, 1)?, op)?),
        Op::Logical(op) => one(elementwise::logical(in0(i)?, in_n(i, 1)?, op)?),
        Op::LogicalNot => one(elementwise::logical_not(in0(i)?)?),
        Op::Select => one(elementwise::select(in0(i)?, in_n(i, 1)?, in_n(i, 2)?)?),
        Op::Cast => one(in0(i)?.cast(a.dtype("dtype").map_err(attrs_err)?)),
        Op::FusedElementwise => {
            let text = a.str("program").map_err(attrs_err)?;
            // Cache hit on the compiled form (warmed at fusion time) — the
            // program text is only parsed the first time it is ever seen.
            let program = tfe_graph::program::compiled(text).map_err(RuntimeError::Internal)?;
            let refs: Vec<&TensorData> = i.iter().map(|t| t.as_ref()).collect();
            one(program.eval(&refs)?)
        }
        Op::Identity => one(in0(i)?.clone()),
        Op::ZerosLike => {
            let x = in0(i)?;
            one(TensorData::zeros(x.dtype(), x.shape().clone()))
        }
        Op::OnesLike => {
            let x = in0(i)?;
            one(TensorData::ones(x.dtype(), x.shape().clone()))
        }
        Op::Fill => {
            let dt = a.dtype("dtype").map_err(attrs_err)?;
            let v = a.float_or("value", 0.0).map_err(attrs_err)?;
            one(TensorData::fill_f64(dt, shape_attr(a)?, v))
        }
        Op::Eye => {
            let dt = a.dtype("dtype").map_err(attrs_err)?;
            let n = a.int("n").map_err(attrs_err)? as usize;
            one(TensorData::eye(dt, n))
        }
        Op::Range => {
            let dt = a.dtype("dtype").map_err(attrs_err)?;
            let start = a.float_or("start", 0.0).map_err(attrs_err)?;
            let step = a.float_or("step", 1.0).map_err(attrs_err)?;
            let count = a.int("count").map_err(attrs_err)? as usize;
            one(TensorData::range_f64(dt, start, step, count))
        }
        Op::ShapeOf => {
            let dims: Vec<i64> = in0(i)?.shape().dims().iter().map(|&d| d as i64).collect();
            let n = dims.len();
            one(TensorData::from_vec(dims, Shape::from([n]))?)
        }
        Op::RankOf => one(TensorData::scalar(in0(i)?.shape().rank() as i64)),
        Op::SizeOf => one(TensorData::scalar(in0(i)?.num_elements() as i64)),
        Op::Reshape => one(shape_ops::reshape(in0(i)?, a.int_list("shape").map_err(attrs_err)?)?),
        Op::Transpose => {
            let perm: Vec<usize> =
                a.int_list("perm").map_err(attrs_err)?.iter().map(|&p| p as usize).collect();
            one(shape_ops::transpose(in0(i)?, &perm)?)
        }
        Op::ExpandDims => one(shape_ops::expand_dims(in0(i)?, a.int("axis").map_err(attrs_err)?)?),
        Op::Squeeze => {
            one(shape_ops::squeeze(in0(i)?, a.int_list_or("axes", &[]).map_err(attrs_err)?)?)
        }
        Op::Concat => {
            let refs: Vec<&TensorData> = i.iter().map(|t| t.as_ref()).collect();
            one(shape_ops::concat(&refs, a.int("axis").map_err(attrs_err)?)?)
        }
        Op::Split => {
            let num = a.int("num").map_err(attrs_err)?;
            if num < 1 {
                return Err(TensorError::InvalidArgument(format!(
                    "split num must be >= 1, got {num}"
                ))
                .into());
            }
            Ok(shape_ops::split(in0(i)?, num as usize, a.int("axis").map_err(attrs_err)?)?)
        }
        Op::Slice => one(shape_ops::slice(
            in0(i)?,
            a.int_list("begin").map_err(attrs_err)?,
            a.int_list("size").map_err(attrs_err)?,
        )?),
        Op::SliceGrad => {
            let input = in0(i)?;
            let grad = in_n(i, 1)?;
            one(shape_ops::pad_to(grad, a.int_list("begin").map_err(attrs_err)?, input.shape())?)
        }
        Op::Pad => {
            let flat = a.int_list("paddings").map_err(attrs_err)?;
            let pairs: Vec<(usize, usize)> =
                flat.chunks(2).map(|c| (c[0] as usize, c[1] as usize)).collect();
            let v = a.float_or("value", 0.0).map_err(attrs_err)?;
            one(shape_ops::pad(in0(i)?, &pairs, v)?)
        }
        Op::Gather => {
            one(shape_ops::gather(in0(i)?, in_n(i, 1)?, a.int_or("axis", 0).map_err(attrs_err)?)?)
        }
        Op::GatherGrad => {
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
            let scattered =
                shape_ops::scatter_add_rows(&flat_idx, &flat_grad, params.shape().dim(0))?;
            one(scattered.with_shape(params.shape().clone())?)
        }
        Op::Tile => {
            let m: Vec<usize> =
                a.int_list("multiples").map_err(attrs_err)?.iter().map(|&x| x as usize).collect();
            one(shape_ops::tile(in0(i)?, &m)?)
        }
        Op::BroadcastTo => one(shape_ops::broadcast_to(in0(i)?, &Shape::new(shape_attr(a)?))?),
        Op::SumToLike => {
            let target = in_n(i, 1)?.shape().clone();
            one(sum_to_shape(in0(i)?, &target)?)
        }
        Op::Reverse => one(shape_ops::reverse(in0(i)?, a.int_or("axis", 0).map_err(attrs_err)?)?),
        Op::OneHot => one(shape_ops::one_hot(
            in0(i)?,
            a.int("depth").map_err(attrs_err)? as usize,
            a.dtype("dtype").map_err(attrs_err)?,
        )?),
        Op::Print => {
            let x = in0(i)?;
            let tag = a.str("message").unwrap_or("");
            eprintln!("[tfe print] {tag}{:?}", x);
            one(x.clone())
        }
        Op::Matmul => one(matmul::matmul(
            in0(i)?,
            in_n(i, 1)?,
            a.bool_or("transpose_a", false).map_err(attrs_err)?,
            a.bool_or("transpose_b", false).map_err(attrs_err)?,
        )?),
        Op::BatchMatmul => one(matmul::batch_matmul(
            in0(i)?,
            in_n(i, 1)?,
            a.bool_or("transpose_a", false).map_err(attrs_err)?,
            a.bool_or("transpose_b", false).map_err(attrs_err)?,
        )?),
        Op::ReduceSum => reduce_kernel(a, i, reduce::ReduceOp::Sum),
        Op::ReduceMean => reduce_kernel(a, i, reduce::ReduceOp::Mean),
        Op::ReduceMax => reduce_kernel(a, i, reduce::ReduceOp::Max),
        Op::ReduceMin => reduce_kernel(a, i, reduce::ReduceOp::Min),
        Op::ReduceProd => reduce_kernel(a, i, reduce::ReduceOp::Prod),
        Op::ReduceAny | Op::ReduceAll => {
            let (axes, keep) = reduce_attrs(a)?;
            one(reduce::reduce_bool(in0(i)?, axes, keep, op == Op::ReduceAll)?)
        }
        Op::Argmax | Op::Argmin => {
            let axis = a.int_or("axis", 0).map_err(attrs_err)?;
            one(reduce::argminmax(in0(i)?, axis, op == Op::Argmax)?)
        }
        Op::Cumsum => one(reduce::cumsum(in0(i)?, a.int_or("axis", 0).map_err(attrs_err)?)?),
        Op::Conv2d => one(conv::conv2d(in0(i)?, in_n(i, 1)?, strides_of(a)?, padding_of(a)?)?),
        Op::Conv2dBackpropInput => {
            let input = in0(i)?;
            one(conv::conv2d_backprop_input(
                input.shape(),
                in_n(i, 1)?,
                in_n(i, 2)?,
                strides_of(a)?,
                padding_of(a)?,
            )?)
        }
        Op::Conv2dBackpropFilter => {
            let filter = in_n(i, 1)?;
            one(conv::conv2d_backprop_filter(
                in0(i)?,
                filter.shape(),
                in_n(i, 2)?,
                strides_of(a)?,
                padding_of(a)?,
            )?)
        }
        Op::MaxPool | Op::AvgPool => {
            let kind = if op == Op::MaxPool { PoolKind::Max } else { PoolKind::Avg };
            one(pool::pool2d(in0(i)?, ksize_of(a)?, strides_of(a)?, padding_of(a)?, kind)?)
        }
        Op::MaxPoolGrad | Op::AvgPoolGrad => {
            let kind = if op == Op::MaxPoolGrad { PoolKind::Max } else { PoolKind::Avg };
            let (ksize, strides) = (ksize_of(a)?, strides_of(a)?);
            one(pool::pool2d_grad(in0(i)?, in_n(i, 1)?, ksize, strides, padding_of(a)?, kind)?)
        }
        Op::Softmax => one(softmax::softmax(in0(i)?)?),
        Op::LogSoftmax => one(softmax::log_softmax(in0(i)?)?),
        Op::SparseSoftmaxXent => one(softmax::sparse_softmax_xent(in0(i)?, in_n(i, 1)?)?),
        Op::SoftmaxXentGrad => one(softmax::softmax_xent_grad(in0(i)?, in_n(i, 1)?, in_n(i, 2)?)?),
        Op::RandomNormal | Op::TruncatedNormal => {
            let dt = a.dtype("dtype").map_err(attrs_err)?;
            let shape = shape_attr(a)?;
            let mean = a.float_or("mean", 0.0).map_err(attrs_err)?;
            let stddev = a.float_or("stddev", 1.0).map_err(attrs_err)?;
            one(crate::context::with_rng(|rng| match op {
                Op::RandomNormal => rng.normal(dt, shape, mean, stddev),
                _ => rng.truncated_normal(dt, shape, mean, stddev),
            })?)
        }
        Op::RandomUniform => {
            let dt = a.dtype("dtype").map_err(attrs_err)?;
            let shape = shape_attr(a)?;
            let low = a.float_or("low", 0.0).map_err(attrs_err)?;
            let high = a.float_or("high", 1.0).map_err(attrs_err)?;
            one(crate::context::with_rng(|rng| rng.uniform(dt, shape, low, high))?)
        }
        Op::DropoutMask => {
            let x = in0(i)?;
            let keep = a.float("keep_prob").map_err(attrs_err)?;
            one(crate::context::with_rng(|rng| {
                rng.dropout_mask(x.dtype(), x.shape().clone(), keep)
            })?)
        }
        Op::ReadVariable => one(variable(a)?.value().as_ref().clone()),
        Op::Assign => {
            variable(a)?.set_value(in0(i)?.clone())?;
            Ok(Vec::new())
        }
        Op::AssignAdd | Op::AssignSub => {
            let storage = variable(a)?;
            let step = if op == Op::AssignAdd { BinaryOp::Add } else { BinaryOp::Sub };
            storage.set_value(elementwise::binary(&storage.value(), in0(i)?, step)?)?;
            Ok(Vec::new())
        }
        Op::Call
        | Op::Cond
        | Op::WhileLoop
        | Op::HostFunc
        | Op::Copy
        | Op::Placeholder
        | Op::Const => Err(RuntimeError::Internal(format!(
            "op `{op}` has no kernel: the dispatcher and the executor run it themselves"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::DType;

    #[test]
    fn run_kernel_basic() {
        let a = Arc::new(TensorData::scalar(2.0f32));
        let b = Arc::new(TensorData::scalar(3.0f32));
        let out = run_kernel(Op::Binary(BinaryOp::Mul), &Attrs::new(), &[a, b]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 6.0);
        // Ops the dispatcher runs itself answer with an error, not a panic.
        assert!(run_kernel(Op::Call, &Attrs::new(), &[]).is_err());
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
        let out = run_kernel(Op::SliceGrad, &attrs, &[input, grad]).unwrap();
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
        let out = run_kernel(Op::GatherGrad, &Attrs::new(), &[params, idx, grad]).unwrap();
        assert_eq!(out[0].to_f64_vec(), vec![2.0, 2.0, 0.0, 0.0, 5.0, 5.0]);
    }
}
