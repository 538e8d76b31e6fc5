//! CPU kernels for the standard op catalog.
//!
//! One kernel per primitive op, shared by the eager dispatcher and the
//! graph executor (§1: imperative and staged execution "share a single set
//! of primitive operations, kernels"). Simulated devices run these same
//! kernels (or skip them in cost-only mode). The table is one exhaustive
//! `match` over [`Op`] in [`run_kernel`]: an op without an arm does not
//! compile, and finding a kernel is a jump, not a map lookup. A kernel
//! reads the fields of the op's typed [`Params`], decoded once where the op
//! entered; none parses an attribute.

use crate::error::{Result, RuntimeError};
use std::sync::Arc;
use tfe_ops::{Op, Params};
use tfe_tensor::conv;
use tfe_tensor::elementwise::{self, BinaryOp};
use tfe_tensor::pool::{self, PoolKind};
use tfe_tensor::{matmul, reduce, shape_ops, softmax, Shape, TensorData};

/// What a kernel hands back: its outputs in order, each shared as its
/// consumers hold it, with no `Vec` for the one output nearly every op has.
pub(crate) type Outputs =
    std::iter::Chain<std::option::IntoIter<Arc<TensorData>>, std::vec::IntoIter<Arc<TensorData>>>;

/// The one output `t`.
pub(crate) fn shared(t: Arc<TensorData>) -> Outputs {
    Some(t).into_iter().chain(Vec::new())
}

/// The outputs `ts`.
pub(crate) fn many(ts: Vec<Arc<TensorData>>) -> Outputs {
    None.into_iter().chain(ts)
}

/// Bytes of one value's elements.
pub(crate) fn tensor_bytes(t: &TensorData) -> u64 {
    (t.num_elements() * t.dtype().size_bytes()) as u64
}

/// Run the kernel for `op`, under a `kernel` profile span. The values come
/// back unshared: a `read_variable` gets its own copy of the value.
///
/// # Errors
/// Kernel failure, or an op the dispatcher runs itself (`call`, `cond`,
/// `while_loop`, `host_func`, `copy`) or that only marks a graph position
/// (`placeholder`, `const`).
pub fn run_kernel(op: Op, params: &Params, inputs: &[Arc<TensorData>]) -> Result<Vec<TensorData>> {
    Ok(spanned_kernel(op, params, inputs)?.map(Arc::unwrap_or_clone).collect())
}

fn spanned_kernel(op: Op, params: &Params, inputs: &[Arc<TensorData>]) -> Result<Outputs> {
    let mut sp = tfe_profile::span("kernel", || op.name());
    let out = kernel(op, params, inputs)?;
    if let Some(sp) = sp.as_mut() {
        sp.set_bytes(out.clone().map(|t| tensor_bytes(&t)).sum());
    }
    Ok(out)
}

/// The kernel as the executing paths (eager dispatch, the executor's
/// node-runner) launch it: under a `kernel` span, timed into
/// `tfe_kernel_time_ns`, its outputs handed on as they were made.
pub(crate) fn launch_kernel(
    op: Op,
    params: &Params,
    inputs: &[Arc<TensorData>],
) -> Result<Outputs> {
    let t0 = std::time::Instant::now();
    let out = spanned_kernel(op, params, inputs)?;
    tfe_metrics::static_histogram!(
        "tfe_kernel_time_ns",
        "Wall-clock nanoseconds per compute-kernel invocation (eager and staged)",
        tfe_metrics::DEFAULT_NS_BUCKETS
    )
    .observe(t0.elapsed().as_nanos() as u64);
    Ok(out)
}

fn one(t: TensorData) -> Result<Outputs> {
    Ok(shared(Arc::new(t)))
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

fn reduce_kernel(p: &Params, i: &[Arc<TensorData>], op: reduce::ReduceOp) -> Result<Outputs> {
    let (axes, keep_dims) = p.reduction()?;
    one(reduce::reduce(in0(i)?, axes, keep_dims, op)?)
}

fn variable(p: &Params) -> Result<Arc<crate::variable::VarStorage>> {
    let id = p.var_id().ok_or_else(|| p.mismatch())?;
    crate::variable::registry().resolve(id as u64)
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

/// The kernel table.
#[allow(clippy::too_many_lines)]
fn kernel(op: Op, p: &Params, i: &[Arc<TensorData>]) -> Result<Outputs> {
    let mismatch = || -> Result<Outputs> { Err(p.mismatch().into()) };
    match op {
        // --- elementwise --------------------------------------------------
        Op::Unary(op) => one(elementwise::unary(in0(i)?, op)?),
        Op::Binary(op) => one(elementwise::binary(in0(i)?, in_n(i, 1)?, op)?),
        Op::Compare(op) => one(elementwise::compare(in0(i)?, in_n(i, 1)?, op)?),
        Op::Logical(op) => one(elementwise::logical(in0(i)?, in_n(i, 1)?, op)?),
        Op::LogicalNot => one(elementwise::logical_not(in0(i)?)?),
        Op::Select => one(elementwise::select(in0(i)?, in_n(i, 1)?, in_n(i, 2)?)?),
        Op::Cast => {
            let Params::Cast { dtype } = p else { return mismatch() };
            one(in0(i)?.cast(*dtype))
        }
        Op::FusedElementwise => {
            // The node holds the form the fusion pass (or the decoder)
            // compiled.
            let Params::Fused { program } = p else { return mismatch() };
            let program =
                program.get::<tfe_graph::program::CompiledProgram>().ok_or_else(|| {
                    RuntimeError::Internal(format!("program `{}` is not compiled", program.label()))
                })?;
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
            let Params::Fill { dtype, shape, value } = p else { return mismatch() };
            one(TensorData::fill_f64(*dtype, shape.clone(), value.0))
        }
        Op::Eye => {
            let Params::Eye { dtype, n } = p else { return mismatch() };
            one(TensorData::eye(*dtype, *n))
        }
        Op::Range => {
            let Params::Range { dtype, start, step, count } = p else { return mismatch() };
            one(TensorData::range_f64(*dtype, start.0, step.0, *count))
        }
        Op::ShapeOf => {
            let dims: Vec<i64> = in0(i)?.shape().dims().iter().map(|&d| d as i64).collect();
            let n = dims.len();
            one(TensorData::from_vec(dims, Shape::from([n]))?)
        }
        Op::RankOf => one(TensorData::scalar(in0(i)?.shape().rank() as i64)),
        Op::SizeOf => one(TensorData::scalar(in0(i)?.num_elements() as i64)),
        Op::Reshape => {
            let Params::Reshape { shape } = p else { return mismatch() };
            one(shape_ops::reshape(in0(i)?, shape)?)
        }
        Op::Transpose => {
            let Params::Transpose { perm } = p else { return mismatch() };
            one(shape_ops::transpose(in0(i)?, perm)?)
        }
        Op::ExpandDims => one(shape_ops::expand_dims(in0(i)?, p.axis()?)?),
        Op::Squeeze => {
            let Params::Squeeze { axes } = p else { return mismatch() };
            one(shape_ops::squeeze(in0(i)?, axes)?)
        }
        Op::Concat => {
            let refs: Vec<&TensorData> = i.iter().map(|t| t.as_ref()).collect();
            one(shape_ops::concat(&refs, p.axis()?)?)
        }
        Op::Split => {
            let Params::Split { num, axis } = *p else { return mismatch() };
            let parts = shape_ops::split(in0(i)?, num, axis)?;
            Ok(many(parts.into_iter().map(Arc::new).collect()))
        }
        Op::Slice => {
            let Params::Slice { begin, size } = p else { return mismatch() };
            one(shape_ops::slice(in0(i)?, begin, size)?)
        }
        Op::SliceGrad => {
            let Params::SliceGrad { begin } = p else { return mismatch() };
            one(shape_ops::pad_to(in_n(i, 1)?, begin, in0(i)?.shape())?)
        }
        Op::Pad => {
            let Params::Pad { paddings, value } = p else { return mismatch() };
            one(shape_ops::pad(in0(i)?, paddings, value.0)?)
        }
        Op::Gather => one(shape_ops::gather(in0(i)?, in_n(i, 1)?, p.axis()?)?),
        Op::GatherGrad => {
            if p.axis()? != 0 {
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
            let Params::Tile { multiples } = p else { return mismatch() };
            one(shape_ops::tile(in0(i)?, multiples)?)
        }
        Op::BroadcastTo => {
            let Params::BroadcastTo { shape } = p else { return mismatch() };
            one(shape_ops::broadcast_to(in0(i)?, &Shape::new(shape.clone()))?)
        }
        Op::SumToLike => {
            let target = in_n(i, 1)?.shape().clone();
            one(sum_to_shape(in0(i)?, &target)?)
        }
        Op::Reverse => one(shape_ops::reverse(in0(i)?, p.axis()?)?),
        Op::OneHot => {
            let Params::OneHot { depth, dtype } = p else { return mismatch() };
            one(shape_ops::one_hot(in0(i)?, *depth, *dtype)?)
        }
        Op::Print => {
            let Params::Print { message } = p else { return mismatch() };
            let x = in0(i)?;
            eprintln!("[tfe print] {message}{:?}", x);
            one(x.clone())
        }
        Op::Matmul | Op::BatchMatmul => {
            let (ta, tb) = p.transposes()?;
            let (a, b) = (in0(i)?, in_n(i, 1)?);
            one(if op == Op::Matmul {
                matmul::matmul(a, b, ta, tb)?
            } else {
                matmul::batch_matmul(a, b, ta, tb)?
            })
        }
        Op::ReduceSum => reduce_kernel(p, i, reduce::ReduceOp::Sum),
        Op::ReduceMean => reduce_kernel(p, i, reduce::ReduceOp::Mean),
        Op::ReduceMax => reduce_kernel(p, i, reduce::ReduceOp::Max),
        Op::ReduceMin => reduce_kernel(p, i, reduce::ReduceOp::Min),
        Op::ReduceProd => reduce_kernel(p, i, reduce::ReduceOp::Prod),
        Op::ReduceAny | Op::ReduceAll => {
            let (axes, keep_dims) = p.reduction()?;
            one(reduce::reduce_bool(in0(i)?, axes, keep_dims, op == Op::ReduceAll)?)
        }
        Op::Argmax | Op::Argmin => one(reduce::argminmax(in0(i)?, p.axis()?, op == Op::Argmax)?),
        Op::Cumsum => one(reduce::cumsum(in0(i)?, p.axis()?)?),
        Op::Conv2d | Op::Conv2dBackpropInput | Op::Conv2dBackpropFilter => {
            let Params::Conv { strides, padding } = *p else { return mismatch() };
            let (x, f) = (in0(i)?, in_n(i, 1)?);
            one(match op {
                Op::Conv2d => conv::conv2d(x, f, strides, padding)?,
                Op::Conv2dBackpropInput => {
                    conv::conv2d_backprop_input(x.shape(), f, in_n(i, 2)?, strides, padding)?
                }
                _ => conv::conv2d_backprop_filter(x, f.shape(), in_n(i, 2)?, strides, padding)?,
            })
        }
        Op::MaxPool | Op::AvgPool => {
            let Params::Pool { ksize, strides, padding } = *p else { return mismatch() };
            let kind = if op == Op::MaxPool { PoolKind::Max } else { PoolKind::Avg };
            one(pool::pool2d(in0(i)?, ksize, strides, padding, kind)?)
        }
        Op::MaxPoolGrad | Op::AvgPoolGrad => {
            let Params::Pool { ksize, strides, padding } = *p else { return mismatch() };
            let kind = if op == Op::MaxPoolGrad { PoolKind::Max } else { PoolKind::Avg };
            one(pool::pool2d_grad(in0(i)?, in_n(i, 1)?, ksize, strides, padding, kind)?)
        }
        Op::Softmax => one(softmax::softmax(in0(i)?)?),
        Op::LogSoftmax => one(softmax::log_softmax(in0(i)?)?),
        Op::SparseSoftmaxXent => one(softmax::sparse_softmax_xent(in0(i)?, in_n(i, 1)?)?),
        Op::SoftmaxXentGrad => one(softmax::softmax_xent_grad(in0(i)?, in_n(i, 1)?, in_n(i, 2)?)?),
        Op::RandomNormal | Op::TruncatedNormal => {
            let Params::Normal { dtype, shape, mean, stddev } = p else { return mismatch() };
            let (dt, shape, mean, stddev) = (*dtype, shape.clone(), mean.0, stddev.0);
            one(crate::context::with_rng(|rng| match op {
                Op::RandomNormal => rng.normal(dt, shape, mean, stddev),
                _ => rng.truncated_normal(dt, shape, mean, stddev),
            })?)
        }
        Op::RandomUniform => {
            let Params::Uniform { dtype, shape, low, high } = p else { return mismatch() };
            one(crate::context::with_rng(|rng| rng.uniform(*dtype, shape.clone(), low.0, high.0))?)
        }
        Op::DropoutMask => {
            let Params::Dropout { keep_prob } = p else { return mismatch() };
            let x = in0(i)?;
            one(crate::context::with_rng(|rng| {
                rng.dropout_mask(x.dtype(), x.shape().clone(), keep_prob.0)
            })?)
        }
        // The variable's own `Arc`: an assign replaces it rather than
        // writing into it, so a value read earlier keeps its contents.
        Op::ReadVariable => Ok(shared(variable(p)?.value())),
        Op::Assign => {
            variable(p)?.set_value(in0(i)?.clone())?;
            Ok(many(Vec::new()))
        }
        Op::AssignAdd | Op::AssignSub => {
            let storage = variable(p)?;
            let step = if op == Op::AssignAdd { BinaryOp::Add } else { BinaryOp::Sub };
            storage.set_value(elementwise::binary(&storage.value(), in0(i)?, step)?)?;
            Ok(many(Vec::new()))
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
        let out = run_kernel(Op::Binary(BinaryOp::Mul), &Params::None, &[a, b]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 6.0);
        // Ops the dispatcher runs itself answer with an error, not a panic,
        // and so do parameters that are not the op's.
        assert!(run_kernel(Op::Call, &Params::None, &[]).is_err());
        let x = Arc::new(TensorData::scalar(2.0f32));
        assert!(run_kernel(Op::Cast, &Params::None, &[x]).is_err());
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
        let params = Params::SliceGrad { begin: vec![1] };
        let out = run_kernel(Op::SliceGrad, &params, &[input, grad]).unwrap();
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
        let axis = Params::Axis { axis: 0 };
        let out = run_kernel(Op::GatherGrad, &axis, &[params, idx, grad]).unwrap();
        assert_eq!(out[0].to_f64_vec(), vec![2.0, 2.0, 0.0, 0.0, 5.0, 5.0]);
    }
}
