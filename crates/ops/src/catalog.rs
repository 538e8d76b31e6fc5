//! The standard operation catalog: the [`OpDef`] of every [`Op`] — the
//! single op set shared by eager dispatch, the graph builder, the tracer
//! and autodiff (§1's "single set of primitive operations, kernels, and
//! user-visible APIs"). Adding an op means a variant in `opdef.rs` and an
//! arm in [`def`] (and, if it takes parameters, a variant or an arm in the
//! `params` module); the kernel and gradient tables then fail to compile
//! until they decide about it too. Inference reads the typed [`Params`].

use crate::opdef::{elems_or, Arity, InferCtx, Op, OpDef, OpError, OutputSig, WorkEstimate};
use crate::params::Params;
use crate::symshape::SymShape;
use tfe_tensor::conv::Padding;
use tfe_tensor::{DType, TensorError};

fn same_as_input(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    like(ctx, 0, 0)
}

/// What reading parameters of another op gives; `Op::infer` has checked
/// that they fit.
fn unfit(ctx: &InferCtx) -> OpError {
    ctx.params.mismatch()
}

/// One output of input `dtype_of`'s dtype and input `shape_of`'s shape.
fn like(ctx: &InferCtx, dtype_of: usize, shape_of: usize) -> Result<OutputSig, OpError> {
    Ok(vec![(ctx.dtype(dtype_of)?, ctx.shape(shape_of)?.clone())])
}

fn mismatch(expected: impl Into<String>, got: DType) -> OpError {
    OpError::Shape(TensorError::DTypeMismatch { expected: expected.into(), got })
}

/// The dtype of input `i`, which `ok` must accept.
fn dtype_where(
    ctx: &InferCtx,
    i: usize,
    expected: &str,
    ok: fn(DType) -> bool,
) -> Result<DType, OpError> {
    let got = ctx.dtype(i)?;
    if ok(got) {
        Ok(got)
    } else {
        Err(mismatch(expected, got))
    }
}

/// `axis` of a rank-`rank` value, counted from the end when negative.
fn norm_axis(axis: i64, rank: usize) -> Result<usize, OpError> {
    let r = if axis < 0 { axis + rank as i64 } else { axis };
    usize::try_from(r)
        .ok()
        .filter(|&r| r < rank)
        .ok_or(OpError::Shape(TensorError::InvalidAxis { axis, rank }))
}

/// Bytes of the inputs plus those of `outputs`.
fn io_bytes(ctx: &InferCtx, outputs: &OutputSig) -> f64 {
    let sigs = ctx.dtypes.iter().zip(ctx.shapes).chain(outputs.iter().map(|(d, s)| (d, s)));
    sigs.map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64).sum()
}

fn check_same_dtypes(ctx: &InferCtx) -> Result<DType, OpError> {
    let dt = ctx.dtype(0)?;
    match ctx.dtypes.iter().enumerate().skip(1).find(|(_, &other)| other != dt) {
        Some((i, &got)) => Err(mismatch(format!("{dt} (input {i} disagrees with input 0)"), got)),
        None => Ok(dt),
    }
}

fn broadcast_all(ctx: &InferCtx) -> Result<SymShape, OpError> {
    let mut shape = ctx.shape(0)?.clone();
    for s in &ctx.shapes[1..] {
        shape = shape.broadcast(s)?;
    }
    Ok(shape)
}

fn infer_binary(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    check_same_dtypes(ctx)?;
    let dt = dtype_where(ctx, 0, "a numeric dtype", |d| d != DType::Bool)?;
    Ok(vec![(dt, broadcast_all(ctx)?)])
}

fn infer_compare(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    check_same_dtypes(ctx)?;
    Ok(vec![(DType::Bool, broadcast_all(ctx)?)])
}

fn static_shape(dims: &[usize]) -> SymShape {
    SymShape::new(dims.iter().map(|&d| Some(d)).collect::<Vec<_>>())
}

fn float_check(ctx: &InferCtx, i: usize) -> Result<DType, OpError> {
    dtype_where(ctx, i, "a float dtype", DType::is_float)
}

fn infer_unary(ctx: &InferCtx, supports_int: bool) -> Result<OutputSig, OpError> {
    let dt = ctx.dtype(0)?;
    if dt == DType::Bool || (dt.is_int() && !supports_int) {
        return Err(mismatch("a supported numeric dtype", dt));
    }
    same_as_input(ctx)
}

/// The one output of an op whose parameters declare its dtype and shape.
fn declared_value(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    let (dtype, shape) = match ctx.params {
        Params::Const { dtype, shape, .. }
        | Params::Fill { dtype, shape, .. }
        | Params::Normal { dtype, shape, .. }
        | Params::Uniform { dtype, shape, .. }
        | Params::ReadVariable { dtype, shape, .. } => (dtype, static_shape(shape)),
        Params::Placeholder { dtype, shape } => (dtype, shape.clone()),
        Params::Eye { dtype, n } => (dtype, static_shape(&[*n, *n])),
        Params::Range { dtype, count, .. } => (dtype, static_shape(&[*count])),
        p => return Err(p.mismatch()),
    };
    Ok(vec![(*dtype, shape)])
}

/// The output signature a `call`, `host_func` or `cond` declares.
fn callee_outputs(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    match ctx.params {
        Params::Call { outputs, .. }
        | Params::HostFunc { outputs, .. }
        | Params::Cond { outputs, .. } => Ok(outputs.clone()),
        p => Err(p.mismatch()),
    }
}

fn matmul_work(ctx: &InferCtx, outputs: &OutputSig) -> WorkEstimate {
    // flops = 2*m*k*n per batch element.
    let k = {
        let a = ctx.shapes.first().map(|s| s.dims()).unwrap_or(&[]);
        let ta = matches!(ctx.params, Params::Matmul { transpose_a: true, .. });
        let idx = if ta { a.len().saturating_sub(2) } else { a.len().saturating_sub(1) };
        a.get(idx).copied().flatten().unwrap_or(1)
    };
    let out_elems: usize = outputs.iter().map(|(_, s)| elems_or(s, 1)).sum();
    WorkEstimate { flops: 2.0 * k as f64 * out_elems as f64, bytes: io_bytes(ctx, outputs) }
}

fn reduced(s: &SymShape, axes: &[i64], keep_dims: bool) -> Result<SymShape, OpError> {
    let mut norm: Vec<usize> = Vec::new();
    if axes.is_empty() {
        norm = (0..s.rank()).collect();
    } else {
        for &a in axes {
            let r = norm_axis(a, s.rank())?;
            if norm.contains(&r) {
                return Err(OpError::Invalid(format!("duplicate reduce axis {a}")));
            }
            norm.push(r);
        }
    }
    let mut dims = Vec::new();
    for (i, d) in s.dims().iter().enumerate() {
        if norm.contains(&i) {
            if keep_dims {
                dims.push(Some(1));
            }
        } else {
            dims.push(*d);
        }
    }
    Ok(SymShape::new(dims))
}

fn conv_work(ctx: &InferCtx, outputs: &OutputSig) -> WorkEstimate {
    // All three conv ops perform ~2 * |activation grad/output| * kh *
    // kw * c_in flops, where the "spatial" tensor is the forward
    // output for conv2d and the incoming gradient (input 2) for the
    // two backprop variants. Using the op's own *output* for the
    // backprop-filter case would badly overcount (its output is the
    // small filter, not an activation).
    let filter = ctx.shapes.get(1).map(|s| s.dims()).unwrap_or(&[]);
    let khkwc: usize = filter.iter().take(3).map(|d| d.unwrap_or(1)).product();
    let spatial: usize = if ctx.shapes.len() >= 3 {
        elems_or(ctx.shapes.get(2).unwrap_or(&SymShape::scalar()), 1)
    } else {
        outputs.iter().map(|(_, s)| elems_or(s, 1)).sum()
    };
    let in_bytes: f64 = ctx
        .dtypes
        .iter()
        .zip(ctx.shapes)
        .map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64)
        .sum();
    let out_elems: usize = outputs.iter().map(|(_, s)| elems_or(s, 1)).sum();
    WorkEstimate {
        flops: 2.0 * spatial as f64 * khkwc as f64,
        bytes: in_bytes + (out_elems * 4) as f64,
    }
}

fn conv_out_dim(input: Option<usize>, k: usize, stride: usize, padding: Padding) -> Option<usize> {
    input.map(|i| padding.resolve(i, k, stride).0)
}

/// A `'static` [`OpDef`] out of a constant expression.
macro_rules! def {
    ($def:expr) => {
        &const { $def }
    };
}

/// The definition of `op`: one arm per op (or per family of ops that share
/// a definition), each a `'static` constant.
#[allow(clippy::too_many_lines)]
pub(crate) fn def(op: Op) -> &'static OpDef {
    match op {
        // --- elementwise ------------------------------------------------------
        Op::Binary(_) => def!(OpDef::new(Arity::Exact(2), infer_binary)),
        Op::Unary(u) if u.supports_int() => {
            def!(OpDef::new(Arity::Exact(1), |ctx| infer_unary(ctx, true)))
        }
        Op::Unary(_) => def!(OpDef::new(Arity::Exact(1), |ctx| infer_unary(ctx, false))),
        Op::Compare(_) => def!(OpDef::new(Arity::Exact(2), infer_compare)),
        Op::Logical(_) => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                dtype_where(ctx, 0, "bool", |d| d == DType::Bool)?;
                dtype_where(ctx, 1, "bool", |d| d == DType::Bool)?;
                Ok(vec![(DType::Bool, broadcast_all(ctx)?)])
            }))
        }
        Op::LogicalNot => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                dtype_where(ctx, 0, "bool", |d| d == DType::Bool)?;
                same_as_input(ctx)
            }))
        }
        Op::Select => {
            def!(OpDef::new(Arity::Exact(3), |ctx| {
                dtype_where(ctx, 0, "bool condition", |d| d == DType::Bool)?;
                if ctx.dtype(1)? != ctx.dtype(2)? {
                    return Err(mismatch(ctx.dtype(1)?.name(), ctx.dtype(2)?));
                }
                Ok(vec![(ctx.dtype(1)?, broadcast_all(ctx)?)])
            }))
        }
        Op::Cast => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Cast { dtype } = ctx.params else { return Err(unfit(ctx)) };
                Ok(vec![(*dtype, ctx.shape(0)?.clone())])
            }))
        }
        // The fused elementwise kernel produced by the XLA-style fusion pass:
        // f32 in, f32 out, the one dtype its tiles run.
        Op::FusedElementwise => {
            def!(OpDef::new(Arity::AtLeast(1), |ctx| {
                if let Some(&got) = ctx.dtypes.iter().find(|&&dt| dt != DType::F32) {
                    return Err(mismatch("f32", got));
                }
                Ok(vec![(DType::F32, broadcast_all(ctx)?)])
            })
            .with_work(|ctx, outputs| {
                // One pass over memory for the whole fused program, but all the
                // program's flops. Count only compute instructions — `in:` parts
                // alias their source and do no work.
                let n_instr = match ctx.params {
                    Params::Fused { program } => {
                        let text = program.label().split(';');
                        text.filter(|part| !part.starts_with("in:")).count().max(1)
                    }
                    _ => 1,
                } as f64;
                let out_elems: f64 = outputs.iter().map(|(_, s)| elems_or(s, 1) as f64).sum();
                WorkEstimate { flops: n_instr * out_elems, bytes: io_bytes(ctx, outputs) }
            }))
        }

        // --- structure --------------------------------------------------------
        // Values the parameters declare; a graph-function argument keeps its
        // unknown dims.
        Op::Const | Op::Fill | Op::Placeholder | Op::Eye | Op::Range => {
            def!(OpDef::new(Arity::Exact(0), declared_value))
        }
        Op::Identity | Op::ZerosLike | Op::OnesLike | Op::Copy => {
            def!(OpDef::new(Arity::Exact(1), same_as_input))
        }
        Op::ShapeOf => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                Ok(vec![(DType::I64, SymShape::new(vec![Some(ctx.shape(0)?.rank())]))])
            }))
        }
        // Tensor metadata as scalars. Like `shape_of`, these exist so traces
        // can consume shape information as data; the constant-propagation pass
        // folds them whenever the static shape is known.
        Op::RankOf | Op::SizeOf => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let _ = ctx.shape(0)?;
                Ok(vec![(DType::I64, SymShape::scalar())])
            }))
        }
        Op::Reshape => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Reshape { shape: target } = ctx.params else { return Err(unfit(ctx)) };
                let in_shape = ctx.shape(0)?;
                // `Params::check` allowed at most one -1 and no other negative.
                let out: Vec<Option<usize>> =
                    target.iter().map(|&d| usize::try_from(d).ok()).collect();
                let wildcard = out.iter().position(Option::is_none);
                let known = out.iter().flatten().fold(1usize, |n, &d| n.saturating_mul(d));
                let mut out = out;
                if let (Some(w), Some(n)) = (wildcard, in_shape.num_elements()) {
                    if known == 0 || n % known != 0 {
                        return Err(OpError::Shape(TensorError::InvalidArgument(format!(
                            "cannot reshape {n} elements into {target:?}"
                        ))));
                    }
                    out[w] = Some(n / known);
                }
                if wildcard.is_none() {
                    if let Some(n) = in_shape.num_elements() {
                        if n != known {
                            return Err(OpError::Shape(TensorError::InvalidArgument(format!(
                                "cannot reshape {n} elements into {target:?}"
                            ))));
                        }
                    }
                }
                Ok(vec![(ctx.dtype(0)?, SymShape::new(out))])
            }))
        }
        Op::Transpose => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Transpose { perm } = ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                if perm.len() != s.rank() {
                    return Err(OpError::Invalid(format!(
                        "perm length {} != rank {}",
                        perm.len(),
                        s.rank()
                    )));
                }
                let mut seen = vec![false; s.rank()];
                let mut dims = Vec::with_capacity(s.rank());
                for &p in perm {
                    if p >= s.rank() || seen[p] {
                        return Err(OpError::Invalid(format!("bad permutation {perm:?}")));
                    }
                    seen[p] = true;
                    dims.push(s.dims()[p]);
                }
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::ExpandDims => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let s = ctx.shape(0)?;
                // The result has one axis more, which `axis` counts in.
                let axis = ctx.params.axis()?;
                let ax = norm_axis(axis, s.rank() + 1).map_err(|_| {
                    OpError::Shape(TensorError::InvalidAxis { axis, rank: s.rank() })
                })?;
                let mut dims = s.dims().to_vec();
                dims.insert(ax, Some(1));
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::Squeeze => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Squeeze { axes } = ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                let mut drop = vec![false; s.rank()];
                if axes.is_empty() {
                    for (i, d) in s.dims().iter().enumerate() {
                        drop[i] = *d == Some(1);
                    }
                } else {
                    for &a in axes {
                        let r = norm_axis(a, s.rank())?;
                        match s.dims()[r] {
                            Some(1) | None => drop[r] = true,
                            Some(d) => {
                                return Err(OpError::Invalid(format!(
                                    "cannot squeeze axis {a} of size {d}"
                                )))
                            }
                        }
                    }
                }
                let dims: Vec<Option<usize>> = s
                    .dims()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !drop[*i])
                    .map(|(_, d)| *d)
                    .collect();
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::Concat => {
            def!(OpDef::new(Arity::AtLeast(1), |ctx| {
                let dt = check_same_dtypes(ctx)?;
                let axis = ctx.params.axis()?;
                let first = ctx.shape(0)?;
                let ax = norm_axis(axis, first.rank())?;
                let mut dims = first.dims().to_vec();
                let mut total = Some(0usize);
                for s in ctx.shapes {
                    if s.rank() != first.rank() {
                        return Err(OpError::Invalid("concat rank mismatch".to_string()));
                    }
                    for (i, (dim, &sd)) in dims.iter_mut().zip(s.dims()).enumerate() {
                        if i != ax {
                            match (*dim, sd) {
                                (Some(a), Some(b)) if a != b => {
                                    return Err(OpError::Invalid(format!(
                                        "concat dim {i} mismatch: {a} vs {b}"
                                    )))
                                }
                                (None, known) => *dim = known,
                                _ => {}
                            }
                        }
                    }
                    total = match (total, s.dims()[ax]) {
                        (Some(t), Some(d)) => Some(t + d),
                        _ => None,
                    };
                }
                dims[ax] = total;
                Ok(vec![(dt, SymShape::new(dims))])
            }))
        }
        Op::Split => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Split { num, axis } = *ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                let ax = norm_axis(axis, s.rank())?;
                let part = match s.dims()[ax] {
                    Some(d) => {
                        if d % num != 0 {
                            return Err(OpError::Invalid(format!(
                                "cannot split {d} into {num} parts"
                            )));
                        }
                        Some(d / num)
                    }
                    None => None,
                };
                let mut dims = s.dims().to_vec();
                dims[ax] = part;
                let out = SymShape::new(dims);
                Ok(vec![(ctx.dtype(0)?, out); num])
            }))
        }
        Op::Slice => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Slice { begin, size } = ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                if begin.len() != s.rank() || size.len() != s.rank() {
                    return Err(OpError::Invalid("slice begin/size rank mismatch".to_string()));
                }
                let mut dims = Vec::with_capacity(s.rank());
                for i in 0..s.rank() {
                    if size[i] == -1 {
                        dims.push(s.dims()[i].map(|d| d - begin[i] as usize));
                    } else {
                        dims.push(Some(size[i] as usize));
                    }
                }
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        // Adjoints of `slice` and the pools over (input, grad_out): shaped
        // like the original input, which is passed only for its shape.
        Op::SliceGrad | Op::MaxPoolGrad | Op::AvgPoolGrad => {
            def!(OpDef::new(Arity::Exact(2), |ctx| like(ctx, 1, 0)))
        }
        Op::Pad => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Pad { paddings, .. } = ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                if paddings.len() != s.rank() {
                    return Err(OpError::Invalid("pad wants 2 entries per axis".to_string()));
                }
                let dims: Vec<Option<usize>> =
                    s.dims().iter().zip(paddings).map(|(d, (b, e))| d.map(|d| d + b + e)).collect();
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::Gather => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                dtype_where(ctx, 1, "integer indices", DType::is_int)?;
                let s = ctx.shape(0)?;
                let ax = norm_axis(ctx.params.axis()?, s.rank())?;
                let mut dims = s.dims()[..ax].to_vec();
                dims.extend_from_slice(ctx.shape(1)?.dims());
                dims.extend_from_slice(&s.dims()[ax + 1..]);
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        // Adjoint of axis-0 `gather`: inputs (params, indices, grad_out).
        Op::GatherGrad => def!(OpDef::new(Arity::Exact(3), |ctx| like(ctx, 2, 0))),
        Op::Tile => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::Tile { multiples } = ctx.params else { return Err(unfit(ctx)) };
                let s = ctx.shape(0)?;
                if multiples.len() != s.rank() {
                    return Err(OpError::Invalid("tile multiples rank mismatch".to_string()));
                }
                let dims: Vec<Option<usize>> =
                    s.dims().iter().zip(multiples).map(|(d, &m)| d.map(|d| d * m)).collect();
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::BroadcastTo => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let Params::BroadcastTo { shape } = ctx.params else { return Err(unfit(ctx)) };
                Ok(vec![(ctx.dtype(0)?, static_shape(shape))])
            }))
        }
        // Reduce `x` (input 0) down to the shape of `ref` (input 1): the
        // adjoint of broadcasting, used pervasively by binary-op gradients.
        Op::SumToLike => def!(OpDef::new(Arity::Exact(2), |ctx| like(ctx, 0, 1))),
        Op::OneHot => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                dtype_where(ctx, 0, "integer indices", DType::is_int)?;
                let Params::OneHot { depth, dtype } = ctx.params else { return Err(unfit(ctx)) };
                let mut dims = ctx.shape(0)?.dims().to_vec();
                dims.push(Some(*depth));
                Ok(vec![(*dtype, SymShape::new(dims))])
            }))
        }
        Op::Reverse | Op::Cumsum => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                ctx.params.axis()?; // range validated at kernel time
                same_as_input(ctx)
            }))
        }
        Op::Print => def!(OpDef::new(Arity::Exact(1), same_as_input).stateful()),

        // --- linalg -----------------------------------------------------------
        Op::Matmul => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                float_check(ctx, 0)?;
                check_same_dtypes(ctx)?;
                let (a, b) = (ctx.shape(0)?, ctx.shape(1)?);
                if a.rank() != 2 || b.rank() != 2 {
                    return Err(OpError::Invalid("matmul wants rank-2 operands".to_string()));
                }
                let (ta, tb) = ctx.params.transposes()?;
                let (m, k1) =
                    if ta { (a.dims()[1], a.dims()[0]) } else { (a.dims()[0], a.dims()[1]) };
                let (k2, n) =
                    if tb { (b.dims()[1], b.dims()[0]) } else { (b.dims()[0], b.dims()[1]) };
                if let (Some(x), Some(y)) = (k1, k2) {
                    if x != y {
                        return Err(OpError::Invalid(format!(
                            "matmul inner dims mismatch: {x} vs {y}"
                        )));
                    }
                }
                Ok(vec![(ctx.dtype(0)?, SymShape::new(vec![m, n]))])
            })
            .with_work(matmul_work))
        }
        Op::BatchMatmul => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                float_check(ctx, 0)?;
                check_same_dtypes(ctx)?;
                let (a, b) = (ctx.shape(0)?, ctx.shape(1)?);
                if a.rank() < 2 || b.rank() < 2 {
                    return Err(OpError::Invalid("batch_matmul wants rank>=2".to_string()));
                }
                let (ta, tb) = ctx.params.transposes()?;
                let ab = SymShape::new(a.dims()[..a.rank() - 2].to_vec());
                let bb = SymShape::new(b.dims()[..b.rank() - 2].to_vec());
                let batch = ab.broadcast(&bb)?;
                let ad = &a.dims()[a.rank() - 2..];
                let bd = &b.dims()[b.rank() - 2..];
                let (m, k1) = if ta { (ad[1], ad[0]) } else { (ad[0], ad[1]) };
                let (k2, n) = if tb { (bd[1], bd[0]) } else { (bd[0], bd[1]) };
                if let (Some(x), Some(y)) = (k1, k2) {
                    if x != y {
                        return Err(OpError::Invalid(format!(
                            "batch_matmul inner dims mismatch: {x} vs {y}"
                        )));
                    }
                }
                let mut dims = batch.dims().to_vec();
                dims.push(m);
                dims.push(n);
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            })
            .with_work(matmul_work))
        }

        // --- reductions -------------------------------------------------------
        Op::ReduceSum | Op::ReduceMean | Op::ReduceMax | Op::ReduceMin | Op::ReduceProd => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let dt = dtype_where(ctx, 0, "a numeric dtype", |d| d != DType::Bool)?;
                let (axes, keep) = ctx.params.reduction()?;
                Ok(vec![(dt, reduced(ctx.shape(0)?, axes, keep)?)])
            })
            .with_work(|ctx, _| {
                let n = elems_or(ctx.shapes.first().unwrap_or(&SymShape::scalar()), 1);
                let b = (n * ctx.dtypes.first().map(|d| d.size_bytes()).unwrap_or(4)) as f64;
                WorkEstimate { flops: n as f64, bytes: b }
            }))
        }
        Op::ReduceAny | Op::ReduceAll => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                dtype_where(ctx, 0, "bool", |d| d == DType::Bool)?;
                let (axes, keep) = ctx.params.reduction()?;
                Ok(vec![(DType::Bool, reduced(ctx.shape(0)?, axes, keep)?)])
            }))
        }
        Op::Argmax | Op::Argmin => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                Ok(vec![(DType::I64, reduced(ctx.shape(0)?, &[ctx.params.axis()?], false)?)])
            }))
        }

        // --- nn ---------------------------------------------------------------
        Op::Conv2d => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                float_check(ctx, 0)?;
                check_same_dtypes(ctx)?;
                let Params::Conv { strides, padding } = *ctx.params else { return Err(unfit(ctx)) };
                let x = ctx.shape(0)?;
                let f = ctx.shape(1)?;
                if x.rank() != 4 || f.rank() != 4 {
                    return Err(OpError::Invalid(
                        "conv2d wants NHWC input and HWIO filter".to_string(),
                    ));
                }
                if let (Some(ci), Some(fi)) = (x.dims()[3], f.dims()[2]) {
                    if ci != fi {
                        return Err(OpError::Invalid(format!(
                            "conv2d channel mismatch: input {ci} vs filter {fi}"
                        )));
                    }
                }
                let kh = f.dims()[0].unwrap_or(1);
                let kw = f.dims()[1].unwrap_or(1);
                let oh = conv_out_dim(x.dims()[1], kh, strides.0, padding);
                let ow = conv_out_dim(x.dims()[2], kw, strides.1, padding);
                Ok(vec![(ctx.dtype(0)?, SymShape::new(vec![x.dims()[0], oh, ow, f.dims()[3]]))])
            })
            .with_work(conv_work))
        }
        Op::Conv2dBackpropInput => {
            def!(OpDef::new(Arity::Exact(3), |ctx| like(ctx, 2, 0)).with_work(conv_work))
        }
        Op::Conv2dBackpropFilter => {
            def!(OpDef::new(Arity::Exact(3), |ctx| like(ctx, 2, 1)).with_work(conv_work))
        }
        Op::MaxPool | Op::AvgPool => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                float_check(ctx, 0)?;
                let Params::Pool { ksize, strides, padding } = *ctx.params else {
                    return Err(unfit(ctx));
                };
                let x = ctx.shape(0)?;
                if x.rank() != 4 {
                    return Err(OpError::Invalid("pool wants NHWC input".to_string()));
                }
                let oh = conv_out_dim(x.dims()[1], ksize.0, strides.0, padding);
                let ow = conv_out_dim(x.dims()[2], ksize.1, strides.1, padding);
                Ok(vec![(ctx.dtype(0)?, SymShape::new(vec![x.dims()[0], oh, ow, x.dims()[3]]))])
            }))
        }
        Op::Softmax | Op::LogSoftmax => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                float_check(ctx, 0)?;
                same_as_input(ctx)
            }))
        }
        Op::SparseSoftmaxXent => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                float_check(ctx, 0)?;
                dtype_where(ctx, 1, "integer labels", DType::is_int)?;
                let logits = ctx.shape(0)?;
                if logits.rank() < 1 {
                    return Err(OpError::Invalid("logits must have a class axis".to_string()));
                }
                Ok(vec![(
                    ctx.dtype(0)?,
                    SymShape::new(logits.dims()[..logits.rank() - 1].to_vec()),
                )])
            }))
        }
        Op::SoftmaxXentGrad => def!(OpDef::new(Arity::Exact(3), same_as_input)),

        // --- random -----------------------------------------------------------
        Op::RandomNormal | Op::RandomUniform | Op::TruncatedNormal => {
            def!(OpDef::new(Arity::Exact(0), declared_value).stateful())
        }
        Op::DropoutMask => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                float_check(ctx, 0)?;
                same_as_input(ctx)
            })
            .stateful())
        }

        // --- state ------------------------------------------------------------
        Op::ReadVariable => {
            def!(OpDef::new(Arity::Exact(0), declared_value).stateful())
        }
        Op::Assign | Op::AssignAdd | Op::AssignSub => {
            def!(OpDef::new(Arity::Exact(1), |_| Ok(Vec::new())).stateful())
        }

        // --- control ----------------------------------------------------------
        // Graph-function invocation (§4.6 "graph functions are themselves
        // executed by an operation"). Statefulness is decided per call site by
        // the tracer (the parameters' `stateful`), so the op itself is
        // stateless and the builder consults the parameters.
        Op::Call => def!(OpDef::new(Arity::AtLeast(0), callee_outputs)),
        // `py_func` analog (§4.7): runs a host closure imperatively inside a
        // staged computation.
        Op::HostFunc => def!(OpDef::new(Arity::AtLeast(0), callee_outputs).stateful()),
        Op::Cond => {
            def!(OpDef::new(Arity::AtLeast(1), |ctx| {
                dtype_where(ctx, 0, "bool predicate", |d| d == DType::Bool)?;
                callee_outputs(ctx)
            }))
        }
        Op::WhileLoop => {
            // Loop-carried values keep their signatures.
            def!(OpDef::new(Arity::AtLeast(0), |ctx| {
                Ok(ctx.dtypes.iter().copied().zip(ctx.shapes.iter().cloned()).collect())
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attrs;
    use crate::params::encode_sig;
    use tfe_tensor::Shape;

    fn infer(
        op: &str,
        dtypes: &[DType],
        shapes: &[SymShape],
        attrs: &Attrs,
    ) -> Result<OutputSig, OpError> {
        let op = Op::from_name(op).unwrap();
        op.infer(&InferCtx { dtypes, shapes, params: &Params::decode(op, attrs)? })
    }

    fn known(dims: &[usize]) -> SymShape {
        SymShape::known(&Shape::from(dims))
    }

    #[test]
    fn binary_broadcast_inference() {
        let out =
            infer("add", &[DType::F32, DType::F32], &[known(&[2, 1]), known(&[3])], &Attrs::new())
                .unwrap();
        assert_eq!(out, vec![(DType::F32, known(&[2, 3]))]);
        // dtype mismatch
        assert!(infer(
            "add",
            &[DType::F32, DType::F64],
            &[known(&[1]), known(&[1])],
            &Attrs::new()
        )
        .is_err());
        // bool arithmetic
        assert!(infer(
            "add",
            &[DType::Bool, DType::Bool],
            &[known(&[1]), known(&[1])],
            &Attrs::new()
        )
        .is_err());
    }

    #[test]
    fn compare_produces_bool() {
        let out = infer(
            "greater",
            &[DType::I32, DType::I32],
            &[known(&[4]), SymShape::scalar()],
            &Attrs::new(),
        )
        .unwrap();
        assert_eq!(out[0].0, DType::Bool);
        assert_eq!(out[0].1, known(&[4]));
    }

    #[test]
    fn unary_int_restrictions() {
        assert!(infer("abs", &[DType::I32], &[known(&[2])], &Attrs::new()).is_ok());
        assert!(infer("exp", &[DType::I32], &[known(&[2])], &Attrs::new()).is_err());
        assert!(infer("relu", &[DType::Bool], &[known(&[2])], &Attrs::new()).is_err());
    }

    #[test]
    fn matmul_inference_with_unknown_batch() {
        let a = SymShape::new(vec![None, Some(5)]);
        let out = infer("matmul", &[DType::F32, DType::F32], &[a, known(&[5, 3])], &Attrs::new())
            .unwrap();
        assert_eq!(out[0].1, SymShape::new(vec![None, Some(3)]));
        // transpose flags
        let out = infer(
            "matmul",
            &[DType::F32, DType::F32],
            &[known(&[5, 2]), known(&[5, 3])],
            &Attrs::new().with("transpose_a", true),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[2, 3]));
        // mismatch
        assert!(infer(
            "matmul",
            &[DType::F32, DType::F32],
            &[known(&[2, 5]), known(&[4, 3])],
            &Attrs::new()
        )
        .is_err());
    }

    #[test]
    fn reshape_inference() {
        let out = infer(
            "reshape",
            &[DType::F32],
            &[known(&[2, 6])],
            &Attrs::new().with("shape", vec![3i64, -1]),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[3, 4]));
        // unknown input leaves wildcard unknown
        let out = infer(
            "reshape",
            &[DType::F32],
            &[SymShape::new(vec![None, Some(6)])],
            &Attrs::new().with("shape", vec![-1i64, 3]),
        )
        .unwrap();
        assert_eq!(out[0].1, SymShape::new(vec![None, Some(3)]));
        assert!(infer(
            "reshape",
            &[DType::F32],
            &[known(&[5])],
            &Attrs::new().with("shape", vec![2i64, 2])
        )
        .is_err());
    }

    #[test]
    fn conv_pool_inference() {
        let out = infer(
            "conv2d",
            &[DType::F32, DType::F32],
            &[known(&[8, 32, 32, 3]), known(&[3, 3, 3, 16])],
            &Attrs::new().with("strides", vec![2i64, 2]).with("padding", "SAME"),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[8, 16, 16, 16]));
        let out = infer(
            "max_pool",
            &[DType::F32],
            &[known(&[8, 16, 16, 16])],
            &Attrs::new()
                .with("ksize", vec![2i64, 2])
                .with("strides", vec![2i64, 2])
                .with("padding", "VALID"),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[8, 8, 8, 16]));
        // channel mismatch
        assert!(infer(
            "conv2d",
            &[DType::F32, DType::F32],
            &[known(&[8, 32, 32, 3]), known(&[3, 3, 4, 16])],
            &Attrs::new().with("strides", vec![1i64, 1]).with("padding", "SAME"),
        )
        .is_err());
    }

    #[test]
    fn reduce_inference() {
        let out = infer(
            "reduce_sum",
            &[DType::F32],
            &[known(&[2, 3, 4])],
            &Attrs::new().with("axes", vec![1i64]),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[2, 4]));
        let out = infer(
            "reduce_mean",
            &[DType::F32],
            &[known(&[2, 3])],
            &Attrs::new().with("axes", vec![-1i64]).with("keep_dims", true),
        )
        .unwrap();
        assert_eq!(out[0].1, known(&[2, 1]));
        let out =
            infer("argmax", &[DType::F32], &[known(&[2, 3])], &Attrs::new().with("axis", 1i64))
                .unwrap();
        assert_eq!(out[0], (DType::I64, known(&[2])));
    }

    #[test]
    fn split_multiple_outputs() {
        let out = infer(
            "split",
            &[DType::F32],
            &[known(&[2, 6])],
            &Attrs::new().with("num", 3i64).with("axis", 1i64),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, s)| *s == known(&[2, 2])));
    }

    #[test]
    fn call_uses_declared_signature() {
        let (dts, shs) = encode_sig(&[
            (DType::F32, SymShape::new(vec![None, Some(3)])),
            (DType::I64, SymShape::scalar()),
        ]);
        let out = infer(
            "call",
            &[DType::F32],
            &[known(&[1])],
            &Attrs::new().with("function", "f").with("out_dtypes", dts).with("out_shapes", shs),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (DType::F32, SymShape::new(vec![None, Some(3)])));
        assert_eq!(out[1], (DType::I64, SymShape::scalar()));
    }

    #[test]
    fn stateful_flags() {
        for name in ["random_normal", "read_variable", "assign", "host_func", "print"] {
            assert!(Op::from_name(name).unwrap().def().is_stateful(), "{name} must be stateful");
        }
        for name in ["add", "matmul", "call", "reshape"] {
            assert!(!Op::from_name(name).unwrap().def().is_stateful(), "{name} must be stateless");
        }
    }

    #[test]
    fn matmul_work_estimate() {
        let params = Params::Matmul { transpose_a: false, transpose_b: false };
        let shapes = [known(&[4, 5]), known(&[5, 6])];
        let ctx = InferCtx { dtypes: &[DType::F32, DType::F32], shapes: &shapes, params: &params };
        let out = Op::Matmul.infer(&ctx).unwrap();
        let w = Op::Matmul.work(&ctx, &out);
        assert_eq!(w.flops, 2.0 * 5.0 * 24.0);
    }

    #[test]
    fn while_loop_passes_signatures_through() {
        let out = infer(
            "while_loop",
            &[DType::F32, DType::I64],
            &[known(&[2]), SymShape::scalar()],
            &Attrs::new().with("cond_fn", "c").with("body_fn", "b"),
        )
        .unwrap();
        assert_eq!(out, vec![(DType::F32, known(&[2])), (DType::I64, SymShape::scalar())]);
    }

    #[test]
    fn cond_requires_bool_predicate() {
        let (d, s) = encode_sig(&[(DType::F32, SymShape::scalar())]);
        let attrs = Attrs::new()
            .with("then_fn", "t")
            .with("else_fn", "e")
            .with("out_dtypes", d)
            .with("out_shapes", s);
        assert!(infer("cond", &[DType::F32], &[SymShape::scalar()], &attrs).is_err());
        assert!(infer("cond", &[DType::Bool], &[SymShape::scalar()], &attrs).is_ok());
    }
}
