//! The standard operation catalog: the [`OpDef`] of every [`Op`] — the
//! single op set shared by eager dispatch, the graph builder, the tracer
//! and autodiff (§1's "single set of primitive operations, kernels, and
//! user-visible APIs"). Adding an op means a variant in `opdef.rs` and an
//! arm in [`def`]; the kernel and gradient tables then fail to compile
//! until they decide about it too.

use crate::attr::Attrs;
use crate::opdef::{elems_or, Arity, InferCtx, Op, OpDef, OpError, OutputSig, WorkEstimate};
use crate::symshape::SymShape;
use tfe_tensor::conv::Padding;
use tfe_tensor::{DType, TensorError};

/// Encode an output signature into the `out_dtypes`/`out_shapes` string
/// attributes used by `call`, `host_func`, `cond` and `while_loop`.
pub fn encode_sig(sig: &[(DType, SymShape)]) -> (String, String) {
    let dtypes = sig.iter().map(|(d, _)| d.name().to_string()).collect::<Vec<_>>().join(",");
    let shapes = sig
        .iter()
        .map(|(_, s)| {
            let dims = s
                .dims()
                .iter()
                .map(|d| d.map_or("?".to_string(), |v| v.to_string()))
                .collect::<Vec<_>>()
                .join(",");
            format!("({dims})")
        })
        .collect::<Vec<_>>()
        .join(";");
    (dtypes, shapes)
}

/// Decode the `out_dtypes`/`out_shapes` attribute pair.
///
/// # Errors
/// Malformed dtype names or shape lists.
pub fn decode_sig(dtypes: &str, shapes: &str) -> Result<OutputSig, OpError> {
    if dtypes.is_empty() {
        return Ok(Vec::new());
    }
    let dts: Vec<DType> = dtypes
        .split(',')
        .map(|n| {
            DType::from_name(n).ok_or_else(|| OpError::Invalid(format!("bad dtype name `{n}`")))
        })
        .collect::<Result<_, _>>()?;
    let shs: Vec<SymShape> = shapes
        .split(';')
        .map(|s| -> Result<SymShape, OpError> {
            let inner = s
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| OpError::Invalid(format!("bad shape encoding `{s}`")))?;
            if inner.is_empty() {
                return Ok(SymShape::scalar());
            }
            let dims: Result<Vec<Option<usize>>, OpError> = inner
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    if p == "?" {
                        Ok(None)
                    } else {
                        p.parse::<usize>()
                            .map(Some)
                            .map_err(|_| OpError::Invalid(format!("bad dim `{p}`")))
                    }
                })
                .collect();
            Ok(SymShape::new(dims?))
        })
        .collect::<Result<_, _>>()?;
    if dts.len() != shs.len() {
        return Err(OpError::Invalid(format!(
            "signature mismatch: {} dtypes vs {} shapes",
            dts.len(),
            shs.len()
        )));
    }
    Ok(dts.into_iter().zip(shs).collect())
}

/// Read the declared output signature from `attrs` (for `call` etc.).
///
/// # Errors
/// Missing or malformed attributes.
pub fn declared_outputs(attrs: &Attrs) -> Result<OutputSig, OpError> {
    decode_sig(attrs.str("out_dtypes")?, attrs.str("out_shapes")?)
}

fn same_as_input(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    Ok(vec![(ctx.dtype(0)?, ctx.shape(0)?.clone())])
}

fn check_same_dtypes(ctx: &InferCtx) -> Result<DType, OpError> {
    let dt = ctx.dtype(0)?;
    for (i, other) in ctx.dtypes.iter().enumerate().skip(1) {
        if *other != dt {
            return Err(OpError::Shape(TensorError::DTypeMismatch {
                expected: format!("{dt} (input {i} disagrees with input 0)"),
                got: *other,
            }));
        }
    }
    Ok(dt)
}

fn broadcast_all(ctx: &InferCtx) -> Result<SymShape, OpError> {
    let mut shape = ctx.shape(0)?.clone();
    for s in &ctx.shapes[1..] {
        shape = shape.broadcast(s)?;
    }
    Ok(shape)
}

fn infer_binary(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    let dt = check_same_dtypes(ctx)?;
    if dt == DType::Bool {
        return Err(OpError::Shape(TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: DType::Bool,
        }));
    }
    Ok(vec![(dt, broadcast_all(ctx)?)])
}

fn infer_compare(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    check_same_dtypes(ctx)?;
    Ok(vec![(DType::Bool, broadcast_all(ctx)?)])
}

fn static_shape(dims: &[i64]) -> Result<SymShape, OpError> {
    let d: Result<Vec<Option<usize>>, OpError> = dims
        .iter()
        .map(|&v| {
            if v < 0 {
                Err(OpError::Invalid(format!("negative dimension {v}")))
            } else {
                Ok(Some(v as usize))
            }
        })
        .collect();
    Ok(SymShape::new(d?))
}

fn float_check(ctx: &InferCtx, i: usize) -> Result<(), OpError> {
    let dt = ctx.dtype(i)?;
    if !dt.is_float() {
        return Err(OpError::Shape(TensorError::DTypeMismatch {
            expected: "a float dtype".to_string(),
            got: dt,
        }));
    }
    Ok(())
}

fn infer_unary(ctx: &InferCtx, supports_int: bool) -> Result<OutputSig, OpError> {
    let dt = ctx.dtype(0)?;
    if dt == DType::Bool || (dt.is_int() && !supports_int) {
        return Err(OpError::Shape(TensorError::DTypeMismatch {
            expected: "a supported numeric dtype".to_string(),
            got: dt,
        }));
    }
    same_as_input(ctx)
}

fn shape_and_dtype_attrs(ctx: &InferCtx) -> Result<OutputSig, OpError> {
    Ok(vec![(ctx.attrs.dtype("dtype")?, static_shape(ctx.attrs.int_list("shape")?)?)])
}

fn matmul_work(ctx: &InferCtx, outputs: &OutputSig) -> WorkEstimate {
    // flops = 2*m*k*n per batch element.
    let k = {
        let a = ctx.shapes.first().map(|s| s.dims()).unwrap_or(&[]);
        let ta = ctx.attrs.bool_or("transpose_a", false).unwrap_or(false);
        let idx = if ta { a.len().saturating_sub(2) } else { a.len().saturating_sub(1) };
        a.get(idx).copied().flatten().unwrap_or(1)
    };
    let out_elems: usize = outputs.iter().map(|(_, s)| elems_or(s, 1)).sum();
    let in_bytes: f64 = ctx
        .dtypes
        .iter()
        .zip(ctx.shapes)
        .map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64)
        .sum();
    let out_bytes: f64 =
        outputs.iter().map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64).sum();
    WorkEstimate { flops: 2.0 * k as f64 * out_elems as f64, bytes: in_bytes + out_bytes }
}

fn reduced(s: &SymShape, axes: &[i64], keep_dims: bool) -> Result<SymShape, OpError> {
    let rank = s.rank() as i64;
    let mut norm: Vec<usize> = Vec::new();
    if axes.is_empty() {
        norm = (0..s.rank()).collect();
    } else {
        for &a in axes {
            let r = if a < 0 { a + rank } else { a };
            if r < 0 || r >= rank {
                return Err(OpError::Shape(TensorError::InvalidAxis { axis: a, rank: s.rank() }));
            }
            if norm.contains(&(r as usize)) {
                return Err(OpError::Invalid(format!("duplicate reduce axis {a}")));
            }
            norm.push(r as usize);
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

fn conv_attrs(attrs: &Attrs) -> Result<((usize, usize), Padding), OpError> {
    let strides = attrs.int_list_or("strides", &[1, 1])?;
    if strides.len() != 2 || strides.iter().any(|&s| s <= 0) {
        return Err(OpError::Invalid("strides must be two positive ints".to_string()));
    }
    let padding = Padding::from_name(attrs.str("padding").unwrap_or("SAME"))
        .ok_or_else(|| OpError::Invalid("padding must be SAME or VALID".to_string()))?;
    Ok(((strides[0] as usize, strides[1] as usize), padding))
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
                if ctx.dtype(0)? != DType::Bool || ctx.dtype(1)? != DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "bool".to_string(),
                        got: if ctx.dtype(0)? != DType::Bool {
                            ctx.dtype(0)?
                        } else {
                            ctx.dtype(1)?
                        },
                    }));
                }
                Ok(vec![(DType::Bool, broadcast_all(ctx)?)])
            }))
        }
        Op::LogicalNot => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                if ctx.dtype(0)? != DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "bool".to_string(),
                        got: ctx.dtype(0)?,
                    }));
                }
                same_as_input(ctx)
            }))
        }
        Op::Select => {
            def!(OpDef::new(Arity::Exact(3), |ctx| {
                if ctx.dtype(0)? != DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "bool condition".to_string(),
                        got: ctx.dtype(0)?,
                    }));
                }
                if ctx.dtype(1)? != ctx.dtype(2)? {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: ctx.dtype(1)?.name().to_string(),
                        got: ctx.dtype(2)?,
                    }));
                }
                Ok(vec![(ctx.dtype(1)?, broadcast_all(ctx)?)])
            }))
        }
        Op::Cast => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                Ok(vec![(ctx.attrs.dtype("dtype")?, ctx.shape(0)?.clone())])
            }))
        }
        // The fused elementwise kernel produced by the XLA-style fusion pass.
        Op::FusedElementwise => {
            def!(OpDef::new(Arity::AtLeast(1), |ctx| {
                Ok(vec![(ctx.attrs.dtype("out_dtype")?, broadcast_all(ctx)?)])
            })
            .with_work(|ctx, outputs| {
                // One pass over memory for the whole fused program, but all the
                // program's flops. Count only compute instructions — `in:` parts
                // alias their source and do no work.
                let n_instr = ctx
                    .attrs
                    .str("program")
                    .map(|p| p.split(';').filter(|part| !part.starts_with("in:")).count().max(1))
                    .unwrap_or(1) as f64;
                let out_elems: f64 = outputs.iter().map(|(_, s)| elems_or(s, 1) as f64).sum();
                let in_bytes: f64 = ctx
                    .dtypes
                    .iter()
                    .zip(ctx.shapes)
                    .map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64)
                    .sum();
                let out_bytes: f64 =
                    outputs.iter().map(|(dt, s)| (elems_or(s, 1) * dt.size_bytes()) as f64).sum();
                WorkEstimate { flops: n_instr * out_elems, bytes: in_bytes + out_bytes }
            }))
        }

        // --- structure --------------------------------------------------------
        Op::Const | Op::Fill => def!(OpDef::new(Arity::Exact(0), shape_and_dtype_attrs)),
        // Graph-function argument. `shape` uses -1 for unknown dims (set from an
        // input signature); inference preserves them as unknown.
        Op::Placeholder => {
            def!(OpDef::new(Arity::Exact(0), |ctx| {
                let dims: Vec<Option<usize>> = ctx
                    .attrs
                    .int_list("shape")?
                    .iter()
                    .map(|&d| if d < 0 { None } else { Some(d as usize) })
                    .collect();
                Ok(vec![(ctx.attrs.dtype("dtype")?, SymShape::new(dims))])
            }))
        }
        Op::Identity | Op::ZerosLike | Op::OnesLike | Op::Copy => {
            def!(OpDef::new(Arity::Exact(1), same_as_input))
        }
        Op::Eye => {
            def!(OpDef::new(Arity::Exact(0), |ctx| {
                let n = ctx.attrs.int("n")? as usize;
                Ok(vec![(ctx.attrs.dtype("dtype")?, SymShape::new(vec![Some(n), Some(n)]))])
            }))
        }
        Op::Range => {
            def!(OpDef::new(Arity::Exact(0), |ctx| {
                let count = ctx.attrs.int("count")? as usize;
                Ok(vec![(ctx.attrs.dtype("dtype")?, SymShape::new(vec![Some(count)]))])
            }))
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
                let target = ctx.attrs.int_list("shape")?;
                let in_shape = ctx.shape(0)?;
                let mut out: Vec<Option<usize>> = Vec::with_capacity(target.len());
                let mut wildcard = None;
                let mut known = 1usize;
                for (i, &d) in target.iter().enumerate() {
                    if d == -1 {
                        if wildcard.is_some() {
                            return Err(OpError::Invalid("reshape accepts one -1".to_string()));
                        }
                        wildcard = Some(i);
                        out.push(None);
                    } else if d < 0 {
                        return Err(OpError::Invalid(format!("bad reshape dim {d}")));
                    } else {
                        known = known.saturating_mul(d as usize);
                        out.push(Some(d as usize));
                    }
                }
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
                let perm = ctx.attrs.int_list("perm")?;
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
                    let p = p as usize;
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
                let rank = s.rank() as i64;
                let axis = ctx.attrs.int("axis")?;
                let ax = if axis < 0 { axis + rank + 1 } else { axis };
                if ax < 0 || ax > rank {
                    return Err(OpError::Shape(TensorError::InvalidAxis { axis, rank: s.rank() }));
                }
                let mut dims = s.dims().to_vec();
                dims.insert(ax as usize, Some(1));
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::Squeeze => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let s = ctx.shape(0)?;
                let axes = ctx.attrs.int_list_or("axes", &[])?;
                let mut drop = vec![false; s.rank()];
                if axes.is_empty() {
                    for (i, d) in s.dims().iter().enumerate() {
                        drop[i] = *d == Some(1);
                    }
                } else {
                    for &a in axes {
                        let rank = s.rank() as i64;
                        let r = if a < 0 { a + rank } else { a };
                        if r < 0 || r >= rank {
                            return Err(OpError::Shape(TensorError::InvalidAxis {
                                axis: a,
                                rank: s.rank(),
                            }));
                        }
                        match s.dims()[r as usize] {
                            Some(1) | None => drop[r as usize] = true,
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
                let axis = ctx.attrs.int("axis")?;
                let first = ctx.shape(0)?;
                let rank = first.rank() as i64;
                let ax = if axis < 0 { axis + rank } else { axis };
                if ax < 0 || ax >= rank {
                    return Err(OpError::Shape(TensorError::InvalidAxis {
                        axis,
                        rank: first.rank(),
                    }));
                }
                let ax = ax as usize;
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
                let num = ctx.attrs.int("num")?;
                if num < 1 {
                    return Err(OpError::Invalid(format!("split num must be >= 1, got {num}")));
                }
                let num = num as usize;
                let axis = ctx.attrs.int("axis")?;
                let s = ctx.shape(0)?;
                let rank = s.rank() as i64;
                let ax = if axis < 0 { axis + rank } else { axis };
                if ax < 0 || ax >= rank {
                    return Err(OpError::Shape(TensorError::InvalidAxis { axis, rank: s.rank() }));
                }
                let ax = ax as usize;
                let part = match s.dims()[ax] {
                    Some(d) => {
                        if num == 0 || d % num != 0 {
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
                let begin = ctx.attrs.int_list("begin")?;
                let size = ctx.attrs.int_list("size")?;
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
            def!(OpDef::new(Arity::Exact(2), |ctx| Ok(vec![(
                ctx.dtype(1)?,
                ctx.shape(0)?.clone()
            )])))
        }
        Op::Pad => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let paddings = ctx.attrs.int_list("paddings")?;
                let s = ctx.shape(0)?;
                if paddings.len() != 2 * s.rank() {
                    return Err(OpError::Invalid("pad wants 2 entries per axis".to_string()));
                }
                let dims: Vec<Option<usize>> = s
                    .dims()
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        d.map(|d| d + paddings[2 * i] as usize + paddings[2 * i + 1] as usize)
                    })
                    .collect();
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::Gather => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                if !ctx.dtype(1)?.is_int() {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "integer indices".to_string(),
                        got: ctx.dtype(1)?,
                    }));
                }
                let axis = ctx.attrs.int_or("axis", 0)?;
                let s = ctx.shape(0)?;
                let rank = s.rank() as i64;
                let ax = if axis < 0 { axis + rank } else { axis };
                if ax < 0 || ax >= rank {
                    return Err(OpError::Shape(TensorError::InvalidAxis { axis, rank: s.rank() }));
                }
                let ax = ax as usize;
                let mut dims = s.dims()[..ax].to_vec();
                dims.extend_from_slice(ctx.shape(1)?.dims());
                dims.extend_from_slice(&s.dims()[ax + 1..]);
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        // Adjoint of axis-0 `gather`: inputs (params, indices, grad_out).
        Op::GatherGrad => {
            def!(OpDef::new(Arity::Exact(3), |ctx| Ok(vec![(
                ctx.dtype(2)?,
                ctx.shape(0)?.clone()
            )])))
        }
        Op::Tile => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let multiples = ctx.attrs.int_list("multiples")?;
                let s = ctx.shape(0)?;
                if multiples.len() != s.rank() {
                    return Err(OpError::Invalid("tile multiples rank mismatch".to_string()));
                }
                let dims: Vec<Option<usize>> = s
                    .dims()
                    .iter()
                    .zip(multiples)
                    .map(|(d, &m)| d.map(|d| d * m as usize))
                    .collect();
                Ok(vec![(ctx.dtype(0)?, SymShape::new(dims))])
            }))
        }
        Op::BroadcastTo => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                Ok(vec![(ctx.dtype(0)?, static_shape(ctx.attrs.int_list("shape")?)?)])
            }))
        }
        // Reduce `x` (input 0) down to the shape of `ref` (input 1): the
        // adjoint of broadcasting, used pervasively by binary-op gradients.
        Op::SumToLike => {
            def!(OpDef::new(Arity::Exact(2), |ctx| Ok(vec![(
                ctx.dtype(0)?,
                ctx.shape(1)?.clone()
            )])))
        }
        Op::OneHot => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                if !ctx.dtype(0)?.is_int() {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "integer indices".to_string(),
                        got: ctx.dtype(0)?,
                    }));
                }
                let depth = ctx.attrs.int("depth")? as usize;
                let mut dims = ctx.shape(0)?.dims().to_vec();
                dims.push(Some(depth));
                Ok(vec![(ctx.attrs.dtype("dtype")?, SymShape::new(dims))])
            }))
        }
        Op::Reverse | Op::Cumsum => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let _ = ctx.attrs.int_or("axis", 0)?; // range validated at kernel time
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
                let ta = ctx.attrs.bool_or("transpose_a", false)?;
                let tb = ctx.attrs.bool_or("transpose_b", false)?;
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
                let ta = ctx.attrs.bool_or("transpose_a", false)?;
                let tb = ctx.attrs.bool_or("transpose_b", false)?;
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
                if ctx.dtype(0)? == DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "a numeric dtype".to_string(),
                        got: DType::Bool,
                    }));
                }
                let axes = ctx.attrs.int_list_or("axes", &[])?;
                let keep = ctx.attrs.bool_or("keep_dims", false)?;
                Ok(vec![(ctx.dtype(0)?, reduced(ctx.shape(0)?, axes, keep)?)])
            })
            .with_work(|ctx, _| {
                let n = elems_or(ctx.shapes.first().unwrap_or(&SymShape::scalar()), 1);
                let b = (n * ctx.dtypes.first().map(|d| d.size_bytes()).unwrap_or(4)) as f64;
                WorkEstimate { flops: n as f64, bytes: b }
            }))
        }
        Op::ReduceAny | Op::ReduceAll => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                if ctx.dtype(0)? != DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "bool".to_string(),
                        got: ctx.dtype(0)?,
                    }));
                }
                let axes = ctx.attrs.int_list_or("axes", &[])?;
                let keep = ctx.attrs.bool_or("keep_dims", false)?;
                Ok(vec![(DType::Bool, reduced(ctx.shape(0)?, axes, keep)?)])
            }))
        }
        Op::Argmax | Op::Argmin => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let axis = ctx.attrs.int_or("axis", 0)?;
                Ok(vec![(DType::I64, reduced(ctx.shape(0)?, &[axis], false)?)])
            }))
        }

        // --- nn ---------------------------------------------------------------
        Op::Conv2d => {
            def!(OpDef::new(Arity::Exact(2), |ctx| {
                float_check(ctx, 0)?;
                check_same_dtypes(ctx)?;
                let (strides, padding) = conv_attrs(ctx.attrs)?;
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
            def!(OpDef::new(Arity::Exact(3), |ctx| Ok(vec![(
                ctx.dtype(2)?,
                ctx.shape(0)?.clone()
            )]))
            .with_work(conv_work))
        }
        Op::Conv2dBackpropFilter => {
            def!(OpDef::new(Arity::Exact(3), |ctx| Ok(vec![(
                ctx.dtype(2)?,
                ctx.shape(1)?.clone()
            )]))
            .with_work(conv_work))
        }
        Op::MaxPool | Op::AvgPool => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                float_check(ctx, 0)?;
                let ksize = ctx.attrs.int_list("ksize")?;
                let (strides, padding) = conv_attrs(ctx.attrs)?;
                let x = ctx.shape(0)?;
                if x.rank() != 4 || ksize.len() != 2 {
                    return Err(OpError::Invalid(
                        "pool wants NHWC input and 2-elem ksize".to_string(),
                    ));
                }
                let oh = conv_out_dim(x.dims()[1], ksize[0] as usize, strides.0, padding);
                let ow = conv_out_dim(x.dims()[2], ksize[1] as usize, strides.1, padding);
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
                if !ctx.dtype(1)?.is_int() {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "integer labels".to_string(),
                        got: ctx.dtype(1)?,
                    }));
                }
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
        Op::SoftmaxXentGrad => {
            def!(OpDef::new(Arity::Exact(3), |ctx| Ok(vec![(
                ctx.dtype(0)?,
                ctx.shape(0)?.clone()
            )])))
        }

        // --- random -----------------------------------------------------------
        Op::RandomNormal | Op::RandomUniform | Op::TruncatedNormal => {
            def!(OpDef::new(Arity::Exact(0), shape_and_dtype_attrs).stateful())
        }
        Op::DropoutMask => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                float_check(ctx, 0)?;
                let keep = ctx.attrs.float("keep_prob")?;
                if !(keep > 0.0 && keep <= 1.0) {
                    return Err(OpError::Invalid(format!("keep_prob {keep} out of (0,1]")));
                }
                same_as_input(ctx)
            })
            .stateful())
        }

        // --- state ------------------------------------------------------------
        Op::ReadVariable => {
            def!(OpDef::new(Arity::Exact(0), shape_and_dtype_attrs).stateful())
        }
        Op::Assign | Op::AssignAdd | Op::AssignSub => {
            def!(OpDef::new(Arity::Exact(1), |ctx| {
                let _ = ctx.attrs.int("var_id")?;
                Ok(Vec::new())
            })
            .stateful())
        }

        // --- control ----------------------------------------------------------
        // Graph-function invocation (§4.6 "graph functions are themselves
        // executed by an operation"). Statefulness is decided per call site by
        // the tracer (attr `stateful`), so the op itself is stateless and the
        // pruning pass consults the attr.
        Op::Call => {
            def!(OpDef::new(Arity::AtLeast(0), |ctx| {
                let _ = ctx.attrs.str("function")?;
                declared_outputs(ctx.attrs)
            }))
        }
        // `py_func` analog (§4.7): runs a host closure imperatively inside a
        // staged computation.
        Op::HostFunc => {
            def!(OpDef::new(Arity::AtLeast(0), |ctx| {
                let _ = ctx.attrs.int("fn_id")?;
                declared_outputs(ctx.attrs)
            })
            .stateful())
        }
        Op::Cond => {
            def!(OpDef::new(Arity::AtLeast(1), |ctx| {
                if ctx.dtype(0)? != DType::Bool {
                    return Err(OpError::Shape(TensorError::DTypeMismatch {
                        expected: "bool predicate".to_string(),
                        got: ctx.dtype(0)?,
                    }));
                }
                let _ = ctx.attrs.str("then_fn")?;
                let _ = ctx.attrs.str("else_fn")?;
                declared_outputs(ctx.attrs)
            }))
        }
        Op::WhileLoop => {
            def!(OpDef::new(Arity::AtLeast(0), |ctx| {
                let _ = ctx.attrs.str("cond_fn")?;
                let _ = ctx.attrs.str("body_fn")?;
                // Loop-carried values keep their signatures.
                Ok(ctx.dtypes.iter().copied().zip(ctx.shapes.iter().cloned()).collect())
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::Shape;

    fn infer(
        op: &str,
        dtypes: &[DType],
        shapes: &[SymShape],
        attrs: &Attrs,
    ) -> Result<OutputSig, OpError> {
        Op::from_name(op).unwrap().infer(&InferCtx { dtypes, shapes, attrs })
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
    fn sig_encoding_round_trips() {
        let sig = vec![
            (DType::F32, SymShape::new(vec![Some(2), None])),
            (DType::Bool, SymShape::scalar()),
            (DType::I32, SymShape::new(vec![Some(7)])),
        ];
        let (d, s) = encode_sig(&sig);
        assert_eq!(decode_sig(&d, &s).unwrap(), sig);
        let (d, s) = encode_sig(&[]);
        assert_eq!(decode_sig(&d, &s).unwrap(), vec![]);
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
        let attrs = Attrs::new();
        let shapes = [known(&[4, 5]), known(&[5, 6])];
        let ctx = InferCtx { dtypes: &[DType::F32, DType::F32], shapes: &shapes, attrs: &attrs };
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
