//! The gradient table: one vector-Jacobian-product function per
//! differentiable primitive op, as one `match` over [`Op`] that names every
//! op — a new op does not compile until its arm says how it differentiates
//! or that it does not.
//!
//! Gradient functions are themselves expressed in terms of primitive
//! operations executed through the shared dispatcher (§4.2: "gradient
//! computation is itself expressed as a function which executes primitive
//! operations, so it is possible to stage it or not"). That is what makes
//! higher-order derivatives and staged backward passes fall out for free.
//!
//! A gradient function reads the incoming gradient of output `i` through
//! [`GradCtx::grad`]. An output no gradient reached has a `None` slot, and
//! its `zeros_like` is dispatched when a function first asks for it — so a
//! multi-output record (a staged `call` above all) costs one op per silent
//! output somebody reads, not one per silent output. `split` and
//! `host_func` read every slot ([`GradCtx::grads`]).

use std::cell::OnceCell;
use tfe_ops::{BinaryOp, Op, Params, UnaryOp};
use tfe_runtime::api;
use tfe_runtime::context::HostFn;
use tfe_runtime::{Result, RuntimeError, TapeRecord, Tensor};
use tfe_tensor::DType;

/// Everything a gradient function sees: the forward record plus the
/// incoming output gradients, one slot per forward output. An output that
/// did not influence the target has none; [`GradCtx::grad`] stands a zero
/// in for it when a gradient function asks, and not before — an output
/// nobody asks about costs no op.
pub struct GradCtx<'a> {
    /// The recorded forward operation.
    pub record: &'a TapeRecord,
    /// Gradients flowing into each forward output, `None` where none did.
    pub output_grads: &'a [Option<Tensor>],
    /// The zeros [`GradCtx::grad`] made for `None` slots, by output.
    zeros: Vec<OnceCell<Tensor>>,
}

impl<'a> GradCtx<'a> {
    /// The context of `record` with these incoming gradients.
    pub fn new(record: &'a TapeRecord, output_grads: &'a [Option<Tensor>]) -> GradCtx<'a> {
        GradCtx { record, output_grads, zeros: vec![OnceCell::new(); output_grads.len()] }
    }

    /// Forward input `i`.
    ///
    /// # Errors
    /// Out of range.
    pub fn input(&self, i: usize) -> Result<&Tensor> {
        self.record
            .inputs
            .get(i)
            .ok_or_else(|| RuntimeError::Internal(format!("gradient: missing input {i}")))
    }

    /// Forward output `i`.
    ///
    /// # Errors
    /// Out of range.
    pub fn output(&self, i: usize) -> Result<&Tensor> {
        self.record
            .outputs
            .get(i)
            .ok_or_else(|| RuntimeError::Internal(format!("gradient: missing output {i}")))
    }

    /// Incoming gradient for output `i`: the one that arrived, or
    /// `zeros_like(output i)`, dispatched on first use.
    ///
    /// # Errors
    /// Out of range, or the `zeros_like` failed.
    pub fn grad(&self, i: usize) -> Result<&Tensor> {
        let slot = self
            .output_grads
            .get(i)
            .ok_or_else(|| RuntimeError::Internal(format!("gradient: missing grad {i}")))?;
        if let Some(g) = slot {
            return Ok(g);
        }
        let zero = &self.zeros[i];
        if zero.get().is_none() {
            let _ = zero.set(zeros_like(self.output(i)?)?);
        }
        Ok(zero.get().expect("set above"))
    }

    /// [`GradCtx::grad`] for every output, in order.
    ///
    /// # Errors
    /// As [`GradCtx::grad`].
    pub fn grads(&self) -> Result<Vec<&Tensor>> {
        (0..self.output_grads.len()).map(|i| self.grad(i)).collect()
    }

    /// The forward parameters.
    pub fn params(&self) -> &Params {
        &self.record.params
    }

    /// The error of a gradient function whose record holds another op's
    /// parameters.
    fn mismatch<T>(&self) -> Result<T> {
        Err(self.params().mismatch().into())
    }
}

/// A vector-Jacobian product: returns one gradient per *gradient slot* (the
/// record's `input_ids`), `None` where no gradient flows.
pub type GradFn = fn(&GradCtx) -> Result<Vec<Option<Tensor>>>;

/// The gradients of `call` and `cond`, which `tfe-core` owns (they trace and
/// run graph functions): the only state of this table, written once.
static STAGED: std::sync::OnceLock<[GradFn; 2]> = std::sync::OnceLock::new();

/// Install the `call` and `cond` gradients. `tfe_core::init` does, once;
/// later calls change nothing.
pub fn install_staged_gradients(call: GradFn, cond: GradFn) {
    let _ = STAGED.set([call, cond]);
}

/// Look up the gradient for `op`.
///
/// # Errors
/// [`RuntimeError::Unsupported`] when `op` has no gradient.
pub fn gradient_fn(op: Op) -> Result<GradFn> {
    lookup(op).ok_or_else(|| {
        RuntimeError::Unsupported(match op {
            Op::WhileLoop => "the gradient of while_loop is not implemented (documented \
                 limitation, DESIGN.md §7); rewrite the loop body as a host loop over a \
                 staged step"
                .to_string(),
            _ => format!("no gradient registered for op `{op}`"),
        })
    })
}

/// `sum_to_like(x, reference)`: the broadcasting adjoint. When both shapes
/// are fully defined and equal — concrete in eager mode, inferred under a
/// trace — nothing was broadcast and the adjoint is `x` itself: no op is
/// dispatched or recorded. An unknown dimension keeps the op.
fn sum_to_like(x: &Tensor, reference: &Tensor) -> Result<Tensor> {
    let identity = match (x, reference) {
        (Tensor::Eager(a), Tensor::Eager(b)) => a.shape() == b.shape(),
        _ => {
            let xs = x.sym_shape();
            xs.is_fully_defined() && xs == reference.sym_shape()
        }
    };
    if identity {
        return Ok(x.clone());
    }
    let mut out = tfe_runtime::context::execute(
        Op::SumToLike,
        &[x.clone(), reference.clone()],
        Params::None,
    )?;
    Ok(out.remove(0))
}

fn zeros_like(x: &Tensor) -> Result<Tensor> {
    let mut out =
        tfe_runtime::context::execute(Op::ZerosLike, std::slice::from_ref(x), Params::None)?;
    Ok(out.remove(0))
}

fn ones_like(x: &Tensor) -> Result<Tensor> {
    let mut out =
        tfe_runtime::context::execute(Op::OnesLike, std::slice::from_ref(x), Params::None)?;
    Ok(out.remove(0))
}

fn two(like: &Tensor) -> Tensor {
    api::constant_data(tfe_tensor::TensorData::fill_f64(
        like.dtype(),
        tfe_tensor::Shape::scalar(),
        2.0,
    ))
}

fn step_mask(x: &Tensor) -> Result<Tensor> {
    // 1 where x > 0 else 0, in x's dtype.
    let zero = api::constant_data(tfe_tensor::TensorData::fill_f64(
        x.dtype(),
        tfe_tensor::Shape::scalar(),
        0.0,
    ));
    let m = api::greater(x, &zero)?;
    api::cast(&m, x.dtype())
}

/// Expand `g` (the reduced gradient) back to input rank by inserting the
/// reduced axes, then broadcast against the input.
fn expand_reduced(g: &Tensor, input: &Tensor, axes: &[i64], keep: bool) -> Result<Tensor> {
    if keep {
        return Ok(g.clone());
    }
    let rank = input.rank() as i64;
    let mut norm: Vec<i64> = if axes.is_empty() {
        (0..rank).collect()
    } else {
        axes.iter().map(|&a| if a < 0 { a + rank } else { a }).collect()
    };
    norm.sort_unstable();
    let mut cur = g.clone();
    for &a in &norm {
        cur = api::expand_dims(&cur, a)?;
    }
    Ok(cur)
}

/// Number of elements reduced away, as a dynamic scalar in `dtype` (uses
/// `shape_of` so it works with unknown trace-time dimensions).
fn reduced_count(input: &Tensor, axes: &[i64], dtype: DType) -> Result<Tensor> {
    let rank = input.rank() as i64;
    let norm: Vec<i64> = if axes.is_empty() {
        (0..rank).collect()
    } else {
        axes.iter().map(|&a| if a < 0 { a + rank } else { a }).collect()
    };
    let shape = api::shape_of(input)?;
    let idx = api::constant(norm.clone(), [norm.len()])?;
    let dims = api::gather(&shape, &idx, 0)?;
    let count = api::reduce_prod(&dims, &[], false)?;
    api::cast(&count, dtype)
}

/// The table. `None`: no gradient flows through `op` at all, which
/// [`gradient_fn`] reports as unsupported if a tape ever asks.
#[allow(clippy::too_many_lines)]
fn lookup(op: Op) -> Option<GradFn> {
    let f: GradFn = match op {
        // --- binary elementwise -------------------------------------------------
        Op::Binary(BinaryOp::Add) => |c| {
            let g = c.grad(0)?;
            Ok(vec![Some(sum_to_like(g, c.input(0)?)?), Some(sum_to_like(g, c.input(1)?)?)])
        },
        Op::Binary(BinaryOp::Sub) => |c| {
            let g = c.grad(0)?;
            Ok(vec![
                Some(sum_to_like(g, c.input(0)?)?),
                Some(sum_to_like(&api::neg(g)?, c.input(1)?)?),
            ])
        },
        Op::Binary(BinaryOp::Mul) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            Ok(vec![
                Some(sum_to_like(&api::mul(g, b)?, a)?),
                Some(sum_to_like(&api::mul(g, a)?, b)?),
            ])
        },
        Op::Binary(BinaryOp::Div) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let ga = api::div(g, b)?;
            // -g * a / b^2
            let gb = api::neg(&api::div(&api::mul(g, a)?, &api::square(b)?)?)?;
            Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Binary(BinaryOp::Pow) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let y = c.output(0)?;
            // d/da = b * a^(b-1); d/db = y * ln(a) (guarded at a <= 0).
            let bm1 = api::sub(b, &ones_like(b)?)?;
            let ga = api::mul(g, &api::mul(b, &api::pow(a, &bm1)?)?)?;
            let safe_log = api::select(
                &api::greater(a, &zeros_like(a)?)?,
                &api::log(&api::maximum(
                    a,
                    &api::mul(
                        &ones_like(a)?,
                        &api::constant_data(tfe_tensor::TensorData::fill_f64(
                            a.dtype(),
                            tfe_tensor::Shape::scalar(),
                            1e-30,
                        )),
                    )?,
                )?)?,
                &zeros_like(a)?,
            )?;
            let gb = api::mul(g, &api::mul(y, &safe_log)?)?;
            Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Binary(BinaryOp::Maximum) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let mask = api::cast(&api::greater_equal(a, b)?, g.dtype())?;
            let ga = api::mul(g, &mask)?;
            let gb = api::sub(g, &ga)?;
            Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Binary(BinaryOp::Minimum) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let mask = api::cast(&api::less_equal(a, b)?, g.dtype())?;
            let ga = api::mul(g, &mask)?;
            let gb = api::sub(g, &ga)?;
            Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Binary(BinaryOp::SquaredDifference) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let d = api::sub(a, b)?;
            let ga = api::mul(g, &api::mul(&two(&d), &d)?)?;
            Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&api::neg(&ga)?, b)?)])
        },
        Op::Binary(BinaryOp::Mod) => |c| {
            let g = c.grad(0)?;
            let (a, b) = (c.input(0)?, c.input(1)?);
            let gb = api::neg(&api::mul(g, &api::floor_div(a, b)?)?)?;
            Ok(vec![Some(sum_to_like(g, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Binary(BinaryOp::FloorDiv) => |_c| Ok(vec![None, None]),

        // --- unary elementwise ---------------------------------------------------
        Op::Unary(UnaryOp::Neg) => |c| Ok(vec![Some(api::neg(c.grad(0)?)?)]),
        Op::Unary(UnaryOp::Abs) => {
            |c| Ok(vec![Some(api::mul(c.grad(0)?, &api::sign(c.input(0)?)?)?)])
        }
        Op::Unary(UnaryOp::Exp) => |c| Ok(vec![Some(api::mul(c.grad(0)?, c.output(0)?)?)]),
        Op::Unary(UnaryOp::Log) => |c| Ok(vec![Some(api::div(c.grad(0)?, c.input(0)?)?)]),
        Op::Unary(UnaryOp::Log1p) => |c| {
            let denom = api::add(c.input(0)?, &ones_like(c.input(0)?)?)?;
            Ok(vec![Some(api::div(c.grad(0)?, &denom)?)])
        },
        Op::Unary(UnaryOp::Sqrt) => |c| {
            // g / (2*y)
            let denom = api::mul(&two(c.output(0)?), c.output(0)?)?;
            Ok(vec![Some(api::div(c.grad(0)?, &denom)?)])
        },
        Op::Unary(UnaryOp::Rsqrt) => |c| {
            // -0.5 * y^3 * g
            let y = c.output(0)?;
            let y3 = api::mul(&api::square(y)?, y)?;
            let half = api::constant_data(tfe_tensor::TensorData::fill_f64(
                y.dtype(),
                tfe_tensor::Shape::scalar(),
                -0.5,
            ));
            Ok(vec![Some(api::mul(&api::mul(&half, &y3)?, c.grad(0)?)?)])
        },
        Op::Unary(UnaryOp::Square) => |c| {
            let ga = api::mul(c.grad(0)?, &api::mul(&two(c.input(0)?), c.input(0)?)?)?;
            Ok(vec![Some(ga)])
        },
        Op::Unary(UnaryOp::Reciprocal) => |c| {
            let y = c.output(0)?;
            Ok(vec![Some(api::neg(&api::mul(c.grad(0)?, &api::square(y)?)?)?)])
        },
        Op::Unary(UnaryOp::Relu) => {
            |c| Ok(vec![Some(api::mul(c.grad(0)?, &step_mask(c.input(0)?)?)?)])
        }
        Op::Unary(UnaryOp::Sigmoid) => |c| {
            let y = c.output(0)?;
            let one_minus = api::sub(&ones_like(y)?, y)?;
            Ok(vec![Some(api::mul(c.grad(0)?, &api::mul(y, &one_minus)?)?)])
        },
        Op::Unary(UnaryOp::Tanh) => |c| {
            let y = c.output(0)?;
            let one_minus = api::sub(&ones_like(y)?, &api::square(y)?)?;
            Ok(vec![Some(api::mul(c.grad(0)?, &one_minus)?)])
        },
        Op::Unary(UnaryOp::Softplus) => {
            |c| Ok(vec![Some(api::mul(c.grad(0)?, &api::sigmoid(c.input(0)?)?)?)])
        }
        Op::Unary(UnaryOp::Sin) => {
            |c| Ok(vec![Some(api::mul(c.grad(0)?, &api::cos(c.input(0)?)?)?)])
        }
        Op::Unary(UnaryOp::Cos) => {
            |c| Ok(vec![Some(api::neg(&api::mul(c.grad(0)?, &api::sin(c.input(0)?)?)?)?)])
        }
        Op::Unary(UnaryOp::Erf) => |c| {
            // 2/sqrt(pi) * exp(-x^2)
            let x = c.input(0)?;
            let coef = api::constant_data(tfe_tensor::TensorData::fill_f64(
                x.dtype(),
                tfe_tensor::Shape::scalar(),
                2.0 / std::f64::consts::PI.sqrt(),
            ));
            let e = api::exp(&api::neg(&api::square(x)?)?)?;
            Ok(vec![Some(api::mul(c.grad(0)?, &api::mul(&coef, &e)?)?)])
        },
        Op::Unary(UnaryOp::Floor | UnaryOp::Ceil | UnaryOp::Round | UnaryOp::Sign)
        | Op::ZerosLike
        | Op::OnesLike => |c| Ok(vec![Some(zeros_like(c.input(0)?)?)]),

        // --- structure -----------------------------------------------------------
        // One input, one output, the gradient passes through. (For
        // `read_variable` the slot is the variable id.)
        Op::Identity | Op::Copy | Op::Print | Op::ReadVariable => {
            |c| Ok(vec![Some(c.grad(0)?.clone())])
        }
        Op::Select => |c| {
            let g = c.grad(0)?;
            let cond = c.input(0)?;
            let (a, b) = (c.input(1)?, c.input(2)?);
            let ga = api::select(cond, g, &zeros_like(g)?)?;
            let gb = api::select(cond, &zeros_like(g)?, g)?;
            Ok(vec![None, Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
        },
        Op::Cast => |c| {
            let src = c.input(0)?.dtype();
            if src.is_float() && c.grad(0)?.dtype().is_float() {
                Ok(vec![Some(api::cast(c.grad(0)?, src)?)])
            } else {
                Ok(vec![None])
            }
        },
        Op::Reshape | Op::ExpandDims | Op::Squeeze => {
            |c| Ok(vec![Some(reshape_like(c.grad(0)?, c.input(0)?)?)])
        }
        Op::Transpose => |c| {
            let Params::Transpose { perm } = c.params() else { return c.mismatch() };
            let mut inverse = vec![0i64; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i as i64;
            }
            Ok(vec![Some(api::transpose(c.grad(0)?, &inverse)?)])
        },
        Op::Concat => |c| {
            let g = c.grad(0)?;
            let axis = c.params().axis()?;
            let rank = c.input(0)?.rank() as i64;
            let ax = if axis < 0 { axis + rank } else { axis } as usize;
            let mut grads = Vec::with_capacity(c.record.inputs.len());
            let mut offset = 0i64;
            for input in &c.record.inputs {
                let dims = input.sym_shape();
                let extent = dims.dims()[ax].ok_or_else(|| {
                    RuntimeError::Unsupported(
                        "concat gradient with unknown axis extent".to_string(),
                    )
                })? as i64;
                let mut begin = vec![0i64; dims.rank()];
                begin[ax] = offset;
                let mut size: Vec<i64> = vec![-1; dims.rank()];
                size[ax] = extent;
                grads.push(Some(api::slice(g, &begin, &size)?));
                offset += extent;
            }
            Ok(grads)
        },
        Op::Split => |c| {
            let Params::Split { axis, .. } = *c.params() else { return c.mismatch() };
            Ok(vec![Some(api::concat(&c.grads()?, axis)?)])
        },
        Op::Slice => |c| {
            let Params::Slice { begin, .. } = c.params() else { return c.mismatch() };
            let mut out = tfe_runtime::context::execute(
                Op::SliceGrad,
                &[c.input(0)?.clone(), c.grad(0)?.clone()],
                Params::SliceGrad { begin: begin.clone() },
            )?;
            Ok(vec![Some(out.remove(0))])
        },
        Op::SliceGrad => |c| {
            // Adjoint of the adjoint: slice the incoming gradient back out.
            let Params::SliceGrad { begin } = c.params() else { return c.mismatch() };
            let sizes: Vec<i64> = c
                .input(1)?
                .sym_shape()
                .dims()
                .iter()
                .map(|d| d.map(|v| v as i64).unwrap_or(-1))
                .collect();
            Ok(vec![None, Some(api::slice(c.grad(0)?, begin, &sizes)?)])
        },
        Op::Pad => |c| {
            let Params::Pad { paddings, .. } = c.params() else { return c.mismatch() };
            let begin: Vec<i64> = paddings.iter().map(|&(b, _)| b as i64).collect();
            let sizes: Vec<i64> = c
                .input(0)?
                .sym_shape()
                .dims()
                .iter()
                .map(|d| d.map(|v| v as i64).unwrap_or(-1))
                .collect();
            Ok(vec![Some(api::slice(c.grad(0)?, &begin, &sizes)?)])
        },
        Op::Gather => |c| {
            // Normalize a negative axis against the params rank before
            // dispatching, so gather(x, i, axis=-1) on rank-1 params hits the
            // axis-0 scatter path instead of a spurious "unsupported" error.
            let mut axis = c.params().axis()?;
            if axis < 0 {
                axis += c.input(0)?.rank() as i64;
            }
            let mut out = tfe_runtime::context::execute(
                Op::GatherGrad,
                &[c.input(0)?.clone(), c.input(1)?.clone(), c.grad(0)?.clone()],
                Params::Axis { axis },
            )?;
            Ok(vec![Some(out.remove(0)), None])
        },
        Op::BroadcastTo => |c| Ok(vec![Some(sum_to_like(c.grad(0)?, c.input(0)?)?)]),
        Op::SumToLike => |c| {
            // Broadcast the gradient back up to the original shape.
            let g = c.grad(0)?;
            let ga = api::mul(g, &ones_like(c.input(0)?)?)?;
            Ok(vec![Some(ga), None])
        },
        Op::Reverse => |c| Ok(vec![Some(api::reverse(c.grad(0)?, c.params().axis()?)?)]),
        Op::Cumsum => |c| {
            // adjoint of prefix-sum: reversed suffix-sum of the gradient.
            let axis = c.params().axis()?;
            let r = api::reverse(c.grad(0)?, axis)?;
            let cs = api::cumsum(&r, axis)?;
            Ok(vec![Some(api::reverse(&cs, axis)?)])
        },
        Op::Tile => |c| {
            let Params::Tile { multiples } = c.params() else { return c.mismatch() };
            Ok(vec![Some(sum_tiled(c.grad(0)?, c.input(0)?, multiples)?)])
        },

        // --- linalg ---------------------------------------------------------------
        Op::Matmul | Op::BatchMatmul => product_grad,

        // --- reductions -------------------------------------------------------------
        Op::ReduceSum => |c| {
            let (axes, keep) = c.params().reduction()?;
            let g = expand_reduced(c.grad(0)?, c.input(0)?, axes, keep)?;
            Ok(vec![Some(api::mul(&g, &ones_like(c.input(0)?)?)?)])
        },
        Op::ReduceMean => |c| {
            let (axes, keep) = c.params().reduction()?;
            let g = expand_reduced(c.grad(0)?, c.input(0)?, axes, keep)?;
            let count = reduced_count(c.input(0)?, axes, g.dtype())?;
            let scaled = api::div(&g, &count)?;
            Ok(vec![Some(api::mul(&scaled, &ones_like(c.input(0)?)?)?)])
        },
        Op::ReduceMax | Op::ReduceMin => minmax_grad,
        Op::ReduceProd => |c| {
            // Zero-safe product gradient. The naive `y/x * g` form is undefined
            // when an input element is exactly zero, so mask zeros out of the
            // product and handle the zero-count cases per reduction group
            // (inner reductions use keep_dims=true so they broadcast against x):
            //   no zeros in group: d y/d x_i = prod(x)/x_i
            //   one zero:          the zero element gets the product of the
            //                      non-zeros; every other element gets 0
            //   two or more:       everything is 0
            let (axes, keep) = c.params().reduction()?;
            let x = c.input(0)?;
            let g = expand_reduced(c.grad(0)?, x, axes, keep)?;
            let is_zero = api::cast(&api::equal(x, &zeros_like(x)?)?, x.dtype())?;
            // Zeros replaced by ones: safe to multiply and divide through.
            let safe_x = api::add(x, &is_zero)?;
            let prod_nz = api::reduce_prod(&safe_x, axes, true)?;
            let num_zeros = api::reduce_sum(&is_zero, axes, true)?;
            let no_zero = api::cast(&api::equal(&num_zeros, &zeros_like(&num_zeros)?)?, x.dtype())?;
            let one_zero = api::cast(&api::equal(&num_zeros, &ones_like(&num_zeros)?)?, x.dtype())?;
            let not_zero = api::sub(&ones_like(x)?, &is_zero)?;
            // prod-of-the-others for non-zero entries is prod_nz/x, valid only
            // in zero-free groups; for zero entries it is prod_nz itself, valid
            // only when that entry is the group's single zero.
            let nz_part = api::mul(&api::mul(&not_zero, &api::div(&prod_nz, &safe_x)?)?, &no_zero)?;
            let z_part = api::mul(&api::mul(&is_zero, &prod_nz)?, &one_zero)?;
            Ok(vec![Some(api::mul(&g, &api::add(&nz_part, &z_part)?)?)])
        },

        // --- nn -------------------------------------------------------------------
        Op::Softmax => |c| {
            let y = c.output(0)?;
            let g = c.grad(0)?;
            let gy = api::mul(g, y)?;
            let s = api::reduce_sum(&gy, &[-1], true)?;
            Ok(vec![Some(api::sub(&gy, &api::mul(y, &s)?)?)])
        },
        Op::LogSoftmax => |c| {
            let y = c.output(0)?;
            let g = c.grad(0)?;
            let s = api::reduce_sum(g, &[-1], true)?;
            Ok(vec![Some(api::sub(g, &api::mul(&api::exp(y)?, &s)?)?)])
        },
        Op::SparseSoftmaxXent => |c| {
            let mut out = tfe_runtime::context::execute(
                Op::SoftmaxXentGrad,
                &[c.input(0)?.clone(), c.input(1)?.clone(), c.grad(0)?.clone()],
                Params::None,
            )?;
            Ok(vec![Some(out.remove(0)), None])
        },
        Op::Conv2d => |c| {
            let inputs = [c.input(0)?.clone(), c.input(1)?.clone(), c.grad(0)?.clone()];
            let params = c.params();
            let gx =
                tfe_runtime::context::execute(Op::Conv2dBackpropInput, &inputs, params.clone())?
                    .remove(0);
            let gf =
                tfe_runtime::context::execute(Op::Conv2dBackpropFilter, &inputs, params.clone())?
                    .remove(0);
            Ok(vec![Some(gx), Some(gf)])
        },
        Op::MaxPool => |c| pool_grad(c, Op::MaxPoolGrad),
        Op::AvgPool => |c| pool_grad(c, Op::AvgPoolGrad),
        Op::DropoutMask => |_c| Ok(vec![None]), // mask depends on shape only

        // --- state ------------------------------------------------------------------

        // --- staged escape hatch -------------------------------------------------
        // §4.7: py_func "executes its Python function under a gradient tape and
        // as such it is differentiable". The gradient re-runs the host closure
        // under a fresh tape and differentiates it; inside a trace this emits a
        // new `host_func` node wrapping that computation.
        Op::HostFunc => |c| {
            let Params::HostFunc { closure, .. } = c.params() else { return c.mismatch() };
            let f = closure.get::<HostFn>().ok_or_else(|| {
                RuntimeError::Unsupported(format!(
                    "host_func `{}` holds no closure",
                    closure.label()
                ))
            })?;
            let inputs: Vec<Tensor> = c.record.inputs.clone();
            let grads = c.grads()?;
            let all: Vec<Tensor> = inputs.iter().chain(grads).cloned().collect();
            let n_inputs = inputs.len();
            let grad_closure: HostFn = std::sync::Arc::new(move |args: &[Tensor]| {
                let (xs, gs) = args.split_at(n_inputs);
                // One `gradient` call per output: persistent.
                let tape = crate::GradientTape::persistent();
                for x in xs {
                    tape.watch(x);
                }
                let ys = f(xs)?;
                let sources: Vec<&Tensor> = xs.iter().collect();
                let mut acc: Vec<Option<Tensor>> = vec![None; xs.len()];
                for (y, g) in ys.iter().zip(gs) {
                    let partial = tape.gradient_with_output_grad(y, Some(g.clone()), &sources)?;
                    for (slot, p) in acc.iter_mut().zip(partial) {
                        *slot = match (slot.take(), p) {
                            (None, x) => x,
                            (x, None) => x,
                            (Some(a), Some(b)) => Some(api::add(&a, &b)?),
                        };
                    }
                }
                acc.into_iter()
                    .enumerate()
                    .map(|(i, g)| match g {
                        Some(g) => Ok(g),
                        None => zeros_like(&xs[i]),
                    })
                    .collect::<Result<Vec<_>>>()
            });
            let params = Params::HostFunc {
                closure: tfe_runtime::context::host_fn_handle(grad_closure),
                outputs: inputs.iter().map(|t| (t.dtype(), t.sym_shape())).collect(),
            };
            let out = tfe_runtime::context::execute(Op::HostFunc, &all, params)?;
            Ok(out.into_iter().map(Some).collect())
        },

        // --- staged calls ----------------------------------------------------
        Op::Call => STAGED.get()?[0],
        Op::Cond => STAGED.get()?[1],

        // --- no gradient -----------------------------------------------------
        // Boolean and integer results, sources without inputs, the adjoint
        // kernels that have no second-order form here, writes, and
        // `while_loop` (see `gradient_fn`).
        Op::Compare(_)
        | Op::Logical(_)
        | Op::LogicalNot
        | Op::FusedElementwise
        | Op::Const
        | Op::Placeholder
        | Op::Fill
        | Op::Eye
        | Op::Range
        | Op::ShapeOf
        | Op::RankOf
        | Op::SizeOf
        | Op::GatherGrad
        | Op::OneHot
        | Op::ReduceAny
        | Op::ReduceAll
        | Op::Argmax
        | Op::Argmin
        | Op::Conv2dBackpropInput
        | Op::Conv2dBackpropFilter
        | Op::MaxPoolGrad
        | Op::AvgPoolGrad
        | Op::SoftmaxXentGrad
        | Op::RandomNormal
        | Op::RandomUniform
        | Op::TruncatedNormal
        | Op::Assign
        | Op::AssignAdd
        | Op::AssignSub
        | Op::WhileLoop => return None,
    };
    Some(f)
}

fn pool_grad(c: &GradCtx, grad_op: Op) -> Result<Vec<Option<Tensor>>> {
    let out = tfe_runtime::context::execute(
        grad_op,
        &[c.input(0)?.clone(), c.grad(0)?.clone()],
        c.params().clone(),
    )?;
    Ok(vec![Some(
        out.into_iter()
            .next()
            .ok_or_else(|| RuntimeError::Internal("pool grad returned nothing".to_string()))?,
    )])
}

/// The gradients of `matmul` and `batch_matmul`: products of the incoming
/// gradient with the other operand, transposed as the forward flags say. A
/// batched product then sums broadcast batch dims away.
fn product_grad(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let (g, a, b) = (c.grad(0)?, c.input(0)?, c.input(1)?);
    let product = |x: &Tensor, y: &Tensor, transpose_a, transpose_b| {
        let params = Params::Matmul { transpose_a, transpose_b };
        let mut out = tfe_runtime::context::execute(c.record.op, &[x.clone(), y.clone()], params)?;
        Ok::<_, RuntimeError>(out.remove(0))
    };
    let (ga, gb) = match c.params().transposes()? {
        (false, false) => (product(g, b, false, true)?, product(a, g, true, false)?),
        (true, false) => (product(b, g, false, true)?, product(a, g, false, false)?),
        (false, true) => (product(g, b, false, false)?, product(g, a, true, false)?),
        (true, true) => (product(b, g, true, true)?, product(g, a, true, true)?),
    };
    if c.record.op == Op::Matmul {
        return Ok(vec![Some(ga), Some(gb)]);
    }
    Ok(vec![Some(sum_to_like(&ga, a)?), Some(sum_to_like(&gb, b)?)])
}

fn minmax_grad(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let (axes, keep) = c.params().reduction()?;
    let input = c.input(0)?;
    let g = expand_reduced(c.grad(0)?, input, axes, keep)?;
    let y = expand_reduced(c.output(0)?, input, axes, keep)?;
    let big_y = api::mul(&y, &ones_like(input)?)?;
    let indicator = api::cast(&api::equal(input, &big_y)?, g.dtype())?;
    // Split the gradient among ties, like TensorFlow.
    let num = api::reduce_sum(&indicator, axes, true)?;
    let share = api::div(&api::mul(&indicator, &g)?, &num)?;
    Ok(vec![Some(share)])
}

/// Reshape `g` to the (possibly partially-unknown) shape of `reference`.
fn reshape_like(g: &Tensor, reference: &Tensor) -> Result<Tensor> {
    let dims = reference.sym_shape();
    let unknown = dims.dims().iter().filter(|d| d.is_none()).count();
    if unknown > 1 {
        return Err(RuntimeError::Unsupported(
            "reshape gradient with more than one unknown dimension".to_string(),
        ));
    }
    let target: Vec<i64> = dims.dims().iter().map(|d| d.map(|v| v as i64).unwrap_or(-1)).collect();
    api::reshape(g, &target)
}

/// Gradient of `tile`: fold the repeats back with sums.
fn sum_tiled(g: &Tensor, input: &Tensor, multiples: &[usize]) -> Result<Tensor> {
    let in_dims = input.sym_shape();
    let Some(shape) = in_dims.to_shape() else {
        return Err(RuntimeError::Unsupported(
            "tile gradient with unknown input dimensions".to_string(),
        ));
    };
    // Reshape g to (m0, d0, m1, d1, ...) and sum the multiple axes.
    let mut interleaved: Vec<i64> = Vec::new();
    let mut sum_axes: Vec<i64> = Vec::new();
    for (i, (&d, &m)) in shape.dims().iter().zip(multiples).enumerate() {
        sum_axes.push(2 * i as i64);
        interleaved.push(m as i64);
        interleaved.push(d as i64);
    }
    let r = api::reshape(g, &interleaved)?;
    api::reduce_sum(&r, &sum_axes, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_core_ops() {
        for op in [
            "add",
            "mul",
            "matmul",
            "relu",
            "reduce_sum",
            "conv2d",
            "softmax",
            "read_variable",
            "reshape",
            "sigmoid",
            "host_func",
        ] {
            assert!(gradient_fn(Op::from_name(op).unwrap()).is_ok(), "missing gradient for {op}");
        }
        assert!(matches!(gradient_fn(Op::Argmax), Err(RuntimeError::Unsupported(_))));
        let Err(RuntimeError::Unsupported(why)) = gradient_fn(Op::WhileLoop) else {
            panic!("while_loop must answer Unsupported");
        };
        assert!(why.contains("DESIGN.md §7"), "{why}");
    }
}
