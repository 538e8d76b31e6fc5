//! Functional control flow (`tf.cond` / `tf.while_loop`) and the escape
//! hatches of §4.7 (`host_func` ≈ `py_func`, `init_scope`).

use crate::arg::Arg;
use crate::func::{keep_alive, ConcreteFunction, Func};
use std::sync::Arc;
use tfe_ops::{Attrs, Op, SymShape};
use tfe_runtime::{context, Result, RuntimeError, Tensor};
use tfe_tensor::DType;

/// Tensor-dependent conditional: executes `then_fn(args)` when the scalar
/// bool `pred` is true, else `else_fn(args)` — usable inside traces, where
/// a host `if` would be baked in at trace time (§4.1).
///
/// # Errors
/// Branch signature mismatches or execution failures.
pub fn cond(
    pred: &Tensor,
    then_fn: &Func,
    else_fn: &Func,
    args: &[&Tensor],
) -> Result<Vec<Tensor>> {
    crate::init();
    let arg_list: Vec<Arg> = args.iter().map(|&t| Arg::from(t)).collect();
    let t = then_fn.concrete_for(&arg_list)?;
    let e = else_fn.concrete_for(&arg_list)?;
    if t.captures.len() + e.captures.len() > 0 {
        return Err(RuntimeError::Unsupported(
            "cond branches may not capture outer tensors (pass them as arguments)".to_string(),
        ));
    }
    let t_sig = t.function.output_sigs();
    let e_sig = e.function.output_sigs();
    if t_sig.len() != e_sig.len()
        || t_sig.iter().zip(&e_sig).any(|(a, b)| a.0 != b.0 || !a.1.compatible_with(&b.1))
    {
        return Err(RuntimeError::Internal(format!(
            "cond branches disagree on output signatures: {t_sig:?} vs {e_sig:?}"
        )));
    }
    let (d, s) = tfe_ops::catalog::encode_sig(&t_sig);
    let stateful = t.stateful || e.stateful;
    let mut inputs = vec![pred.clone()];
    inputs.extend(args.iter().map(|&t| t.clone()));
    let outs = context::execute(
        Op::Cond,
        &inputs,
        Attrs::new()
            .with("then_fn", t.name.clone())
            .with("else_fn", e.name.clone())
            .with("out_dtypes", d)
            .with("out_shapes", s)
            .with("stateful", stateful),
    )?;
    keep_alive(&t);
    keep_alive(&e);
    Ok(outs)
}

/// Tensor-dependent loop: repeats `body(state)` while `cond(state)` yields
/// a true scalar — the `tf.while_loop` analog for loops whose trip count
/// depends on tensor values (§4.1).
///
/// The gradient of `while_loop` is a documented limitation (DESIGN.md §7).
///
/// # Errors
/// Signature mismatches between `body` outputs and the loop state, capture
/// restrictions, or execution failures.
pub fn while_loop(cond_fn: &Func, body_fn: &Func, init: &[&Tensor]) -> Result<Vec<Tensor>> {
    crate::init();
    let arg_list: Vec<Arg> = init.iter().map(|&t| Arg::from(t)).collect();
    let c = cond_fn.concrete_for(&arg_list)?;
    let b = body_fn.concrete_for(&arg_list)?;
    if c.captures.len() + b.captures.len() > 0 {
        return Err(RuntimeError::Unsupported(
            "while_loop functions may not capture outer tensors (pass them as loop state)"
                .to_string(),
        ));
    }
    let c_sig = c.function.output_sigs();
    if c_sig.len() != 1 || c_sig[0].0 != DType::Bool {
        return Err(RuntimeError::Internal(
            "while_loop condition must return a single bool".to_string(),
        ));
    }
    let state_sig: Vec<(DType, SymShape)> =
        init.iter().map(|t| (t.dtype(), t.sym_shape())).collect();
    let b_sig = b.function.output_sigs();
    if b_sig.len() != state_sig.len()
        || b_sig.iter().zip(&state_sig).any(|(a, s)| a.0 != s.0 || !a.1.compatible_with(&s.1))
    {
        return Err(RuntimeError::Internal(format!(
            "while_loop body must map the state to itself: {b_sig:?} vs {state_sig:?}"
        )));
    }
    let inputs: Vec<Tensor> = init.iter().map(|&t| t.clone()).collect();
    let outs = context::execute(
        Op::WhileLoop,
        &inputs,
        Attrs::new()
            .with("cond_fn", c.name.clone())
            .with("body_fn", b.name.clone())
            .with("stateful", c.stateful || b.stateful),
    )?;
    keep_alive(&c);
    keep_alive(&b);
    Ok(outs)
}

/// A host closure embeddable in staged computations — the `py_func` analog
/// (§4.7). Imperatively it is pass-through; inside a graph it becomes a
/// `host_func` node that jumps back into the imperative runtime, and it is
/// differentiable (the gradient re-runs the closure under a tape).
///
/// The closure lives as long as a `HostFunc` handle or a graph traced
/// through one does; after that its id no longer resolves.
#[derive(Clone)]
pub struct HostFunc {
    closure: Arc<context::HostFnHandle>,
    out_sig: Vec<(DType, SymShape)>,
}

impl HostFunc {
    /// Register a closure with a declared output signature.
    pub fn new(
        f: impl Fn(&[Tensor]) -> Result<Vec<Tensor>> + Send + Sync + 'static,
        out_sig: Vec<(DType, SymShape)>,
    ) -> HostFunc {
        crate::init();
        HostFunc { closure: context::HostFnHandle::new(Arc::new(f)), out_sig }
    }

    /// The registered host-function id.
    pub fn id(&self) -> u64 {
        self.closure.id()
    }

    /// Invoke (directly when eager; as a graph node when tracing).
    ///
    /// # Errors
    /// Closure failures or signature problems.
    pub fn call(&self, args: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (d, s) = tfe_ops::catalog::encode_sig(&self.out_sig);
        let inputs: Vec<Tensor> = args.iter().map(|&t| t.clone()).collect();
        let outs = context::execute(
            Op::HostFunc,
            &inputs,
            Attrs::new()
                .with("fn_id", self.id() as i64)
                .with("out_dtypes", d)
                .with("out_shapes", s),
        )?;
        // A graph that got the node keeps the closure; eagerly it has run.
        context::retain_in_trace(&(self.closure.clone() as _));
        Ok(outs)
    }
}

impl std::fmt::Debug for HostFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostFunc(id={}, {} outputs)", self.id(), self.out_sig.len())
    }
}

/// Pause any in-progress traces and run `f` imperatively (`tf.init_scope`,
/// §4.7). Most users never need this; `function` uses it internally for the
/// state-creation contract.
pub fn init_scope<R>(f: impl FnOnce() -> R) -> R {
    context::init_scope(f)
}

/// Convenience re-export point used by `cond`/`while_loop` helpers.
pub(crate) fn _concrete_name(c: &Arc<ConcreteFunction>) -> &str {
    &c.name
}
