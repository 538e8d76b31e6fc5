//! Gradients *through* staged calls (§4.2's tape/staging integration).
//!
//! When a graph function is called while a tape is active, the runtime
//! executes a **forward** variant that additionally returns every
//! intermediate value; differentiating the call then invokes a **backward**
//! graph function built once per concrete function, whose inputs are those
//! intermediates plus the output gradients. This reproduces the paper's
//! guarantee that staging or unstaging a computation does not change the
//! amount of work in its backward pass, and that "if a computation was
//! staged in the forward pass, its corresponding backward pass will also be
//! staged".

use crate::func::ConcreteFunction;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tfe_autodiff::GradCtx;
use tfe_graph::{GraphFunction, NodeId, TensorRef};
use tfe_ops::{Attrs, Op};
use tfe_runtime::{context, Result, RuntimeError, TapeRecord, Tensor};
use tfe_tensor::TensorData;

/// The lazily-built forward-with-intermediates / backward pair for one
/// concrete function.
#[derive(Debug)]
pub struct ForwardBundle {
    /// Library name of the forward variant returning `n_primary` outputs
    /// followed by every intermediate value.
    pub fwd_name: String,
    /// Library name of the backward function. Its inputs are the
    /// intermediates (in `fwd` output order) followed by one gradient per
    /// primary output, then any captures of the backward graph itself; its
    /// outputs are one gradient per forward input followed by one per
    /// referenced variable id.
    pub bwd_name: String,
    /// User-visible output count of the original function.
    pub n_primary: usize,
    /// Inputs (args + captures) of the forward function.
    pub n_forward_inputs: usize,
    /// Variables referenced by the forward graph.
    pub var_ids: Vec<i64>,
    /// Captures of the backward graph (values to append when calling it).
    pub bwd_captures: Vec<Tensor>,
}

fn concretes() -> &'static RwLock<HashMap<String, Arc<ConcreteFunction>>> {
    static C: std::sync::OnceLock<RwLock<HashMap<String, Arc<ConcreteFunction>>>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Index a concrete function under its inference name (and later its
/// forward name), so the `call` gradient can find it.
pub fn register_concrete(c: &Arc<ConcreteFunction>) {
    concretes().write().insert(c.name.clone(), c.clone());
}

fn lookup_concrete(name: &str) -> Option<Arc<ConcreteFunction>> {
    concretes().read().get(name).cloned()
}

/// All intermediate tensor refs of a graph: every output of every node (in
/// node order). Placeholder outputs are included — gradient functions need
/// the forward *inputs* too.
fn all_refs(f: &GraphFunction) -> Vec<TensorRef> {
    let mut out = Vec::new();
    for (i, node) in f.nodes.iter().enumerate() {
        for o in 0..node.outputs.len() {
            out.push(TensorRef { node: NodeId(i), output: o });
        }
    }
    out
}

/// Build the forward/backward pair for `conc`. Called once per concrete
/// function, lazily, from [`ConcreteFunction::forward_bundle`].
///
/// # Errors
/// Missing gradients for ops inside the traced function, or trace errors.
pub fn build_bundle(conc: &Arc<ConcreteFunction>) -> Result<ForwardBundle> {
    let raw = &conc.raw;
    let intermediates = all_refs(raw);

    // ---- forward-with-intermediates --------------------------------------
    let fwd_name = format!("{}__fwd", conc.name);
    let mut fwd_outputs = raw.outputs.clone();
    fwd_outputs.extend(intermediates.iter().copied());
    let fwd = GraphFunction {
        name: fwd_name.clone(),
        nodes: raw.nodes.clone(),
        inputs: raw.inputs.clone(),
        outputs: fwd_outputs,
        num_captures: raw.num_captures,
        constants: raw.constants.clone(),
    };
    context::library().insert(fwd);
    // The gradient function looks concretes up by the *forward* name too.
    concretes().write().insert(fwd_name.clone(), conc.clone());

    // ---- backward ----------------------------------------------------------
    let bwd_name = format!("{}__bwd", conc.name);
    let frame_id = context::begin_tracing(&bwd_name);
    let built = (|| -> Result<Vec<Tensor>> {
        // Placeholders for every intermediate value, then output grads.
        let mut value_of: HashMap<TensorRef, Tensor> = HashMap::new();
        for &tref in &intermediates {
            let (dt, sh) = raw.sig(tref);
            value_of.insert(tref, context::tracing_placeholder(dt, sh)?);
        }
        // One incoming-gradient placeholder per *forward-variant* output:
        // the primary outputs first, then every intermediate. Higher-order
        // differentiation sends gradients into intermediates too.
        let mut fwd_out_refs = raw.outputs.clone();
        fwd_out_refs.extend(intermediates.iter().copied());
        let mut dys = Vec::with_capacity(fwd_out_refs.len());
        for &out in &fwd_out_refs {
            let (dt, sh) = raw.sig(out);
            dys.push(context::tracing_placeholder(dt, sh)?);
        }

        // Synthetic tape records mirroring the forward graph.
        let mut records: Vec<Arc<TapeRecord>> = Vec::new();
        for (i, node) in raw.nodes.iter().enumerate() {
            if matches!(node.op, Op::Placeholder | Op::Const) || node.outputs.is_empty() {
                continue;
            }
            let inputs: Vec<Tensor> = node.inputs.iter().map(|t| value_of[t].clone()).collect();
            let outputs: Vec<Tensor> = (0..node.outputs.len())
                .map(|o| value_of[&TensorRef { node: NodeId(i), output: o }].clone())
                .collect();
            records.push(Arc::new(TapeRecord::new(node.op, node.attrs.clone(), &inputs, &outputs)));
        }

        // Seeds: dy per forward-variant output (summing if a ref repeats).
        let mut seeds: HashMap<u64, Tensor> = HashMap::new();
        for (out, dy) in fwd_out_refs.iter().zip(&dys) {
            let id = value_of[out].id();
            match seeds.remove(&id) {
                Some(existing) => {
                    seeds.insert(id, tfe_runtime::api::add(&existing, dy)?);
                }
                None => {
                    seeds.insert(id, dy.clone());
                }
            }
        }

        let grads = tfe_autodiff::accumulate_many(&records, seeds)?;

        // Outputs: d/d(input) for each forward input, then d/d(var).
        let mut outs: Vec<Tensor> = Vec::new();
        for &input_node in &raw.inputs {
            let ph = &value_of[&TensorRef::first(input_node)];
            match grads.get(&ph.id()) {
                Some(g) => outs.push(g.clone()),
                None => {
                    outs.push(
                        context::execute(Op::ZerosLike, std::slice::from_ref(ph), Attrs::new())?
                            .remove(0),
                    );
                }
            }
        }
        for &vid in &conc.var_ids {
            match grads.get(&(vid as u64)) {
                Some(g) => outs.push(g.clone()),
                None => {
                    let storage = tfe_runtime::variable_registry().resolve(vid as u64)?;
                    outs.push(tfe_runtime::api::constant_data(TensorData::zeros(
                        storage.dtype,
                        storage.shape.clone(),
                    )));
                }
            }
        }
        // Everything must be a node of this frame.
        outs.into_iter()
            .map(|t| match &t {
                Tensor::Symbolic(s) if s.frame_id == frame_id => Ok(t),
                _ => Ok(context::execute(Op::Identity, &[t], Attrs::new())?.remove(0)),
            })
            .collect()
    })();
    let finished = context::end_tracing()?;
    let outs = built?;
    let out_refs: Vec<TensorRef> = outs
        .iter()
        .map(|t| {
            t.as_symbolic()
                .map(|s| s.tref)
                .ok_or_else(|| RuntimeError::Internal("non-symbolic backward output".into()))
        })
        .collect::<Result<_>>()?;
    let bwd_raw = finished.builder.finish(out_refs, finished.captures.len());
    // The backward pass is staged too: optimize it like any graph function.
    let evaluator = |node: &tfe_graph::Node,
                     inputs: &[Arc<TensorData>]|
     -> std::result::Result<Vec<TensorData>, String> {
        tfe_runtime::kernels::run_kernel(node.op, &node.attrs, inputs).map_err(|e| e.to_string())
    };
    let (bwd_opt, bwd_stats) = tfe_graph::passes::optimize_with_stats(
        &bwd_raw,
        &tfe_graph::passes::OptimizeOptions::default(),
        Some(&evaluator),
    );
    let bwd_fn = context::library().insert(bwd_opt);

    // Register the backward pass as a concrete function of its own, so an
    // outer tape can differentiate *it* — higher-order gradients through
    // staged calls (§4.2's composable tapes).
    let bwd_concrete = Arc::new(ConcreteFunction {
        name: bwd_name.clone(),
        function: bwd_fn,
        raw: Arc::new(bwd_raw),
        captures: finished.captures.clone(),
        // Backward graphs reference no variables of their own (they consume
        // placeholders and constants only).
        var_ids: Vec::new(),
        stateful: false,
        n_primary: outs.len(),
        opt_stats: bwd_stats,
        forward: std::sync::OnceLock::new(),
    });
    register_concrete(&bwd_concrete);

    Ok(ForwardBundle {
        fwd_name,
        bwd_name,
        n_primary: conc.n_primary,
        n_forward_inputs: raw.inputs.len(),
        var_ids: conc.var_ids.clone(),
        bwd_captures: finished.captures,
    })
}

/// The gradient of the `call` operation: invoke the backward graph function
/// with the forward intermediates and the output gradients.
pub(crate) fn call_gradient(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let fname = c.attrs().str("function").map_err(tfe_ops::OpError::from)?;
    let conc = lookup_concrete(fname).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate a call to `{fname}`: it was not created via tfe_core::function"
        ))
    })?;
    let bundle = conc.forward_bundle()?;

    let intermediates: Vec<Tensor> = if fname == bundle.fwd_name {
        // The forward-with-intermediates ran; values are on the record.
        c.record.outputs[bundle.n_primary..].to_vec()
    } else {
        // Fallback: the inference variant ran (no tape was detected at call
        // time). Re-execute the forward to materialize intermediates.
        let fwd = context::library()
            .get(&bundle.fwd_name)
            .ok_or_else(|| RuntimeError::UnknownFunction(bundle.fwd_name.clone()))?;
        let attrs = ConcreteFunction::call_attrs(&fwd, conc.stateful, &bundle.var_ids);
        let outs = context::execute(Op::Call, &c.record.inputs, attrs)?;
        outs[bundle.n_primary..].to_vec()
    };

    let mut bwd_inputs = intermediates.clone();
    if fname == bundle.fwd_name {
        // Gradients for every forward-variant output, intermediates too.
        bwd_inputs.extend(c.output_grads.iter().cloned());
    } else {
        bwd_inputs.extend(c.output_grads[..bundle.n_primary].iter().cloned());
        for t in &intermediates {
            bwd_inputs.push(
                context::execute(Op::ZerosLike, std::slice::from_ref(t), Attrs::new())?.remove(0),
            );
        }
    }
    bwd_inputs.extend(bundle.bwd_captures.iter().cloned());
    let bwd = context::library()
        .get(&bundle.bwd_name)
        .ok_or_else(|| RuntimeError::UnknownFunction(bundle.bwd_name.clone()))?;
    let attrs = ConcreteFunction::call_attrs(&bwd, false, &[]);
    let grads = context::execute(Op::Call, &bwd_inputs, attrs)?;
    if grads.len() != bundle.n_forward_inputs + bundle.var_ids.len() {
        return Err(RuntimeError::Internal(format!(
            "backward of `{fname}` returned {} gradients, expected {}",
            grads.len(),
            bundle.n_forward_inputs + bundle.var_ids.len()
        )));
    }
    Ok(grads.into_iter().map(Some).collect())
}

/// The gradient of `cond`: differentiate the branch that actually ran.
///
/// Requires a concrete (eager) predicate — when the `cond` itself was
/// recorded symbolically (inside another trace) the taken branch is not
/// knowable at gradient-construction time, and we return a documented
/// `Unsupported` error (DESIGN.md §7).
pub(crate) fn cond_gradient(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let pred = c
        .record
        .inputs
        .first()
        .ok_or_else(|| RuntimeError::Internal("cond record without predicate".into()))?;
    let Ok(pred_value) = pred.scalar_f64() else {
        return Err(RuntimeError::Unsupported(
            "gradient of a `cond` traced inside another function (symbolic predicate)".to_string(),
        ));
    };
    let branch_attr = if pred_value != 0.0 { "then_fn" } else { "else_fn" };
    let branch = c.attrs().str(branch_attr).map_err(tfe_ops::OpError::from)?;
    let conc = lookup_concrete(branch).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate cond branch `{branch}`: not created via tfe_core::function"
        ))
    })?;
    let bundle = conc.forward_bundle()?;

    // Recompute the branch with intermediates (the cond executed the plain
    // branch function, so the record has no intermediates of its own).
    let fwd = context::library()
        .get(&bundle.fwd_name)
        .ok_or_else(|| RuntimeError::UnknownFunction(bundle.fwd_name.clone()))?;
    let attrs = ConcreteFunction::call_attrs(&fwd, conc.stateful, &bundle.var_ids);
    let branch_args = &c.record.inputs[1..];
    let outs = context::execute(Op::Call, branch_args, attrs)?;
    let intermediates = outs[bundle.n_primary..].to_vec();

    let mut bwd_inputs = intermediates.clone();
    bwd_inputs.extend(c.output_grads[..bundle.n_primary].iter().cloned());
    for t in &intermediates {
        bwd_inputs.push(
            context::execute(Op::ZerosLike, std::slice::from_ref(t), Attrs::new())?.remove(0),
        );
    }
    bwd_inputs.extend(bundle.bwd_captures.iter().cloned());
    let bwd = context::library()
        .get(&bundle.bwd_name)
        .ok_or_else(|| RuntimeError::UnknownFunction(bundle.bwd_name.clone()))?;
    let attrs = ConcreteFunction::call_attrs(&bwd, false, &[]);
    let grads = context::execute(Op::Call, &bwd_inputs, attrs)?;
    // Slots: predicate (None), then one per branch argument.
    let mut out: Vec<Option<Tensor>> = vec![None];
    out.extend(grads.into_iter().take(branch_args.len()).map(Some));
    // If the branch had captures, their gradients are dropped (captures are
    // not cond inputs); pad to the record's input arity.
    while out.len() < c.record.input_ids.len() {
        out.push(None);
    }
    Ok(out)
}
