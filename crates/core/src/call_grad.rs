//! Gradients *through* staged calls (§4.2's tape/staging integration).
//!
//! A graph function called under a gradient tape runs its **forward
//! variant**, `<name>__fwd`: the optimized graph returning the primary
//! outputs followed by the *kept* intermediates, the forward values its
//! backward reads and no others. Differentiating the call then invokes a
//! **backward** graph function on those values and the output gradients.
//! This reproduces the paper's guarantee that "staging or unstaging a
//! computation does not change the amount of work in its backward pass",
//! and that "if a computation was staged in the forward pass, its
//! corresponding backward pass will also be staged".
//!
//! A concrete function has one forward variant, and the gradients that
//! arrive at its record pick the backward ([`call_gradient`]):
//!
//! * **`__bwd`**, when only primary outputs got one: traced with a `dy` per
//!   primary output and optimized. The intermediates it reads are the kept
//!   set; the others are dropped from its inputs.
//! * **`__bwd2`**, when a gradient reached a kept intermediate (an outer
//!   tape or graph differentiated the backward call with respect to its
//!   inputs): the same trace with one more seed per kept intermediate,
//!   built on first need. A seed only adds to the adjoint of a value the
//!   first-order trace already propagates through, so this backward reads
//!   nothing outside the kept set (DESIGN.md §7). A build that would all
//!   the same fails naming the op: it never widens the forward and never
//!   drops the term.

use crate::func::{keep_alive, optimize, ConcreteFunction};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;
use std::sync::{Arc, OnceLock, Weak};
use tfe_autodiff::GradCtx;
use tfe_graph::{passes, GraphFunction, NodeId, TensorRef};
use tfe_ops::{Attrs, Op};
use tfe_parallel::{read, write};
use tfe_runtime::{context, Result, RuntimeError, TapeRecord, Tensor};
use tfe_tensor::TensorData;

/// The forward variant of one concrete function and its backward functions,
/// built once, when first needed.
#[derive(Debug)]
pub struct ForwardBundle {
    /// User-visible output count of the original function.
    pub n_primary: usize,
    /// Inputs (args + captures) of the forward function.
    pub n_forward_inputs: usize,
    /// Variables referenced by the forward graph.
    pub var_ids: Vec<i64>,
    /// The forward variant, as inserted in the library: the `n_primary`
    /// outputs followed by the kept intermediates.
    pub fwd: Arc<GraphFunction>,
    /// The first-order backward, a concrete function of its own that this
    /// bundle keeps alive. Its inputs are the kept intermediates (in `fwd`
    /// output order), one gradient per primary output, then its own
    /// captures; its outputs are one gradient per forward input followed
    /// by one per variable in `var_ids`.
    pub bwd: Arc<ConcreteFunction>,
    /// The `call` attributes of the forward variant, encoded once.
    pub(crate) fwd_attrs: Attrs,
    /// The kept intermediates, as outputs of the raw trace.
    kept: Vec<TensorRef>,
    /// `bwd` with one more gradient input per kept intermediate after the
    /// primary ones, built when a gradient first reaches one.
    seeded: OnceLock<std::result::Result<Arc<ConcreteFunction>, String>>,
}

/// Library name (inference or forward variant) → the concrete function that
/// owns it, for the `call` gradient. An index: entries are weak, and a
/// concrete function takes its own out when it drops.
fn concretes() -> &'static RwLock<HashMap<String, Weak<ConcreteFunction>>> {
    static C: OnceLock<RwLock<HashMap<String, Weak<ConcreteFunction>>>> = OnceLock::new();
    C.get_or_init(|| RwLock::new(HashMap::new()))
}

pub(crate) fn index_concrete(name: &str, c: &Arc<ConcreteFunction>) {
    write(concretes()).insert(name.to_string(), Arc::downgrade(c));
}

/// Called by the drop of the concrete function indexed under `name`; leaves
/// a live entry (a later function of the same name) alone.
pub(crate) fn unindex_concrete(name: &str) {
    let mut map = write(concretes());
    if map.get(name).is_some_and(|c| c.strong_count() == 0) {
        map.remove(name);
    }
}

/// The live concrete function that owns library name `name` (its inference
/// graph's or a forward variant's), if it was traced by [`crate::function`]
/// and something still holds it. Holding the result keeps every name the
/// function owns resolving.
pub fn concrete_named(name: &str) -> Option<Arc<ConcreteFunction>> {
    // The guard goes before the handle is returned: should that handle turn
    // out to be the last, its drop takes this lock for writing.
    let entry = read(concretes()).get(name).cloned();
    entry?.upgrade()
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

/// The nodes some node or output of `f` reads.
fn read_nodes(f: &GraphFunction) -> HashSet<NodeId> {
    let inputs = f.nodes.iter().flat_map(|n| n.inputs.iter());
    inputs.chain(&f.outputs).map(|t| t.node).collect()
}

/// Build the forward variant of `conc` and its first-order backward. Called
/// once per concrete function, lazily, from
/// [`ConcreteFunction::forward_bundle`].
///
/// # Errors
/// Missing gradients for ops inside the traced function, or trace errors.
pub(crate) fn build_pair(conc: &Arc<ConcreteFunction>) -> Result<ForwardBundle> {
    let (bwd, kept) = build_backward(conc, &format!("{}__bwd", conc.name), None)?;
    // The primary outputs, then the kept intermediates, which are pinned by
    // being outputs: everything else may fuse, merge or fold.
    let mut fwd = (*conc.raw).clone();
    fwd.name = format!("{}__fwd", conc.name);
    fwd.outputs.extend(&kept);
    let fwd = optimize(&fwd).0;
    let fwd_attrs = ConcreteFunction::call_attrs(&fwd, conc.stateful, &conc.var_ids);
    let fwd = context::library().insert(fwd);
    // The gradient function looks concretes up by the *forward* name too.
    index_concrete(&fwd.name, conc);
    Ok(ForwardBundle {
        n_primary: conc.n_primary,
        n_forward_inputs: conc.raw.inputs.len(),
        var_ids: conc.var_ids.clone(),
        fwd,
        bwd,
        fwd_attrs,
        kept,
        seeded: OnceLock::new(),
    })
}

impl ForwardBundle {
    /// The backward seeded at the kept intermediates too, built on first
    /// need.
    fn seeded_backward(&self, conc: &Arc<ConcreteFunction>) -> Result<Arc<ConcreteFunction>> {
        let name = format!("{}__bwd2", conc.name);
        self.seeded
            .get_or_init(|| {
                build_backward(conc, &name, Some(&self.kept))
                    .map(|(b, _)| b)
                    .map_err(|e| e.to_string())
            })
            .clone()
            .map_err(RuntimeError::Internal)
    }
}

/// Trace one backward of `conc` and register it as a concrete function of
/// its own. It is seeded with a gradient per primary output and, given
/// `seeded`, then one per intermediate in it; its inputs are the
/// intermediates it keeps, those gradients and its captures, its outputs
/// one gradient per forward input and one per variable. Without `seeded`
/// it keeps exactly the intermediates it reads; with it, those in `seeded`,
/// and reading any other is an error. Returns the backward and what it
/// kept, in node order.
fn build_backward(
    conc: &ConcreteFunction,
    name: &str,
    seeded: Option<&[TensorRef]>,
) -> Result<(Arc<ConcreteFunction>, Vec<TensorRef>)> {
    let raw = &*conc.raw;
    let intermediates = all_refs(raw);
    // The tapes of the caller have no business in this trace: what it builds
    // must not depend on when (under how many tapes) it was first needed.
    let tapes = context::active_tapes();
    for tape in &tapes {
        context::pop_tape(tape.id);
    }
    let frame_id = context::begin_tracing(name);
    let built = (|| -> Result<Vec<Tensor>> {
        // Placeholders for every intermediate value, then output grads.
        let mut value_of: HashMap<TensorRef, Tensor> = HashMap::new();
        for &tref in &intermediates {
            let (dt, sh) = raw.sig(tref);
            value_of.insert(tref, context::tracing_placeholder(dt, sh)?);
        }
        // One incoming-gradient placeholder per primary output, then one per
        // seeded intermediate.
        let grad_refs: Vec<TensorRef> =
            raw.outputs.iter().chain(seeded.unwrap_or_default()).copied().collect();
        let mut dys = Vec::with_capacity(grad_refs.len());
        for &out in &grad_refs {
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

        // Seeds: dy per gradient target (summing if a ref repeats). The
        // table sends no gradient into an integer or boolean value, so a
        // kept one takes none (DESIGN.md §7).
        let mut seeds: HashMap<u64, Tensor> = HashMap::new();
        for (i, (out, dy)) in grad_refs.iter().zip(&dys).enumerate() {
            if i >= raw.outputs.len() && !dy.dtype().is_float() {
                continue;
            }
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
    let finished = context::end_tracing();
    for tape in tapes {
        context::push_tape(tape);
    }
    let finished = finished?;
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
    let (bwd_opt, bwd_stats) = optimize(&bwd_raw);

    // The backward closes over what it keeps, no more. The trace and its
    // optimized form keep one signature: the backward is itself a concrete
    // function an outer tape may differentiate, from `raw`.
    let bwd_raw = passes::prune(&bwd_raw);
    let (read_raw, read_opt) = (read_nodes(&bwd_raw), read_nodes(&bwd_opt));
    let allowed: Option<HashSet<&TensorRef>> = seeded.map(|s| s.iter().collect());
    let mut dropped = vec![false; bwd_raw.inputs.len()];
    let mut kept = Vec::new();
    for (i, tref) in intermediates.iter().enumerate() {
        let read = read_raw.contains(&bwd_raw.inputs[i]) || read_opt.contains(&bwd_opt.inputs[i]);
        let keep = allowed.as_ref().map_or(read, |a| a.contains(tref));
        if read && !keep {
            let reader = |f: &GraphFunction| {
                let n = f.nodes.iter().find(|n| n.inputs.iter().any(|t| t.node == f.inputs[i]));
                n.map(|n| n.op)
            };
            let reader = reader(&bwd_raw).or_else(|| reader(&bwd_opt));
            return Err(RuntimeError::Internal(format!(
                "backward `{name}` reads output {} of forward `{}` node {} through `{}`, which \
                 the first-order backward does not keep",
                tref.output,
                raw.nodes[tref.node.0].op,
                tref.node.0,
                reader.map_or_else(|| "an output".to_string(), |op| op.to_string()),
            )));
        }
        dropped[i] = !keep;
        if keep {
            kept.push(*tref);
        }
    }
    let bwd_raw = passes::drop_inputs(&bwd_raw, &dropped);
    let bwd_opt = passes::drop_inputs(&bwd_opt, &dropped);
    // The backward pass is a concrete function of its own, so an outer tape
    // can differentiate *it* — higher-order gradients through staged calls
    // (§4.2's composable tapes). It owns what its trace called.
    let function = context::library().insert(bwd_opt);
    let bwd = Arc::new(ConcreteFunction {
        name: name.to_string(),
        inference_attrs: ConcreteFunction::call_attrs(&function, false, &[]),
        function,
        raw: Arc::new(bwd_raw),
        captures: finished.captures,
        // Backward graphs reference no variables of their own (they consume
        // placeholders and constants only).
        var_ids: Vec::new(),
        stateful: false,
        n_primary: outs.len(),
        opt_stats: bwd_stats,
        pair: OnceLock::new(),
        owners: finished.owners,
    });
    index_concrete(&bwd.function.name, &bwd);
    Ok((bwd, kept))
}

/// Call backward `bwd` of `pair` on the forward intermediates, its `dys`
/// and its captures: one gradient per slot of the forward `call` record.
fn run_backward(
    pair: &ForwardBundle,
    bwd: &Arc<ConcreteFunction>,
    intermediates: &[Tensor],
    dys: Vec<Tensor>,
) -> Result<Vec<Option<Tensor>>> {
    let mut inputs = intermediates.to_vec();
    inputs.extend(dys);
    inputs.extend(bwd.captures.iter().cloned());
    let grads = context::execute(Op::Call, &inputs, bwd.inference_attrs.clone())?;
    keep_alive(bwd);
    let expected = pair.n_forward_inputs + pair.var_ids.len();
    if grads.len() != expected {
        return Err(RuntimeError::Internal(format!(
            "backward `{}` returned {} gradients, expected {expected}",
            bwd.name,
            grads.len(),
        )));
    }
    Ok(grads.into_iter().map(Some).collect())
}

/// Differentiate a call whose record holds no intermediates (the inference
/// variant ran: a `call` node of a graph traced under no tape, the backward
/// call an outer tape recorded, the branch of a `cond`): run the forward
/// variant on the same inputs now, then its first-order backward.
fn rerun_and_differentiate(
    conc: &Arc<ConcreteFunction>,
    inputs: &[Tensor],
    c: &GradCtx,
) -> Result<Vec<Option<Tensor>>> {
    let pair = conc.forward_bundle()?;
    let outs = context::execute(Op::Call, inputs, pair.fwd_attrs.clone())?;
    keep_alive(conc);
    let dys = (0..pair.n_primary).map(|i| c.grad(i).cloned()).collect::<Result<_>>()?;
    run_backward(&pair, &pair.bwd, &outs[pair.n_primary..], dys)
}

/// The gradient of the `call` operation: invoke a backward graph function
/// with the forward intermediates and the output gradients.
pub(crate) fn call_gradient(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let fname = c.attrs().str("function").map_err(tfe_ops::OpError::from)?;
    let conc = concrete_named(fname).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate a call to `{fname}`: it was not created via tfe_core::function"
        ))
    })?;
    let pair = conc.forward_bundle()?;
    if fname != pair.fwd.name {
        return rerun_and_differentiate(&conc, &c.record.inputs, c);
    }
    // The forward variant ran: the kept intermediates are on the record, and
    // whether a gradient reached one picks the backward.
    let n = pair.n_primary;
    let (bwd, n_dys) = if c.output_grads[n..].iter().all(Option::is_none) {
        (pair.bwd.clone(), n)
    } else {
        (pair.seeded_backward(&conc)?, c.output_grads.len())
    };
    let dys = (0..n_dys).map(|i| c.grad(i).cloned()).collect::<Result<_>>()?;
    run_backward(&pair, &bwd, &c.record.outputs[n..], dys)
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
    let conc = concrete_named(branch).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate cond branch `{branch}`: not created via tfe_core::function"
        ))
    })?;
    // The cond executed the plain branch function, so the record has no
    // intermediates of its own.
    let branch_args = &c.record.inputs[1..];
    let mut grads = rerun_and_differentiate(&conc, branch_args, c)?;
    let var_grads = grads.split_off(branch_args.len());
    // Slots: the predicate, the branch arguments, then the variables either
    // branch reads; one only the other branch reads gets no gradient.
    let var_ids = c.attrs().int_list_or("var_ids", &[]).map_err(tfe_ops::OpError::from)?;
    let mut out: Vec<Option<Tensor>> = vec![None];
    out.append(&mut grads);
    out.extend(var_ids.iter().map(|id| {
        let i = conc.var_ids.iter().position(|v| v == id)?;
        var_grads[i].clone()
    }));
    Ok(out)
}
