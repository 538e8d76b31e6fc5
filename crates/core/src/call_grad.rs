//! Gradients *through* staged calls (§4.2's tape/staging integration).
//!
//! When a graph function is called while a tape is active, the runtime
//! executes a **forward** variant that additionally returns intermediate
//! values; differentiating the call then invokes a **backward** graph
//! function built once per concrete function, whose inputs are those
//! intermediates plus the output gradients. This reproduces the paper's
//! guarantee that "staging or unstaging a computation does not change the
//! amount of work in its backward pass", and that "if a computation was
//! staged in the forward pass, its corresponding backward pass will also be
//! staged".
//!
//! A concrete function has two such pairs, built lazily by one builder
//! ([`build_pair`]) that differs only in which forward-variant outputs may
//! receive a gradient ([`GradTargets`]):
//!
//! * **First order** — the primary outputs only. The backward is the
//!   continuation that closes over exactly the forward values it uses: it
//!   is traced with a `dy` per primary output, optimized, and the
//!   intermediate placeholders nothing reads are dropped; the forward
//!   returns the primary outputs plus the *kept* intermediates and goes
//!   through the optimizer like any other graph (the kept values are
//!   pinned as outputs, the rest may fuse, merge or fold). This is the
//!   pair that makes the §4.2 claim true on the clock: no zero gradient is
//!   made, added or carried for a value no gradient can reach.
//! * **Any order** — every intermediate is returned and takes a `dy`, on
//!   the unoptimized trace. An outer tape that recorded both the forward
//!   call and the backward call differentiates the latter with respect to
//!   the intermediates, and those gradients flow back into the forward
//!   record, so it has to offer all of them.
//!
//! **Which pair runs is decided at forward time by who can observe the
//! call: the active tapes and an open trace.** A tape pops only itself
//! while it computes a gradient, so the backward call of a forward record is
//! recorded by exactly the *other* tapes that were active at the forward.
//! With one tape active and no trace open there is no such observer:
//! nothing that holds the forward record can ever hold its backward call, no
//! gradient can arrive at an intermediate, and the first-order pair is
//! exact. With two or more tapes the any-order pair runs. An open trace
//! counts as an observer too, whatever the tapes: the graph it builds holds
//! every call made into it, so a `tape.gradient` inside the trace, or the
//! backward built later from that graph, puts a forward call and its
//! backward call side by side, and differentiating the graph sends
//! gradients from the one to the intermediates of the other. Inside a trace
//! the any-order pair always runs, so a raw graph holds `call` nodes of
//! inference functions and any-order variants only.
//!
//! A tape opened *after* an eager one-tape forward may record the backward
//! call and differentiate it (with respect to `dy`, say), but it does not
//! hold the forward record, so what it computes for the intermediates goes
//! nowhere. Should a gradient reach an intermediate of a first-order record
//! all the same, [`call_gradient`] answers `RuntimeError::Internal`: never a
//! silent drop. One program does that: a `function` whose body calls
//! `gradient` on the only tape, itself called under that (persistent) tape,
//! captures the kept intermediates and hands their gradients back to it.
//! Open a second tape around the forward for that.

use crate::func::{keep_alive, optimize, ConcreteFunction};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use tfe_autodiff::GradCtx;
use tfe_graph::{passes, GraphFunction, NodeId, TensorRef};
use tfe_ops::{Attrs, Op};
use tfe_runtime::{context, Result, RuntimeError, TapeRecord, Tensor};
use tfe_tensor::TensorData;

/// Which outputs of a forward variant may receive a gradient: the one
/// thing the two pairs of a concrete function differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GradTargets {
    /// The primary outputs: the first-order pair.
    Primary,
    /// The primary outputs and every intermediate: the any-order pair.
    All,
}

impl GradTargets {
    /// The pair for a forward variant that `recording` tapes record
    /// together with its backward call, made now. An open trace holds both
    /// calls whatever the tapes (module docs).
    pub(crate) fn observed_by(recording: usize) -> GradTargets {
        if recording == 0 && !context::is_tracing() {
            GradTargets::Primary
        } else {
            GradTargets::All
        }
    }
}

/// A lazily-built forward / backward pair of one concrete function.
#[derive(Debug)]
pub struct ForwardBundle {
    /// Library name of the forward variant returning `n_primary` outputs
    /// followed by the intermediates the backward takes (every one of them
    /// in the any-order pair, the kept ones in the first-order pair).
    pub fwd_name: String,
    /// Library name of the backward function, a concrete function of its
    /// own that this bundle keeps alive. Its inputs are the
    /// intermediates (in `fwd` output order) followed by one gradient per
    /// forward-variant output that may receive one, then any captures of
    /// the backward graph itself; its outputs are one gradient per forward
    /// input followed by one per referenced variable id.
    pub bwd_name: String,
    /// User-visible output count of the original function.
    pub n_primary: usize,
    /// Inputs (args + captures) of the forward function.
    pub n_forward_inputs: usize,
    /// Variables referenced by the forward graph.
    pub var_ids: Vec<i64>,
    /// Captures of the backward graph (values to append when calling it).
    pub bwd_captures: Vec<Tensor>,
    pub(crate) targets: GradTargets,
    /// The forward variant, as inserted in the library.
    pub(crate) fwd: Arc<GraphFunction>,
    /// The backward function.
    pub(crate) bwd: Arc<ConcreteFunction>,
    /// The `call` attributes of the forward variant, encoded once.
    pub(crate) fwd_attrs: Attrs,
}

/// Library name (inference or forward variant) → the concrete function that
/// owns it, for the `call` gradient. An index: entries are weak, and a
/// concrete function takes its own out when it drops.
fn concretes() -> &'static RwLock<HashMap<String, Weak<ConcreteFunction>>> {
    static C: std::sync::OnceLock<RwLock<HashMap<String, Weak<ConcreteFunction>>>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| RwLock::new(HashMap::new()))
}

pub(crate) fn index_concrete(name: &str, c: &Arc<ConcreteFunction>) {
    concretes().write().insert(name.to_string(), Arc::downgrade(c));
}

/// Called by the drop of the concrete function indexed under `name`; leaves
/// a live entry (a later function of the same name) alone.
pub(crate) fn unindex_concrete(name: &str) {
    let mut map = concretes().write();
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
    let entry = concretes().read().get(name).cloned();
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

/// Build one forward/backward pair of `conc`. Called once per concrete
/// function and `targets`, lazily, from [`ConcreteFunction::pair`].
///
/// # Errors
/// Missing gradients for ops inside the traced function, or trace errors.
pub(crate) fn build_pair(
    conc: &Arc<ConcreteFunction>,
    targets: GradTargets,
) -> Result<ForwardBundle> {
    let raw = &*conc.raw;
    let suffix = match targets {
        GradTargets::Primary => "1",
        GradTargets::All => "",
    };
    let intermediates = all_refs(raw);
    let fwd_name = format!("{}__fwd{suffix}", conc.name);
    let bwd_name = format!("{}__bwd{suffix}", conc.name);

    // ---- backward ----------------------------------------------------------
    // The tapes of the caller have no business in this trace: what it builds
    // must not depend on when (under how many tapes) it was first needed.
    let tapes = context::active_tapes();
    for tape in &tapes {
        context::pop_tape(tape.id);
    }
    let frame_id = context::begin_tracing(&bwd_name);
    let built = (|| -> Result<Vec<Tensor>> {
        // Placeholders for every intermediate value, then output grads.
        let mut value_of: HashMap<TensorRef, Tensor> = HashMap::new();
        for &tref in &intermediates {
            let (dt, sh) = raw.sig(tref);
            value_of.insert(tref, context::tracing_placeholder(dt, sh)?);
        }
        // One incoming-gradient placeholder per forward-variant output that
        // may receive one: the primary outputs, then (any order) every
        // intermediate.
        let mut grad_refs = raw.outputs.clone();
        if targets == GradTargets::All {
            grad_refs.extend(intermediates.iter().copied());
        }
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

        // Seeds: dy per gradient target (summing if a ref repeats).
        let mut seeds: HashMap<u64, Tensor> = HashMap::new();
        for (out, dy) in grad_refs.iter().zip(&dys) {
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
    let mut bwd_raw = finished.builder.finish(out_refs, finished.captures.len());
    // The backward pass is staged too: optimize it like any graph function.
    let (mut bwd_opt, bwd_stats) = optimize(&bwd_raw);

    // ---- first order: the backward closes over what it reads, no more -------
    // The trace and its optimized form keep one signature: the backward is
    // itself a concrete function an outer tape may differentiate, from `raw`.
    let mut unread = vec![false; bwd_raw.inputs.len()];
    if targets == GradTargets::Primary {
        bwd_raw = passes::prune(&bwd_raw);
        let (read_raw, read_opt) = (read_nodes(&bwd_raw), read_nodes(&bwd_opt));
        for (i, unread) in unread.iter_mut().enumerate().take(intermediates.len()) {
            *unread =
                !read_raw.contains(&bwd_raw.inputs[i]) && !read_opt.contains(&bwd_opt.inputs[i]);
        }
        bwd_raw = passes::drop_inputs(&bwd_raw, &unread);
        bwd_opt = passes::drop_inputs(&bwd_opt, &unread);
    }
    // The backward pass is a concrete function of its own, so an outer tape
    // can differentiate *it* — higher-order gradients through staged calls
    // (§4.2's composable tapes). It owns what its trace called.
    let bwd_fn = context::library().insert(bwd_opt);
    let bwd = Arc::new(ConcreteFunction {
        name: bwd_name.clone(),
        inference_attrs: ConcreteFunction::call_attrs(&bwd_fn, false, &[]),
        function: bwd_fn,
        raw: Arc::new(bwd_raw),
        captures: finished.captures.clone(),
        // Backward graphs reference no variables of their own (they consume
        // placeholders and constants only).
        var_ids: Vec::new(),
        stateful: false,
        n_primary: outs.len(),
        opt_stats: bwd_stats,
        pairs: Default::default(),
        owners: finished.owners,
    });
    index_concrete(&bwd.function.name, &bwd);

    // ---- forward: the primary outputs, then the kept intermediates ----------
    let mut fwd = raw.clone();
    fwd.name = fwd_name.clone();
    fwd.outputs.extend(intermediates.iter().zip(&unread).filter(|(_, &u)| !u).map(|(&t, _)| t));
    if targets == GradTargets::Primary {
        fwd = optimize(&fwd).0;
    }
    let fwd_attrs = ConcreteFunction::call_attrs(&fwd, conc.stateful, &conc.var_ids);
    let fwd = context::library().insert(fwd);
    // The gradient function looks concretes up by the *forward* name too.
    index_concrete(&fwd_name, conc);

    Ok(ForwardBundle {
        fwd_name,
        bwd_name,
        n_primary: conc.n_primary,
        n_forward_inputs: raw.inputs.len(),
        var_ids: conc.var_ids.clone(),
        bwd_captures: finished.captures,
        targets,
        fwd,
        bwd,
        fwd_attrs,
    })
}

/// Call the backward of `pair` on the forward intermediates and one `dy`
/// per gradient target: one gradient per slot of the forward `call` record.
fn run_backward(
    pair: &ForwardBundle,
    intermediates: &[Tensor],
    dys: Vec<Tensor>,
) -> Result<Vec<Option<Tensor>>> {
    let mut inputs = intermediates.to_vec();
    inputs.extend(dys);
    inputs.extend(pair.bwd_captures.iter().cloned());
    let grads = context::execute(Op::Call, &inputs, pair.bwd.inference_attrs.clone())?;
    keep_alive(&pair.bwd);
    if grads.len() != pair.n_forward_inputs + pair.var_ids.len() {
        return Err(RuntimeError::Internal(format!(
            "backward `{}` returned {} gradients, expected {}",
            pair.bwd_name,
            grads.len(),
            pair.n_forward_inputs + pair.var_ids.len()
        )));
    }
    Ok(grads.into_iter().map(Some).collect())
}

/// Differentiate a call whose record holds no intermediates (the inference
/// variant ran: a `call` node of a graph traced under no tape, the backward
/// call an outer tape recorded, the branch of a `cond`): run a forward
/// variant on the same inputs now, then its backward.
fn rerun_and_differentiate(
    conc: &Arc<ConcreteFunction>,
    inputs: &[Tensor],
    c: &GradCtx,
) -> Result<Vec<Option<Tensor>>> {
    // The differentiating tape has popped itself; every tape active now
    // records both calls made here, and so does an open trace.
    let pair = conc.pair(GradTargets::observed_by(context::active_tapes().len()))?;
    let outs = context::execute(Op::Call, inputs, pair.fwd_attrs.clone())?;
    keep_alive(conc);
    let intermediates = &outs[pair.n_primary..];
    let mut dys =
        (0..pair.n_primary).map(|i| c.grad(i).cloned()).collect::<Result<Vec<Tensor>>>()?;
    if pair.targets == GradTargets::All {
        for t in intermediates {
            dys.push(
                context::execute(Op::ZerosLike, std::slice::from_ref(t), Attrs::new())?.remove(0),
            );
        }
    }
    run_backward(&pair, intermediates, dys)
}

/// The gradient of the `call` operation: invoke the backward graph function
/// with the forward intermediates and the output gradients.
pub(crate) fn call_gradient(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let fname = c.attrs().str("function").map_err(tfe_ops::OpError::from)?;
    let conc = concrete_named(fname).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate a call to `{fname}`: it was not created via tfe_core::function"
        ))
    })?;
    // A forward variant ran: its intermediates are on the record.
    let Some(pair) = conc.built_pair(fname) else {
        return rerun_and_differentiate(&conc, &c.record.inputs, c);
    };
    let n = pair.n_primary;
    let dys: Vec<&Tensor> = match pair.targets {
        GradTargets::All => c.grads()?,
        GradTargets::Primary => {
            if let Some(i) = c.output_grads[n..].iter().position(Option::is_some) {
                return Err(RuntimeError::Internal(format!(
                    "a gradient arrived at intermediate {i} of `{fname}`, a first-order forward \
                     variant: it ran eagerly under one tape, and only a function that staged its \
                     backward call and was then called under that tape can send one here; open a \
                     second tape around the forward call (DESIGN.md §7)"
                )));
            }
            (0..n).map(|i| c.grad(i)).collect::<Result<_>>()?
        }
    };
    run_backward(&pair, &c.record.outputs[n..], dys.into_iter().cloned().collect())
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
    let grads = rerun_and_differentiate(&conc, branch_args, c)?;
    // Slots: predicate (None), then one per branch argument.
    let mut out: Vec<Option<Tensor>> = vec![None];
    out.extend(grads.into_iter().take(branch_args.len()));
    // If the branch had captures, their gradients are dropped (captures are
    // not cond inputs); pad to the record's input arity.
    while out.len() < c.record.input_ids.len() {
        out.push(None);
    }
    Ok(out)
}
