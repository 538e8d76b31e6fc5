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
//!   inputs): the same trace with one more seed per kept intermediate a
//!   gradient reached, built on first need for each such set (`__bwd2`
//!   when it is all of them, `__bwd2_{mask}` otherwise). A seed only adds
//!   to the adjoint of a value the first-order trace already propagates
//!   through, so this backward reads nothing outside the kept set
//!   (DESIGN.md §7). A build that would all the same fails naming the op:
//!   it never widens the forward and never drops the term.

use crate::func::{optimize, ConcreteFunction};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use tfe_autodiff::GradCtx;
use tfe_graph::{passes, GraphFunction, NodeId, TensorRef};
use tfe_ops::{Handle, Op, Params};
use tfe_parallel::{lock, read, write};
use tfe_runtime::{context, Result, RuntimeError, TapeRecord, Tensor};

/// The forward variant of one concrete function and its backward functions,
/// built once, when first needed.
#[derive(Debug)]
pub struct ForwardBundle {
    /// User-visible output count of the original function.
    pub n_primary: usize,
    /// The forward variant: the `n_primary` outputs followed by the kept
    /// intermediates.
    pub fwd: Arc<GraphFunction>,
    /// The first-order backward, a concrete function of its own that this
    /// bundle keeps alive. Its inputs are the kept intermediates (in `fwd`
    /// output order), one gradient per primary output, then its own
    /// captures; its outputs are one gradient per forward input followed
    /// by one per variable the forward reads — for the slots that
    /// `bwd_returns` marks, and no others.
    pub bwd: Arc<ConcreteFunction>,
    /// Which slots of the forward `call` record (forward inputs, then
    /// variables) `bwd` returns a gradient for. No gradient reaches the
    /// others, and they get none, as under eager.
    bwd_returns: Vec<bool>,
    /// The `call` attributes of the forward variant, encoded once.
    pub(crate) fwd_params: Params,
    /// The kept intermediates, as outputs of the raw trace.
    kept: Vec<TensorRef>,
    /// `bwd` with one more gradient input, after the primary ones, per kept
    /// intermediate a gradient reached, and the slots it returns: built per
    /// set of reached intermediates, when a gradient first reaches it. A
    /// kept value no gradient reaches takes no seed, so no zero is added to
    /// its adjoint that eager would not add.
    seeded: Mutex<HashMap<Vec<bool>, SeededBackward>>,
}

type SeededBackward = std::result::Result<(Arc<ConcreteFunction>, Arc<[bool]>), String>;

/// Inference name → the concrete function [`crate::function`] traced under
/// it: the one name index, for callers that hold only a name (a remote
/// `call` step, a data-parallel trainer built from a name). Entries are
/// weak, so the index owns nothing; dead ones are dropped at the next trace.
fn concretes() -> &'static RwLock<HashMap<String, Weak<ConcreteFunction>>> {
    static C: OnceLock<RwLock<HashMap<String, Weak<ConcreteFunction>>>> = OnceLock::new();
    C.get_or_init(|| RwLock::new(HashMap::new()))
}

pub(crate) fn index_concrete(c: &Arc<ConcreteFunction>) {
    let mut map = write(concretes());
    map.retain(|_, entry| entry.strong_count() > 0);
    map.insert(c.name.clone(), Arc::downgrade(c));
}

/// The live concrete function traced under inference name `name`, if it
/// was traced by [`crate::function`] and something still holds it.
pub fn concrete_named(name: &str) -> Option<Arc<ConcreteFunction>> {
    read(concretes()).get(name)?.upgrade()
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
    let (bwd, bwd_returns, kept) = build_backward(conc, &format!("{}__bwd", conc.name), None, &[])?;
    // The primary outputs, then the kept intermediates, which are pinned by
    // being outputs: everything else may fuse, merge or fold.
    let mut fwd = (*conc.raw).clone();
    fwd.name = format!("{}__fwd", conc.name);
    fwd.outputs.extend(&kept);
    let fwd = Arc::new(optimize(&fwd).0);
    let fwd_params = ConcreteFunction::call_params(&fwd, conc.stateful, &conc.var_ids);
    Ok(ForwardBundle {
        n_primary: conc.n_primary,
        fwd,
        bwd,
        bwd_returns,
        fwd_params,
        kept,
        seeded: Mutex::default(),
    })
}

impl ForwardBundle {
    /// The backward seeded at the kept intermediates `reached` marks too,
    /// and the slots it returns, built on first need.
    fn seeded_backward(
        &self,
        conc: &Arc<ConcreteFunction>,
        reached: Vec<bool>,
    ) -> Result<(Arc<ConcreteFunction>, Arc<[bool]>)> {
        let mut seeded = lock(&self.seeded);
        let built = seeded.entry(reached).or_insert_with_key(|reached| {
            let mut name = format!("{}__bwd2", conc.name);
            if reached.contains(&false) {
                name.push('_');
                name.extend(reached.iter().map(|&r| if r { '1' } else { '0' }));
            }
            let seeds: Vec<TensorRef> =
                self.kept.iter().zip(reached).filter(|(_, r)| **r).map(|(k, _)| *k).collect();
            build_backward(conc, &name, Some(&self.kept), &seeds)
                .map(|(b, returns, _)| (b, returns.into()))
                .map_err(|e| e.to_string())
        });
        built.clone().map_err(RuntimeError::Internal)
    }
}

/// Trace one backward of `conc` and build it as a concrete function of
/// its own. It is seeded with a gradient per primary output, then one per
/// intermediate in `seeds`; its inputs are the intermediates it keeps,
/// those gradients and its captures, its outputs one gradient per forward
/// input and one per variable that a gradient reaches. Without `keep` it
/// keeps exactly the intermediates it reads; with it, those in `keep`, and
/// reading any other is an error. Returns the backward, which slots
/// (forward inputs, then variables) it returns, and what it kept, in node
/// order.
fn build_backward(
    conc: &ConcreteFunction,
    name: &str,
    keep: Option<&[TensorRef]>,
    seeds: &[TensorRef],
) -> Result<(Arc<ConcreteFunction>, Vec<bool>, Vec<TensorRef>)> {
    let raw = &*conc.raw;
    let intermediates = all_refs(raw);
    // The tapes of the caller have no business in this trace: what it builds
    // must not depend on when (under how many tapes) it was first needed.
    let tapes = context::active_tapes();
    for tape in &tapes {
        context::pop_tape(tape.id);
    }
    let frame_id = context::begin_tracing(name);
    let built = (|| -> Result<(Vec<Tensor>, Vec<bool>)> {
        // Placeholders for every intermediate value, then output grads.
        let mut value_of: HashMap<TensorRef, Tensor> = HashMap::new();
        for &tref in &intermediates {
            let (dt, sh) = raw.sig(tref);
            value_of.insert(tref, context::tracing_placeholder(dt, sh)?);
        }
        // One incoming-gradient placeholder per primary output, then one per
        // seeded intermediate.
        let grad_refs: Vec<TensorRef> = raw.outputs.iter().chain(seeds).copied().collect();
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
            let params = node.params.clone();
            records.push(Arc::new(TapeRecord::new(node.op, params, &inputs, &outputs)));
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

        // Outputs: d/d(input) for each forward input, then d/d(var), for
        // those a gradient reaches. Each must be a node of this frame.
        let inputs = raw.inputs.iter().map(|&n| value_of[&TensorRef::first(n)].id());
        let slots = inputs.chain(conc.var_ids.iter().map(|&v| v as u64));
        let slot_grads: Vec<Option<&Tensor>> = slots.map(|id| grads.get(&id)).collect();
        let returns = slot_grads.iter().map(Option::is_some).collect();
        let outs = slot_grads
            .into_iter()
            .flatten()
            .map(|t| match t {
                Tensor::Symbolic(s) if s.frame_id == frame_id => Ok(t.clone()),
                _ => Ok(context::execute(Op::Identity, std::slice::from_ref(t), Params::None)?
                    .remove(0)),
            })
            .collect::<Result<_>>()?;
        Ok((outs, returns))
    })();
    let finished = context::end_tracing();
    for tape in tapes {
        context::push_tape(tape);
    }
    let finished = finished?;
    let (outs, returns) = built?;
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
    let allowed: Option<HashSet<&TensorRef>> = keep.map(|s| s.iter().collect());
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
    // (§4.2's composable tapes). Its graphs hold what its trace called.
    let function = Arc::new(bwd_opt);
    let bwd = Arc::new(ConcreteFunction {
        name: name.to_string(),
        label: name.into(),
        inference_params: ConcreteFunction::call_params(&function, false, &[]),
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
    });
    Ok((bwd, returns, kept))
}

/// Call backward `bwd` on the forward intermediates, its `dys` and its
/// captures: one gradient per slot of the forward `call` record that
/// `returns` marks, `None` in the others (and no call when it marks none).
fn run_backward(
    bwd: &Arc<ConcreteFunction>,
    returns: &[bool],
    intermediates: &[Tensor],
    dys: Vec<Tensor>,
) -> Result<Vec<Option<Tensor>>> {
    let expected = returns.iter().filter(|r| **r).count();
    let grads = if expected == 0 {
        Vec::new()
    } else {
        let mut inputs = intermediates.to_vec();
        inputs.extend(dys);
        inputs.extend(bwd.captures.iter().cloned());
        context::execute(Op::Call, &inputs, bwd.held_by(&bwd.inference_params))?
    };
    if grads.len() != expected {
        return Err(RuntimeError::Internal(format!(
            "backward `{}` returned {} gradients, expected {expected}",
            bwd.name,
            grads.len(),
        )));
    }
    let mut grads = grads.into_iter();
    Ok(returns.iter().map(|&r| if r { grads.next() } else { None }).collect())
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
    let outs = context::execute(Op::Call, inputs, conc.held_by(&pair.fwd_params))?;
    let dys = (0..pair.n_primary).map(|i| c.grad(i).cloned()).collect::<Result<_>>()?;
    run_backward(&pair.bwd, &pair.bwd_returns, &outs[pair.n_primary..], dys)
}

/// The concrete function a `call` or `cond` record holds for `graph`: only
/// a call made by [`crate::function`]'s functions carries one.
fn concrete_of(graph: &Handle, concrete: &Option<Handle>) -> Result<Arc<ConcreteFunction>> {
    concrete.as_ref().and_then(Handle::get).ok_or_else(|| {
        RuntimeError::Unsupported(format!(
            "cannot differentiate a call of `{}`: it was not created via tfe_core::function",
            graph.label()
        ))
    })
}

/// The gradient of the `call` operation: invoke a backward graph function
/// with the forward intermediates and the output gradients.
pub(crate) fn call_gradient(c: &GradCtx) -> Result<Vec<Option<Tensor>>> {
    let Params::Call { function, concrete, .. } = c.params() else {
        return Err(c.params().mismatch().into());
    };
    let conc = concrete_of(function, concrete)?;
    let graph: Arc<GraphFunction> = function
        .get()
        .ok_or_else(|| RuntimeError::UnknownFunction(function.label().to_string()))?;
    let pair = conc.forward_bundle()?;
    if !Arc::ptr_eq(&graph, &pair.fwd) {
        return rerun_and_differentiate(&conc, &c.record.inputs, c);
    }
    // The forward variant ran: the kept intermediates are on the record, and
    // whether a gradient reached one picks the backward.
    let n = pair.n_primary;
    let mut dys = (0..n).map(|i| c.grad(i).cloned()).collect::<Result<Vec<_>>>()?;
    let reached: Vec<bool> = c.output_grads[n..].iter().map(Option::is_some).collect();
    if !reached.contains(&true) {
        return run_backward(&pair.bwd, &pair.bwd_returns, &c.record.outputs[n..], dys);
    }
    let (bwd, returns) = pair.seeded_backward(&conc, reached)?;
    dys.extend(c.output_grads[n..].iter().flatten().cloned());
    run_backward(&bwd, &returns, &c.record.outputs[n..], dys)
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
    let Params::Cond { then_fn, else_fn, then_concrete, else_concrete, var_ids, .. } = c.params()
    else {
        return Err(c.params().mismatch().into());
    };
    let conc = if pred_value != 0.0 {
        concrete_of(then_fn, then_concrete)?
    } else {
        concrete_of(else_fn, else_concrete)?
    };
    // The cond executed the plain branch function, so the record has no
    // intermediates of its own.
    let branch_args = &c.record.inputs[1..];
    let mut grads = rerun_and_differentiate(&conc, branch_args, c)?;
    let var_grads = grads.split_off(branch_args.len());
    // Slots: the predicate, the branch arguments, then the variables either
    // branch reads; one only the other branch reads gets no gradient.
    let mut out: Vec<Option<Tensor>> = vec![None];
    out.append(&mut grads);
    out.extend(var_ids.iter().map(|id| {
        let i = conc.var_ids.iter().position(|v| v == id)?;
        var_grads[i].clone()
    }));
    Ok(out)
}
