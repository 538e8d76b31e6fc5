//! The dataflow executor: runs [`GraphFunction`]s.
//!
//! One way to hold a run's values, one way to run a node; the two
//! [`ExecMode`]s differ only in who picks the next node.
//!
//! - [`SlotStore`], the per-run value store: one slot per node output, laid
//!   out flat from the function, each with a count of the reads still to
//!   come. An output nobody reads is never stored; a stored value is dropped
//!   by its last reader (§4.1 "buffer reuse"). Plain data: the inline
//!   driver owns it, the pool driver holds it behind one lock.
//! - [`run_node`]: the thread's observer, if one is installed, then a
//!   structural op ([`run_structural`], shared with the eager dispatcher), a
//!   `const`, or a kernel launch.
//! - The *inline* driver (`SerialPlanned`) walks `f.nodes` in order on the
//!   calling thread. The *pool* driver (`Parallel`) counts down each node's
//!   unresolved predecessors — data producers plus the sequencing edges of
//!   `tfe_graph::sequencing`, which keep variable reads and writes in
//!   program order — and submits ready nodes to the shared worker pool
//!   ("runs kernels in parallel when possible", §4.1).

use crate::context::{observe, Site};
use crate::error::{Result, RuntimeError};
use crate::kernels::{many, shared, tensor_bytes, Outputs};
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use tfe_device::Device;
use tfe_graph::{GraphFunction, NodeId, TensorRef};
use tfe_ops::{Handle, Op, OpError, Params};
use tfe_parallel::lock;
use tfe_tensor::{TensorData, TensorError};

/// Executor scheduling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Serial topological execution with buffer-reuse (default).
    #[default]
    SerialPlanned,
    /// Dependency-counted inter-op parallel execution on the shared worker
    /// pool. Handles stateful graphs via sequencing edges; nested
    /// `call`/`cond`/`while_loop` bodies inherit the pool.
    Parallel,
}

/// Execute `f` with `args` on `device`.
///
/// `args` must match the function's declared inputs *including captures*
/// (the `Func` wrapper in `tfe-core` appends capture values automatically).
///
/// In [`ExecMode::Parallel`] the graph is cloned once into a shared handle;
/// callers that already hold an `Arc<GraphFunction>` should prefer
/// [`run_function_arc`], which avoids the clone.
///
/// # Errors
/// Arity mismatches, kernel failures, missing callees, dead variables.
pub fn run_function(
    f: &GraphFunction,
    args: &[Arc<TensorData>],
    device: &Device,
    mode: ExecMode,
) -> Result<Vec<Arc<TensorData>>> {
    run(f, None, args, device, mode)
}

/// [`run_function`] for callers that already hold a shared graph handle
/// (a `call` node holds its callee as one); the parallel scheduler shares
/// the `Arc` with its workers instead of cloning the graph.
///
/// # Errors
/// Same as [`run_function`].
pub fn run_function_arc(
    f: &Arc<GraphFunction>,
    args: &[Arc<TensorData>],
    device: &Device,
    mode: ExecMode,
) -> Result<Vec<Arc<TensorData>>> {
    run(f, Some(f), args, device, mode)
}

fn run(
    f: &GraphFunction,
    shared: Option<&Arc<GraphFunction>>,
    args: &[Arc<TensorData>],
    device: &Device,
    mode: ExecMode,
) -> Result<Vec<Arc<TensorData>>> {
    validate_args(f, args)?;
    let mut store = SlotStore::new(f, args);
    let done = match mode {
        ExecMode::SerialPlanned => {
            tfe_metrics::static_counter!(
                "tfe_executor_serial_runs_total",
                "Graph-function invocations run by the serial-planned executor"
            )
            .inc();
            let _prof_span = tfe_profile::span("graph", || format!("serial:{}", f.name));
            drive_inline(f, &mut store, device)
        }
        ExecMode::Parallel => {
            tfe_metrics::static_counter!(
                "tfe_executor_parallel_runs_total",
                "Graph-function invocations run by the dependency-counted parallel executor"
            )
            .inc();
            let _prof_span = tfe_profile::span("graph", || format!("parallel:{}", f.name));
            let f = shared.cloned().unwrap_or_else(|| Arc::new(f.clone()));
            drive_pool(&f, &mut store, device)
        }
    };
    tfe_metrics::static_gauge!(
        "tfe_executor_peak_live_bytes",
        "Largest number of tensor bytes simultaneously live in one graph run"
    )
    .set_max(store.peak_bytes as i64);
    done?;
    f.outputs.iter().map(|t| store.get(f, t)).collect()
}

/// The typed errors a loaded function's `call` (`tfe_state`) gives: arity
/// naming the function, then dtype or shape naming the argument.
fn validate_args(f: &GraphFunction, args: &[Arc<TensorData>]) -> Result<()> {
    if args.len() != f.inputs.len() {
        return Err(RuntimeError::Op(OpError::Arity {
            op: f.name.clone(),
            expected: format!("{} inputs ({} captured)", f.inputs.len(), f.num_captures),
            got: args.len(),
        }));
    }
    for (i, (&node_id, arg)) in f.inputs.iter().zip(args).enumerate() {
        let (dtype, shape) = f.node(node_id).output_sig(0);
        let expected = |sig: String| format!("{sig} for argument {i} of `{}`", f.name);
        if arg.dtype() != dtype {
            let expected = expected(dtype.to_string());
            return Err(TensorError::DTypeMismatch { expected, got: arg.dtype() }.into());
        }
        if !shape.matches(arg.shape()) {
            let (expected, got) = (expected(shape.to_string()), arg.shape().clone());
            return Err(TensorError::ShapeMismatch { expected, got }.into());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

/// Whether the runtime runs `op` itself rather than through a kernel; the
/// eager dispatcher and [`run_node`] both run such an op with
/// [`run_structural`].
pub(crate) fn is_structural(op: Op) -> bool {
    matches!(op, Op::Call | Op::Cond | Op::WhileLoop | Op::HostFunc | Op::Copy)
}

/// The graph function a structural op holds. A node that carries only a
/// name cannot run it.
fn held_graph(callee: &Handle) -> Result<Arc<GraphFunction>> {
    callee.get().ok_or_else(|| RuntimeError::UnknownFunction(callee.label().to_string()))
}

/// Run a structural op, by its parameters, over concrete values. Callee
/// bodies run on `device` in the caller's `mode`, so a parallel run keeps
/// its worker pool through function-call boundaries.
pub(crate) fn run_structural(
    params: &Params,
    inputs: &[Arc<TensorData>],
    device: &Device,
    mode: ExecMode,
) -> Result<Vec<Arc<TensorData>>> {
    match params {
        Params::Call { function, .. } => {
            run_function_arc(&held_graph(function)?, inputs, device, mode)
        }
        Params::Cond { then_fn, else_fn, .. } => {
            let (pred, args) = inputs
                .split_first()
                .ok_or_else(|| RuntimeError::Internal("cond without predicate".into()))?;
            let branch = if pred.scalar_f64()? != 0.0 { then_fn } else { else_fn };
            run_function_arc(&held_graph(branch)?, args, device, mode)
        }
        Params::WhileLoop { cond_fn, body_fn, max_iterations, .. } => {
            let (cond, body) = (held_graph(cond_fn)?, held_graph(body_fn)?);
            let max = *max_iterations;
            let mut state = inputs.to_vec();
            let mut trips = 0usize;
            loop {
                let p = run_function_arc(&cond, &state, device, mode)?;
                let Some(go) = p.first() else {
                    return Err(RuntimeError::Internal("while cond returned nothing".into()));
                };
                if go.scalar_f64()? == 0.0 {
                    return Ok(state);
                }
                // The limit bounds trips, so only a trip beyond it fails.
                if trips >= max {
                    return Err(RuntimeError::Internal(format!(
                        "while_loop exceeded max_iterations={max}"
                    )));
                }
                state = run_function_arc(&body, &state, device, mode)?;
                trips += 1;
            }
        }
        Params::HostFunc { closure, .. } => {
            // Escape into imperative code (§4.7): the node's host closure
            // sees the inputs as eager tensors.
            let hf = crate::context::held_closure(closure)?;
            let eager = crate::context::eager_tensors(inputs.iter().cloned(), device);
            hf(&eager)?.iter().map(Tensor::value).collect()
        }
        Params::Copy { .. } => match inputs.first() {
            Some(v) => Ok(vec![v.clone()]),
            None => Err(RuntimeError::Internal("copy without input".into())),
        },
        _ => Err(params.mismatch().into()),
    }
}

// ---------------------------------------------------------------------------
// One node
// ---------------------------------------------------------------------------

/// Execute one non-placeholder node given its concrete inputs.
fn run_node(
    f: &GraphFunction,
    id: NodeId,
    inputs: &[Arc<TensorData>],
    device: &Device,
    mode: ExecMode,
) -> Result<Outputs> {
    let node = f.node(id);
    tfe_metrics::static_counter!(
        "tfe_executor_nodes_run_total",
        "Graph nodes executed by either scheduling mode (placeholders excluded)"
    )
    .inc();
    let mut prof_span = tfe_profile::span("node", || node.op.name());
    if let Some(sp) = prof_span.as_mut() {
        sp.set_detail(f.node_label(id));
    }
    if let Some(outputs) = observe(Site::Node, device, node.op, &node.params, inputs)? {
        return Ok(many(outputs));
    }
    if is_structural(node.op) {
        return run_structural(&node.params, inputs, device, mode).map(many);
    }
    if node.op == Op::Const {
        let Params::Const { index, .. } = node.params else {
            return Err(node.params.mismatch().into());
        };
        let value = f.constants.get(index).cloned();
        return Ok(shared(
            value.ok_or_else(|| RuntimeError::Internal("const pool underflow".into()))?,
        ));
    }
    // Release fence: a reader that loads the kernel count, then fences
    // Acquire, then loads the node count sees at least this node's bump
    // above, so it never reads more kernels than nodes.
    std::sync::atomic::fence(Ordering::Release);
    tfe_metrics::static_counter!(
        "tfe_executor_kernels_run_total",
        "Compute kernels launched by the graph executor (structural ops excluded)"
    )
    .inc();
    crate::kernels::launch_kernel(node.op, &node.params, inputs)
}

// ---------------------------------------------------------------------------
// The per-run value store
// ---------------------------------------------------------------------------

/// Values of one run of one graph function, as plain data: the inline
/// driver owns it, the pool driver's workers share it behind one lock.
#[derive(Default)]
struct SlotStore {
    /// Slot `offset[n] + k` holds output `k` of node `n`; the last entry is
    /// the slot count.
    offset: Vec<usize>,
    slots: Vec<Option<Arc<TensorData>>>,
    /// Reads still to come per slot: one per consuming input plus one pin
    /// per function output (never released). A slot that starts at zero is
    /// never stored; a stored value is dropped when its count reaches zero.
    reads: Vec<u32>,
    live_bytes: u64,
    /// Most bytes held at once, placeholder bindings included.
    peak_bytes: u64,
}

impl SlotStore {
    /// Lay the tables out for `f` and bind `args` to its placeholders.
    fn new(f: &GraphFunction, args: &[Arc<TensorData>]) -> SlotStore {
        let mut offset = Vec::with_capacity(f.nodes.len() + 1);
        let mut total = 0usize;
        for node in &f.nodes {
            offset.push(total);
            total += node.outputs.len();
        }
        offset.push(total);
        let mut reads = vec![0u32; total];
        let consumed = f.nodes.iter().flat_map(|n| &n.inputs);
        for t in consumed.chain(&f.outputs) {
            reads[offset[t.node.0] + t.output] += 1;
        }
        let mut store = SlotStore { offset, slots: vec![None; total], reads, ..Default::default() };
        for (&node_id, arg) in f.inputs.iter().zip(args) {
            store.put(node_id.0, [arg.clone()]);
        }
        store
    }

    fn slot(&self, t: &TensorRef) -> usize {
        self.offset[t.node.0] + t.output
    }

    /// Store one node's outputs, skipping slots nobody will read (and any
    /// output beyond the node's declared ones). Runs strictly before any
    /// consumer of the node can run, so nothing has released these slots yet.
    fn put(&mut self, node: usize, outs: impl IntoIterator<Item = Arc<TensorData>>) {
        for (slot, v) in (self.offset[node]..self.offset[node + 1]).zip(outs) {
            if self.reads[slot] != 0 {
                self.live_bytes += tensor_bytes(&v);
                self.slots[slot] = Some(v);
            }
        }
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    fn get(&self, f: &GraphFunction, t: &TensorRef) -> Result<Arc<TensorData>> {
        self.slots[self.slot(t)].clone().ok_or_else(|| {
            RuntimeError::Internal(format!("value for {t:?} missing in `{}`", f.name))
        })
    }

    /// A node that read `inputs` is done with them: the last reader of a
    /// slot frees its tensor.
    fn release(&mut self, inputs: &[TensorRef]) {
        for t in inputs {
            let slot = self.slot(t);
            self.reads[slot] -= 1;
            if let Some(v) = self.slots[slot].take_if(|_| self.reads[slot] == 0) {
                self.live_bytes -= tensor_bytes(&v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// `SerialPlanned`: every node in program order on the calling thread, one
/// input buffer for all, emptied as soon as a node has run.
fn drive_inline(f: &GraphFunction, store: &mut SlotStore, device: &Device) -> Result<()> {
    let mut inputs = Vec::new();
    for (i, node) in f.nodes.iter().enumerate() {
        if node.op == Op::Placeholder {
            continue;
        }
        for t in &node.inputs {
            inputs.push(store.get(f, t)?);
        }
        let outputs = run_node(f, NodeId(i), &inputs, device, ExecMode::SerialPlanned);
        inputs.clear();
        store.put(i, outputs?);
        store.release(&node.inputs);
    }
    Ok(())
}

/// Shared state of one pool-driven run. Jobs on the worker pool hold an
/// `Arc` to this; the submitting thread waits (and work-helps) until
/// `pending` reaches zero. A job locks the store twice: to read its inputs,
/// then to store its outputs and release its inputs.
struct PoolRun {
    f: Arc<GraphFunction>,
    device: Device,
    store: Mutex<SlotStore>,
    /// Unresolved predecessors (data producers + sequencing edges) per node.
    deps: Vec<AtomicUsize>,
    /// Dependent node ids per node (the reverse of `predecessors`).
    dependents: Vec<Vec<usize>>,
    /// Non-placeholder nodes not yet finished.
    pending: AtomicUsize,
    error: Mutex<Option<RuntimeError>>,
    abort: AtomicBool,
}

impl PoolRun {
    fn fail(&self, e: RuntimeError) {
        tfe_profile::instant("sched", || format!("abort:{}:{e}", self.f.name));
        tfe_metrics::static_counter!(
            "tfe_executor_aborts_total",
            "Parallel graph runs aborted by a node error or panic"
        )
        .inc();
        lock(&self.error).get_or_insert(e);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn submit(self: &Arc<Self>, node: usize) {
        let run = self.clone();
        let depth = tfe_parallel::pool::global().submit(Box::new(move || run.execute(node)));
        tfe_metrics::static_gauge!(
            "tfe_executor_ready_queue_depth_peak",
            "Deepest ready-queue depth observed by the parallel scheduler"
        )
        .set_max(depth as i64);
        tfe_profile::counter("sched", "ready_queue_depth", depth as u64);
    }

    /// Run one ready node. Errors and panics flip the abort flag; the
    /// dependency countdown still completes so the run drains and the
    /// waiter observes the stored error.
    fn execute(self: &Arc<Self>, node: usize) {
        let inputs = &self.f.nodes[node].inputs;
        let mut outputs = many(Vec::new());
        if self.abort.load(Ordering::SeqCst) {
            tfe_profile::instant("sched", || {
                format!("abort_skip:{}", self.f.node_label(NodeId(node)))
            });
        } else {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ins: Vec<_> = {
                    let store = lock(&self.store);
                    inputs.iter().map(|t| store.get(&self.f, t)).collect::<Result<_>>()?
                };
                run_node(&self.f, NodeId(node), &ins, &self.device, ExecMode::Parallel)
            }));
            match result {
                Ok(Ok(outs)) => outputs = outs,
                Ok(Err(e)) => self.fail(e),
                Err(_) => self.fail(RuntimeError::Internal(format!(
                    "node %{node} ({}) panicked in `{}`",
                    self.f.nodes[node].op, self.f.name
                ))),
            }
        }
        // Done (or skipped by an abort): store the outputs, free the inputs,
        // submit the dependents that became ready, and signal the waiter on
        // the last.
        let mut store = lock(&self.store);
        store.put(node, outputs);
        store.release(inputs);
        drop(store);
        for &c in &self.dependents[node] {
            if self.deps[c].fetch_sub(1, Ordering::SeqCst) == 1 {
                self.submit(c);
            }
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            tfe_parallel::pool::global().notify();
        }
    }
}

/// `Parallel`: dependency countdown on the shared worker pool.
fn drive_pool(f: &Arc<GraphFunction>, store: &mut SlotStore, device: &Device) -> Result<()> {
    let n = f.nodes.len();
    let mut deps = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Placeholders are bound already and hold nothing up; what is ready now
    // is every other node left without predecessors (consts, random
    // sources, consumers of arguments only).
    let is_placeholder = |i: usize| f.nodes[i].op == Op::Placeholder;
    for (i, count) in deps.iter_mut().enumerate() {
        for p in f.predecessors(NodeId(i)).into_iter().filter(|p| !is_placeholder(p.0)) {
            *count += 1;
            dependents[p.0].push(i);
        }
    }
    let ready: Vec<usize> = (0..n).filter(|&i| !is_placeholder(i) && deps[i] == 0).collect();
    if ready.is_empty() {
        return Ok(()); // nothing but placeholders
    }
    let run = Arc::new(PoolRun {
        f: f.clone(),
        device: device.clone(),
        store: Mutex::new(std::mem::take(store)),
        deps: deps.into_iter().map(AtomicUsize::new).collect(),
        dependents,
        pending: AtomicUsize::new(f.executable_node_count()),
        error: Mutex::new(None),
        abort: AtomicBool::new(false),
    });
    for i in ready {
        run.submit(i);
    }
    // Work-help until the countdown completes (nested parallel runs issued
    // from worker threads pass through here too — helping instead of
    // blocking is what keeps them deadlock-free).
    tfe_parallel::pool::global().wait_until(|| run.pending.load(Ordering::SeqCst) == 0);
    *store = std::mem::take(&mut *lock(&run.store));
    let failed = lock(&run.error).take();
    failed.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_graph::GraphBuilder;
    use tfe_ops::{Attrs, SymShape};
    use tfe_tensor::{DType, Shape};

    fn device() -> Device {
        crate::context::device_manager().host_cpu()
    }

    fn known(dims: &[usize]) -> SymShape {
        SymShape::known(&Shape::from(dims))
    }

    fn build_axpy() -> GraphFunction {
        // f(x, y) = relu(x * 2 + y)
        let mut b = GraphBuilder::new("axpy");
        let x = b.placeholder(DType::F32, known(&[3])).unwrap();
        let y = b.placeholder(DType::F32, known(&[3])).unwrap();
        let two = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let m = b.add_node("mul", vec![x, two], Attrs::new()).unwrap()[0];
        let s = b.add_node("add", vec![m, y], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        b.finish(vec![r], 0)
    }

    /// The value of the counter or gauge `family` in `s` (a family
    /// registers on first use: absent means nothing counted yet).
    fn family(s: &tfe_metrics::Snapshot, family: &str) -> u64 {
        s.counter_value(family).or(s.gauge_value(family).map(|g| g as u64)).unwrap_or(0)
    }

    #[test]
    fn serial_execution() {
        let f = build_axpy();
        let x = Arc::new(TensorData::from_vec(vec![1.0f32, -3.0, 2.0], Shape::from([3])).unwrap());
        let y = Arc::new(TensorData::from_vec(vec![0.5f32, 1.0, -10.0], Shape::from([3])).unwrap());
        let out = run_function(&f, &[x, y], &device(), ExecMode::SerialPlanned).unwrap();
        assert_eq!(out[0].to_f64_vec(), vec![2.5, 0.0, 0.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let f = build_axpy();
        let x = Arc::new(TensorData::from_vec(vec![1.0f32, -3.0, 2.0], Shape::from([3])).unwrap());
        let y = Arc::new(TensorData::from_vec(vec![0.5f32, 1.0, -10.0], Shape::from([3])).unwrap());
        let serial =
            run_function(&f, &[x.clone(), y.clone()], &device(), ExecMode::SerialPlanned).unwrap();
        let parallel = run_function(&f, &[x, y], &device(), ExecMode::Parallel).unwrap();
        assert_eq!(serial[0], parallel[0]);
    }

    #[test]
    fn wide_parallel_graph() {
        // 16 independent branches joined by adds: exercises the pool.
        let mut b = GraphBuilder::new("wide");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let mut branches = Vec::new();
        for _ in 0..16 {
            let t = b.add_node("exp", vec![x], Attrs::new()).unwrap()[0];
            let t = b.add_node("tanh", vec![t], Attrs::new()).unwrap()[0];
            branches.push(t);
        }
        let mut acc = branches[0];
        for &t in &branches[1..] {
            acc = b.add_node("add", vec![acc, t], Attrs::new()).unwrap()[0];
        }
        let f = b.finish(vec![acc], 0);
        let x =
            Arc::new(TensorData::from_vec(vec![0.1f32, 0.2, 0.3, 0.4], Shape::from([4])).unwrap());
        let serial =
            run_function(&f, std::slice::from_ref(&x), &device(), ExecMode::SerialPlanned).unwrap();
        let parallel = run_function(&f, &[x], &device(), ExecMode::Parallel).unwrap();
        assert!(serial[0].all_close(&parallel[0], 1e-6, 1e-6));
    }

    #[test]
    fn parallel_runs_stateful_graphs_in_program_order() {
        // read v → assign v+1 → read v: the second read must observe the
        // write (sequencing edges, not serial fallback).
        let var = crate::Variable::new(TensorData::scalar(5.0f32));
        let vid = var.id() as i64;
        let mut b = GraphBuilder::new("stateful_order");
        let read_attrs = || {
            Attrs::new()
                .with("var_id", vid)
                .with("dtype", DType::F32)
                .with("shape", Vec::<i64>::new())
        };
        let r1 = b.add_node("read_variable", vec![], read_attrs()).unwrap()[0];
        let one = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let inc = b.add_node("add", vec![r1, one], Attrs::new()).unwrap()[0];
        b.add_node("assign", vec![inc], Attrs::new().with("var_id", vid)).unwrap();
        let r2 = b.add_node("read_variable", vec![], read_attrs()).unwrap()[0];
        let f = b.finish(vec![r2], 0);
        assert!(f.is_stateful());

        let parallel_runs = || family(&tfe_metrics::snapshot(), "tfe_executor_parallel_runs_total");
        let before = parallel_runs();
        let out = run_function(&f, &[], &device(), ExecMode::Parallel).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 6.0);
        assert_eq!(var.peek().scalar_f64().unwrap(), 6.0);
        // Regression: Parallel mode must actually take the parallel path.
        assert!(parallel_runs() > before);
    }

    #[test]
    fn parallel_error_propagates() {
        // A call that names its callee instead of holding it errors at run
        // time; the run must drain and report the error, not hang.
        let mut b = GraphBuilder::new("err");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let (d, s) = tfe_ops::encode_sig(&[(DType::F32, known(&[2]))]);
        let c = b
            .add_node(
                "call",
                vec![x],
                Attrs::new()
                    .with("function", "definitely_not_registered")
                    .with("out_dtypes", d)
                    .with("out_shapes", s),
            )
            .unwrap()[0];
        let r = b.add_node("relu", vec![c], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![r], 0);
        let x = Arc::new(TensorData::zeros(DType::F32, [2]));
        assert!(matches!(
            run_function(&f, &[x], &device(), ExecMode::Parallel),
            Err(RuntimeError::UnknownFunction(name)) if name == "definitely_not_registered"
        ));
    }

    #[test]
    fn arity_and_signature_validation() {
        let f = build_axpy();
        let x = Arc::new(TensorData::zeros(DType::F32, [3]));
        let bad_dtype = Arc::new(TensorData::zeros(DType::F64, [3]));
        let bad_shape = Arc::new(TensorData::zeros(DType::F32, [4]));
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            let run = |args: &[Arc<TensorData>]| run_function(&f, args, &device(), mode);
            assert!(matches!(
                run(std::slice::from_ref(&x)),
                Err(RuntimeError::Op(OpError::Arity { ref op, got: 1, .. })) if op == "axpy"
            ));
            assert!(matches!(
                run(&[x.clone(), bad_dtype.clone()]),
                Err(RuntimeError::Tensor(TensorError::DTypeMismatch { got: DType::F64, .. }))
            ));
            assert!(matches!(
                run(&[x.clone(), bad_shape.clone()]),
                Err(RuntimeError::Tensor(TensorError::ShapeMismatch { ref got, .. }))
                    if got.dims() == [4]
            ));
        }
    }

    #[test]
    fn multi_output_split_in_graph() {
        let mut b = GraphBuilder::new("splitter");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let parts = b
            .add_node("split", vec![x], Attrs::new().with("num", 2i64).with("axis", 0i64))
            .unwrap();
        let s = b.add_node("add", vec![parts[0], parts[1]], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![s], 0);
        let x = Arc::new(
            TensorData::from_vec(vec![1.0f32, 2.0, 10.0, 20.0], Shape::from([4])).unwrap(),
        );
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            let out = run_function(&f, std::slice::from_ref(&x), &device(), mode).unwrap();
            assert_eq!(out[0].to_f64_vec(), vec![11.0, 22.0]);
        }
    }

    #[test]
    fn unread_output_is_held_by_neither_driver() {
        // x: f32[4] -> split in two -> neg(first half); nobody reads the
        // second half, so the store must never hold it.
        let mut b = GraphBuilder::new("half_unread");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let parts = b
            .add_node("split", vec![x], Attrs::new().with("num", 2i64).with("axis", 0i64))
            .unwrap();
        let r = b.add_node("neg", vec![parts[0]], Attrs::new()).unwrap()[0];
        let f = Arc::new(b.finish(vec![r], 0));
        let args = [Arc::new(TensorData::zeros(DType::F32, [4]))];

        let mut inline = SlotStore::new(&f, &args);
        drive_inline(&f, &mut inline, &device()).unwrap();
        let mut pool = SlotStore::new(&f, &args);
        drive_pool(&f, &mut pool, &device()).unwrap();
        // Peak is x (16 bytes) plus the half that is read (8); holding the
        // other half too would make it 32.
        assert_eq!(inline.peak_bytes, 24);
        assert_eq!(pool.peak_bytes, 24);
    }

    #[test]
    fn inline_inputs_die_with_their_last_reader() {
        // x -> neg -> neg -> neg -> neg, f32[4] each: every value is read
        // once, by the next node, so no more than an input and its output
        // (32 bytes) are ever held.
        let mut b = GraphBuilder::new("dying_chain");
        let mut t = b.placeholder(DType::F32, known(&[4])).unwrap();
        for _ in 0..4 {
            t = b.add_node("neg", vec![t], Attrs::new()).unwrap()[0];
        }
        let f = b.finish(vec![t], 0);
        let args = [Arc::new(TensorData::zeros(DType::F32, [4]))];

        // At each node, the value the node before it read must be gone: an
        // input buffer kept until the next node would still hold it.
        struct Watch(std::cell::RefCell<Vec<std::sync::Weak<TensorData>>>);
        impl crate::context::Observer for Watch {
            fn observe(
                &self,
                _: Site,
                _: &Device,
                _: Op,
                _: &Params,
                inputs: &[Arc<TensorData>],
            ) -> Result<Option<Vec<Arc<TensorData>>>> {
                let mut seen = self.0.borrow_mut();
                // The first node's input is the caller's argument.
                if seen.len() >= 2 {
                    let before = &seen[seen.len() - 1];
                    assert!(before.upgrade().is_none(), "node {} input outlived it", seen.len());
                }
                seen.push(Arc::downgrade(&inputs[0]));
                Ok(None)
            }
        }
        let watch = std::rc::Rc::new(Watch(Default::default()));
        let mut store = SlotStore::new(&f, &args);
        {
            let _scope = crate::context::observer_scope(watch.clone());
            drive_inline(&f, &mut store, &device()).unwrap();
        }
        assert_eq!(watch.0.borrow().len(), 4);
        assert_eq!(store.peak_bytes, 32);
        assert_eq!(store.live_bytes, 16, "only the output is left");
    }

    #[test]
    fn nested_call_nodes() {
        // inner(a) = relu(a); outer(a) = inner(a) + 1  (Listing 8 shape)
        let mut ib = GraphBuilder::new("exec_inner");
        let a = ib.placeholder(DType::F32, known(&[2])).unwrap();
        let r = ib.add_node("relu", vec![a], Attrs::new()).unwrap()[0];
        let inner = Arc::new(ib.finish(vec![r], 0));
        let (d, s) = tfe_ops::encode_sig(&inner.output_sigs());

        let mut ob = GraphBuilder::new("exec_outer");
        let a = ob.placeholder(DType::F32, known(&[2])).unwrap();
        let call = ob
            .add_node(
                "call",
                vec![a],
                Attrs::new()
                    .with("function", inner.handle())
                    .with("out_dtypes", d)
                    .with("out_shapes", s),
            )
            .unwrap()[0];
        let one_c = ob.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let out = ob.add_node("add", vec![call, one_c], Attrs::new()).unwrap()[0];
        let outer = ob.finish(vec![out], 0);

        let x = Arc::new(TensorData::from_vec(vec![-5.0f32, 3.0], Shape::from([2])).unwrap());
        // Nested calls inherit the caller's mode in both directions.
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            let r = run_function(&outer, std::slice::from_ref(&x), &device(), mode).unwrap();
            assert_eq!(r[0].to_f64_vec(), vec![1.0, 4.0]);
        }
    }

    #[test]
    fn exec_stats_report_scheduler_activity() {
        // The scheduler's activity as deltas of its registry families. Other
        // tests in this process bump the same families concurrently, so
        // every delta is a lower bound.
        let before = tfe_metrics::snapshot();
        let f = build_axpy();
        let x = Arc::new(TensorData::from_vec(vec![1.0f32, -3.0, 2.0], Shape::from([3])).unwrap());
        let y = Arc::new(TensorData::from_vec(vec![0.5f32, 1.0, -10.0], Shape::from([3])).unwrap());
        run_function(&f, &[x.clone(), y.clone()], &device(), ExecMode::SerialPlanned).unwrap();
        run_function(&f, &[x, y], &device(), ExecMode::Parallel).unwrap();
        let after = tfe_metrics::snapshot();
        let delta = |name: &str| family(&after, name) - family(&before, name);
        assert!(delta("tfe_executor_serial_runs_total") >= 1);
        assert!(delta("tfe_executor_parallel_runs_total") >= 1);
        // axpy runs const + mul + add + relu per invocation.
        assert!(delta("tfe_executor_nodes_run_total") >= 8);
        assert!(delta("tfe_executor_kernels_run_total") >= 6);
        // Three tiny elementwise kernels per run, all below the grain.
        assert!(delta("tfe_intra_serial_kernels_total") >= 6);
        // Two f32[3] args live.
        assert!(family(&after, "tfe_executor_peak_live_bytes") >= 3 * 4 * 2);
        assert!(family(&after, "tfe_executor_ready_queue_depth_peak") >= 1);
    }
}
