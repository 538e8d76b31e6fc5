//! The dataflow executor: runs [`GraphFunction`]s.
//!
//! One way to hold a run's values, one way to run a node; the two
//! [`ExecMode`]s differ only in who picks the next node.
//!
//! - [`SlotStore`], the per-run value store: one slot per node output, laid
//!   out flat from the function, each with a count of the reads still to
//!   come. An output nobody reads is never stored; a stored value is dropped
//!   by its last reader (§4.1 "buffer reuse").
//! - [`run_node`]: simulator accounting when the thread or device is
//!   simulated, then a structural op ([`Structural`], shared with the eager
//!   dispatcher), a `const`, or a kernel launch.
//! - The *inline* driver (`SerialPlanned`) walks `f.nodes` in order on the
//!   calling thread. The *pool* driver (`Parallel`) counts down each node's
//!   unresolved predecessors — data producers plus the sequencing edges of
//!   `tfe_graph::sequencing`, which keep variable reads and writes in
//!   program order — and submits ready nodes to the shared worker pool
//!   ("runs kernels in parallel when possible", §4.1).

use crate::context::SimOp;
use crate::error::{Result, RuntimeError};
use crate::tensor::Tensor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tfe_device::Device;
use tfe_graph::{GraphFunction, NodeId, TensorRef};
use tfe_ops::{AttrValue, Attrs, Op, OpError};
use tfe_tensor::TensorData;

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
/// (the function library hands these out); the parallel scheduler shares
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
    let store = Arc::new(SlotStore::new(f, args));
    let done = match mode {
        ExecMode::SerialPlanned => {
            crate::context::stat_serial_run();
            let _prof_span = tfe_profile::span("graph", || format!("serial:{}", f.name));
            drive_inline(f, &store, device)
        }
        ExecMode::Parallel => {
            crate::context::stat_parallel_run();
            let _prof_span = tfe_profile::span("graph", || format!("parallel:{}", f.name));
            let f = shared.cloned().unwrap_or_else(|| Arc::new(f.clone()));
            drive_pool(&f, &store, device)
        }
    };
    crate::context::stat_live_bytes(store.peak_bytes.load(Ordering::Relaxed));
    done?;
    f.outputs.iter().map(|t| store.get(f, t)).collect()
}

fn validate_args(f: &GraphFunction, args: &[Arc<TensorData>]) -> Result<()> {
    if args.len() != f.inputs.len() {
        return Err(RuntimeError::Internal(format!(
            "function `{}` expects {} inputs ({} args + {} captures), got {}",
            f.name,
            f.inputs.len(),
            f.inputs.len() - f.num_captures,
            f.num_captures,
            args.len()
        )));
    }
    for (i, (&node_id, arg)) in f.inputs.iter().zip(args).enumerate() {
        let (dtype, shape) = f.node(node_id).output_sig(0);
        if arg.dtype() != dtype || !shape.matches(arg.shape()) {
            return Err(RuntimeError::Internal(format!(
                "argument {i} of `{}` expects {dtype}{shape}, got {}{}",
                f.name,
                arg.dtype(),
                arg.shape()
            )));
        }
    }
    Ok(())
}

fn tensor_bytes(t: &TensorData) -> u64 {
    (t.num_elements() * t.dtype().size_bytes()) as u64
}

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

/// The ops the runtime runs itself rather than through a kernel; the eager
/// dispatcher and [`run_node`] both classify and run them here.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Structural {
    Call,
    Cond,
    WhileLoop,
    HostFunc,
    Copy,
}

/// The library function that attribute `attr` of a structural op names.
pub(crate) fn callee(attrs: &Attrs, attr: &str) -> Result<Arc<GraphFunction>> {
    let name = attrs.str(attr).map_err(OpError::from)?;
    crate::context::library().get(name).ok_or_else(|| RuntimeError::UnknownFunction(name.into()))
}

impl Structural {
    pub(crate) fn of(op: Op) -> Option<Structural> {
        match op {
            Op::Call => Some(Structural::Call),
            Op::Cond => Some(Structural::Cond),
            Op::WhileLoop => Some(Structural::WhileLoop),
            Op::HostFunc => Some(Structural::HostFunc),
            Op::Copy => Some(Structural::Copy),
            _ => None,
        }
    }

    /// Run the op over concrete values. Callee bodies run on `device` in the
    /// caller's `mode`, so a parallel run keeps its worker pool through
    /// function-call boundaries.
    pub(crate) fn run(
        self,
        attrs: &Attrs,
        inputs: &[Arc<TensorData>],
        device: &Device,
        mode: ExecMode,
    ) -> Result<Vec<Arc<TensorData>>> {
        match self {
            Structural::Call => run_function_arc(&callee(attrs, "function")?, inputs, device, mode),
            Structural::Cond => {
                let (pred, args) = inputs
                    .split_first()
                    .ok_or_else(|| RuntimeError::Internal("cond without predicate".into()))?;
                let branch = if pred.scalar_f64()? != 0.0 { "then_fn" } else { "else_fn" };
                run_function_arc(&callee(attrs, branch)?, args, device, mode)
            }
            Structural::WhileLoop => {
                let (cond, body) = (callee(attrs, "cond_fn")?, callee(attrs, "body_fn")?);
                let max = attrs.int_or("max_iterations", 1_000_000).map_err(OpError::from)?;
                let mut state = inputs.to_vec();
                let mut trips = 0i64;
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
            Structural::HostFunc => {
                // Escape into imperative code (§4.7): the registered host
                // closure sees the inputs as eager tensors.
                let id = attrs.int("fn_id").map_err(OpError::from)? as u64;
                let hf = crate::context::host_fn(id)?;
                let eager = crate::context::eager_tensors(inputs.to_vec(), device);
                // The closure's eager ops must dispatch synchronously: this
                // node may itself be running on a dispatch-stream thread (a
                // `call` enqueued in async mode), and enqueueing behind the
                // op currently executing would deadlock the stream.
                let _sync = crate::context::force_sync_scope();
                hf(&eager)?.iter().map(Tensor::value).collect()
            }
            Structural::Copy => match inputs.first() {
                Some(v) => Ok(vec![v.clone()]),
                None => Err(RuntimeError::Internal("copy without input".into())),
            },
        }
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
) -> Result<Vec<Arc<TensorData>>> {
    let node = f.node(id);
    crate::context::stat_node_executed();
    let mut prof_span = tfe_profile::span("node", || node.op.name().to_string());
    if let Some(sp) = prof_span.as_mut() {
        sp.set_detail(f.node_label(id));
    }
    let structural = Structural::of(node.op);
    let sim = crate::context::sim();
    if sim.is_some() || device.compute_model().is_some() {
        let kind = match structural {
            Some(Structural::Call | Structural::Cond | Structural::WhileLoop) => {
                SimOp::NodeWithBodies
            }
            _ => SimOp::Node,
        };
        let zeros =
            crate::context::simulate_op(sim.as_ref(), kind, device, node.op, &node.attrs, inputs)?;
        if let Some(zeros) = zeros {
            return Ok(zeros);
        }
    }
    if let Some(s) = structural {
        return s.run(&node.attrs, inputs, device, mode);
    }
    if node.op == Op::Const {
        let idx = match node.attrs.get("value_index") {
            Some(AttrValue::Int(i)) => *i as usize,
            _ => return Err(RuntimeError::Internal("const without value_index".into())),
        };
        let value = f.constants.get(idx).cloned();
        return Ok(vec![
            value.ok_or_else(|| RuntimeError::Internal("const pool underflow".into()))?
        ]);
    }
    crate::context::stat_kernel_launched();
    crate::kernels::launch_kernel(node.op, &node.attrs, inputs)
}

// ---------------------------------------------------------------------------
// The per-run value store
// ---------------------------------------------------------------------------

/// Values of one run of one graph function. The pool driver's workers share
/// it, which is why slots and counts are interior-mutable.
struct SlotStore {
    /// Slot `offset[n] + k` holds output `k` of node `n`; the last entry is
    /// the slot count.
    offset: Vec<usize>,
    slots: Vec<Mutex<Option<Arc<TensorData>>>>,
    /// Reads still to come per slot: one per consuming input plus one pin
    /// per function output (never released). A slot that starts at zero is
    /// never stored; a stored value is dropped when its count reaches zero.
    reads: Vec<AtomicUsize>,
    live_bytes: AtomicU64,
    /// Most bytes held at once, placeholder bindings included.
    peak_bytes: AtomicU64,
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
        let mut reads = vec![0usize; total];
        let consumed = f.nodes.iter().flat_map(|n| &n.inputs);
        for t in consumed.chain(&f.outputs) {
            reads[offset[t.node.0] + t.output] += 1;
        }
        let store = SlotStore {
            offset,
            slots: (0..total).map(|_| Mutex::new(None)).collect(),
            reads: reads.into_iter().map(AtomicUsize::new).collect(),
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        };
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
    fn put(&self, node: usize, outs: impl IntoIterator<Item = Arc<TensorData>>) {
        let mut added = 0u64;
        for (slot, v) in (self.offset[node]..self.offset[node + 1]).zip(outs) {
            if self.reads[slot].load(Ordering::SeqCst) != 0 {
                added += tensor_bytes(&v);
                *self.slots[slot].lock() = Some(v);
            }
        }
        if added != 0 {
            let live = self.live_bytes.fetch_add(added, Ordering::SeqCst) + added;
            self.peak_bytes.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn get(&self, f: &GraphFunction, t: &TensorRef) -> Result<Arc<TensorData>> {
        self.slots[self.slot(t)].lock().clone().ok_or_else(|| {
            RuntimeError::Internal(format!("value for {t:?} missing in `{}`", f.name))
        })
    }

    /// A node that read `inputs` is done with them: the last reader of a
    /// slot frees its tensor.
    fn release(&self, inputs: &[TensorRef]) {
        for t in inputs {
            let slot = self.slot(t);
            if self.reads[slot].fetch_sub(1, Ordering::SeqCst) == 1 {
                if let Some(v) = self.slots[slot].lock().take() {
                    self.live_bytes.fetch_sub(tensor_bytes(&v), Ordering::SeqCst);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// `SerialPlanned`: every node in program order on the calling thread.
fn drive_inline(f: &GraphFunction, store: &SlotStore, device: &Device) -> Result<()> {
    for (i, node) in f.nodes.iter().enumerate() {
        if node.op == Op::Placeholder {
            continue;
        }
        let inputs: Vec<_> = node.inputs.iter().map(|t| store.get(f, t)).collect::<Result<_>>()?;
        store.put(i, run_node(f, NodeId(i), &inputs, device, ExecMode::SerialPlanned)?);
        store.release(&node.inputs);
    }
    Ok(())
}

/// Shared state of one pool-driven run. Jobs on the worker pool hold an
/// `Arc` to this; the submitting thread waits (and work-helps) until
/// `pending` reaches zero.
struct PoolRun {
    f: Arc<GraphFunction>,
    device: Device,
    store: Arc<SlotStore>,
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
        crate::context::stat_executor_abort();
        self.error.lock().get_or_insert(e);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn submit(self: &Arc<Self>, node: usize) {
        let run = self.clone();
        let depth = crate::pool::global().submit(Box::new(move || run.execute(node)));
        crate::context::stat_queue_depth(depth as u64);
        tfe_profile::counter("sched", "ready_queue_depth", depth as u64);
    }

    /// Run one ready node. Errors and panics flip the abort flag; the
    /// dependency countdown still completes so the run drains and the
    /// waiter observes the stored error.
    fn execute(self: &Arc<Self>, node: usize) {
        let inputs = &self.f.nodes[node].inputs;
        if self.abort.load(Ordering::SeqCst) {
            tfe_profile::instant("sched", || {
                format!("abort_skip:{}", self.f.node_label(NodeId(node)))
            });
        } else {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ins: Vec<_> =
                    inputs.iter().map(|t| self.store.get(&self.f, t)).collect::<Result<_>>()?;
                run_node(&self.f, NodeId(node), &ins, &self.device, ExecMode::Parallel)
            }));
            match result {
                Ok(Ok(outs)) => self.store.put(node, outs),
                Ok(Err(e)) => self.fail(e),
                Err(_) => self.fail(RuntimeError::Internal(format!(
                    "node %{node} ({}) panicked in `{}`",
                    self.f.nodes[node].op, self.f.name
                ))),
            }
        }
        // Done (or skipped by an abort): free the inputs, submit the
        // dependents that became ready, and signal the waiter on the last.
        self.store.release(inputs);
        for &c in &self.dependents[node] {
            if self.deps[c].fetch_sub(1, Ordering::SeqCst) == 1 {
                self.submit(c);
            }
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            crate::pool::global().notify();
        }
    }
}

/// `Parallel`: dependency countdown on the shared worker pool.
fn drive_pool(f: &Arc<GraphFunction>, store: &Arc<SlotStore>, device: &Device) -> Result<()> {
    let n = f.nodes.len();
    let mut deps = Vec::with_capacity(n);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let preds = f.predecessors(NodeId(i));
        deps.push(preds.len());
        for p in preds {
            dependents[p.0].push(i);
        }
    }
    // Placeholders are bound already; what is ready now is every other node
    // left without predecessors (consts, random sources, consumers of
    // arguments only).
    let is_placeholder = |i: usize| f.nodes[i].op == Op::Placeholder;
    for p in (0..n).filter(|&i| is_placeholder(i)) {
        for &c in &dependents[p] {
            deps[c] -= 1;
        }
    }
    let ready: Vec<usize> = (0..n).filter(|&i| !is_placeholder(i) && deps[i] == 0).collect();
    if ready.is_empty() {
        return Ok(()); // nothing but placeholders
    }
    let run = Arc::new(PoolRun {
        f: f.clone(),
        device: device.clone(),
        store: store.clone(),
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
    crate::pool::global().wait_until(|| run.pending.load(Ordering::SeqCst) == 0);
    let failed = run.error.lock().take();
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

        let before = crate::context::exec_stats().parallel_runs;
        let out = run_function(&f, &[], &device(), ExecMode::Parallel).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 6.0);
        assert_eq!(var.peek().scalar_f64().unwrap(), 6.0);
        // Regression: Parallel mode must actually take the parallel path.
        assert!(crate::context::exec_stats().parallel_runs > before);
    }

    #[test]
    fn parallel_error_propagates() {
        // A call to a function missing from the library errors at run time;
        // the run must drain and report the error, not hang.
        let mut b = GraphBuilder::new("err");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let (d, s) = tfe_ops::catalog::encode_sig(&[(DType::F32, known(&[2]))]);
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
        assert!(run_function(&f, &[x], &device(), ExecMode::Parallel).is_err());
    }

    #[test]
    fn arity_and_signature_validation() {
        let f = build_axpy();
        let x = Arc::new(TensorData::zeros(DType::F32, [3]));
        assert!(
            run_function(&f, std::slice::from_ref(&x), &device(), ExecMode::SerialPlanned).is_err()
        );
        let bad_dtype = Arc::new(TensorData::zeros(DType::F64, [3]));
        assert!(
            run_function(&f, &[x.clone(), bad_dtype], &device(), ExecMode::SerialPlanned).is_err()
        );
        let bad_shape = Arc::new(TensorData::zeros(DType::F32, [4]));
        assert!(run_function(&f, &[x, bad_shape], &device(), ExecMode::SerialPlanned).is_err());
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

        let inline = SlotStore::new(&f, &args);
        drive_inline(&f, &inline, &device()).unwrap();
        let pool = Arc::new(SlotStore::new(&f, &args));
        drive_pool(&f, &pool, &device()).unwrap();
        // Peak is x (16 bytes) plus the half that is read (8); holding the
        // other half too would make it 32.
        assert_eq!(inline.peak_bytes.load(Ordering::Relaxed), 24);
        assert_eq!(pool.peak_bytes.load(Ordering::Relaxed), 24);
    }

    #[test]
    fn nested_call_nodes() {
        // inner(a) = relu(a); outer(a) = inner(a) + 1  (Listing 8 shape)
        let mut ib = GraphBuilder::new("exec_inner");
        let a = ib.placeholder(DType::F32, known(&[2])).unwrap();
        let r = ib.add_node("relu", vec![a], Attrs::new()).unwrap()[0];
        let inner = ib.finish(vec![r], 0);
        let (d, s) = tfe_ops::catalog::encode_sig(&inner.output_sigs());
        crate::context::library().insert(inner);

        let mut ob = GraphBuilder::new("exec_outer");
        let a = ob.placeholder(DType::F32, known(&[2])).unwrap();
        let call = ob
            .add_node(
                "call",
                vec![a],
                Attrs::new()
                    .with("function", "exec_inner")
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
        // Every `ExecStats` field against its registry family. Other tests
        // in this process bump the same counters concurrently, so each
        // field is bracketed by a scrape on either side; with nothing else
        // running the three values are equal, and equal values before and
        // after the runs below mean equal deltas over them.
        fn checked_stats() -> crate::context::ExecStats {
            let lo = tfe_metrics::snapshot();
            let stats = crate::context::exec_stats();
            let hi = tfe_metrics::snapshot();
            // A family registers on first use: absent means nothing counted.
            let read = |s: &tfe_metrics::Snapshot, family: &str| {
                s.counter_value(family).or(s.gauge_value(family).map(|g| g as u64)).unwrap_or(0)
            };
            for (field, family, value) in [
                ("nodes_executed", "tfe_executor_nodes_run_total", stats.nodes_executed),
                ("kernels_launched", "tfe_executor_kernels_run_total", stats.kernels_launched),
                ("serial_runs", "tfe_executor_serial_runs_total", stats.serial_runs),
                ("parallel_runs", "tfe_executor_parallel_runs_total", stats.parallel_runs),
                ("max_queue_depth", "tfe_executor_ready_queue_depth_peak", stats.max_queue_depth),
                ("peak_live_bytes", "tfe_executor_peak_live_bytes", stats.peak_live_bytes),
                ("intra_par_kernels", "tfe_intra_par_kernels_total", stats.intra_par_kernels),
                (
                    "intra_serial_kernels",
                    "tfe_intra_serial_kernels_total",
                    stats.intra_serial_kernels,
                ),
                ("intra_tiles", "tfe_intra_tiles_total", stats.intra_tiles),
            ] {
                let (lo, hi) = (read(&lo, family), read(&hi, family));
                assert!(
                    lo <= value && value <= hi,
                    "{field}: {value} outside {family} {lo}..={hi}"
                );
            }
            stats
        }
        let before = checked_stats();
        let f = build_axpy();
        let x = Arc::new(TensorData::from_vec(vec![1.0f32, -3.0, 2.0], Shape::from([3])).unwrap());
        let y = Arc::new(TensorData::from_vec(vec![0.5f32, 1.0, -10.0], Shape::from([3])).unwrap());
        run_function(&f, &[x.clone(), y.clone()], &device(), ExecMode::SerialPlanned).unwrap();
        run_function(&f, &[x, y], &device(), ExecMode::Parallel).unwrap();
        let stats = checked_stats();
        assert!(stats.serial_runs > before.serial_runs);
        assert!(stats.parallel_runs > before.parallel_runs);
        // axpy runs const + mul + add + relu per invocation.
        assert!(stats.nodes_executed - before.nodes_executed >= 8);
        assert!(stats.kernels_launched - before.kernels_launched >= 6);
        // Three tiny elementwise kernels per run, all below the grain.
        assert!(stats.intra_serial_kernels - before.intra_serial_kernels >= 6);
        assert!(stats.peak_live_bytes >= 3 * 4 * 2); // two f32[3] args live
        assert!(stats.max_queue_depth >= 1);
    }
}
