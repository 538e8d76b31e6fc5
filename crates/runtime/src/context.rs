//! The execution context: thread-local stacks for tracing frames, device
//! scopes and gradient tapes, plus the central operation dispatcher.
//!
//! This is the runtime half of the paper's multi-stage model (§4.1): every
//! user-visible operation funnels through [`execute`], which either runs a
//! kernel immediately (imperative mode) or records a node into the graph
//! being traced (staged mode). Both paths share the op registry, the
//! kernels, and the tape-recording rule — the "single set of primitive
//! operations" of §1.

use crate::error::{Result, RuntimeError};
use crate::executor::{ExecMode, Structural};
use crate::kernels::{many, tensor_bytes};
use crate::tape::Tape;
use crate::tensor::{fresh_id, EagerTensor, SymbolicTensor, Tensor};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use tfe_device::{Device, DeviceManager, DeviceName};
use tfe_graph::{FunctionLibrary, GraphBuilder, TensorRef};
use tfe_ops::{Attrs, InferCtx, Op, SymShape};
use tfe_parallel::{lock, read, write};
use tfe_tensor::rng::TensorRng;
use tfe_tensor::{DType, Shape, TensorData};

// ---------------------------------------------------------------------------
// Global singletons
// ---------------------------------------------------------------------------

/// The process-wide device registry (§4.4's start-up device detection).
pub fn device_manager() -> &'static DeviceManager {
    static M: std::sync::OnceLock<DeviceManager> = std::sync::OnceLock::new();
    M.get_or_init(DeviceManager::new)
}

/// The process-wide graph-function library (resolves `call` nodes): an
/// index, never an owner (see [`FunctionLibrary`]).
pub fn library() -> &'static FunctionLibrary {
    static L: std::sync::OnceLock<FunctionLibrary> = std::sync::OnceLock::new();
    L.get_or_init(FunctionLibrary::new)
}

/// A host closure embeddable in graphs — the `py_func` analog (§4.7).
pub type HostFn = Arc<dyn Fn(&[Tensor]) -> Result<Vec<Tensor>> + Send + Sync>;

fn host_fns() -> &'static RwLock<HashMap<u64, HostFn>> {
    static H: std::sync::OnceLock<RwLock<HashMap<u64, HostFn>>> = std::sync::OnceLock::new();
    H.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Register a host function; the returned id goes into `host_func` nodes.
/// The table is an index: an id registered here has no owner and resolves
/// for the process; [`HostFnHandle`] is the owning form.
pub fn register_host_fn(f: HostFn) -> u64 {
    let id = fresh_id();
    write(host_fns()).insert(id, f);
    id
}

/// Owns one host function: its id resolves until the handle drops. Shared
/// by whatever can still run a `host_func` node carrying the id — the
/// `HostFunc` the user holds and the graphs traced through it.
pub struct HostFnHandle(u64);

impl HostFnHandle {
    /// Register `f` under a fresh id owned by the returned handle.
    pub fn new(f: HostFn) -> Arc<HostFnHandle> {
        Arc::new(HostFnHandle(register_host_fn(f)))
    }

    /// The id `host_func` nodes carry.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl Drop for HostFnHandle {
    fn drop(&mut self) {
        // Bound first: what the closure captured is freed after the guard.
        let removed = write(host_fns()).remove(&self.0);
        drop(removed);
    }
}

/// Resolve a host-function id.
///
/// # Errors
/// Unknown id.
pub fn host_fn(id: u64) -> Result<HostFn> {
    read(host_fns()).get(&id).cloned().ok_or(RuntimeError::UnknownHostFunction(id))
}

fn global_rng() -> &'static Mutex<TensorRng> {
    static R: std::sync::OnceLock<Mutex<TensorRng>> = std::sync::OnceLock::new();
    R.get_or_init(|| Mutex::new(TensorRng::seed_from_u64(0)))
}

/// Re-seed the process RNG used by stateful random ops (`tf.set_random_seed`).
pub fn set_random_seed(seed: u64) {
    *lock(global_rng()) = TensorRng::seed_from_u64(seed);
}

/// Run `f` with exclusive access to the process RNG.
pub(crate) fn with_rng<R>(f: impl FnOnce(&mut TensorRng) -> R) -> R {
    f(&mut lock(global_rng()))
}

// ---------------------------------------------------------------------------
// Executor statistics
// ---------------------------------------------------------------------------

/// Process-wide executor counters, updated by both scheduling modes and by
/// workers of the parallel pool (which have no thread-local context). Each
/// field is the current value of one `tfe_executor_*` / `tfe_intra_*`
/// registry family — the registry handle is the only place the event is
/// counted, so [`exec_stats`] and a metrics scrape cannot disagree. The
/// counters are monotone for the life of the process: scope a measurement
/// by subtracting a snapshot taken before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Graph nodes executed (placeholders excluded).
    pub nodes_executed: u64,
    /// Compute kernels launched (structural ops — `const`, `call`, `cond`,
    /// `while_loop`, `host_func`, `copy` — excluded).
    pub kernels_launched: u64,
    /// Completed `run_function` invocations in serial-planned mode.
    pub serial_runs: u64,
    /// Completed `run_function` invocations in parallel mode.
    pub parallel_runs: u64,
    /// Deepest ready-queue depth observed by the parallel scheduler.
    pub max_queue_depth: u64,
    /// Largest number of tensor bytes simultaneously live in one run
    /// (placeholder bindings included), across both modes.
    pub peak_live_bytes: u64,
    /// Kernel loops the intra-op splitter ran in parallel tiles on the
    /// shared pool (sourced from `tfe-parallel`).
    pub intra_par_kernels: u64,
    /// Kernel loops the intra-op grain heuristic kept serial.
    pub intra_serial_kernels: u64,
    /// Total tiles executed by parallel kernel loops.
    pub intra_tiles: u64,
}

fn nodes_run() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_executor_nodes_run_total",
        "Graph nodes executed by either scheduling mode (placeholders excluded)"
    )
}

fn kernels_run() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_executor_kernels_run_total",
        "Compute kernels launched by the graph executor (structural ops excluded)"
    )
}

fn serial_runs() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_executor_serial_runs_total",
        "Graph-function invocations run by the serial-planned executor"
    )
}

fn parallel_runs() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_executor_parallel_runs_total",
        "Graph-function invocations run by the dependency-counted parallel executor"
    )
}

fn queue_depth_peak() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!(
        "tfe_executor_ready_queue_depth_peak",
        "Deepest ready-queue depth observed by the parallel scheduler"
    )
}

fn live_bytes_peak() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!(
        "tfe_executor_peak_live_bytes",
        "Largest number of tensor bytes simultaneously live in one graph run"
    )
}

/// Snapshot the executor counters. Fields are read one relaxed atomic at a
/// time, so unrelated fields may be a few events apart, but
/// `kernels_launched <= nodes_executed` holds in every snapshot:
/// `kernels_launched` is read first, then an Acquire fence, then
/// `nodes_executed`. That fence pairs with the Release fence
/// `stat_kernel_launched` issues before its bump (both are free on x86),
/// so seeing `k` kernel bumps means the later node load sees at least the
/// `k` node bumps sequenced before them.
pub fn exec_stats() -> ExecStats {
    let kernels_launched = kernels_run().get();
    std::sync::atomic::fence(std::sync::atomic::Ordering::Acquire);
    let intra = tfe_parallel::intra_stats();
    ExecStats {
        nodes_executed: nodes_run().get(),
        kernels_launched,
        serial_runs: serial_runs().get(),
        parallel_runs: parallel_runs().get(),
        max_queue_depth: queue_depth_peak().get() as u64,
        peak_live_bytes: live_bytes_peak().get() as u64,
        intra_par_kernels: intra.par_kernels,
        intra_serial_kernels: intra.serial_kernels,
        intra_tiles: intra.tiles,
    }
}

pub(crate) fn stat_node_executed() {
    nodes_run().inc();
}

pub(crate) fn stat_kernel_launched() {
    // Release fence: orders this node's earlier `stat_node_executed` bump
    // before the kernel bump for the reader in `exec_stats`.
    std::sync::atomic::fence(std::sync::atomic::Ordering::Release);
    kernels_run().inc();
}

pub(crate) fn stat_serial_run() {
    serial_runs().inc();
}

pub(crate) fn stat_parallel_run() {
    parallel_runs().inc();
}

pub(crate) fn stat_queue_depth(depth: u64) {
    queue_depth_peak().set_max(depth as i64);
}

pub(crate) fn stat_live_bytes(bytes: u64) {
    live_bytes_peak().set_max(bytes as i64);
}

pub(crate) fn stat_executor_abort() {
    tfe_metrics::static_counter!(
        "tfe_executor_aborts_total",
        "Parallel graph runs aborted by a node error or panic"
    )
    .inc();
}

// ---------------------------------------------------------------------------
// Thread-local context stack
// ---------------------------------------------------------------------------

/// One tracing frame: a graph under construction.
pub struct TraceFrame {
    /// Frame id (symbolic tensors remember which frame minted them).
    pub frame_id: u64,
    /// The graph builder.
    pub builder: GraphBuilder<'static>,
    /// Captured outer tensors, in placeholder order (§4.6 lexical closure).
    pub captures: Vec<Tensor>,
    capture_refs: HashMap<u64, TensorRef>,
    /// Variables created while this frame was active (§4.6 state creation).
    pub created_variables: Vec<u64>,
    /// Owners of what the graph's nodes name: callees, host closures.
    pub owners: Vec<Owner>,
}

/// Everything [`end_tracing`] hands back to the tracer.
pub struct FinishedTrace {
    /// The frame id that was traced.
    pub frame_id: u64,
    /// The builder, ready for `finish(outputs, num_captures)`.
    pub builder: GraphBuilder<'static>,
    /// Captured outer tensors, in placeholder order.
    pub captures: Vec<Tensor>,
    /// Variables created during the trace.
    pub created_variables: Vec<u64>,
    /// Owners of what the graph's nodes name; whoever keeps the graph keeps
    /// these with it.
    pub owners: Vec<Owner>,
}

#[derive(Default)]
struct Stack {
    traces: Vec<TraceFrame>,
    init_scope_stash: Vec<Vec<TraceFrame>>,
    devices: Vec<Device>,
    tapes: Vec<Arc<Tape>>,
    observer: Option<Rc<dyn Observer>>,
    exec_mode: ExecMode,
    /// What inference has accepted (see [`validate`]), by key hash.
    accepted: HashMap<u64, Accepted>,
}

thread_local! {
    static STACK: RefCell<Stack> = RefCell::new(Stack::default());
}

fn with_stack<R>(f: impl FnOnce(&mut Stack) -> R) -> R {
    STACK.with(|s| f(&mut s.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

/// RAII guard for a device scope: pushing happens at construction, popping
/// on drop — so a panicking closure unwinds the thread's scope stack
/// correctly instead of leaking the scope into unrelated code that later
/// runs on the same thread.
///
/// Not `Send`: the scope lives on the stack of the thread that opened it.
#[must_use = "the device scope ends when this guard drops"]
pub struct DeviceScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl DeviceScope {
    fn push(device: Device) -> DeviceScope {
        with_stack(|s| s.devices.push(device));
        DeviceScope { _not_send: std::marker::PhantomData }
    }
}

impl Drop for DeviceScope {
    fn drop(&mut self) {
        with_stack(|s| {
            s.devices.pop();
        });
    }
}

/// Open a device scope by name, closed when the returned guard drops.
///
/// # Errors
/// Unknown device name.
pub fn device_scope(name: &str) -> Result<DeviceScope> {
    let device = device_manager().resolve(name).map_err(RuntimeError::Device)?;
    Ok(DeviceScope::push(device))
}

/// Open a device scope for an already-resolved device.
pub fn device_scope_obj(device: Device) -> DeviceScope {
    DeviceScope::push(device)
}

/// Run `f` with operations placed on the named device (§4.4's `device`
/// context manager).
///
/// # Errors
/// Unknown device name.
pub fn with_device<R>(name: &str, f: impl FnOnce() -> R) -> Result<R> {
    let _scope = device_scope(name)?;
    Ok(f())
}

/// Like [`with_device`], with an already-resolved device.
pub fn with_device_obj<R>(device: Device, f: impl FnOnce() -> R) -> R {
    let _scope = device_scope_obj(device);
    f()
}

/// The device new operations run on: the innermost `device` scope, else the
/// host CPU (input-based placement happens in the dispatcher).
pub fn current_device() -> Device {
    with_stack(|s| s.devices.last().cloned()).unwrap_or_else(|| device_manager().host_cpu())
}

/// Name of [`current_device`].
pub fn current_device_name() -> DeviceName {
    current_device().name().clone()
}

// ---------------------------------------------------------------------------
// Tapes
// ---------------------------------------------------------------------------

/// Push a tape onto this thread's active stack.
pub fn push_tape(tape: Arc<Tape>) {
    with_stack(|s| s.tapes.push(tape));
}

/// Remove a tape by id. Returns whether it was found.
pub fn pop_tape(id: u64) -> bool {
    with_stack(|s| {
        let before = s.tapes.len();
        s.tapes.retain(|t| t.id != id);
        s.tapes.len() != before
    })
}

/// Snapshot of the active tapes (outermost first).
pub fn active_tapes() -> Vec<Arc<Tape>> {
    with_stack(|s| s.tapes.clone())
}

/// A handle that keeps alive whatever a name or an id written into an
/// attribute resolves to. The tables that do the resolving are indexes; the
/// things that can still follow the name hold one of these.
pub type Owner = Arc<dyn std::any::Any + Send + Sync>;

/// Have the graph being traced keep `owner`: one of its nodes names
/// something `owner` owns. No-op outside tracing.
pub fn retain_in_trace(owner: &Owner) {
    with_stack(|s| {
        if let Some(frame) = s.traces.last_mut() {
            frame.owners.push(owner.clone());
        }
    });
}

fn record_on_tapes(op: Op, attrs: Attrs, inputs: &[Tensor], outputs: &[Tensor]) {
    if outputs.is_empty() {
        return; // assigns and friends are not differentiable events
    }
    with_stack(|s| Tape::record_on(&s.tapes, op, attrs, inputs, outputs));
}

// ---------------------------------------------------------------------------
// Tracing frames
// ---------------------------------------------------------------------------

/// Whether the current thread is inside a graph-building context.
pub fn is_tracing() -> bool {
    with_stack(|s| !s.traces.is_empty())
}

/// Open a new tracing frame; subsequent [`execute`] calls record nodes into
/// it. Returns the frame id.
pub fn begin_tracing(name: &str) -> u64 {
    let frame_id = fresh_id();
    let frame = TraceFrame {
        frame_id,
        builder: GraphBuilder::new(name),
        captures: Vec::new(),
        capture_refs: HashMap::new(),
        created_variables: Vec::new(),
        owners: Vec::new(),
    };
    with_stack(|s| s.traces.push(frame));
    frame_id
}

/// Close the innermost tracing frame.
///
/// # Errors
/// No frame is open.
pub fn end_tracing() -> Result<FinishedTrace> {
    with_stack(|s| s.traces.pop())
        .map(|f| FinishedTrace {
            frame_id: f.frame_id,
            builder: f.builder,
            captures: f.captures,
            created_variables: f.created_variables,
            owners: f.owners,
        })
        .ok_or_else(|| RuntimeError::Internal("end_tracing without begin_tracing".to_string()))
}

/// Add an argument placeholder to the innermost frame.
///
/// # Errors
/// No frame is open, or inference fails.
pub fn tracing_placeholder(dtype: tfe_tensor::DType, shape: SymShape) -> Result<Tensor> {
    with_stack(|s| {
        let frame = s
            .traces
            .last_mut()
            .ok_or_else(|| RuntimeError::Internal("placeholder outside tracing".to_string()))?;
        let tref = frame.builder.placeholder(dtype, shape.clone())?;
        Ok(Tensor::Symbolic(SymbolicTensor {
            id: fresh_id(),
            frame_id: frame.frame_id,
            tref,
            dtype,
            shape,
        }))
    })
}

/// Intern a constant tensor as a `const` node in the innermost frame — how
/// `tf.constant` behaves inside a graph-building context (and how the
/// `add_noise` example of §4.1 bakes host values into traces).
///
/// # Errors
/// No frame is open.
pub fn trace_constant(value: TensorData) -> Result<Tensor> {
    with_stack(|s| {
        let frame = s
            .traces
            .last_mut()
            .ok_or_else(|| RuntimeError::Internal("trace_constant outside tracing".to_string()))?;
        let value = Arc::new(value);
        let tref = frame.builder.constant(value)?;
        let (dtype, shape) = frame.builder.sig(tref);
        Ok(Tensor::Symbolic(SymbolicTensor {
            id: fresh_id(),
            frame_id: frame.frame_id,
            tref,
            dtype,
            shape,
        }))
    })
}

/// Record a variable creation against the innermost frame (the §4.6
/// state-creation contract); no-op outside tracing.
pub fn notify_variable_created(id: u64) {
    with_stack(|s| {
        if let Some(frame) = s.traces.last_mut() {
            frame.created_variables.push(id);
        }
    });
}

/// Pause all tracing and run `f` imperatively — `tf.init_scope` (§4.7).
pub fn init_scope<R>(f: impl FnOnce() -> R) -> R {
    with_stack(|s| {
        let t = std::mem::take(&mut s.traces);
        s.init_scope_stash.push(t);
    });
    let r = f();
    with_stack(|s| {
        let restored = s.init_scope_stash.pop().expect("init_scope stash must exist");
        debug_assert!(s.traces.is_empty(), "traces created inside init_scope must be closed");
        s.traces = restored;
    });
    r
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// Where the runtime hands an op to the thread's [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// An op dispatched eagerly (structural ops excluded), after inference
    /// has validated it and before its kernel runs.
    Eager,
    /// A graph node of any kind (`const`, `call`, `cond`, ... included),
    /// before it runs.
    Node,
    /// An eager `call` of a staged function, before its body runs.
    Call,
}

/// Sees the ops this thread runs and may stand in for them: the hook the
/// virtual-clock simulator of `tfe-bench` hangs on (DESIGN.md §3).
///
/// An observer is installed per thread by [`observer_scope`], so the nodes
/// an [`ExecMode::Parallel`] run hands to pool workers are not observed.
pub trait Observer {
    /// See `op` at `site` on `device`, over concrete `inputs`. Returning
    /// `Some(outputs)` replaces what the op would have produced: its kernel,
    /// or the body of a node or call, does not run.
    ///
    /// # Errors
    /// An error fails the op.
    fn observe(
        &self,
        site: Site,
        device: &Device,
        op: Op,
        attrs: &Attrs,
        inputs: &[Arc<TensorData>],
    ) -> Result<Option<Vec<Arc<TensorData>>>>;
}

/// Observers installed on any thread: while this is zero, [`observe`] is
/// one relaxed load.
static OBSERVERS: AtomicUsize = AtomicUsize::new(0);

/// RAII guard for an observer, shaped like [`DeviceScope`]: installing
/// happens at construction, and the drop puts back the observer it replaced,
/// so nested scopes and a panic unwinding through one restore correctly.
///
/// Not `Send`: the observer lives on the thread that installed it.
#[must_use = "the observer is removed when this guard drops"]
pub struct ObserverScope {
    previous: Option<Rc<dyn Observer>>,
}

/// Install `observer` on this thread until the returned guard drops.
pub fn observer_scope(observer: Rc<dyn Observer>) -> ObserverScope {
    OBSERVERS.fetch_add(1, Ordering::Relaxed);
    let previous = with_stack(|s| s.observer.replace(observer));
    ObserverScope { previous }
}

impl Drop for ObserverScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // Bound first: the observer being removed is dropped after the guard.
        let removed = with_stack(|s| std::mem::replace(&mut s.observer, previous));
        drop(removed);
        OBSERVERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hand one op to this thread's observer; `None` when there is none.
pub(crate) fn observe(
    site: Site,
    device: &Device,
    op: Op,
    attrs: &Attrs,
    inputs: &[Arc<TensorData>],
) -> Result<Option<Vec<Arc<TensorData>>>> {
    if OBSERVERS.load(Ordering::Relaxed) == 0 {
        return Ok(None);
    }
    match with_stack(|s| s.observer.clone()) {
        Some(observer) => observer.observe(site, device, op, attrs, inputs),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Executor mode
// ---------------------------------------------------------------------------

/// Set the graph-executor mode for this thread (serial planned vs
/// inter-op parallel). Returns the previous mode.
pub fn set_exec_mode(mode: ExecMode) -> ExecMode {
    with_stack(|s| std::mem::replace(&mut s.exec_mode, mode))
}

/// Current executor mode.
pub fn exec_mode() -> ExecMode {
    with_stack(|s| s.exec_mode)
}

/// Run `f` and return its result: a pass-through. Eager dispatch is
/// synchronous — every op runs on the caller before `execute` returns — and
/// this survives, with its signature, only because the repository
/// benchmark's probes call it; nothing else does.
///
/// # Errors
/// Never; the `Result` is part of the kept signature.
pub fn async_scope<R>(f: impl FnOnce() -> R) -> Result<R> {
    Ok(f())
}

// ---------------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------------

/// Execute (or trace) one primitive operation. This is the single entry
/// point every API wrapper, gradient function, and layer goes through.
///
/// # Errors
/// Arity/attr/shape problems, kernel failures, device errors.
pub fn execute(op: Op, inputs: &[Tensor], attrs: Attrs) -> Result<Vec<Tensor>> {
    if is_tracing() {
        execute_traced(op, inputs, attrs)
    } else {
        execute_eager(op, inputs, attrs)
    }
}

fn execute_traced(op: Op, inputs: &[Tensor], attrs: Attrs) -> Result<Vec<Tensor>> {
    let outputs = with_stack(|s| -> Result<Vec<Tensor>> {
        let frame = s
            .traces
            .last_mut()
            .ok_or_else(|| RuntimeError::Internal("lost tracing frame".to_string()))?;
        let mut trefs = Vec::with_capacity(inputs.len());
        for t in inputs {
            let tref = match t {
                Tensor::Symbolic(sym) if sym.frame_id == frame.frame_id => sym.tref,
                other => {
                    // Lexical capture (§4.6): outer eager/symbolic tensors
                    // become silent placeholder inputs, deduplicated by id.
                    if let Some(&tref) = frame.capture_refs.get(&other.id()) {
                        tref
                    } else {
                        let tref = frame.builder.placeholder(other.dtype(), other.sym_shape())?;
                        frame.capture_refs.insert(other.id(), tref);
                        frame.captures.push(other.clone());
                        tref
                    }
                }
            };
            trefs.push(tref);
        }
        let refs = frame.builder.add_op(op, trefs, attrs.clone())?;
        Ok(refs
            .into_iter()
            .map(|tref| {
                let (dtype, shape) = frame.builder.sig(tref);
                Tensor::Symbolic(SymbolicTensor {
                    id: fresh_id(),
                    frame_id: frame.frame_id,
                    tref,
                    dtype,
                    shape,
                })
            })
            .collect())
    })?;
    record_on_tapes(op, attrs, inputs, &outputs);
    Ok(outputs)
}

/// Pick the device for an eager op: innermost `device` scope, else the
/// device of the first concrete input, else the host CPU (§4.4).
fn resolve_device(inputs: &[Tensor]) -> Device {
    with_stack(|s| s.devices.last().cloned())
        .or_else(|| inputs.iter().find_map(|t| Some(t.as_eager()?.device.clone())))
        .unwrap_or_else(|| device_manager().host_cpu())
}

fn execute_eager(op: Op, inputs: &[Tensor], attrs: Attrs) -> Result<Vec<Tensor>> {
    if let Some(kind) = Structural::of(op) {
        return execute_structural(kind, op, inputs, attrs);
    }

    tfe_metrics::static_counter!(
        "tfe_eager_ops_dispatched_total",
        "Primitive operations dispatched eagerly (structural ops excluded)"
    )
    .inc();

    // While profiling, a top-level eager op is a request entry point: when
    // no ambient request exists (a serve batch, `Func` call or RPC would
    // have installed one), a lightweight root makes the op's spans — and
    // any pool work it fans out — share one trace id.
    let _root = tfe_profile::request_scope("eager", || format!("eager:{op}"));

    // Eager-dispatch span: covers validation + inference + the kernel, so
    // the timeline shows dispatch overhead as the gap around the nested
    // `kernel` span (§6's eager-vs-staged overhead, measured for real).
    let mut prof_span = tfe_profile::span("eager", || op.name());

    let device = resolve_device(inputs);
    let out = with_values(inputs, |values| {
        validate(op, &attrs, values)?;
        match observe(Site::Eager, &device, op, &attrs, values)? {
            Some(outputs) => Ok(many(outputs)),
            None => crate::kernels::launch_kernel(op, &attrs, values),
        }
    })?;
    let mut out_bytes = 0;
    let outputs = eager_tensors(out.inspect(|t| out_bytes += tensor_bytes(t)), &device);
    tfe_metrics::static_counter!(
        "tfe_eager_bytes_allocated_total",
        "Tensor bytes produced by eagerly dispatched operations"
    )
    .add(out_bytes);
    if let Some(sp) = prof_span.as_mut() {
        sp.set_bytes(out_bytes);
    }
    record_on_tapes(op, attrs, inputs, &outputs);
    Ok(outputs)
}

/// Run `f` over the values of `inputs`, on the stack for up to three.
fn with_values<R>(inputs: &[Tensor], f: impl FnOnce(&[Arc<TensorData>]) -> Result<R>) -> Result<R> {
    match inputs {
        [a] => f(&[a.value()?]),
        [a, b] => f(&[a.value()?, b.value()?]),
        [a, b, c] => f(&[a.value()?, b.value()?, c.value()?]),
        _ => f(&inputs.iter().map(Tensor::value).collect::<Result<Vec<_>>>()?),
    }
}

/// An input signature inference accepted: the key [`validate`] checks.
type Accepted = (Op, Attrs, Vec<(DType, Shape)>);

/// Signatures one thread's [`validate`] keeps before it starts over: far
/// more than a training step dispatches, few enough to stay small.
const ACCEPTED_CAP: usize = 1024;

/// Validate an eager op through the shared op definition, memoised per
/// thread. `op.infer` is a function of the op, its attributes and its
/// inputs' dtypes and dims alone, and eager dispatch needs only its verdict,
/// so what it accepted once is accepted again without a second call. Only
/// acceptance is kept: a failing op runs inference every time and fails
/// with the same typed error. A stateful op is not kept: it names its state
/// in its attributes, so every variable would be a signature of its own.
fn validate(op: Op, attrs: &Attrs, values: &[Arc<TensorData>]) -> Result<()> {
    let infer = || -> Result<()> {
        let (dtypes, shapes): (Vec<_>, Vec<_>) =
            values.iter().map(|d| (d.dtype(), SymShape::known(d.shape()))).unzip();
        op.infer(&InferCtx { dtypes: &dtypes, shapes: &shapes, attrs })?;
        Ok(())
    };
    if op.def().is_stateful() {
        return infer();
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    (op, attrs).hash(&mut hasher);
    for v in values {
        (v.dtype(), v.shape().dims()).hash(&mut hasher);
    }
    let key = hasher.finish();
    let seen = |(o, a, ins): &Accepted| {
        *o == op
            && a == attrs
            && ins.len() == values.len()
            && ins.iter().zip(values).all(|((dt, sh), v)| *dt == v.dtype() && sh == v.shape())
    };
    if with_stack(|s| s.accepted.get(&key).is_some_and(seen)) {
        return Ok(());
    }
    infer()?;
    let inputs = values.iter().map(|v| (v.dtype(), v.shape().clone())).collect();
    with_stack(|s| {
        if s.accepted.len() >= ACCEPTED_CAP {
            s.accepted.clear();
        }
        s.accepted.insert(key, (op, attrs.clone(), inputs));
    });
    Ok(())
}

/// Eager handles on `device` for an op's outputs.
pub(crate) fn eager_tensors(
    values: impl IntoIterator<Item = Arc<TensorData>>,
    device: &Device,
) -> Vec<Tensor> {
    values.into_iter().map(|d| Tensor::Eager(EagerTensor::new(d, device.clone()))).collect()
}

/// Eager dispatch of a structural op: the op itself is [`Structural::run`],
/// the same code the executor's node-runner calls; this side only turns
/// tensors into values and back, and records on tapes.
fn execute_structural(
    kind: Structural,
    op: Op,
    inputs: &[Tensor],
    attrs: Attrs,
) -> Result<Vec<Tensor>> {
    if kind == Structural::HostFunc {
        // Eagerly a host closure is pass-through (§4.7: wrapping a function
        // in py_func "has essentially no effect" when executing
        // imperatively): it runs on the caller's own tensors, so its ops
        // record on the tapes one by one. Recording the host_func itself as
        // well would double-count the gradient.
        let id = attrs.int("fn_id").map_err(tfe_ops::OpError::from)? as u64;
        return host_fn(id)?(inputs);
    }
    let mut device = resolve_device(inputs);
    if kind == Structural::Copy {
        let target = attrs.str("device").map_err(tfe_ops::OpError::from)?;
        device = device_manager().resolve(target).map_err(RuntimeError::Device)?;
    }
    let values = with_values(inputs, |values| {
        let observed = match kind {
            Structural::Call => observe(Site::Call, &device, op, &attrs, values)?,
            _ => None,
        };
        match observed {
            Some(outputs) => Ok(outputs),
            None => kind.run(&attrs, values, &device, exec_mode()),
        }
    })?;
    let outputs = eager_tensors(values, &device);
    record_on_tapes(op, attrs, inputs, &outputs);
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tfe_tensor::{DType, Shape};

    /// Records every op it sees; stands in for eager ops when `stand_in`
    /// is set.
    #[derive(Default)]
    struct Recorder {
        seen: RefCell<Vec<(Site, &'static str)>>,
        stand_in: Option<Arc<TensorData>>,
    }

    impl Observer for Recorder {
        fn observe(
            &self,
            site: Site,
            _device: &Device,
            op: Op,
            _attrs: &Attrs,
            _inputs: &[Arc<TensorData>],
        ) -> Result<Option<Vec<Arc<TensorData>>>> {
            self.seen.borrow_mut().push((site, op.name()));
            Ok(self.stand_in.clone().filter(|_| site == Site::Eager).map(|v| vec![v]))
        }
    }

    impl Recorder {
        fn take(&self) -> Vec<(Site, &'static str)> {
            std::mem::take(&mut self.seen.borrow_mut())
        }
    }

    /// `g(x) = relu(x * x + x)` in the library: three nodes to run.
    fn call_attrs(name: &str) -> Attrs {
        let mut b = GraphBuilder::new(name);
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([2]))).unwrap();
        let m = b.add_node("mul", vec![x, x], Attrs::new()).unwrap()[0];
        let s = b.add_node("add", vec![m, x], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![r], 0);
        let (d, s) = tfe_ops::catalog::encode_sig(&f.output_sigs());
        library().insert(f);
        Attrs::new().with("function", name).with("out_dtypes", d).with("out_shapes", s)
    }

    fn vector() -> Tensor {
        Tensor::from_data(TensorData::from_vec(vec![1.0f32, -3.0], Shape::from([2])).unwrap())
    }

    #[test]
    fn observer_sees_each_op_node_and_call_once() {
        let recorder = Rc::new(Recorder::default());
        let _scope = observer_scope(recorder.clone());
        let x = vector();
        let y = api::add(&x, &x).unwrap();
        api::mul(&y, &x).unwrap();
        assert_eq!(recorder.take(), [(Site::Eager, "add"), (Site::Eager, "mul")]);

        let out = execute(Op::Call, &[x], call_attrs("observed_call")).unwrap();
        assert_eq!(out[0].to_f64_vec().unwrap(), vec![2.0, 6.0]);
        assert_eq!(
            recorder.take(),
            [(Site::Call, "call"), (Site::Node, "mul"), (Site::Node, "add"), (Site::Node, "relu")]
        );

        // Another thread has no observer, this one's included.
        std::thread::spawn(|| api::neg(&vector()).unwrap().to_f64_vec().unwrap()).join().unwrap();
        assert_eq!(recorder.take(), []);
    }

    #[test]
    fn observer_scopes_restore_after_nesting_and_panics() {
        let (outer, inner) = (Rc::new(Recorder::default()), Rc::new(Recorder::default()));
        let x = vector();
        {
            let _outer = observer_scope(outer.clone());
            {
                let _inner = observer_scope(inner.clone());
                api::neg(&x).unwrap();
            }
            api::neg(&x).unwrap();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let _inner = observer_scope(inner.clone());
                panic!("unwinds through an observer scope");
            }));
            assert!(unwound.is_err());
            api::neg(&x).unwrap();
        }
        api::neg(&x).unwrap();
        assert_eq!(inner.take().len(), 1);
        assert_eq!(outer.take().len(), 2);
    }

    #[test]
    fn observer_outputs_replace_the_kernel() {
        let stand_in = Arc::new(TensorData::scalar(42.0f32));
        let recorder = Rc::new(Recorder { stand_in: Some(stand_in), ..Recorder::default() });
        let _scope = observer_scope(recorder);
        let y = api::add(&vector(), &vector()).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 42.0);
    }
}
