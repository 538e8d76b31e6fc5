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
use crate::executor::{self, ExecMode, Structural};
use crate::stream::Label;
use crate::tape::{Tape, TapeRecord};
use crate::tensor::{fresh_id, EagerTensor, SymbolicTensor, Tensor};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tfe_device::{Device, DeviceManager, DeviceName, DispatchModel, KernelCost, SimStats};
use tfe_graph::{FunctionLibrary, GraphBuilder, TensorRef};
use tfe_ops::{Attrs, InferCtx, Op, SymShape};
use tfe_tensor::rng::TensorRng;
use tfe_tensor::TensorData;

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
    host_fns().write().insert(id, f);
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
        let removed = host_fns().write().remove(&self.0);
        drop(removed);
    }
}

/// Resolve a host-function id.
///
/// # Errors
/// Unknown id.
pub fn host_fn(id: u64) -> Result<HostFn> {
    host_fns().read().get(&id).cloned().ok_or(RuntimeError::UnknownHostFunction(id))
}

fn global_rng() -> &'static Mutex<TensorRng> {
    static R: std::sync::OnceLock<Mutex<TensorRng>> = std::sync::OnceLock::new();
    R.get_or_init(|| Mutex::new(TensorRng::seed_from_u64(0)))
}

/// Re-seed the process RNG used by stateful random ops (`tf.set_random_seed`).
pub fn set_random_seed(seed: u64) {
    *global_rng().lock() = TensorRng::seed_from_u64(seed);
}

/// Run `f` with exclusive access to the process RNG.
pub(crate) fn with_rng<R>(f: impl FnOnce(&mut TensorRng) -> R) -> R {
    f(&mut global_rng().lock())
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

/// Per-thread simulation configuration (virtual clock + overhead model).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Shared counters and virtual clock.
    pub stats: SimStats,
    /// Host-side dispatch overheads.
    pub dispatch: DispatchModel,
}

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
    sim: Option<SimConfig>,
    exec_mode: ExecMode,
    /// Nested async-mode overrides; the innermost wins, the `TFE_ASYNC`
    /// environment default applies when empty.
    async_overrides: Vec<bool>,
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

/// Keep `owner` until the staged calls this thread has enqueued so far have
/// run (a queued call resolves the names inside its graph when it runs).
/// No-op under synchronous dispatch.
pub fn retain_behind_queued_calls(owner: &Owner) {
    if async_enabled() {
        for stream in crate::stream::all() {
            stream.park(owner.clone());
        }
    }
}

fn record_on_tapes(op: Op, attrs: &Attrs, inputs: &[Tensor], outputs: &[Tensor]) {
    if outputs.is_empty() {
        return; // assigns and friends are not differentiable events
    }
    let tapes = with_stack(|s| s.tapes.clone());
    if tapes.is_empty() {
        return;
    }
    let slots = TapeRecord::gradient_slots(op, attrs, inputs);
    // Tapes auto-watch the variables an op reads, directly or through a
    // staged call (§4.2/§4.3).
    for &var_id in &slots[inputs.len()..] {
        for tape in tapes.iter().filter(|t| t.watch_accessed_variables) {
            tape.watch_id(var_id);
        }
    }
    if !tapes.iter().any(|t| t.tracks_any(&slots)) {
        return;
    }
    // One record, shared by every nested tape that tracks it.
    let record = Arc::new(TapeRecord::with_slots(slots, op, attrs.clone(), inputs, outputs));
    for tape in &tapes {
        tape.maybe_record(&record);
    }
}

// ---------------------------------------------------------------------------
// Tracing frames
// ---------------------------------------------------------------------------

/// Whether the current thread is inside a graph-building context.
pub fn is_tracing() -> bool {
    with_stack(|s| !s.traces.is_empty())
}

/// Id of the innermost tracing frame, if any.
pub fn current_frame_id() -> Option<u64> {
    with_stack(|s| s.traces.last().map(|t| t.frame_id))
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
// Simulation controls
// ---------------------------------------------------------------------------

/// Install a simulation config (virtual clock + overhead model) for this
/// thread. Returns the previous config.
pub fn set_sim(config: Option<SimConfig>) -> Option<SimConfig> {
    with_stack(|s| std::mem::replace(&mut s.sim, config))
}

/// The active simulation config, if any.
pub fn sim() -> Option<SimConfig> {
    with_stack(|s| s.sim.clone())
}

/// Dtypes and shapes of concrete values, as inference wants them.
fn concrete_sigs(values: &[Arc<TensorData>]) -> (Vec<tfe_tensor::DType>, Vec<SymShape>) {
    values.iter().map(|d| (d.dtype(), SymShape::known(d.shape()))).unzip()
}

/// Who asks [`simulate_op`] about an op.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimOp {
    /// Eager dispatch: pays the per-op interpreter cost (the CPython
    /// stand-in) and, on compile-required devices, the compile cost.
    Eager,
    /// A graph node: pays the executor's per-node cost.
    Node,
    /// A `call`/`cond`/`while_loop` node: pays as a node, but is never
    /// zeroed — the nodes of the bodies it runs are.
    NodeWithBodies,
}

/// The simulator's whole view of one op. The eager dispatcher and the
/// executor's node-runner call it only when a virtual clock is installed on
/// the thread (`sim`) or the device has a compute model; a real device on a
/// thread without a clock never gets here.
///
/// Charges the thread's virtual clocks the host overhead of `origin` and,
/// through the device's compute model, the kernel time of `op` over these
/// `inputs`. On a cost-only device (`KernelMode::CostOnly`: paper-scale
/// benchmarks where numeric output is irrelevant) it then stands in for the
/// kernel with shared, shape-correct zeros; otherwise it returns `None` and
/// the caller runs the op for real.
///
/// # Errors
/// Failed inference, or cost-only outputs of undefined shape.
pub(crate) fn simulate_op(
    sim: Option<&SimConfig>,
    origin: SimOp,
    device: &Device,
    op: Op,
    attrs: &Attrs,
    inputs: &[Arc<TensorData>],
) -> Result<Option<Vec<Arc<TensorData>>>> {
    let (dtypes, shapes) = concrete_sigs(inputs);
    let ctx = InferCtx { dtypes: &dtypes, shapes: &shapes, attrs };
    let sigs = op.infer(&ctx)?;
    if let Some(cfg) = sim {
        if origin == SimOp::Eager {
            cfg.stats.count_eager_op();
            cfg.stats.clock.advance(cfg.dispatch.interpreter_ns);
            if device.device_type().requires_compilation() {
                cfg.stats.clock.advance(cfg.dispatch.eager_compile_ns);
            }
        } else {
            cfg.stats.count_staged_node();
            cfg.stats.clock.advance(cfg.dispatch.executor_node_ns);
        }
        if let Some(model) = device.compute_model() {
            let w = op.work(&ctx, &sigs);
            let cost = KernelCost { flops: w.flops, bytes: w.bytes };
            cfg.stats.device_clock.advance(model.kernel_time_ns(cost));
            cfg.stats.count_kernel();
        }
    }
    if device.produces_real_values() || origin == SimOp::NodeWithBodies {
        return Ok(None);
    }
    let zeros = sigs.into_iter().map(|(dt, s)| {
        s.to_shape().map(|shape| crate::kernels::zero_value(dt, shape)).ok_or_else(|| {
            RuntimeError::Internal(format!(
                "cost-only execution needs fully-defined shapes (op {op})"
            ))
        })
    });
    zeros.collect::<Result<_>>().map(Some)
}

/// Set the graph-executor mode for this thread (serial planned vs
/// inter-op parallel). Returns the previous mode.
pub fn set_exec_mode(mode: ExecMode) -> ExecMode {
    with_stack(|s| std::mem::replace(&mut s.exec_mode, mode))
}

/// Current executor mode.
pub fn exec_mode() -> ExecMode {
    with_stack(|s| s.exec_mode)
}

// ---------------------------------------------------------------------------
// Async eager mode (§4.1 asynchronous dispatch)
// ---------------------------------------------------------------------------

/// The `TFE_ASYNC` environment default, parsed once. Unrecognized values
/// warn once on stderr and fall back to sync (off).
fn env_async_default() -> bool {
    static D: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *D.get_or_init(|| match std::env::var("TFE_ASYNC") {
        Ok(v) => match v.trim() {
            "1" | "true" | "on" | "yes" => true,
            "" | "0" | "false" | "off" | "no" => false,
            other => {
                eprintln!(
                    "tf-eager: ignoring unparseable TFE_ASYNC={other:?} \
                     (expected 0/1/true/false); eager execution stays synchronous"
                );
                false
            }
        },
        Err(_) => false,
    })
}

/// Whether eager ops on this thread should dispatch asynchronously.
pub fn async_enabled() -> bool {
    with_stack(|s| s.async_overrides.last().copied()).unwrap_or_else(env_async_default)
}

/// RAII guard that forces synchronous dispatch on the current thread while
/// alive. Used wherever re-entering the async path could deadlock a
/// dispatch stream against itself: on the stream threads, and around host
/// closures invoked from inside graph execution.
pub(crate) struct ForceSyncScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ForceSyncScope {
    fn drop(&mut self) {
        with_stack(|s| {
            s.async_overrides.pop();
        });
    }
}

pub(crate) fn force_sync_scope() -> ForceSyncScope {
    with_stack(|s| s.async_overrides.push(false));
    ForceSyncScope { _not_send: std::marker::PhantomData }
}

/// Run `f` with asynchronous dispatch disabled on the calling thread,
/// overriding both the `TFE_ASYNC` environment default and any enclosing
/// [`async_scope`]. The exact inverse of [`async_scope`]: ops dispatched
/// inside run to completion on the caller before `execute` returns.
///
/// Unlike [`async_scope`] this is not a sync point — work already enqueued
/// on the streams keeps running; only *new* dispatches from `f` are forced
/// synchronous. Pending handles created before the scope still force a
/// wait when `f` consumes them as inputs.
pub fn sync_scope<R>(f: impl FnOnce() -> R) -> R {
    let _guard = force_sync_scope();
    f()
}

/// Permanently pin the calling thread to synchronous dispatch. Called once
/// at the top of every stream dispatch thread: an op executing *on* a
/// stream must never enqueue behind itself.
pub(crate) fn disable_async_on_thread() {
    with_stack(|s| s.async_overrides.push(false));
}

/// Block until every async dispatch stream has run everything enqueued so
/// far, and surface the first deferred error, if any (clearing it). With
/// multiple poisoned streams the remaining errors stay put and surface at
/// their own next sync point — a deferred error is never silently dropped.
///
/// # Errors
/// The first [`RuntimeError::Deferred`] captured by any stream.
pub fn sync() -> Result<()> {
    tfe_metrics::static_counter!(
        "tfe_async_syncs_total",
        "Explicit synchronization points (context::sync and async_scope exits)"
    )
    .inc();
    let streams = crate::stream::all();
    if streams.is_empty() {
        return Ok(());
    }
    let _span = tfe_profile::span("sync", || "context_sync".to_string());
    for s in &streams {
        s.drain();
    }
    for s in &streams {
        if let Some(e) = s.take_error() {
            return Err(e);
        }
    }
    Ok(())
}

/// Block until all streams are quiet *without* consuming deferred errors —
/// for raw-storage peeks (e.g. `Variable::peek`) that must not swallow an
/// error destined for the caller's next real sync point.
pub(crate) fn drain_streams() {
    for s in crate::stream::all() {
        s.drain();
    }
}

/// Whether any async dispatch stream still has in-flight work. A
/// non-blocking probe for tests, benches, and progress displays.
pub fn async_pending() -> bool {
    crate::stream::all().iter().any(|s| s.has_inflight())
}

/// Run `f` with asynchronous eager dispatch enabled on this thread, then
/// synchronize: the scope exit is a sync point, so every op enqueued inside
/// has completed — and any deferred error has surfaced — before this
/// returns. Panic-safe: the mode override is popped during unwinding.
///
/// # Errors
/// The first deferred error captured while the scope was active.
pub fn async_scope<R>(f: impl FnOnce() -> R) -> Result<R> {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            with_stack(|s| {
                s.async_overrides.pop();
            });
        }
    }
    with_stack(|s| s.async_overrides.push(true));
    let r = {
        let _restore = Restore;
        f()
    };
    sync()?;
    Ok(r)
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
    record_on_tapes(op, &attrs, inputs, &outputs);
    Ok(outputs)
}

/// Pick the device for an eager op: innermost `device` scope, else the
/// device of the first concrete input, else the host CPU (§4.4).
fn resolve_device(inputs: &[Tensor]) -> Device {
    if let Some(d) = with_stack(|s| s.devices.last().cloned()) {
        return d;
    }
    for t in inputs {
        if let Tensor::Eager(e) = t {
            if let Some(d) = device_manager().find(&e.device) {
                return d;
            }
        }
    }
    device_manager().host_cpu()
}

fn execute_eager(op: Op, inputs: &[Tensor], attrs: Attrs) -> Result<Vec<Tensor>> {
    if let Some(kind) = Structural::of(op) {
        return execute_structural(kind, op, inputs, &attrs);
    }

    tfe_metrics::static_counter!(
        "tfe_eager_ops_dispatched_total",
        "Primitive operations dispatched eagerly (structural ops excluded)"
    )
    .inc();

    // A top-level eager op is a request entry point: when no ambient
    // request exists (a serve batch, `Func` call or RPC would have
    // installed one), open a lightweight root so the op's spans — and
    // any async stream / pool work it fans out — share one trace id.
    let _root = tfe_profile::request_scope("eager", || format!("eager:{op}"));

    // Eager-dispatch span: covers validation + inference + the kernel (or,
    // in async mode, just the enqueue), so the timeline shows dispatch
    // overhead as the gap around the nested `kernel` span (§6's
    // eager-vs-staged overhead, measured for real).
    let mut prof_span = tfe_profile::span("eager", || op.name().to_string());

    let device = resolve_device(inputs);
    let sim = sim();

    // Async dispatch (§4.1): validate and infer now, enqueue the kernel on
    // the device's stream, hand back pending handles. Any op whose output
    // shapes aren't fully inferable from input metadata stays synchronous
    // (data-dependent shapes need values).
    let enqueued = if async_dispatchable(&sim, &device, inputs) {
        let dtypes: Vec<_> = inputs.iter().map(Tensor::dtype).collect();
        let shapes: Vec<_> = inputs.iter().map(Tensor::sym_shape).collect();
        let out_sigs = op.infer(&InferCtx { dtypes: &dtypes, shapes: &shapes, attrs: &attrs })?;
        let job_attrs = attrs.clone();
        enqueue(Label::Op(op), &device, &out_sigs, inputs, move |vals| {
            crate::kernels::launch_kernel(op, &job_attrs, vals)
        })?
    } else {
        None
    };
    let outputs = match enqueued {
        Some(pending) => pending,
        None => {
            let values = eager_values(inputs)?;
            let zeros = if sim.is_some() || device.compute_model().is_some() {
                simulate_op(sim.as_ref(), SimOp::Eager, &device, op, &attrs, &values)?
            } else {
                // Validate through the shared op definition.
                let (dtypes, shapes) = concrete_sigs(&values);
                let ctx = InferCtx { dtypes: &dtypes, shapes: &shapes, attrs: &attrs };
                op.infer(&ctx)?;
                None
            };
            let out = match zeros {
                Some(zeros) => zeros,
                None => crate::kernels::launch_kernel(op, &attrs, &values)?,
            };
            eager_tensors(out, &device)
        }
    };
    // Output sizes follow from metadata alone, so the allocation accounting
    // doesn't have to wait for a pending kernel.
    let out_bytes: u64 = outputs
        .iter()
        .filter_map(Tensor::as_eager)
        .map(|t| (t.shape().num_elements() * t.dtype().size_bytes()) as u64)
        .sum();
    tfe_metrics::static_counter!(
        "tfe_eager_bytes_allocated_total",
        "Tensor bytes produced by eagerly dispatched operations"
    )
    .add(out_bytes);
    if let Some(sp) = prof_span.as_mut() {
        sp.set_bytes(out_bytes);
    }
    record_on_tapes(op, &attrs, inputs, &outputs);
    Ok(outputs)
}

/// The conservative gate on async dispatch: simulated clocks, cost-only
/// devices and symbolic inputs stay on the synchronous path.
fn async_dispatchable(sim: &Option<SimConfig>, device: &Device, inputs: &[Tensor]) -> bool {
    sim.is_none()
        && device.produces_real_values()
        && async_enabled()
        && inputs.iter().all(|t| !t.is_symbolic())
}

/// Enqueue `job` on `device`'s dispatch stream and return pending handles
/// shaped by `out_sigs`, which the caller validated and inferred from handle
/// metadata, so malformed programs still fail eagerly. `job` gets the
/// resolved input values. `Ok(None)`: some output shape is not fully
/// defined (it depends on input *values*), run the op synchronously.
///
/// # Errors
/// The fast-failed deferred error of a poisoned stream.
fn enqueue(
    label: Label,
    device: &Device,
    out_sigs: &[(tfe_tensor::DType, SymShape)],
    inputs: &[Tensor],
    job: impl FnOnce(&[Arc<TensorData>]) -> Result<Vec<Arc<TensorData>>> + Send + 'static,
) -> Result<Option<Vec<Tensor>>> {
    let Some(out_shapes) = out_sigs.iter().map(|(_, s)| s.to_shape()).collect::<Option<Vec<_>>>()
    else {
        return Ok(None);
    };
    let stream = crate::stream::for_device(device.name());
    let pending: Vec<_> = out_sigs
        .iter()
        .zip(out_shapes)
        .map(|((dt, _), shape)| stream.pending_value(*dt, shape))
        .collect();
    let args: Vec<_> = inputs
        .iter()
        .map(|t| t.as_eager().expect("async gate rejects symbolic inputs").async_arg())
        .collect();
    stream.enqueue(
        label,
        pending.clone(),
        Box::new(move || {
            let vals: Vec<Arc<TensorData>> =
                args.iter().map(crate::stream::AsyncArg::resolve).collect::<Result<_>>()?;
            job(&vals)
        }),
    )?;
    Ok(Some(
        pending
            .into_iter()
            .map(|pv| Tensor::Eager(EagerTensor::pending(pv, device.name().clone())))
            .collect(),
    ))
}

fn eager_values(inputs: &[Tensor]) -> Result<Vec<Arc<TensorData>>> {
    inputs.iter().map(Tensor::value).collect()
}

pub(crate) fn eager_tensors(values: Vec<Arc<TensorData>>, device: &Device) -> Vec<Tensor> {
    values.into_iter().map(|d| Tensor::Eager(EagerTensor::new(d, device.name().clone()))).collect()
}

/// Eager dispatch of a structural op: the op itself is [`Structural::run`],
/// the same code the executor's node-runner calls; this side only turns
/// tensors into values and back, lets a `call` join the caller's stream,
/// and records on tapes.
fn execute_structural(
    kind: Structural,
    op: Op,
    inputs: &[Tensor],
    attrs: &Attrs,
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
    let mode = exec_mode();
    let mut enqueued = None;
    if kind == Structural::Call {
        let sim = sim();
        if let Some(cfg) = &sim {
            cfg.stats.count_function_call();
            cfg.stats.clock.advance(cfg.dispatch.function_call_ns);
            if device.device_type().requires_compilation() {
                // Round-trip launch of the compiled program (device stream).
                cfg.stats.device_clock.advance(cfg.dispatch.staged_call_latency_ns);
            }
        }
        // Staged calls join the caller's stream (§4.1): the graph run is
        // enqueued like any other op, so a train-step `Func` doesn't block
        // the input pipeline driving it. Output metadata comes from the
        // traced signature; calls whose output shapes weren't fully
        // inferred at trace time fall back to the blocking path.
        if async_dispatchable(&sim, &device, inputs) {
            let func = executor::callee(attrs, "function")?;
            let job_device = device.clone();
            enqueued = enqueue(
                Label::Call(func.name.clone()),
                &device,
                &func.output_sigs(),
                inputs,
                move |vals| executor::run_function_arc(&func, vals, &job_device, mode),
            )?;
        }
    } else if kind == Structural::Copy {
        let target = attrs.str("device").map_err(tfe_ops::OpError::from)?;
        device = device_manager().resolve(target).map_err(RuntimeError::Device)?;
    }
    let outputs = match enqueued {
        Some(pending) => pending,
        None => eager_tensors(kind.run(attrs, &eager_values(inputs)?, &device, mode)?, &device),
    };
    record_on_tapes(op, attrs, inputs, &outputs);
    Ok(outputs)
}
