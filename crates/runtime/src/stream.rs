//! Per-device asynchronous dispatch streams (§4.1, §6 "Imperative
//! performance").
//!
//! In async eager mode the dispatcher does not run kernels on the calling
//! thread: it validates and shape-infers the op synchronously, returns
//! handles whose payloads are *pending* [`PendingValue`] slots, and appends
//! the kernel invocation to the [`DeviceStream`] of the resolved device. A
//! stream executes its ops strictly in enqueue order on a dedicated
//! dispatch thread (one per device, spawned lazily, parked when idle);
//! kernels launched from the stream still fan their tiles out over the
//! shared `tfe-parallel` worker pool, so intra-op parallelism is unchanged.
//! Running the stream on its own thread rather than as a pool job keeps
//! the work-helping waiters deadlock-free: a pool waiter may steal bounded
//! tiles and graph nodes, but never an unbounded stream drainer.
//!
//! Ordering means sync mode and async mode execute the same kernels over
//! the same operands in the same program order, so results are bitwise
//! identical; the only thing that moves is *which thread* runs the kernel
//! and *when* the caller learns about failures.
//!
//! ## Deferred errors
//!
//! A kernel failure on the stream is captured in stream order: the first
//! failure poisons the stream ([`RuntimeError::Deferred`] with the
//! originating op name), every op already queued behind it is failed with
//! a clone of the same error without running, and the poison is surfaced —
//! exactly once — at the next sync point: a read of a failed handle, an
//! explicit `context::sync`, an `async_scope` exit, or the next enqueue
//! (which fails fast and clears the poison so the stream is usable again).
//! This mirrors the first-error-wins semantics of the parallel graph
//! executor.

use crate::error::{Result, RuntimeError};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use tfe_device::DeviceName;
use tfe_tensor::{AsyncSlot, DType, Shape, TensorData};

/// A slot error: the stream sequence number of the op whose failure
/// poisoned the stream, plus the deferred error itself. The sequence lets
/// a reader that observes the error clear exactly that poison.
type SlotError = (u64, RuntimeError);

/// The payload of a pending eager tensor: metadata known at enqueue time
/// plus the write-once value slot resolved by the dispatch stream.
pub(crate) struct PendingValue {
    /// Element dtype, inferred synchronously at enqueue.
    pub(crate) dtype: DType,
    /// Concrete shape, inferred synchronously at enqueue.
    pub(crate) shape: Shape,
    /// Request context of the enqueuing thread, captured at enqueue time
    /// so a pending handle stays attributable to its request (visible in
    /// `Debug` output and post-mortem dumps).
    trace: Option<tfe_profile::TraceContext>,
    slot: AsyncSlot<Arc<TensorData>, SlotError>,
    stream: Arc<DeviceStream>,
}

impl PendingValue {
    /// The resolved value if the producing op already completed. `None`
    /// while in flight; a resolved failure reports (and clears) the
    /// stream's poison like `wait_value`.
    pub(crate) fn try_value(&self) -> Option<Result<Arc<TensorData>>> {
        self.slot.try_get().map(|r| self.surface(r))
    }

    /// Block until the producing op completes; a failure observed here is
    /// a sync point, so the matching stream poison is cleared.
    pub(crate) fn wait_value(&self) -> Result<Arc<TensorData>> {
        let r = self.slot.wait();
        self.surface(r)
    }

    /// Whether the producing op is still in flight.
    pub(crate) fn is_pending(&self) -> bool {
        !self.slot.is_resolved()
    }

    fn surface(&self, r: Result<Arc<TensorData>, SlotError>) -> Result<Arc<TensorData>> {
        r.map_err(|(origin, err)| {
            self.stream.observe(origin);
            err
        })
    }
}

impl std::fmt::Debug for PendingValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot.try_get() {
            None => match self.trace {
                Some(t) => {
                    write!(f, "<pending {}{} trace={}>", self.dtype, self.shape, t.trace_id)
                }
                None => write!(f, "<pending {}{}>", self.dtype, self.shape),
            },
            Some(Ok(d)) => write!(f, "{d:?}"),
            Some(Err((_, e))) => write!(f, "<failed: {e}>"),
        }
    }
}

/// An input captured at enqueue time: either an already-materialized value
/// or a pending handle the job resolves when it runs. Pending inputs from
/// the *same* stream are always resolved by then (FIFO order); inputs from
/// another device's stream are waited on, which is cycle-free because
/// dependencies always point at earlier-issued ops.
pub(crate) enum AsyncArg {
    Ready(Arc<TensorData>),
    Pending(Arc<PendingValue>),
}

impl AsyncArg {
    /// Materialize the value inside a stream job. Errors propagate as-is:
    /// an upstream `Deferred` stays attributed to its originating op.
    pub(crate) fn resolve(&self) -> Result<Arc<TensorData>> {
        match self {
            AsyncArg::Ready(d) => Ok(d.clone()),
            // Not a user-facing sync point: surfacing (and poison
            // clearing) happens on the consuming op's own stream.
            AsyncArg::Pending(pv) => pv.slot.wait().map_err(|(_, e)| e),
        }
    }
}

/// What a stream op is called in spans, deferred errors and post-mortems.
pub(crate) enum Label {
    /// A primitive op.
    Op(tfe_ops::Op),
    /// A staged call, by callee.
    Call(String),
    /// A handle held behind the calls queued ahead of it
    /// ([`DeviceStream::park`]).
    Park,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Op(op) => f.write_str(op.name()),
            Label::Call(callee) => write!(f, "call:{callee}"),
            Label::Park => f.write_str("park"),
        }
    }
}

/// The kernel invocation a stream op defers.
type StreamJob = Box<dyn FnOnce() -> Result<Vec<Arc<TensorData>>> + Send>;

struct StreamOp {
    seq: u64,
    op: Label,
    job: StreamJob,
    outputs: Vec<Arc<PendingValue>>,
    /// Trace group of the enqueuing thread; the dispatch thread adopts it
    /// while the op runs so kernels and downstream pool jobs stay
    /// attributed to the originating request(s).
    group: Option<tfe_profile::TraceGroup>,
}

struct Poison {
    /// Sequence number of the op whose failure set the poison.
    seq: u64,
    error: RuntimeError,
}

struct StreamShared {
    queue: VecDeque<StreamOp>,
    /// Monotone count of enqueued ops.
    issued: u64,
    /// Monotone count of finished ops (run, skipped, or stolen).
    completed: u64,
    /// First unobserved deferred error, in stream order.
    poisoned: Option<Poison>,
    /// Whether the dispatch thread has been spawned.
    running: bool,
}

/// One ordered asynchronous dispatch stream per device.
pub(crate) struct DeviceStream {
    device: DeviceName,
    shared: Mutex<StreamShared>,
    /// Signals both directions: enqueue → dispatch thread (new work) and
    /// dispatch thread → waiters (op completed / stream drained).
    cv: Condvar,
}

fn queue_depth_gauge() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!(
        "tfe_async_queue_depth",
        "Ops currently enqueued on async dispatch streams and not yet completed"
    )
}

impl DeviceStream {
    fn new(device: DeviceName) -> DeviceStream {
        DeviceStream {
            device,
            shared: Mutex::new(StreamShared {
                queue: VecDeque::new(),
                issued: 0,
                completed: 0,
                poisoned: None,
                running: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Create a pending output handle bound to this stream.
    pub(crate) fn pending_value(self: &Arc<Self>, dtype: DType, shape: Shape) -> Arc<PendingValue> {
        Arc::new(PendingValue {
            dtype,
            shape,
            trace: tfe_profile::current_context(),
            slot: AsyncSlot::new(),
            stream: self.clone(),
        })
    }

    /// Append an op to the stream. Fails fast — without enqueueing — when
    /// the stream is poisoned, surfacing (and clearing) the deferred error.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        op: Label,
        outputs: Vec<Arc<PendingValue>>,
        job: StreamJob,
    ) -> Result<()> {
        {
            let mut s = self.shared.lock();
            if s.poisoned.is_some() {
                drop(s);
                // The fast-fail is itself a sync point: the error is
                // consumed here and the stream is clean afterwards.
                return Err(self
                    .clear_poison(None)
                    .expect("poison observed under lock cannot vanish before clear"));
            }
            self.push(&mut s, op, outputs, job);
        }
        tfe_metrics::static_counter!(
            "tfe_async_ops_enqueued_total",
            "Operations enqueued on async dispatch streams"
        )
        .inc();
        let depth = queue_depth_gauge().add_and_get(1);
        tfe_metrics::static_gauge!(
            "tfe_async_queue_depth_peak",
            "High-water mark of tfe_async_queue_depth"
        )
        .set_max(depth);
        self.cv.notify_all();
        Ok(())
    }

    /// Append to the queue, starting the dispatch thread on first use.
    fn push(
        self: &Arc<Self>,
        s: &mut StreamShared,
        op: Label,
        outputs: Vec<Arc<PendingValue>>,
        job: StreamJob,
    ) {
        s.issued += 1;
        let seq = s.issued;
        s.queue.push_back(StreamOp { seq, op, job, outputs, group: tfe_profile::current_group() });
        if !s.running {
            s.running = true;
            let stream = self.clone();
            static STREAM_NO: std::sync::atomic::AtomicUsize =
                std::sync::atomic::AtomicUsize::new(0);
            let n = STREAM_NO.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("tfe-stream-{n}"))
                .spawn(move || dispatch_loop(stream))
                .expect("spawn async dispatch stream thread");
        }
    }

    /// Hold `owner` until everything enqueued so far has finished: a job
    /// that does nothing but drop it, in stream order. A queued staged call
    /// holds only its outer graph and resolves the names inside it when it
    /// runs, so whatever owns those names must outlive it. `owner` may thus
    /// die on the dispatch thread (or, skipped behind a poison, on whichever
    /// thread clears it): its `Drop` must never sync or drain.
    pub(crate) fn park(self: &Arc<Self>, owner: crate::context::Owner) {
        {
            let mut s = self.shared.lock();
            if s.completed == s.issued {
                return; // nothing ahead: `owner` drops here, after the guard
            }
            let job = move || {
                drop(owner);
                Ok(Vec::new())
            };
            self.push(&mut s, Label::Park, Vec::new(), Box::new(job));
        }
        queue_depth_gauge().inc();
        self.cv.notify_all();
    }

    /// Block until every enqueued op has completed. Does *not* consume the
    /// stream's deferred error — used by value peeks that must not swallow
    /// failures destined for the next real sync point.
    pub(crate) fn drain(&self) {
        let mut s = self.shared.lock();
        while s.completed < s.issued {
            self.cv.wait(&mut s);
        }
    }

    /// Take the deferred error, if any, failing everything still queued
    /// behind it. The stream is clean (and usable) afterwards.
    pub(crate) fn take_error(&self) -> Option<RuntimeError> {
        self.clear_poison(None)
    }

    /// A reader surfaced the error of the op at `origin`; clear the poison
    /// it set, if still set. A *different* (newer) poison stays.
    fn observe(&self, origin: u64) {
        self.clear_poison(Some(origin));
    }

    /// Whether any enqueued op has not completed yet.
    pub(crate) fn has_inflight(&self) -> bool {
        let s = self.shared.lock();
        s.completed < s.issued
    }

    fn clear_poison(&self, origin: Option<u64>) -> Option<RuntimeError> {
        let (poison, stolen) = {
            let mut s = self.shared.lock();
            match &s.poisoned {
                Some(p) if origin.is_none() || origin == Some(p.seq) => {}
                _ => return None,
            }
            let poison = s.poisoned.take().expect("checked above");
            // Everything still queued could only observe this same error;
            // fail it now so the cleared stream restarts from an empty
            // queue instead of running ops against failed inputs.
            let stolen: Vec<StreamOp> = s.queue.drain(..).collect();
            s.completed += stolen.len() as u64;
            (poison, stolen)
        };
        if !stolen.is_empty() {
            queue_depth_gauge().sub(stolen.len() as i64);
        }
        for op in &stolen {
            for pv in &op.outputs {
                pv.slot.fail((poison.seq, poison.error.clone()));
            }
        }
        self.cv.notify_all();
        Some(poison.error)
    }

    /// The device this stream serializes.
    pub(crate) fn device(&self) -> &DeviceName {
        &self.device
    }
}

/// Wrap a synchronous failure as a deferred error naming `op`; an error
/// that is already deferred (a failed upstream input) passes through so it
/// keeps naming the op whose kernel originally failed.
fn deferred(op: &Label, e: RuntimeError) -> RuntimeError {
    match e {
        RuntimeError::Deferred { .. } => e,
        other => RuntimeError::Deferred { op: op.to_string(), source: Box::new(other) },
    }
}

fn dispatch_loop(stream: Arc<DeviceStream>) {
    // Nested eager execution on this thread (host closures inside staged
    // calls, gradient math, …) must run synchronously: re-enqueueing onto
    // the very stream this thread drains would deadlock behind the op
    // currently executing.
    crate::context::disable_async_on_thread();
    loop {
        let (op, skip) = {
            let mut s = stream.shared.lock();
            loop {
                if let Some(op) = s.queue.pop_front() {
                    // Capture the skip decision under the same lock as the
                    // pop so a racing poison-clear cannot split them.
                    let skip = s.poisoned.as_ref().map(|p| (p.seq, p.error.clone()));
                    break (op, skip);
                }
                stream.cv.wait(&mut s);
            }
        };
        // Adopt the enqueuing request's context for the whole op — the
        // kernel span, any pool jobs it spawns, and the poison marker all
        // land on the originating trace.
        let _trace = tfe_profile::adopt(op.group.as_ref(), "stream");
        let result: Result<Vec<Arc<TensorData>>, SlotError> = match skip {
            // Poisoned: fail without running, attributed to the original op.
            Some((origin, err)) => Err((origin, err)),
            None => {
                let mut span = tfe_profile::span("async_op", || op.op.to_string());
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (op.job)()));
                match run {
                    Ok(Ok(vals)) => {
                        if let Some(sp) = span.as_mut() {
                            let bytes: u64 = vals
                                .iter()
                                .map(|d| (d.num_elements() * d.dtype().size_bytes()) as u64)
                                .sum();
                            sp.set_bytes(bytes);
                        }
                        Ok(vals)
                    }
                    Ok(Err(e)) => Err((op.seq, deferred(&op.op, e))),
                    Err(_) => Err((
                        op.seq,
                        deferred(
                            &op.op,
                            RuntimeError::Internal(format!(
                                "async op `{}` panicked on stream {}",
                                op.op,
                                stream.device()
                            )),
                        ),
                    )),
                }
            }
        };
        match result {
            Ok(vals) => {
                debug_assert_eq!(vals.len(), op.outputs.len(), "op `{}` output arity", op.op);
                for (pv, v) in op.outputs.iter().zip(vals) {
                    pv.slot.fulfill(v);
                }
            }
            Err((origin, err)) => {
                let newly_poisoned = {
                    let mut s = stream.shared.lock();
                    // First error wins; a skip propagating the existing
                    // poison never overwrites it (same origin anyway).
                    if s.poisoned.is_none() {
                        s.poisoned = Some(Poison { seq: origin, error: err.clone() });
                        tfe_metrics::static_counter!(
                            "tfe_async_deferred_errors_total",
                            "Kernel failures captured on async dispatch streams"
                        )
                        .inc();
                        tfe_profile::instant("stream", || format!("poison:{}:{err}", op.op));
                        true
                    } else {
                        false
                    }
                };
                if newly_poisoned {
                    // Post-mortem: the deferred error will only surface at
                    // some later sync point, so capture the causal history
                    // now, while it is still in the flight rings.
                    let trace_id =
                        op.group.as_ref().map(|g| g.primary().trace_id).unwrap_or_default();
                    tfe_profile::flight_dump("deferred_error", &op.op.to_string(), trace_id);
                }
                for pv in &op.outputs {
                    pv.slot.fail((origin, err.clone()));
                }
            }
        }
        {
            let mut s = stream.shared.lock();
            s.completed += 1;
        }
        queue_depth_gauge().sub(1);
        stream.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Stream registry
// ---------------------------------------------------------------------------

fn registry() -> &'static RwLock<HashMap<String, Arc<DeviceStream>>> {
    static R: std::sync::OnceLock<RwLock<HashMap<String, Arc<DeviceStream>>>> =
        std::sync::OnceLock::new();
    R.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The dispatch stream of `device`, created on first use.
pub(crate) fn for_device(device: &DeviceName) -> Arc<DeviceStream> {
    let key = device.to_string();
    if let Some(s) = registry().read().get(&key) {
        return s.clone();
    }
    let mut w = registry().write();
    w.entry(key).or_insert_with(|| Arc::new(DeviceStream::new(device.clone()))).clone()
}

/// Every stream created so far (sync points walk all of them).
pub(crate) fn all() -> Vec<Arc<DeviceStream>> {
    registry().read().values().cloned().collect()
}
