//! Per-model adaptive micro-batcher.
//!
//! One worker thread per registered model version pulls queued requests and
//! coalesces them along the leading (batch) dimension into a single staged
//! call — the LazyTensor idea applied at the request boundary: defer a
//! little, then dispatch a lot. A batch closes when either
//!
//! - the coalesced row count reaches [`BatchPolicy::max_batch`], or
//! - waiting any longer would breach the *oldest* member's latency budget,
//!   where "any longer" accounts for an EWMA of observed staged-call time
//!   (the batcher closes early when the model itself is slow).
//!
//! Fan-in uses `concat` on every argument position, fan-out `split` (uniform
//! member rows) or `slice` (mixed row counts, including zero-row members).
//! A poisoned batch fails every member with [`ServeError::Batch`] naming the
//! faulting op — requests never hang on a dead batch.

use crate::error::{fault_op, ServeError};
use crate::metrics::ModelMetrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tfe_core::Func;
use tfe_parallel::lock;
use tfe_runtime::{api, context, RuntimeError, Tensor};
use tfe_state::saved::LoadedFunction;
use tfe_tensor::TensorError;

/// Batching policy for one model.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Close the batch once this many rows are coalesced.
    pub max_batch: usize,
    /// Per-request latency budget; the batch closes early enough that the
    /// oldest member can still make it, given current execution-time
    /// estimates.
    pub budget: Duration,
}

/// Weight of the newest observation in the staged-call-time EWMA.
const EWMA_ALPHA: f64 = 0.25;

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy { max_batch: 32, budget: Duration::from_millis(5) }
    }
}

/// Something the registry can serve: an imported bundle or a live staged
/// function.
///
/// For batching to generalize across batch sizes, the underlying trace must
/// have a dynamic leading dimension — export bundles from a
/// `Func::with_input_signature` trace with `None` in position 0, or serve a
/// `Func` carrying such a signature directly (each new batch size then
/// retraces once and lands in the trace cache).
pub enum Servable {
    /// An imported SavedFunction bundle (fixed concrete graph).
    Loaded(Arc<LoadedFunction>),
    /// A live polymorphic function; specializes per batch shape through the
    /// trace cache.
    Staged(Func),
}

impl Servable {
    /// Declared argument count, when known.
    pub fn num_args(&self) -> Option<usize> {
        match self {
            Servable::Loaded(f) => Some(f.num_args()),
            Servable::Staged(_) => None,
        }
    }

    /// Name used in error attribution and profiler spans.
    pub fn label(&self) -> String {
        match self {
            Servable::Loaded(f) => f.entry_name().to_string(),
            Servable::Staged(f) => f.name().to_string(),
        }
    }

    fn call(&self, args: &[&Tensor]) -> Result<Vec<Tensor>, RuntimeError> {
        match self {
            Servable::Loaded(f) => f.call(args),
            Servable::Staged(f) => f.call_tensors(args),
        }
    }
}

impl From<LoadedFunction> for Servable {
    fn from(f: LoadedFunction) -> Servable {
        Servable::Loaded(Arc::new(f))
    }
}

impl From<Arc<LoadedFunction>> for Servable {
    fn from(f: Arc<LoadedFunction>) -> Servable {
        Servable::Loaded(f)
    }
}

impl From<Func> for Servable {
    fn from(f: Func) -> Servable {
        Servable::Staged(f)
    }
}

/// One queued request plus the slot its caller is parked on.
struct Pending {
    inputs: Vec<Tensor>,
    rows: usize,
    enqueued: Instant,
    slot: Arc<Slot>,
    /// The caller's request context: the worker adopts the whole batch's
    /// contexts during fan-in/dispatch/fan-out so every member's causal
    /// arc follows the batch across threads.
    trace: Option<tfe_profile::TraceContext>,
}

/// Rendezvous between a waiting caller and the batcher worker.
struct Slot {
    result: Mutex<Option<Result<Vec<Tensor>, ServeError>>>,
    cv: Condvar,
}

impl Slot {
    fn deliver(&self, r: Result<Vec<Tensor>, ServeError>) {
        *lock(&self.result) = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Vec<Tensor>, ServeError> {
        let mut guard = lock(&self.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// One registered model version: the servable, its queue, and the worker
/// thread batching it.
pub struct Model {
    name: String,
    version: u64,
    servable: Servable,
    policy: BatchPolicy,
    queue: Mutex<Queue>,
    cv: Condvar,
    /// EWMA of staged-call time in ns; written only by the worker.
    ewma_ns: AtomicU64,
    pub(crate) metrics: ModelMetrics,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Model {
    /// Create the model and start its batcher worker.
    pub(crate) fn start(
        name: &str,
        version: u64,
        servable: Servable,
        policy: BatchPolicy,
    ) -> Arc<Model> {
        let model = Arc::new(Model {
            name: name.to_string(),
            version,
            servable,
            policy,
            queue: Mutex::new(Queue { pending: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            ewma_ns: AtomicU64::new(0),
            metrics: ModelMetrics::resolve(&format!("{name}@v{version}")),
            worker: Mutex::new(None),
        });
        // The worker holds only a `Weak`, upgraded once per turn: dropping
        // the last external `Arc<Model>` actually runs `Drop` (which shuts
        // the worker down) instead of a strong worker ref keeping a parked
        // thread and the model alive forever.
        let weak = Arc::downgrade(&model);
        // The executor mode is thread-local; a fresh worker thread would
        // silently fall back to the serial default regardless of how the
        // deployment configured execution. Inherit the registrar's mode.
        let exec_mode = context::exec_mode();
        let handle = std::thread::Builder::new()
            .name(format!("tfe-serve-{name}-v{version}"))
            .spawn(move || {
                context::set_exec_mode(exec_mode);
                loop {
                    let Some(model) = weak.upgrade() else { return };
                    if !model.worker_turn() {
                        return;
                    }
                }
            })
            .expect("spawn batcher worker");
        *lock(&model.worker) = Some(handle);
        model
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Model version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current EWMA estimate of staged-call time.
    pub fn estimated_exec(&self) -> Duration {
        Duration::from_nanos(self.ewma_ns.load(Ordering::Relaxed))
    }

    /// Validate and enqueue one request, then park until its batch resolves.
    pub(crate) fn infer(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>, ServeError> {
        self.metrics.requests.inc();
        // Request root: one trace id for the whole front-door lifetime —
        // enqueue, the parked wait, and the latency accounting. The worker
        // picks the context up from the queue slot, so the batch's spans on
        // other threads link back here.
        let root = tfe_profile::request_scope("serve", || {
            format!("request:{}@v{}", self.name, self.version)
        });
        let trace = root.as_ref().map(|r| r.context());
        self.validate(inputs).inspect_err(|_| self.metrics.errors.inc())?;
        let rows = inputs[0].shape().map(|s| s.dim(0)).unwrap_or(0);
        let slot = Arc::new(Slot { result: Mutex::new(None), cv: Condvar::new() });
        let enqueued = Instant::now();
        tfe_profile::instant("serve", || format!("enqueue:{}@v{}", self.name, self.version));
        {
            let mut q = lock(&self.queue);
            if q.shutdown {
                self.metrics.errors.inc();
                return Err(ServeError::Shutdown { model: self.name.clone() });
            }
            q.pending.push_back(Pending {
                inputs: inputs.iter().map(|&t| t.clone()).collect(),
                rows,
                enqueued,
                slot: Arc::clone(&slot),
                trace,
            });
            self.metrics.queue_depth.set(q.pending.len() as i64);
        }
        self.cv.notify_all();
        let result = slot.wait();
        let latency = enqueued.elapsed();
        self.metrics.request_latency_ns.observe(latency.as_nanos() as u64);
        if latency > self.policy.budget {
            self.metrics.budget_breaches.inc();
            tfe_profile::flight_dump(
                "budget_breach",
                &format!("{}@v{}", self.name, self.version),
                trace.map(|t| t.trace_id).unwrap_or_default(),
            );
        }
        if result.is_err() {
            self.metrics.errors.inc();
        }
        result
    }

    fn validate(&self, inputs: &[&Tensor]) -> Result<(), ServeError> {
        if inputs.is_empty() {
            return Err(ServeError::BadRequest("request carries no inputs".to_string()));
        }
        if let Some(n) = self.servable.num_args() {
            if inputs.len() != n {
                return Err(ServeError::BadRequest(format!(
                    "model `{}` takes {n} inputs, request has {}",
                    self.name,
                    inputs.len()
                )));
            }
        }
        let mut rows = None;
        for (i, t) in inputs.iter().enumerate() {
            let shape = t.shape().map_err(|e| ServeError::BadRequest(format!("input {i}: {e}")))?;
            if shape.rank() == 0 {
                return Err(ServeError::BadRequest(format!(
                    "input {i} is a scalar; batched serving needs a leading batch dimension"
                )));
            }
            let d0 = shape.dim(0);
            if *rows.get_or_insert(d0) != d0 {
                return Err(ServeError::BadRequest(format!(
                    "input {i} has {d0} rows, earlier inputs have {}",
                    rows.unwrap_or(0)
                )));
            }
        }
        Ok(())
    }

    /// Stop the worker and fail everything still queued. Idempotent.
    pub(crate) fn shutdown(&self) {
        let drained: Vec<Pending> = {
            let mut q = lock(&self.queue);
            q.shutdown = true;
            q.pending.drain(..).collect()
        };
        self.cv.notify_all();
        for p in drained {
            // No `errors` bump here: every drained request has a caller
            // parked in `infer`, which counts the Err when it observes it.
            p.slot.deliver(Err(ServeError::Shutdown { model: self.name.clone() }));
        }
        self.metrics.queue_depth.set(0);
        let handle = lock(&self.worker).take();
        if let Some(h) = handle {
            // The worker owns an Arc<Model>; if it drops the last reference
            // as it exits, this runs *on* the worker thread — never
            // self-join.
            if h.thread().id() != std::thread::current().id() {
                h.join().ok();
            }
        }
    }

    /// One batcher turn: park for work, close one batch adaptively, run it.
    /// Returns `false` once the model is shut down. Idle parks are bounded
    /// so the worker's entry loop can drop its strong reference between
    /// turns and re-check liveness through its `Weak`.
    fn worker_turn(&self) -> bool {
        const IDLE_RECHECK: Duration = Duration::from_millis(50);
        let members = {
            let mut q = lock(&self.queue);
            // Park until there is work (or shutdown, or an idle heartbeat).
            loop {
                if q.shutdown {
                    return false;
                }
                if !q.pending.is_empty() {
                    break;
                }
                let (guard, wait) =
                    self.cv.wait_timeout(q, IDLE_RECHECK).unwrap_or_else(PoisonError::into_inner);
                q = guard;
                if wait.timed_out() && q.pending.is_empty() {
                    // Still idle: end the turn so the entry loop releases
                    // its Arc and the model can be dropped.
                    return !q.shutdown;
                }
            }
            // Adaptive close: wait for more members until the batch is
            // full or the oldest member's budget (minus the current
            // execution-time estimate) would be breached.
            loop {
                let rows: usize = q.pending.iter().map(|p| p.rows).sum();
                if rows >= self.policy.max_batch {
                    break;
                }
                let est = Duration::from_nanos(self.ewma_ns.load(Ordering::Relaxed));
                let oldest = q.pending.front().expect("non-empty queue").enqueued;
                let deadline = oldest + self.policy.budget.saturating_sub(est);
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, wait) =
                    self.cv.wait_timeout(q, deadline - now).unwrap_or_else(PoisonError::into_inner);
                q = guard;
                if q.shutdown {
                    return false;
                }
                if wait.timed_out() {
                    break;
                }
            }
            // Close the batch: take members until the row cap, but only
            // while the arity matches the batch head — the fan-in concats
            // argument position `a` across every member, so a mixed-arity
            // batch would index out of bounds. A `Staged` servable declares
            // no arity for the front door to check; a wrong-arity request
            // instead ships as its own batch and observes the servable's
            // typed arity error. Zero-row members always fit; at least one
            // member always ships.
            let mut taken: Vec<Pending> = Vec::new();
            let mut rows = 0usize;
            while let Some(front) = q.pending.front() {
                if !taken.is_empty()
                    && (rows + front.rows > self.policy.max_batch
                        || front.inputs.len() != taken[0].inputs.len())
                {
                    break;
                }
                let p = q.pending.pop_front().expect("front exists");
                rows += p.rows;
                taken.push(p);
            }
            self.metrics.queue_depth.set(q.pending.len() as i64);
            taken
        };
        self.execute_batch(members);
        true
    }

    fn execute_batch(&self, members: Vec<Pending>) {
        let total_rows: usize = members.iter().map(|p| p.rows).sum();
        self.metrics.batches.inc();
        self.metrics.batch_rows.observe(total_rows as u64);
        // Fan-in of the causal arcs: adopt every member's context for the
        // whole batch (one flow step per member lands on this worker row),
        // so concat/dispatch/split and the pool work they fan out
        // stay linked to each coalesced request.
        let group = tfe_profile::TraceGroup::of(members.iter().filter_map(|p| p.trace).collect());
        let _trace = tfe_profile::adopt(group.as_ref(), "batcher");
        let _span = tfe_profile::span("serve", || {
            format!("batch:{}@v{}:{}x{}rows", self.name, self.version, members.len(), total_rows)
        });
        let started = Instant::now();
        // A panic anywhere in fan-in/dispatch/fan-out must not kill the
        // worker: parked callers would hang forever and every later request
        // would enqueue into a dead queue. Catch the unwind and fail the
        // batch instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_batch(&members, total_rows)
        }));
        let exec_ns = started.elapsed().as_nanos() as u64;
        self.metrics.batch_exec_ns.observe(exec_ns);
        // EWMA update (worker is the only writer; a plain store is enough).
        let prev = self.ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            exec_ns
        } else {
            (EWMA_ALPHA * exec_ns as f64 + (1.0 - EWMA_ALPHA) * prev as f64) as u64
        };
        self.ewma_ns.store(next, Ordering::Relaxed);

        match result {
            Ok(Ok(mut per_member)) => {
                // Deliver back-to-front so we can pop without shifting.
                for p in members.iter().rev() {
                    let outs = per_member.pop().expect("one result per member");
                    p.slot.deliver(Ok(outs));
                }
            }
            Ok(Err(e)) => {
                let op = fault_op(&e, &self.servable.label());
                // Post-mortem before fan-out: the batch is poisoned, dump
                // the recent causal history naming the failing op and the
                // primary (oldest) member's trace id.
                tfe_profile::flight_dump(
                    "batch_poisoned",
                    &op,
                    group.as_ref().map(|g| g.primary().trace_id).unwrap_or_default(),
                );
                for p in &members {
                    p.slot.deliver(Err(ServeError::Batch { op: op.clone(), source: e.clone() }));
                }
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                tfe_profile::flight_dump(
                    "batch_panic",
                    &self.servable.label(),
                    group.as_ref().map(|g| g.primary().trace_id).unwrap_or_default(),
                );
                for p in &members {
                    p.slot.deliver(Err(ServeError::Panic {
                        model: self.name.clone(),
                        message: message.clone(),
                    }));
                }
            }
        }
    }

    fn run_batch(
        &self,
        members: &[Pending],
        total_rows: usize,
    ) -> Result<Vec<Vec<Tensor>>, RuntimeError> {
        // Single member: the batch *is* the request; skip fan-in/fan-out.
        if members.len() == 1 {
            let args: Vec<&Tensor> = members[0].inputs.iter().collect();
            return Ok(vec![self.servable.call(&args)?]);
        }
        let n_args = members[0].inputs.len();
        let batched: Vec<Tensor> = {
            let _s = tfe_profile::span("serve", || "concat");
            (0..n_args)
                .map(|a| {
                    let parts: Vec<&Tensor> = members.iter().map(|m| &m.inputs[a]).collect();
                    api::concat(&parts, 0)
                })
                .collect::<Result<_, _>>()?
        };
        let args: Vec<&Tensor> = batched.iter().collect();
        let outs = {
            let _s = tfe_profile::span("serve", || format!("dispatch:{}", self.servable.label()));
            self.servable.call(&args)?
        };
        // Fan out: every output must carry the coalesced batch dimension.
        let _s = tfe_profile::span("serve", || "split");
        for (i, out) in outs.iter().enumerate() {
            let shape = out.shape()?;
            if shape.rank() == 0 || shape.dim(0) != total_rows {
                return Err(TensorError::ShapeMismatch {
                    expected: format!(
                        "output {i} of `{}` to carry the batch dimension ({total_rows} rows)",
                        self.servable.label()
                    ),
                    got: shape,
                }
                .into());
            }
        }
        let uniform = members.iter().all(|m| m.rows == members[0].rows);
        let mut per_member: Vec<Vec<Tensor>> = members.iter().map(|_| Vec::new()).collect();
        for out in &outs {
            if uniform && members[0].rows > 0 {
                for (m, part) in api::split(out, members.len(), 0)?.into_iter().enumerate() {
                    per_member[m].push(part);
                }
            } else {
                // Mixed row counts (incl. zero-row members): slice each
                // member's row range.
                let rank = out.shape()?.rank();
                let dims = out.shape()?.dims().to_vec();
                let mut offset = 0usize;
                for (m, member) in members.iter().enumerate() {
                    let mut begin = vec![0i64; rank];
                    let mut size: Vec<i64> = dims.iter().map(|&d| d as i64).collect();
                    begin[0] = offset as i64;
                    size[0] = member.rows as i64;
                    per_member[m].push(api::slice(out, &begin, &size)?);
                    offset += member.rows;
                }
            }
        }
        Ok(per_member)
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        // Normally shut down by the registry (shutdown is idempotent).
        // Because the worker holds only a `Weak` between turns, this also
        // genuinely fires — and reaps the worker — when the last external
        // `Arc<Model>` is dropped without a registry.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_core::function1;

    /// Dropping the last external `Arc<Model>` must reap the model and its
    /// worker thread: the worker holds only a `Weak` between turns, so the
    /// `Drop` impl can actually run.
    #[test]
    fn dropping_last_arc_reaps_model() {
        let f = function1("serve_drop_reap", api::relu);
        let m = Model::start("drop_reap", 1, Servable::Staged(f), BatchPolicy::default());
        let w = Arc::downgrade(&m);
        drop(m);
        let deadline = Instant::now() + Duration::from_secs(10);
        while w.upgrade().is_some() {
            assert!(Instant::now() < deadline, "Model leaked after the last external Arc drop");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
