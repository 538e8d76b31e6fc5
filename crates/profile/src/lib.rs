//! Op-level profiler for the tf-eager runtime: spans, instants and
//! counters collected across every execution layer (eager dispatch, the
//! trace cache, the graph executor, the worker pool, intra-op kernels).
//!
//! # Design
//!
//! - **Disabled cost is one relaxed atomic load per probe.** Every probe
//!   ([`span`], [`instant`], [`counter`]) starts with `ENABLED.load(Relaxed)`
//!   and returns immediately when profiling is off; name strings are built
//!   lazily behind that check, so an idle profiler never allocates.
//! - **One recorder, one buffer per thread.** Each probe builds one
//!   [`Event`] and hands it to the recording thread's buffer, under a lock
//!   only its owner takes while recording (a dump or [`stop`] takes it
//!   briefly to copy out). The buffer holds the profiling scope's events
//!   and the flight window: the last [`FLIGHT_RING_CAPACITY`]
//!   request-relevant events, oldest evicted first.
//! - **Scoped collection.** [`start`] clears the scope buffers and flips the
//!   enabled flag; [`stop`] flips it back and drains. Only one scope can be
//!   active at a time (the collector is process-wide).
//!
//! # Exports
//!
//! [`Profile::chrome_trace`] renders a chrome://tracing / Perfetto
//! compatible JSON timeline: one named row per thread (pool workers as
//! `pool-worker-{i}`, serve workers as `serve:{model}@v{n}`, grouped by
//! `thread_sort_index`), nested `X` duration events for eager dispatch →
//! graph functions → nodes → kernels → intra-op tiles, `i` instant events
//! for trace-cache misses and executor aborts, `C` counter events for
//! ready-queue depth and pool wait latency, and `s`/`t`/`f` flow events
//! linking each request's hops across thread rows (see
//! [`request_scope`]/[`adopt`]).
//! [`Profile::summary`] aggregates the spans into per-op
//! count/total/p50/p99 rows and bytes produced (event counts are the
//! metrics registry's);
//! [`Profile::trace_report`] splits one request's latency into
//! queue/concat/dispatch/split/kernel time.
//!
//! # Causal tracing and the flight recorder
//!
//! The [`trace`]-module primitives ([`TraceContext`], [`request_scope`],
//! [`adopt`]) attribute work to requests across thread hops, and the
//! always-on flight window keeps each thread's recent causally-relevant
//! events, which [`flight_dump`] snapshots to JSON when a failure fires.
//! The window is independent of the profiling scope: spans and instants
//! in request-relevant categories reach it even while `TFE_PROFILE`
//! collection is off.

mod flight;
mod trace;

pub use flight::{
    flight_dump, flight_enabled, flight_snapshot, recent_dumps, set_flight_enabled, FlightDump,
    FlightRecord, FLIGHT_DUMP_WINDOW_MS, FLIGHT_RING_CAPACITY, MAX_RECENT_DUMPS,
};
pub use trace::{
    adopt, adopt_remote, current_context, current_group, request_scope, AdoptScope, RequestScope,
    TraceContext, TraceGroup,
};

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the process-wide profiling epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether a profiling scope is active. One relaxed atomic load — this is
/// the entire per-op cost of a disabled profiler.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's recorder: its id and name, and what it has recorded.
struct ThreadBuf {
    tid: u64,
    name: String,
    events: Mutex<Events>,
}

#[derive(Default)]
struct Events {
    /// The profiling scope's events, drained by [`stop`].
    scope: Vec<Event>,
    /// The flight window: the last [`FLIGHT_RING_CAPACITY`] events the
    /// flight recorder wanted, oldest first.
    window: VecDeque<Event>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static R: std::sync::OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = std::sync::OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
}

/// Record one event into the calling thread's buffer: into the profiling
/// scope, the flight window, or both. A full window evicts its oldest
/// event; its storage is reserved once, on the thread's first flight event.
fn record(event: Event, to_profiler: bool, to_flight: bool) {
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current().name().unwrap_or("thread").to_string(),
                events: Mutex::default(),
            });
            lock(registry()).push(buf.clone());
            buf
        });
        let Events { scope, window } = &mut *lock(&buf.events);
        if to_flight {
            if to_profiler {
                scope.push(event.clone());
            }
            if window.len() == FLIGHT_RING_CAPACITY {
                window.pop_front();
            } else if window.capacity() == 0 {
                window.reserve_exact(FLIGHT_RING_CAPACITY);
            }
            window.push_back(event);
        } else if to_profiler {
            scope.push(event);
        }
    });
}

/// Begin a profiling scope: clear all per-thread scope buffers and enable
/// collection. Safe to call again after [`stop`].
pub fn start() {
    now_ns(); // pin the epoch before any event can be recorded
    for buf in lock(registry()).iter() {
        lock(&buf.events).scope.clear();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// End the profiling scope and merge every thread's events into a
/// [`Profile`]. Spans still open on other threads when `stop` is called
/// are dropped (their guards record after the drain and are cleared by the
/// next [`start`]).
pub fn stop() -> Profile {
    ENABLED.store(false, Ordering::SeqCst);
    let mut threads = Vec::new();
    for buf in lock(registry()).iter() {
        let events = std::mem::take(&mut lock(&buf.events).scope);
        if !events.is_empty() {
            threads.push(ThreadTrace { tid: buf.tid, name: buf.name.clone(), events });
        }
    }
    threads.sort_by_key(|t| t.tid);
    Profile { threads }
}

/// The `TFE_PROFILE` environment variable: the chrome-trace output path
/// that examples and benches use to opt into profiling.
pub fn env_trace_path() -> Option<String> {
    std::env::var("TFE_PROFILE").ok().filter(|p| !p.is_empty())
}

// ---------------------------------------------------------------------------
// Events and probes
// ---------------------------------------------------------------------------

/// One recorded event: what the profile holds, and what the flight window
/// holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Display name (op type, function name, `tile`, `idle`, ...). A flow
    /// event's name is its request kind (start, end) or its hop (step). A
    /// static name is carried as is, never copied.
    pub name: Cow<'static, str>,
    /// Event category: `eager`, `kernel`, `graph`, `node`, `trace`,
    /// `sched`, `pool`, `intra`, `flow`; `error` for a flight dump's fault.
    pub cat: &'static str,
    /// Timing payload.
    pub kind: EventKind,
    /// Optional extra context (e.g. the plan-level node label).
    pub detail: Option<String>,
    /// The `(trace_id, span_id)` of the request context installed on the
    /// recording thread when the probe fired, if any.
    pub trace: Option<(u64, u64)>,
}

/// The timing payload of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration on the recording thread's timeline.
    Span {
        /// Start, ns since the profiling epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
        /// Output bytes attributed to the span (0 when not applicable).
        bytes: u64,
    },
    /// A point-in-time marker (cache miss, abort).
    Instant {
        /// Timestamp, ns since the profiling epoch.
        ts_ns: u64,
    },
    /// A sampled value (queue depth, wait latency, tile count).
    Counter {
        /// Timestamp, ns since the profiling epoch.
        ts_ns: u64,
        /// Sampled value.
        value: u64,
    },
    /// A causal-flow phase (chrome-trace `s`/`t`/`f`) linking the hops of
    /// one request across thread rows.
    Flow {
        /// Timestamp, ns since the profiling epoch.
        ts_ns: u64,
        /// Start, step or end of the request's arc.
        phase: FlowPhase,
        /// The request's trace id (the flow binding key).
        id: u64,
    },
}

/// Which end of a causal arc a [`EventKind::Flow`] event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Request entered the system (`ph: "s"`).
    Start,
    /// Request adopted on another thread (`ph: "t"`).
    Step,
    /// Request completed (`ph: "f"`).
    End,
}

/// RAII guard for an open span; records on drop — into the profiling
/// scope, the flight window, or both, depending on which wanted it when
/// the span opened.
pub struct SpanGuard {
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    bytes: u64,
    detail: Option<String>,
    trace: Option<(u64, u64)>,
    to_profiler: bool,
    to_flight: bool,
}

impl SpanGuard {
    /// Attribute `bytes` of produced output to this span.
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Attach extra context (rendered under `args.detail` in the timeline).
    pub fn set_detail(&mut self, detail: String) {
        self.detail = Some(detail);
    }

    /// A profiler-only span with an explicit trace attribution (used by
    /// [`request_scope`] for the whole-request span, where the context is
    /// being created rather than read from the thread).
    pub(crate) fn open_profiler(
        cat: &'static str,
        name: String,
        trace: Option<(u64, u64)>,
    ) -> SpanGuard {
        SpanGuard {
            name: name.into(),
            cat,
            start_ns: now_ns(),
            bytes: 0,
            detail: None,
            trace,
            to_profiler: true,
            to_flight: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let event = Event {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            kind: EventKind::Span { start_ns: self.start_ns, dur_ns, bytes: self.bytes },
            detail: self.detail.take(),
            trace: self.trace,
        };
        record(event, self.to_profiler, self.to_flight);
    }
}

/// Open a span; `None` (at the cost of two relaxed loads) when neither
/// the profiler nor the flight recorder wants it. The name closure only
/// runs when some sink is live, and a `&'static str` name is not copied.
#[inline]
pub fn span<N: Into<Cow<'static, str>>>(
    cat: &'static str,
    name: impl FnOnce() -> N,
) -> Option<SpanGuard> {
    let to_profiler = enabled();
    let to_flight = flight::span_wants(cat);
    if !to_profiler && !to_flight {
        return None;
    }
    Some(SpanGuard {
        name: name().into(),
        cat,
        start_ns: now_ns(),
        bytes: 0,
        detail: None,
        trace: trace::current_pair(),
        to_profiler,
        to_flight,
    })
}

/// Record a span retroactively from a caller-captured start timestamp
/// (used for idle gaps, where the guard pattern does not fit).
#[inline]
pub fn span_from(cat: &'static str, name: impl FnOnce() -> String, start_ns: u64) {
    if !enabled() {
        return;
    }
    let dur_ns = now_ns().saturating_sub(start_ns);
    let kind = EventKind::Span { start_ns, dur_ns, bytes: 0 };
    let trace = trace::current_pair();
    record(Event { name: name().into(), cat, kind, detail: None, trace }, true, false);
}

/// Record an instant marker. The name closure only runs when the
/// profiler or the flight recorder wants it.
#[inline]
pub fn instant(cat: &'static str, name: impl FnOnce() -> String) {
    let to_profiler = enabled();
    let to_flight = flight::span_wants(cat);
    if !to_profiler && !to_flight {
        return;
    }
    let kind = EventKind::Instant { ts_ns: now_ns() };
    let trace = trace::current_pair();
    record(Event { name: name().into(), cat, kind, detail: None, trace }, to_profiler, to_flight);
}

/// Record a counter sample (profiler-only; counters carry no causal
/// attribution worth window space).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let kind = EventKind::Counter { ts_ns: now_ns(), value };
    record(Event { name: name.into(), cat, kind, detail: None, trace: None }, true, false);
}

// ---------------------------------------------------------------------------
// The collected profile
// ---------------------------------------------------------------------------

/// Events recorded by one thread, in recording order.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Stable per-thread id (chrome-trace `tid`).
    pub tid: u64,
    /// Raw thread name as spawned (e.g. `tfe-exec-{i}`); the exporter
    /// maps it to a role-based row name via [`display_thread_name`].
    pub name: String,
    /// Recorded events.
    pub events: Vec<Event>,
}

/// All events of one [`start`]/[`stop`] scope, grouped by thread.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One entry per thread that recorded anything.
    pub threads: Vec<ThreadTrace>,
}

impl Profile {
    /// Number of threads that recorded at least one event.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total span events across all threads.
    pub fn span_count(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .count()
    }

    /// Render the chrome://tracing JSON object (`{"traceEvents": [...]}`).
    /// Timestamps are microseconds as required by the trace-event format;
    /// span nesting falls out of `ts`/`dur` containment per thread row.
    /// Thread rows are named for their role ([`display_thread_name`]) and
    /// grouped front-door → serve → pool → dist via
    /// `thread_sort_index`; flow events share name `"request"`, category
    /// `"flow"` and `id = trace_id` so the viewer binds each request's
    /// `s`/`t`/`f` phases into one arc.
    pub fn chrome_trace(&self) -> tfe_encode::Value {
        use tfe_encode::Value;
        let us = |ns: u64| Value::Float(ns as f64 / 1e3);
        let mut events: Vec<Value> = Vec::new();
        events.push(Value::object([
            ("name".to_string(), Value::str("process_name")),
            ("ph".to_string(), Value::str("M")),
            ("pid".to_string(), Value::Int(1)),
            ("tid".to_string(), Value::Int(0)),
            ("args".to_string(), Value::object([("name".to_string(), Value::str("tf-eager"))])),
        ]));
        for t in &self.threads {
            events.push(Value::object([
                ("name".to_string(), Value::str("thread_name")),
                ("ph".to_string(), Value::str("M")),
                ("pid".to_string(), Value::Int(1)),
                ("tid".to_string(), Value::Int(t.tid as i64)),
                (
                    "args".to_string(),
                    Value::object([("name".to_string(), Value::str(display_thread_name(&t.name)))]),
                ),
            ]));
            events.push(Value::object([
                ("name".to_string(), Value::str("thread_sort_index")),
                ("ph".to_string(), Value::str("M")),
                ("pid".to_string(), Value::Int(1)),
                ("tid".to_string(), Value::Int(t.tid as i64)),
                (
                    "args".to_string(),
                    Value::object([(
                        "sort_index".to_string(),
                        Value::Int(thread_sort_index(&t.name)),
                    )]),
                ),
            ]));
            for e in &t.events {
                // Flow events share one name so the viewer binds each
                // request's phases into one arc; the event's own name (the
                // request kind or the hop) goes under `args.detail` when no
                // label took it.
                let (name, detail) = match e.kind {
                    EventKind::Flow { .. } => ("request", e.detail.as_deref().or(Some(&*e.name))),
                    _ => (&*e.name, e.detail.as_deref()),
                };
                let mut fields = vec![
                    ("name".to_string(), Value::str(name)),
                    ("cat".to_string(), Value::str(e.cat)),
                    ("pid".to_string(), Value::Int(1)),
                    ("tid".to_string(), Value::Int(t.tid as i64)),
                ];
                let mut args: Vec<(String, Value)> = Vec::new();
                if let Some(d) = detail {
                    args.push(("detail".to_string(), Value::str(d)));
                }
                if let Some((trace_id, span_id)) = e.trace {
                    args.push(("trace_id".to_string(), Value::Int(trace_id as i64)));
                    args.push(("span_id".to_string(), Value::Int(span_id as i64)));
                }
                match e.kind {
                    EventKind::Span { start_ns, dur_ns, bytes } => {
                        fields.push(("ph".to_string(), Value::str("X")));
                        fields.push(("ts".to_string(), us(start_ns)));
                        fields.push(("dur".to_string(), us(dur_ns)));
                        if bytes > 0 {
                            args.push(("bytes".to_string(), Value::Int(bytes as i64)));
                        }
                    }
                    EventKind::Instant { ts_ns } => {
                        fields.push(("ph".to_string(), Value::str("i")));
                        fields.push(("ts".to_string(), us(ts_ns)));
                        fields.push(("s".to_string(), Value::str("t")));
                    }
                    EventKind::Counter { ts_ns, value } => {
                        fields.push(("ph".to_string(), Value::str("C")));
                        fields.push(("ts".to_string(), us(ts_ns)));
                        args.push(("value".to_string(), Value::Int(value as i64)));
                    }
                    EventKind::Flow { ts_ns, phase, id } => {
                        let ph = match phase {
                            FlowPhase::Start => "s",
                            FlowPhase::Step => "t",
                            FlowPhase::End => "f",
                        };
                        fields.push(("ph".to_string(), Value::str(ph)));
                        fields.push(("ts".to_string(), us(ts_ns)));
                        fields.push(("id".to_string(), Value::Int(id as i64)));
                        if matches!(phase, FlowPhase::End) {
                            // Bind the finish to the enclosing slice so the
                            // arrow lands where the request actually ended.
                            fields.push(("bp".to_string(), Value::str("e")));
                        }
                    }
                }
                if !args.is_empty() {
                    fields.push(("args".to_string(), Value::object(args)));
                }
                events.push(Value::object(fields));
            }
        }
        tfe_encode::Value::object([
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::str("ms")),
        ])
    }

    /// Write [`Profile::chrome_trace`] as pretty JSON to `path`.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace().to_json_pretty())
    }

    /// Aggregate the spans into the per-op timing table.
    pub fn summary(&self) -> Summary {
        let mut by_op: std::collections::BTreeMap<(&'static str, &str), Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for e in self.threads.iter().flat_map(|t| &t.events) {
            // `node` spans duplicate the kernel spans nested inside them and
            // `graph`/`trace` spans cover whole functions; the per-op table
            // reads best from dispatch + kernel + intra rows, keyed by
            // category so names can collide.
            if let EventKind::Span { dur_ns, bytes, .. } = e.kind {
                if matches!(e.cat, "eager" | "kernel" | "intra") {
                    by_op.entry((e.cat, &e.name)).or_default().push((dur_ns, bytes));
                }
            }
        }
        let ops = by_op
            .into_iter()
            .map(|((cat, name), mut rows)| {
                rows.sort_unstable_by_key(|r| r.0);
                let count = rows.len() as u64;
                let total_ns: u64 = rows.iter().map(|r| r.0).sum();
                let bytes: u64 = rows.iter().map(|r| r.1).sum();
                let pct = |p: f64| rows[((rows.len() - 1) as f64 * p) as usize].0;
                let (p50_ns, p99_ns, name) = (pct(0.50), pct(0.99), name.to_string());
                OpStat { cat, name, count, total_ns, p50_ns, p99_ns, bytes }
            })
            .collect();
        Summary { ops }
    }

    /// Every trace id that appears in the profile, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match (e.trace, e.kind) {
                (Some((trace_id, _)), _) => Some(trace_id),
                (None, EventKind::Flow { id, .. }) => Some(id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Summarize one request: total latency split into queue, concat,
    /// dispatch, split and kernel time, plus how many threads and hops it
    /// crossed. `None` when the profile holds no events for `trace_id`.
    ///
    /// Batch-level serve spans are attributed to the batch's primary
    /// (oldest) member, so coalesced followers report their queue time
    /// but see the batch's execution phases only via the primary.
    pub fn trace_report(&self, trace_id: u64) -> Option<TraceReport> {
        let mut report = TraceReport { trace_id, ..TraceReport::default() };
        let mut min_ts = u64::MAX;
        let mut max_end = 0u64;
        let mut request_span: Option<(u64, u64)> = None;
        let mut first_work_ts = u64::MAX;
        let mut threads = std::collections::BTreeSet::new();
        for t in &self.threads {
            for e in &t.events {
                let matches_trace = match (e.trace, e.kind) {
                    (Some((id, _)), _) => id == trace_id,
                    (None, EventKind::Flow { id, .. }) => id == trace_id,
                    _ => false,
                };
                if !matches_trace {
                    continue;
                }
                report.events += 1;
                threads.insert(t.tid);
                match e.kind {
                    EventKind::Span { start_ns, dur_ns, .. } => {
                        min_ts = min_ts.min(start_ns);
                        max_end = max_end.max(start_ns + dur_ns);
                        match e.cat {
                            "request" => request_span = Some((start_ns, dur_ns)),
                            "kernel" => report.kernel_ns += dur_ns,
                            "serve" => {
                                first_work_ts = first_work_ts.min(start_ns);
                                match e.name.split(':').next().unwrap_or("") {
                                    "concat" => report.concat_ns += dur_ns,
                                    "dispatch" => report.dispatch_ns += dur_ns,
                                    "split" => report.split_ns += dur_ns,
                                    _ => {}
                                }
                            }
                            _ => first_work_ts = first_work_ts.min(start_ns),
                        }
                    }
                    EventKind::Instant { ts_ns } | EventKind::Counter { ts_ns, .. } => {
                        min_ts = min_ts.min(ts_ns);
                        max_end = max_end.max(ts_ns);
                    }
                    EventKind::Flow { ts_ns, phase, .. } => {
                        min_ts = min_ts.min(ts_ns);
                        max_end = max_end.max(ts_ns);
                        if phase == FlowPhase::Step {
                            report.hops += 1;
                        }
                    }
                }
            }
        }
        if report.events == 0 {
            return None;
        }
        report.threads = threads.len();
        report.total_ns = match request_span {
            Some((_, dur)) => dur,
            None => max_end.saturating_sub(min_ts),
        };
        let start = request_span.map_or(min_ts, |(s, _)| s);
        if first_work_ts != u64::MAX {
            report.queue_ns = first_work_ts.saturating_sub(start);
        }
        Some(report)
    }
}

/// The timeline row name for a recorded thread: runtime-internal names
/// are mapped to their role (`tfe-exec-3` → `pool-worker-3`,
/// `tfe-serve-mnist-v2` → `serve:mnist@v2`); everything else passes
/// through unchanged.
pub fn display_thread_name(name: &str) -> String {
    if let Some(idx) = name.strip_prefix("tfe-exec-") {
        return format!("pool-worker-{idx}");
    }
    if let Some(rest) = name.strip_prefix("tfe-serve-") {
        if let Some((model, version)) = rest.rsplit_once("-v") {
            return format!("serve:{model}@v{version}");
        }
    }
    name.to_string()
}

/// Chrome-trace `thread_sort_index` for a thread name: request order —
/// front-door threads first, then serve workers, pool workers, dist
/// workers — so a request's arc reads top to bottom.
pub fn thread_sort_index(name: &str) -> i64 {
    if name.starts_with("tfe-serve-") {
        10
    } else if name.starts_with("tfe-exec-") {
        30
    } else if name.starts_with("tfe-worker-") {
        40
    } else {
        0
    }
}

/// One request's latency decomposition (see [`Profile::trace_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// The request's trace id.
    pub trace_id: u64,
    /// End-to-end latency: the `request` span when present, else the
    /// envelope of all events carrying this trace id.
    pub total_ns: u64,
    /// Time from request start until the first work span (batcher pickup).
    pub queue_ns: u64,
    /// Serve-layer batch concat time.
    pub concat_ns: u64,
    /// Serve-layer staged-call dispatch time.
    pub dispatch_ns: u64,
    /// Serve-layer fan-out split time.
    pub split_ns: u64,
    /// Summed kernel span time attributed to this trace.
    pub kernel_ns: u64,
    /// Events recorded for this trace.
    pub events: usize,
    /// Distinct thread rows the trace touched.
    pub threads: usize,
    /// Cross-thread adoptions (flow steps).
    pub hops: usize,
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace {}: total {:.3} ms (queue {:.3} / concat {:.3} / dispatch {:.3} / split {:.3} / kernel {:.3}), {} events on {} threads, {} hops",
            self.trace_id,
            self.total_ns as f64 / 1e6,
            self.queue_ns as f64 / 1e6,
            self.concat_ns as f64 / 1e6,
            self.dispatch_ns as f64 / 1e6,
            self.split_ns as f64 / 1e6,
            self.kernel_ns as f64 / 1e6,
            self.events,
            self.threads,
            self.hops,
        )
    }
}

/// Aggregated timing for one op type (one summary row).
#[derive(Debug, Clone)]
pub struct OpStat {
    /// Originating category (`eager`, `kernel` or `intra`).
    pub cat: &'static str,
    /// Op or kernel name.
    pub name: String,
    /// Invocations recorded.
    pub count: u64,
    /// Summed wall-clock ns.
    pub total_ns: u64,
    /// Median span duration.
    pub p50_ns: u64,
    /// 99th-percentile span duration.
    pub p99_ns: u64,
    /// Output bytes attributed to these spans.
    pub bytes: u64,
}

/// The per-op timing table. Event counts (trace-cache hits and misses,
/// retraces, executor aborts) are the metrics registry's; the profile only
/// keeps their instants on the timeline.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Per-(category, op) rows, sorted by key.
    pub ops: Vec<OpStat>,
}

impl Summary {
    /// Total bytes across all rows.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes).sum()
    }

    /// Encode as JSON (embedded into bench reports).
    pub fn to_value(&self) -> tfe_encode::Value {
        use tfe_encode::Value;
        let rows = self
            .ops
            .iter()
            .map(|o| {
                Value::object([
                    ("cat".to_string(), Value::str(o.cat)),
                    ("op".to_string(), Value::str(o.name.clone())),
                    ("count".to_string(), Value::Int(o.count as i64)),
                    ("total_ns".to_string(), Value::Int(o.total_ns as i64)),
                    ("p50_ns".to_string(), Value::Int(o.p50_ns as i64)),
                    ("p99_ns".to_string(), Value::Int(o.p99_ns as i64)),
                    ("bytes".to_string(), Value::Int(o.bytes as i64)),
                ])
            })
            .collect();
        Value::object([
            ("ops".to_string(), Value::Array(rows)),
            ("total_bytes".to_string(), Value::Int(self.total_bytes() as i64)),
        ])
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<8} {:<22} {:>8} {:>12} {:>10} {:>10} {:>12}",
            "cat", "op", "count", "total ns", "p50 ns", "p99 ns", "bytes"
        )?;
        for o in &self.ops {
            writeln!(
                f,
                "{:<8} {:<22} {:>8} {:>12} {:>10} {:>10} {:>12}",
                o.cat, o.name, o.count, o.total_ns, o.p50_ns, o.p99_ns, o.bytes
            )?;
        }
        Ok(())
    }
}

// The collector and the flight recorder are process-wide, so every test
// that flips the enabled flags (here or in the trace/flight submodules)
// runs under this lock to avoid cross-test interference.
#[cfg(test)]
pub(crate) fn test_scope_lock() -> &'static Mutex<()> {
    static L: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_lock() -> &'static Mutex<()> {
        test_scope_lock()
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let ran = std::cell::Cell::new(false);
        let sp = span("kernel", || {
            ran.set(true);
            "nope".to_string()
        });
        assert!(sp.is_none());
        assert!(!ran.get(), "name closure must not run when disabled");
        instant("trace", || {
            ran.set(true);
            "nope".to_string()
        });
        counter("sched", "depth", 3);
        assert!(!ran.get());
    }

    #[test]
    fn span_collection_and_summary() {
        let _g = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
        start();
        {
            let mut sp = span("kernel", || "matmul".to_string()).unwrap();
            sp.set_bytes(1024);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _sp = span("kernel", || "matmul".to_string()).unwrap();
        }
        instant("trace", || "cache_miss".to_string());
        instant("trace", || "cache_hit".to_string());
        instant("trace", || "cache_hit".to_string());
        let profile = stop();
        assert!(profile.thread_count() >= 1);
        assert!(profile.span_count() >= 2);
        let summary = profile.summary();
        let row = summary
            .ops
            .iter()
            .find(|o| o.name == "matmul" && o.cat == "kernel")
            .expect("matmul row");
        assert_eq!(row.count, 2);
        assert!(row.total_ns >= 1_000_000, "slept 1ms inside the span");
        assert_eq!(row.bytes, 1024);
        assert!(row.p50_ns <= row.p99_ns);
        // The instants stay on the timeline; they make no summary row.
        let instants = profile.threads.iter().flat_map(|t| &t.events);
        assert_eq!(instants.filter(|e| matches!(e.kind, EventKind::Instant { .. })).count(), 3);
        assert!(summary.ops.iter().all(|o| o.cat != "trace"));
    }

    #[test]
    fn multi_thread_events_land_on_separate_rows() {
        let _g = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
        start();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("prof-test-{i}"))
                    .spawn(move || {
                        let _sp = span("kernel", || format!("op{i}"));
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let profile = stop();
        let rows: Vec<&str> = profile
            .threads
            .iter()
            .filter(|t| t.name.starts_with("prof-test-"))
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(rows.len(), 3, "one timeline row per recording thread: {rows:?}");
    }

    #[test]
    fn chrome_trace_shape_and_roundtrip() {
        let _g = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
        start();
        {
            let _outer = span("graph", || "f".to_string());
            let _inner = span("kernel", || "add".to_string());
        }
        instant("sched", || "abort".to_string());
        counter("sched", "ready_queue_depth", 7);
        let profile = stop();
        let json = profile.chrome_trace().to_json_pretty();
        let parsed = tfe_encode::Value::parse(&json).expect("chrome trace JSON must parse");
        let events = parsed.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
        // Metadata row naming the thread, two X spans, one instant, one counter.
        assert!(events.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(|p| p.as_str())).collect();
        assert!(phases.iter().filter(|p| **p == "X").count() >= 2);
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        // Spans nest: the graph span contains the kernel span in time.
        let x: Vec<(f64, f64, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| {
                (
                    e.get("ts").and_then(|v| v.as_f64()).unwrap(),
                    e.get("dur").and_then(|v| v.as_f64()).unwrap(),
                    e.get("name").and_then(|v| v.as_str()).unwrap(),
                )
            })
            .collect();
        let outer = x.iter().find(|e| e.2 == "f").unwrap();
        let inner = x.iter().find(|e| e.2 == "add").unwrap();
        assert!(inner.0 >= outer.0 && inner.0 + inner.1 <= outer.0 + outer.1 + 1e-6);
    }

    #[test]
    fn restart_clears_previous_scope() {
        let _g = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
        start();
        let _ = span("kernel", || "stale".to_string());
        let _ = stop();
        start();
        let profile = stop();
        assert_eq!(profile.span_count(), 0, "second scope must start empty");
    }
}
