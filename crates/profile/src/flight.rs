//! Always-on flight recorder: a bounded window of each thread's recent
//! span/instant/hop events that can be dumped to JSON the moment
//! something goes wrong — a typed serve error, a poisoned batch, a
//! latency-budget breach — so production failures are diagnosable *after
//! the fact* without rerunning under `TFE_PROFILE`.
//!
//! # Design
//!
//! The window is part of the profiler's per-thread buffer (`ThreadBuf`
//! in the crate root): the last [`FLIGHT_RING_CAPACITY`] [`Event`]s the
//! recorder wanted, oldest evicted first, kept under the same lock the
//! owner takes to record a profiling event. An event is built once and
//! lands in the profile, the window, or both; a request start or end and
//! a hop are flow events, a dump's fault is an instant in category
//! `error`. A dump takes each thread's lock in turn while it copies that
//! thread's window out.
//!
//! The recorder is on by default (`TFE_FLIGHT_RECORDER=0` disables it);
//! the disabled path is a single relaxed load, budgeted at < 5 ns over
//! doing nothing — same contract as the metrics registry, asserted by the
//! `observability_smoke` CI gate. Dumps are kept in an in-process ring of
//! the last [`MAX_RECENT_DUMPS`] (see [`recent_dumps`]) and, when
//! `TFE_FLIGHT_DUMP` names a path prefix, written to
//! `{prefix}-{seq}.json` at most once per 100 ms.

use crate::{lock, now_ns, record, registry, Event, EventKind, FlowPhase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tfe_encode::Value;

/// Events each thread's flight window keeps.
pub const FLIGHT_RING_CAPACITY: usize = 256;
/// How far back a dump reaches, in milliseconds.
pub const FLIGHT_DUMP_WINDOW_MS: u64 = 250;
/// How many dumps [`recent_dumps`] retains.
pub const MAX_RECENT_DUMPS: usize = 8;

// ---------------------------------------------------------------------------
// Enablement: 0 = off, 1 = on, 2 = unresolved (read TFE_FLIGHT_RECORDER once).
// ---------------------------------------------------------------------------

static MODE: AtomicU8 = AtomicU8::new(2);

/// Is the flight recorder on? One relaxed load on the steady state.
#[inline]
pub fn flight_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => true,
        0 => false,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> bool {
    let on = std::env::var("TFE_FLIGHT_RECORDER").map(|v| v != "0").unwrap_or(true);
    MODE.store(u8::from(on), Ordering::Relaxed);
    on
}

/// Force the recorder on or off (benchmarks measuring the disabled path,
/// tests pinning dump behavior). Normal operation leaves it alone.
pub fn set_flight_enabled(on: bool) {
    MODE.store(u8::from(on), Ordering::Relaxed);
}

/// Does the flight recorder want a span/instant of this category right
/// now? True only when the recorder is on, the category is
/// causally-relevant (per-request layers — not per-node/per-tile hot
/// paths), and a trace context is installed on this thread.
#[inline]
pub(crate) fn span_wants(cat: &str) -> bool {
    flight_enabled() && cat_wants(cat) && crate::trace::has_current()
}

fn cat_wants(cat: &str) -> bool {
    matches!(cat, "serve" | "request" | "trace" | "graph" | "eager" | "sched" | "dist")
}

// ---------------------------------------------------------------------------
// Snapshots and dumps
// ---------------------------------------------------------------------------

/// One flight-recorder record: an event from a thread's window, and the
/// thread that recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// The recording thread's id (its chrome-trace `tid`).
    pub tid: u64,
    /// The recording thread's name as spawned.
    pub thread: String,
    /// The event, as the profile would hold it.
    pub event: Event,
}

impl FlightRecord {
    /// `span`, `instant`, `hop`, `request_start`, `request_end`, `error`.
    pub fn kind(&self) -> &'static str {
        match self.event.kind {
            EventKind::Span { .. } => "span",
            EventKind::Instant { .. } if self.event.cat == "error" => "error",
            EventKind::Instant { .. } | EventKind::Counter { .. } => "instant",
            EventKind::Flow { phase: FlowPhase::Start, .. } => "request_start",
            EventKind::Flow { phase: FlowPhase::Step, .. } => "hop",
            EventKind::Flow { phase: FlowPhase::End, .. } => "request_end",
        }
    }

    /// When the record was made: a span's close, any other event's time.
    pub fn ts_ns(&self) -> u64 {
        recorded_at(&self.event)
    }

    /// A span's duration; 0 for anything else.
    pub fn dur_ns(&self) -> u64 {
        match self.event.kind {
            EventKind::Span { dur_ns, .. } => dur_ns,
            _ => 0,
        }
    }

    /// The request the event belongs to; 0 when none.
    pub fn trace_id(&self) -> u64 {
        self.event.trace.map_or(0, |(trace_id, _)| trace_id)
    }

    /// The hop within the request; 0 when none.
    pub fn span_id(&self) -> u64 {
        self.event.trace.map_or(0, |(_, span_id)| span_id)
    }
}

fn recorded_at(event: &Event) -> u64 {
    match event.kind {
        EventKind::Span { start_ns, dur_ns, .. } => start_ns + dur_ns,
        EventKind::Instant { ts_ns }
        | EventKind::Counter { ts_ns, .. }
        | EventKind::Flow { ts_ns, .. } => ts_ns,
    }
}

/// Copy the last `window_ns` of history out of every thread's window,
/// sorted by [`FlightRecord::ts_ns`]. Each thread's lock is held while its
/// window (at most [`FLIGHT_RING_CAPACITY`] events) is copied.
pub fn flight_snapshot(window_ns: u64) -> Vec<FlightRecord> {
    let cutoff = now_ns().saturating_sub(window_ns);
    let mut out = Vec::new();
    for buf in lock(registry()).iter() {
        for event in lock(&buf.events).window.iter().filter(|e| recorded_at(e) >= cutoff) {
            out.push(FlightRecord { tid: buf.tid, thread: buf.name.clone(), event: event.clone() });
        }
    }
    out.sort_by_key(FlightRecord::ts_ns);
    out
}

/// A post-mortem dump: why it fired, the faulting op, the trace it
/// belongs to, and the recent causally-relevant history.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// `batch_poisoned`, `batch_panic`, `budget_breach`, ...
    pub reason: String,
    /// The failing op (or model label when no op is known).
    pub op: String,
    /// Trace id of the affected request; 0 when no context was active.
    pub trace_id: u64,
    pub at_ns: u64,
    pub window_ns: u64,
    pub records: Vec<FlightRecord>,
}

impl FlightDump {
    /// The dump as a JSON value.
    pub fn to_value(&self) -> Value {
        let field = |k: &str, v: Value| (k.to_string(), v);
        Value::object(vec![
            field("reason", Value::str(self.reason.clone())),
            field("op", Value::str(self.op.clone())),
            field("trace_id", Value::Int(self.trace_id as i64)),
            field("at_ns", Value::Int(self.at_ns as i64)),
            field("window_ns", Value::Int(self.window_ns as i64)),
            field(
                "records",
                Value::Array(
                    self.records
                        .iter()
                        .map(|r| {
                            Value::object(vec![
                                field("ts_ns", Value::Int(r.ts_ns() as i64)),
                                field("dur_ns", Value::Int(r.dur_ns() as i64)),
                                field("trace_id", Value::Int(r.trace_id() as i64)),
                                field("span_id", Value::Int(r.span_id() as i64)),
                                field("kind", Value::str(r.kind())),
                                field("name", Value::str(&*r.event.name)),
                                field("tid", Value::Int(r.tid as i64)),
                                field("thread", Value::str(r.thread.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn recent() -> &'static Mutex<VecDeque<Arc<FlightDump>>> {
    static RECENT: OnceLock<Mutex<VecDeque<Arc<FlightDump>>>> = OnceLock::new();
    RECENT.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Capture a dump: record the error itself into the caller's window, then
/// snapshot the last [`FLIGHT_DUMP_WINDOW_MS`] across all windows. The dump
/// is retained in memory (see [`recent_dumps`]) and written to disk when
/// `TFE_FLIGHT_DUMP` is set. Returns `None` when the recorder is off.
pub fn flight_dump(reason: &str, op: &str, trace_id: u64) -> Option<Arc<FlightDump>> {
    if !flight_enabled() {
        return None;
    }
    let error = Event {
        name: op.to_string().into(),
        cat: "error",
        kind: EventKind::Instant { ts_ns: now_ns() },
        detail: None,
        trace: Some((trace_id, 0)),
    };
    record(error, false, true);
    let window_ns = FLIGHT_DUMP_WINDOW_MS * 1_000_000;
    let dump = Arc::new(FlightDump {
        reason: reason.to_string(),
        op: op.to_string(),
        trace_id,
        at_ns: now_ns(),
        window_ns,
        records: flight_snapshot(window_ns),
    });
    {
        let mut recent = lock(recent());
        recent.push_back(dump.clone());
        while recent.len() > MAX_RECENT_DUMPS {
            recent.pop_front();
        }
    }
    maybe_write_file(&dump);
    Some(dump)
}

/// The last [`MAX_RECENT_DUMPS`] dumps, oldest first.
pub fn recent_dumps() -> Vec<Arc<FlightDump>> {
    lock(recent()).iter().cloned().collect()
}

/// When `TFE_FLIGHT_DUMP={prefix}` is set, write `{prefix}-{seq}.json`,
/// rate-limited to one file per 100 ms so an error storm can't turn the
/// recorder into a disk-bandwidth incident.
fn maybe_write_file(dump: &FlightDump) {
    let Ok(prefix) = std::env::var("TFE_FLIGHT_DUMP") else { return };
    if prefix.is_empty() {
        return;
    }
    static LAST_WRITE_NS: AtomicU64 = AtomicU64::new(0);
    static FILE_SEQ: AtomicU64 = AtomicU64::new(0);
    // `now_ns` is relative to the process's first clock read, so `now` can
    // itself be < 100 ms early in the process; 0 means "never written" and
    // must not suppress the first dump.
    let now = now_ns().max(1);
    let last = LAST_WRITE_NS.load(Ordering::Relaxed);
    if (last != 0 && now.saturating_sub(last) < 100_000_000)
        || LAST_WRITE_NS.compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed).is_err()
    {
        return;
    }
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("{prefix}-{seq}.json");
    if let Err(err) = std::fs::write(&path, dump.to_value().to_json_pretty()) {
        eprintln!("tfe-profile: failed to write flight dump {path}: {err}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{request_scope, trace};
    use std::borrow::Cow;

    fn instant_event(name: impl Into<Cow<'static, str>>, trace_id: u64) -> Event {
        Event {
            name: name.into(),
            cat: "serve",
            kind: EventKind::Instant { ts_ns: now_ns() },
            detail: None,
            trace: Some((trace_id, trace_id)),
        }
    }

    /// Record `events` into a fresh thread's window, and return what a
    /// snapshot then holds for that thread.
    fn window_of(thread: &str, events: Vec<Event>) -> Vec<FlightRecord> {
        std::thread::Builder::new()
            .name(thread.to_string())
            .spawn(move || events.into_iter().for_each(|e| record(e, false, true)))
            .unwrap()
            .join()
            .unwrap();
        flight_snapshot(u64::MAX).into_iter().filter(|r| r.thread == thread).collect()
    }

    #[test]
    fn window_evicts_oldest_first_in_order() {
        let total = FLIGHT_RING_CAPACITY * 2 + 17;
        let events = (0..total).map(|i| instant_event(format!("rec:{i}"), i as u64 + 1)).collect();
        let survivors: Vec<u64> =
            window_of("window-wrap-test", events).iter().map(FlightRecord::trace_id).collect();
        // Exactly the newest `capacity` records survive, in write order.
        let expected: Vec<u64> =
            (total - FLIGHT_RING_CAPACITY..total).map(|i| i as u64 + 1).collect();
        assert_eq!(survivors, expected, "oldest records must be evicted in order");
    }

    #[test]
    fn long_name_is_kept_whole() {
        let long = "x".repeat(100);
        let mut span = instant_event(long.clone(), 7);
        span.kind =
            EventKind::Span { start_ns: now_ns().saturating_sub(1234), dur_ns: 1234, bytes: 0 };
        let records = window_of("window-name-test", vec![span, instant_event("short", 8)]);
        assert_eq!(records.len(), 2);
        assert_eq!((&*records[0].event.name, records[0].kind()), (long.as_str(), "span"));
        assert_eq!(records[0].dur_ns(), 1234);
        assert_eq!((&*records[1].event.name, records[1].kind()), ("short", "instant"));
    }

    #[test]
    fn concurrent_records_and_dumps_lose_nothing() {
        // Writers fill their windows while readers snapshot: every snapshot
        // sees each writer's window as a contiguous run of its ids, and at
        // the end each window holds exactly its writer's last events.
        const WRITES: u64 = 50_000;
        let names: Vec<String> = (0..3).map(|w| format!("window-race-{w}")).collect();
        let writers: Vec<_> = names
            .iter()
            .map(|name| {
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(|| {
                        (1..=WRITES).for_each(|i| record(instant_event("race", i), false, true))
                    })
                    .unwrap()
            })
            .collect();
        let contiguous = |records: &[FlightRecord], name: &str| {
            let ids: Vec<u64> =
                records.iter().filter(|r| r.thread == name).map(FlightRecord::trace_id).collect();
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{name}: gap in {ids:?}");
            ids
        };
        while writers.iter().any(|w| !w.is_finished()) {
            let snapshot = flight_snapshot(u64::MAX);
            names.iter().for_each(|name| drop(contiguous(&snapshot, name)));
        }
        writers.into_iter().for_each(|w| w.join().unwrap());
        let snapshot = flight_snapshot(u64::MAX);
        let last: Vec<u64> = (WRITES - FLIGHT_RING_CAPACITY as u64 + 1..=WRITES).collect();
        for name in &names {
            assert_eq!(contiguous(&snapshot, name), last, "{name}: window lost events");
        }
    }

    #[test]
    fn window_holds_the_events_the_profile_holds_for_a_trace() {
        let _g = lock(crate::test_scope_lock());
        set_flight_enabled(true);
        crate::start();
        let trace_id = {
            let scope = request_scope("serve", || "same-events".to_string()).unwrap();
            drop(crate::span("serve", || "dispatch:same-events"));
            crate::instant("serve", || "enqueue:same-events".to_string());
            let group = trace::current_group();
            std::thread::spawn(move || drop(crate::adopt(group.as_ref(), "worker")))
                .join()
                .unwrap();
            scope.trace_id()
        };
        let profile = crate::stop();
        let mut held: Vec<(u64, Event)> = profile
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (t.tid, e.clone())))
            .filter(|(_, e)| e.trace.map(|t| t.0) == Some(trace_id) && e.cat != "request")
            .collect();
        let mut window: Vec<(u64, Event)> = flight_snapshot(u64::MAX)
            .into_iter()
            .filter(|r| r.trace_id() == trace_id)
            .map(|r| (r.tid, r.event))
            .collect();
        let key = |(tid, e): &(u64, Event)| (recorded_at(e), *tid);
        held.sort_by_key(key);
        window.sort_by_key(key);
        let kinds: Vec<&str> = window.iter().map(|(_, e)| &*e.name).collect();
        assert_eq!(
            kinds,
            ["serve", "dispatch:same-events", "enqueue:same-events", "worker", "serve"],
            "start, span, instant, hop, end"
        );
        assert_eq!(window, held, "one event, recorded once, in both");
    }

    #[test]
    fn dump_names_op_and_trace_and_contains_history() {
        let _g = lock(crate::test_scope_lock());
        set_flight_enabled(true);
        let scope = request_scope("serve", || "dump-test".to_string()).unwrap();
        let trace_id = scope.trace_id();
        crate::instant("serve", || "enqueue:dump-test".to_string());
        let dump = flight_dump("batch_poisoned", "matmul", trace_id).expect("recorder on");
        drop(scope);
        assert_eq!(dump.reason, "batch_poisoned");
        assert_eq!(dump.op, "matmul");
        assert_eq!(dump.trace_id, trace_id);
        assert!(
            dump.records.iter().any(|r| r.trace_id() == trace_id && r.kind() == "error"),
            "dump must contain the error record: {:?}",
            dump.records
        );
        assert!(
            dump.records
                .iter()
                .any(|r| r.trace_id() == trace_id && r.event.name.starts_with("enqueue")),
            "dump must contain the request's recent history: {:?}",
            dump.records
        );
        let last = recent_dumps().pop().expect("dump retained");
        assert_eq!(last.trace_id, trace_id);
        // And it serializes, with a request start named for its kind.
        let json = dump.to_value().to_json_pretty();
        let parsed = tfe_encode::Value::parse(&json).expect("dump JSON parses");
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("batch_poisoned"));
        let records = parsed.get("records").and_then(|v| v.as_array()).unwrap();
        assert!(records.iter().any(|r| {
            r.get("kind").and_then(|v| v.as_str()) == Some("request_start")
                && r.get("name").and_then(|v| v.as_str()) == Some("serve")
                && r.get("trace_id").and_then(|v| v.as_i64()) == Some(trace_id as i64)
        }));
    }

    #[test]
    fn disabled_recorder_dumps_nothing() {
        let _g = lock(crate::test_scope_lock());
        set_flight_enabled(false);
        assert!(flight_dump("budget_breach", "noop", 1).is_none());
        set_flight_enabled(true);
    }
}
