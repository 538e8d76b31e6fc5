//! Always-on flight recorder: a fixed-size lock-free per-thread ring of
//! recent span/instant/hop records that can be dumped to JSON the moment
//! something goes wrong — a typed serve error, a poisoned batch, a
//! latency-budget breach — so production failures are diagnosable *after
//! the fact* without rerunning under `TFE_PROFILE`.
//!
//! # Design
//!
//! Each thread owns one [`FLIGHT_RING_CAPACITY`]-slot ring (compile-time
//! bounded, ~10 KiB). Slots are seqlocks: a per-slot sequence word is
//! bumped to odd before the (relaxed, word-sized atomic) payload stores
//! and to even after, so the owner thread writes without ever taking a
//! lock and a dumping thread detects torn reads by re-checking the
//! sequence. Names are truncated to 32 bytes — enough for `op:detail`
//! shapes, and what keeps a record exactly 12 words. The global registry
//! mutex is touched once per thread (registration) and during dumps,
//! never on the record path.
//!
//! The recorder is on by default (`TFE_FLIGHT_RECORDER=0` disables it);
//! the disabled path is a single relaxed load, budgeted at < 5 ns over
//! doing nothing — same contract as the metrics registry, asserted by the
//! `trace_smoke` CI gate. Dumps are kept in an in-process ring of the
//! last [`MAX_RECENT_DUMPS`] (see [`recent_dumps`]) and, when
//! `TFE_FLIGHT_DUMP` names a path prefix, written to
//! `{prefix}-{seq}.json` at most once per 100 ms.

use crate::trace::TraceContext;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use tfe_encode::Value;

/// Slots per thread-local ring. Power of two so the index wrap is a mask.
pub const FLIGHT_RING_CAPACITY: usize = 256;
/// How far back a dump reaches, in milliseconds.
pub const FLIGHT_DUMP_WINDOW_MS: u64 = 250;
/// How many dumps [`recent_dumps`] retains.
pub const MAX_RECENT_DUMPS: usize = 8;

const NAME_BYTES: usize = 32;
const NAME_WORDS: usize = NAME_BYTES / 8;
/// ts, trace, span, packed(kind|len|dur), name words.
const SLOT_WORDS: usize = 4 + NAME_WORDS;

/// What a record marks. Stored in the low byte of the packed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Kind {
    Span = 1,
    Instant = 2,
    Hop = 3,
    RequestStart = 4,
    RequestEnd = 5,
    Error = 6,
}

fn kind_name(kind: u64) -> &'static str {
    match kind {
        1 => "span",
        2 => "instant",
        3 => "hop",
        4 => "request_start",
        5 => "request_end",
        6 => "error",
        _ => "unknown",
    }
}

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

// ---------------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------------

struct Slot {
    /// Seqlock word: odd while the owner is writing, bumped by two per write.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

struct Ring {
    tid: u64,
    thread: String,
    /// Count of records ever written; slot index is `head % capacity`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64, thread: String) -> Ring {
        let slots = (0..FLIGHT_RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Ring { tid, thread, head: AtomicU64::new(0), slots }
    }

    /// Owner-thread-only write: claim the next slot, mark it odd, store the
    /// payload, mark it even, publish the new head. Never blocks, never
    /// allocates.
    fn push(&self, kind: Kind, name: &str, ctx: TraceContext, dur_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (FLIGHT_RING_CAPACITY - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);

        let bytes = name.as_bytes();
        let len = bytes.len().min(NAME_BYTES);
        let packed = (kind as u64) | ((len as u64) << 8) | (dur_ns.min((1 << 48) - 1) << 16);
        slot.words[0].store(crate::now_ns(), Ordering::Relaxed);
        slot.words[1].store(ctx.trace_id, Ordering::Relaxed);
        slot.words[2].store(ctx.span_id, Ordering::Relaxed);
        slot.words[3].store(packed, Ordering::Relaxed);
        for w in 0..NAME_WORDS {
            let mut word = [0u8; 8];
            let lo = w * 8;
            if lo < len {
                let hi = (lo + 8).min(len);
                word[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            slot.words[4 + w].store(u64::from_le_bytes(word), Ordering::Relaxed);
        }

        slot.seq.store(seq + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Cross-thread read of one slot; `None` when the read tore (the owner
    /// overwrote it mid-copy — the dumper just skips that record).
    fn read(&self, index: u64) -> Option<[u64; SLOT_WORDS]> {
        let slot = &self.slots[(index as usize) & (FLIGHT_RING_CAPACITY - 1)];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq & 1 == 1 {
            return None;
        }
        let mut words = [0u64; SLOT_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = slot.words[i].load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq {
            return None;
        }
        Some(words)
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: OnceLock<Arc<Ring>> = const { OnceLock::new() };
}

static NEXT_RING_TID: AtomicU64 = AtomicU64::new(1);

/// Record one event into the calling thread's ring. Callers have already
/// checked [`flight_enabled`].
pub(crate) fn record(kind: Kind, name: &str, ctx: TraceContext, dur_ns: u64) {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring::new(
                NEXT_RING_TID.fetch_add(1, Ordering::Relaxed),
                std::thread::current().name().unwrap_or("unnamed").to_string(),
            ));
            rings().lock().push(ring.clone());
            ring
        });
        ring.push(kind, name, ctx, dur_ns);
    });
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

/// One decoded flight-recorder record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub trace_id: u64,
    pub span_id: u64,
    /// `span`, `instant`, `hop`, `request_start`, `request_end`, `error`.
    pub kind: &'static str,
    /// Event name, truncated to 32 bytes at record time.
    pub name: String,
    pub tid: u64,
    pub thread: String,
}

/// Decode the last `window_ns` of history from every thread's ring,
/// sorted by timestamp. Torn slots (overwritten mid-read) are skipped;
/// the writers are never blocked or delayed.
pub fn flight_snapshot(window_ns: u64) -> Vec<FlightRecord> {
    let cutoff = crate::now_ns().saturating_sub(window_ns);
    let mut out = Vec::new();
    for ring in rings().lock().iter() {
        let head = ring.head.load(Ordering::Acquire);
        let n = head.min(FLIGHT_RING_CAPACITY as u64);
        for index in head - n..head {
            let Some(words) = ring.read(index) else { continue };
            let ts_ns = words[0];
            if ts_ns < cutoff {
                continue;
            }
            let packed = words[3];
            let len = ((packed >> 8) & 0xff) as usize;
            let mut bytes = [0u8; NAME_BYTES];
            for w in 0..NAME_WORDS {
                bytes[w * 8..w * 8 + 8].copy_from_slice(&words[4 + w].to_le_bytes());
            }
            out.push(FlightRecord {
                ts_ns,
                dur_ns: packed >> 16,
                trace_id: words[1],
                span_id: words[2],
                kind: kind_name(packed & 0xff),
                name: String::from_utf8_lossy(&bytes[..len.min(NAME_BYTES)]).into_owned(),
                tid: ring.tid,
                thread: ring.thread.clone(),
            });
        }
    }
    out.sort_by_key(|r| r.ts_ns);
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
                                field("ts_ns", Value::Int(r.ts_ns as i64)),
                                field("dur_ns", Value::Int(r.dur_ns as i64)),
                                field("trace_id", Value::Int(r.trace_id as i64)),
                                field("span_id", Value::Int(r.span_id as i64)),
                                field("kind", Value::str(r.kind)),
                                field("name", Value::str(r.name.clone())),
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

/// Capture a dump: record the error itself into the caller's ring, then
/// snapshot the last [`FLIGHT_DUMP_WINDOW_MS`] across all rings. The dump
/// is retained in memory (see [`recent_dumps`]) and written to disk when
/// `TFE_FLIGHT_DUMP` is set. Returns `None` when the recorder is off.
pub fn flight_dump(reason: &str, op: &str, trace_id: u64) -> Option<Arc<FlightDump>> {
    if !flight_enabled() {
        return None;
    }
    record(Kind::Error, op, TraceContext { trace_id, span_id: 0 }, 0);
    let window_ns = FLIGHT_DUMP_WINDOW_MS * 1_000_000;
    let dump = Arc::new(FlightDump {
        reason: reason.to_string(),
        op: op.to_string(),
        trace_id,
        at_ns: crate::now_ns(),
        window_ns,
        records: flight_snapshot(window_ns),
    });
    {
        let mut recent = recent().lock();
        recent.push_back(dump.clone());
        while recent.len() > MAX_RECENT_DUMPS {
            recent.pop_front();
        }
    }
    maybe_write_file(&dump);
    Some(dump)
}

/// The most recent dump, if any.
pub fn last_dump() -> Option<Arc<FlightDump>> {
    recent().lock().back().cloned()
}

/// The last [`MAX_RECENT_DUMPS`] dumps, oldest first.
pub fn recent_dumps() -> Vec<Arc<FlightDump>> {
    recent().lock().iter().cloned().collect()
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
    let now = crate::now_ns().max(1);
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

    fn ctx(trace_id: u64) -> TraceContext {
        TraceContext { trace_id, span_id: trace_id }
    }

    #[test]
    fn ring_wraparound_evicts_oldest_in_order() {
        let ring = Ring::new(9000, "wrap-test".to_string());
        let total = FLIGHT_RING_CAPACITY * 2 + 17;
        for i in 0..total {
            ring.push(Kind::Instant, &format!("rec:{i}"), ctx(i as u64 + 1), 0);
        }
        let head = ring.head.load(Ordering::Relaxed);
        assert_eq!(head, total as u64);
        // Exactly the newest `capacity` records survive, in write order.
        let survivors: Vec<u64> = (head - FLIGHT_RING_CAPACITY as u64..head)
            .map(|i| ring.read(i).expect("no concurrent writer, reads never tear")[1])
            .collect();
        let expected: Vec<u64> =
            (total - FLIGHT_RING_CAPACITY..total).map(|i| i as u64 + 1).collect();
        assert_eq!(survivors, expected, "oldest records must be evicted in order");
    }

    #[test]
    fn name_truncated_at_32_bytes_and_roundtrips() {
        let ring = Ring::new(9001, "name-test".to_string());
        let long = "x".repeat(100);
        ring.push(Kind::Span, &long, ctx(7), 1234);
        ring.push(Kind::Span, "short", ctx(8), 5);
        let a = ring.read(0).unwrap();
        assert_eq!(((a[3] >> 8) & 0xff) as usize, NAME_BYTES);
        assert_eq!(a[3] >> 16, 1234);
        let b = ring.read(1).unwrap();
        assert_eq!(((b[3] >> 8) & 0xff) as usize, 5);
        assert_eq!(&b[4].to_le_bytes()[..5], b"short");
    }

    #[test]
    fn recorder_never_blocks_under_concurrent_dumps() {
        // One writer hammers its ring while readers snapshot concurrently:
        // the writer must make full progress (it takes no locks), readers
        // must only ever see well-formed records.
        let ring = Arc::new(Ring::new(9002, "race-test".to_string()));
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    ring.push(Kind::Instant, "race", ctx(i + 1), i);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while ring.head.load(Ordering::Acquire) < 200_000 {
                        let head = ring.head.load(Ordering::Acquire);
                        let n = head.min(FLIGHT_RING_CAPACITY as u64);
                        for i in head - n..head {
                            if let Some(words) = ring.read(i) {
                                // A torn read would show a trace id from one
                                // record and a dur from another; both are
                                // derived from the same counter, so a clean
                                // read always satisfies trace == dur + 1.
                                assert_eq!(
                                    words[1],
                                    (words[3] >> 16) + 1,
                                    "torn read escaped the seqlock"
                                );
                                seen += 1;
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        writer.join().unwrap();
        assert_eq!(ring.head.load(Ordering::Relaxed), 200_000);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn dump_names_op_and_trace_and_contains_history() {
        let _g = crate::test_scope_lock().lock();
        set_flight_enabled(true);
        let scope = crate::request_scope("serve", || "dump-test".to_string()).unwrap();
        let trace_id = scope.trace_id();
        crate::instant("serve", || "enqueue:dump-test".to_string());
        let dump = flight_dump("batch_poisoned", "matmul", trace_id).expect("recorder on");
        drop(scope);
        assert_eq!(dump.reason, "batch_poisoned");
        assert_eq!(dump.op, "matmul");
        assert_eq!(dump.trace_id, trace_id);
        assert!(
            dump.records.iter().any(|r| r.trace_id == trace_id && r.kind == "error"),
            "dump must contain the error record: {:?}",
            dump.records
        );
        assert!(
            dump.records.iter().any(|r| r.trace_id == trace_id && r.name.starts_with("enqueue")),
            "dump must contain the request's recent history: {:?}",
            dump.records
        );
        let last = last_dump().expect("dump retained");
        assert_eq!(last.trace_id, trace_id);
        // And it serializes.
        let json = dump.to_value().to_json_pretty();
        let parsed = tfe_encode::Value::parse(&json).expect("dump JSON parses");
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("batch_poisoned"));
    }

    #[test]
    fn disabled_recorder_dumps_nothing() {
        let _g = crate::test_scope_lock().lock();
        set_flight_enabled(false);
        assert!(flight_dump("budget_breach", "noop", 1).is_none());
        set_flight_enabled(true);
    }
}
