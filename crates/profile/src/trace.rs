//! Request-scoped causal tracing: a cheap (two-u64) [`TraceContext`]
//! created at every request entry point — serve `infer()`, a top-level
//! eager op, a `Func` call, a dist RPC — and propagated across thread
//! hops so one request renders as a single causal arc across thread rows
//! instead of shattering into per-thread fragments.
//!
//! # Propagation model
//!
//! The context lives in a thread-local [`TraceGroup`] (usually a single
//! context; several inside a coalesced serve batch, whose members all
//! causally feed the same staged call). Carriers capture
//! [`current_group`] into their envelope at the send side — a batcher
//! request slot, a pool job, an RPC frame — and the receiving thread
//! re-installs it with [`adopt`] for the duration of the work. Scopes are strictly RAII: the previous group is restored on
//! drop, so nested requests and work-helping threads can't leak contexts
//! into unrelated work.
//!
//! # Flow events
//!
//! Entry points emit a flow *start* (`s`), every cross-thread adoption a
//! *step* (`t`), and the scope exit a *finish* (`f`), all keyed by the
//! trace id — the trace viewer draws them as arrows linking the hops. Each
//! is one [`Event`], named for the request kind (start, finish) or the hop
//! (step), recorded into the profile while profiling and into the flight
//! window while the recorder is on. Consecutive adoptions
//! of the same group on the same thread (e.g. one pool worker executing
//! many nodes of one graph run) are deduplicated to keep the arrow count
//! proportional to hops, not jobs.

use crate::flight::flight_enabled;
use crate::{enabled, now_ns, record, Event, EventKind, FlowPhase, SpanGuard};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A request-scoped causal identity: which request this work belongs to
/// (`trace_id`, process-unique) and which hop within it (`span_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Process-unique id of the request this work belongs to.
    pub trace_id: u64,
    /// Id of the current hop/span within the request.
    pub span_id: u64,
}

impl TraceContext {
    /// Allocate a fresh root context (new trace id, new span id).
    pub fn new_root() -> TraceContext {
        TraceContext {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A child context: same trace, fresh span id (used when a context
    /// crosses a serialization boundary, e.g. a dist RPC frame).
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// The set of request contexts causally feeding the current work. Almost
/// always one; a coalesced serve batch carries every member's context so
/// each request's flow arc follows the batch onto the pool threads.
/// `Single` is unboxed so per-op roots never allocate.
#[derive(Debug, Clone)]
pub enum TraceGroup {
    /// One request (the common case; no heap allocation).
    Single(TraceContext),
    /// Several coalesced requests; `[0]` is the primary (oldest member).
    Many(Arc<[TraceContext]>),
}

impl TraceGroup {
    /// A group of one.
    pub fn single(ctx: TraceContext) -> TraceGroup {
        TraceGroup::Single(ctx)
    }

    /// A group over `ctxs` (`[0]` becomes the primary); `None` when empty.
    pub fn of(ctxs: Vec<TraceContext>) -> Option<TraceGroup> {
        match ctxs.len() {
            0 => None,
            1 => Some(TraceGroup::Single(ctxs[0])),
            _ => Some(TraceGroup::Many(ctxs.into())),
        }
    }

    /// The primary context (spans and flight records are attributed to it).
    pub fn primary(&self) -> TraceContext {
        match self {
            TraceGroup::Single(c) => *c,
            TraceGroup::Many(cs) => cs[0],
        }
    }

    /// Every member context.
    pub fn members(&self) -> &[TraceContext] {
        match self {
            TraceGroup::Single(c) => std::slice::from_ref(c),
            TraceGroup::Many(cs) => cs,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceGroup>> = const { RefCell::new(None) };
    /// Dedup key of the last flow step emitted by this thread
    /// (group fingerprint, hop-name pointer).
    static LAST_HOP: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// The primary context of the group installed on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().as_ref().map(TraceGroup::primary))
}

/// The full group installed on this thread, if any (cheap clone — carriers
/// capture this into their envelopes at the send side of a thread hop).
pub fn current_group() -> Option<TraceGroup> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn current_pair() -> Option<(u64, u64)> {
    current_context().map(|c| (c.trace_id, c.span_id))
}

pub(crate) fn has_current() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn record_flow(
    phase: FlowPhase,
    ctx: TraceContext,
    name: &'static str,
    detail: Option<String>,
    to_flight: bool,
) {
    let to_profiler = enabled();
    if !to_profiler && !to_flight {
        return;
    }
    let event = Event {
        name: name.into(),
        cat: "flow",
        kind: EventKind::Flow { ts_ns: now_ns(), phase, id: ctx.trace_id },
        detail,
        trace: Some((ctx.trace_id, ctx.span_id)),
    };
    record(event, to_profiler, to_flight);
}

/// RAII scope of one request root: installs a fresh context on the entry
/// thread, emits the flow start/finish pair (into the flight window too,
/// for non-eager kinds), and (for non-eager kinds) opens a
/// `request`-category span covering the whole request.
pub struct RequestScope {
    prev: Option<TraceGroup>,
    ctx: TraceContext,
    kind: &'static str,
    label: Option<String>,
    span: Option<SpanGuard>,
}

/// Open a request root of `kind` (`"serve"`, `"func"`, `"dist"`,
/// `"eager"`). Returns `None` — at the cost of two relaxed loads and a
/// thread-local probe — when neither the profiler nor the flight recorder
/// is on, or when a group is already installed (a nested entry point
/// inherits the ambient request instead of starting a new trace). The
/// name closure only runs when the profiler is enabled.
///
/// `"eager"` roots are lightweight: they install the context and emit
/// flow events to the profiler, but skip the request span and the flight
/// window (per-op volume would drown both). Their flow events are all they add,
/// so they open only while the profiler is on: a flight dump fires on a
/// serve path, which opens its own root.
pub fn request_scope(kind: &'static str, name: impl FnOnce() -> String) -> Option<RequestScope> {
    let wanted = enabled() || (kind != "eager" && flight_enabled());
    if !wanted || has_current() {
        return None;
    }
    let ctx = TraceContext::new_root();
    let prev = CURRENT.with(|c| c.borrow_mut().replace(TraceGroup::Single(ctx)));
    let label = enabled().then(name);
    let heavy = kind != "eager";
    let span = match (&label, heavy) {
        (Some(l), true) => {
            Some(SpanGuard::open_profiler("request", l.clone(), Some((ctx.trace_id, ctx.span_id))))
        }
        _ => None,
    };
    record_flow(FlowPhase::Start, ctx, kind, label.clone(), heavy && flight_enabled());
    Some(RequestScope { prev, ctx, kind, label, span })
}

impl RequestScope {
    /// The root context of this request.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let to_flight = self.kind != "eager" && flight_enabled();
        record_flow(FlowPhase::End, self.ctx, self.kind, self.label.take(), to_flight);
        self.span = None; // record the request span while still inside the scope
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// RAII scope of one adoption: the receiving side of a thread hop.
pub struct AdoptScope {
    prev: Option<TraceGroup>,
    installed: bool,
}

/// Install `group` on the current thread for the duration of the returned
/// guard, emitting one flow step per member into the profile
/// (deduplicated against an immediately-preceding identical adoption on
/// this thread); the primary's step also goes into the flight window. A `None` group is a no-op guard, so
/// carriers can pass their envelope through unconditionally.
pub fn adopt(group: Option<&TraceGroup>, hop: &'static str) -> AdoptScope {
    let Some(g) = group else {
        return AdoptScope { prev: None, installed: false };
    };
    let prev = CURRENT.with(|c| c.borrow_mut().replace(g.clone()));
    let key = (g.primary().trace_id ^ ((g.members().len() as u64) << 48), hop.as_ptr() as usize);
    let repeat = LAST_HOP.with(|l| {
        let repeat = l.get() == key;
        l.set(key);
        repeat
    });
    if !repeat {
        let to_flight = flight_enabled();
        for (i, ctx) in g.members().iter().enumerate() {
            record_flow(FlowPhase::Step, *ctx, hop, None, to_flight && i == 0);
        }
    }
    AdoptScope { prev, installed: true }
}

/// Adopt a context shipped over a serialization boundary as a bare
/// `(trace_id, span_id)` pair (e.g. a dist RPC frame); the receiving side
/// continues the trace under a fresh child span id.
pub fn adopt_remote(trace: Option<(u64, u64)>, hop: &'static str) -> AdoptScope {
    match trace {
        Some((trace_id, span_id)) => {
            let group = TraceGroup::Single(TraceContext { trace_id, span_id }.child());
            adopt(Some(&group), hop)
        }
        None => AdoptScope { prev: None, installed: false },
    }
}

impl Drop for AdoptScope {
    fn drop(&mut self) {
        if self.installed {
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_unique_under_concurrent_churn() {
        // Satellite contract: ids stay unique under 8-thread allocation
        // churn (the allocator is a single relaxed fetch_add, but the test
        // pins the contract against future cleverness).
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..PER_THREAD).map(|_| TraceContext::new_root().trace_id).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "trace id {id} allocated twice");
            }
        }
        assert_eq!(seen.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn request_scope_installs_and_restores() {
        let _g = crate::test_scope_lock().lock();
        crate::set_flight_enabled(true);
        assert!(current_context().is_none());
        let scope = request_scope("serve", || "r".to_string()).expect("flight recorder is on");
        let ctx = current_context().expect("scope installed");
        assert_eq!(ctx.trace_id, scope.trace_id());
        // A nested entry point inherits the ambient request.
        assert!(request_scope("func", || "nested".to_string()).is_none());
        drop(scope);
        assert!(current_context().is_none());
    }

    #[test]
    fn adopt_installs_group_and_restores_previous() {
        let _g = crate::test_scope_lock().lock();
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        let outer = TraceGroup::single(a);
        let inner = TraceGroup::of(vec![b, a]).unwrap();
        {
            let _o = adopt(Some(&outer), "hop_a");
            assert_eq!(current_context().unwrap().trace_id, a.trace_id);
            {
                let _i = adopt(Some(&inner), "hop_b");
                assert_eq!(current_context().unwrap().trace_id, b.trace_id);
                assert_eq!(current_group().unwrap().members().len(), 2);
            }
            assert_eq!(current_context().unwrap().trace_id, a.trace_id);
        }
        assert!(current_context().is_none());
        // Adopting nothing is a no-op guard.
        let _n = adopt(None, "hop_a");
        assert!(current_context().is_none());
    }

    #[test]
    fn flow_events_link_scope_and_adoptions() {
        let _g = crate::test_scope_lock().lock();
        crate::start();
        let trace_id = {
            let scope = request_scope("serve", || "flow_req".to_string()).unwrap();
            let group = current_group().unwrap();
            let id = scope.trace_id();
            std::thread::spawn(move || {
                let _a = adopt(Some(&group), "worker");
                let _s = crate::span("serve", || "work".to_string());
            })
            .join()
            .unwrap();
            id
        };
        let profile = crate::stop();
        let mut phases = Vec::new();
        for t in &profile.threads {
            for e in &t.events {
                if let EventKind::Flow { phase, id, .. } = e.kind {
                    if id == trace_id {
                        phases.push((phase, t.tid));
                    }
                }
            }
        }
        let starts = phases.iter().filter(|(p, _)| *p == FlowPhase::Start).count();
        let steps = phases.iter().filter(|(p, _)| *p == FlowPhase::Step).count();
        let ends = phases.iter().filter(|(p, _)| *p == FlowPhase::End).count();
        assert_eq!((starts, ends), (1, 1), "one start and one finish: {phases:?}");
        assert!(steps >= 1, "the adoption must step the flow: {phases:?}");
        let tids: std::collections::HashSet<u64> = phases.iter().map(|(_, t)| *t).collect();
        assert!(tids.len() >= 2, "flow must cross threads: {phases:?}");
    }
}
