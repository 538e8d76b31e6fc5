//! In-memory spans around the benchmark's own calls into each layer.
//! Recorded only in a traced run (`--trace 1`), written as chrome-trace JSON
//! when the run ends. The harness has one thread, so one thread-local
//! recorder is the whole trace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// One id per step; spans of one step share it.
    pub step: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), step: 0 })
    });
}

/// Move on to the next step id.
pub fn next_step() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.step += 1;
        }
    });
}

/// Run `f` inside a span named `name`. When recording is off this is just
/// the call.
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let index = rec.spans.len();
            let start_ns = rec.epoch.elapsed().as_nanos() as u64;
            let parent = rec.open.last().copied();
            rec.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: rec.step });
            rec.open.push(index);
            index
        })
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Stop recording and hand back every span, in start order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// A span's self time: its duration minus the part its child spans cover.
/// Children of one parent never overlap here (one thread, strict nesting).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name, over the spans named `root`
/// and their direct children. The root's self time is the part of it that
/// no child accounts for.
pub fn totals_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, Total> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let under_root = s.parent.is_some_and(|p| spans[p].name == root);
        if s.name != root && !under_root {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own_ns;
    }
    out
}

/// Chrome-trace JSON ("X" complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.step
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, step: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("matmul", 15, 25, Some(1)),
            span("backward", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50]);
        // Under "step": the step itself and its direct children only.
        let t = totals_under(&spans, "step");
        assert_eq!(t["step"], Total { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["forward"], Total { count: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(t["backward"], Total { count: 1, total_ns: 50, self_ns: 50 });
        assert!(!t.contains_key("matmul"));
    }

    #[test]
    fn scopes_nest_and_share_the_step_id() {
        enable();
        next_step();
        let v = scope("outer", || scope("inner", || 7));
        assert_eq!(v, 7);
        next_step();
        scope("later", || ());
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].step), ("outer", None, 1));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].step), ("inner", Some(0), 1));
        assert_eq!((spans[2].name, spans[2].parent, spans[2].step), ("later", None, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Recording is off again: scope is just the call, nothing is kept.
        scope("off", || ());
        assert!(take().is_empty());
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let text =
            chrome_trace(&[span("step", 1_000, 3_500, None), span("x", 2_000, 3_000, Some(0))]);
        assert!(text.contains(
            "\"name\":\"step\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":2.500"
        ));
        assert!(text.contains("\"parent\":0"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    }
}
