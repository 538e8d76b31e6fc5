//! Always-on metrics for the tf-eager runtime: a process-wide registry of
//! counters, gauges and fixed-bucket histograms, with a programmatic
//! snapshot API and a Prometheus text exporter.
//!
//! # Design
//!
//! - **Probes are lock-free and always on.** Unlike the profiler (which is
//!   scoped and records events), a metric is a single relaxed atomic: a
//!   counter bump is one `fetch_add(1, Relaxed)` on a cached handle, a
//!   histogram observation is a short bounds scan plus two `fetch_add`s.
//!   There is no enabled flag to check because the disabled state does not
//!   exist — the probe *is* the storage.
//! - **Registration is rare and locked; probing never is.** Call sites
//!   register once (usually behind a `OnceLock`) and keep the returned
//!   `Arc` handle; after that the registry lock is only taken by
//!   [`snapshot`] / [`prometheus_text`] readers, so introspection never
//!   contends with the hot path.
//! - **Labeled families** ([`CounterVec`], [`HistogramVec`]) key child
//!   metrics by one label value (a `Func` name, a worker address). Lookup
//!   takes the family's own lock, so hot paths should cache the child
//!   handle, not the family.
//! - **Snapshots are relaxed.** Values are read one atomic at a time; a
//!   snapshot taken mid-update may be a few probes stale across metrics,
//!   but every individual series is monotone across scrapes (histogram
//!   `count` is derived from the bucket reads, so buckets and count never
//!   disagree within one sample).

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (or track a running maximum).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Add `n` and return the new value (for tracking a peak of the result
    /// without a read-then-update race).
    #[inline]
    pub fn add_and_get(&self, n: i64) -> i64 {
        self.v.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Raise the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Default duration buckets in nanoseconds: 100 ns to 10 ms, roughly
/// 1-2.5-5 per decade. Kernel launches, queue waits and RPCs all fit.
pub const DEFAULT_NS_BUCKETS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram. Buckets are cumulative only at export time;
/// internally each bucket counts observations `<=` its upper bound
/// (plus one implicit `+Inf` bucket).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound, plus the trailing `+Inf` slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Read the current state.
    pub fn read(&self) -> HistogramSnapshot {
        // Read the buckets first and derive the count from them, so count
        // and buckets can never disagree within one snapshot.
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`,
    /// the last slot being the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Total observations (always the sum of `counts`).
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the first bucket whose
    /// cumulative count reaches `q * count`. Observations in the `+Inf`
    /// bucket report the largest finite bound. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    *self.bounds.last().unwrap_or(&u64::MAX)
                });
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Labeled families
// ---------------------------------------------------------------------------

/// A family of [`Counter`]s keyed by one label value.
#[derive(Debug)]
pub struct CounterVec {
    label: &'static str,
    children: Mutex<HashMap<String, Arc<Counter>>>,
}

impl CounterVec {
    /// The child counter for `value`, created on first use. Takes the
    /// family lock — cache the returned handle on hot paths.
    pub fn with(&self, value: &str) -> Arc<Counter> {
        let mut children = self.children.lock();
        if let Some(c) = children.get(value) {
            return c.clone();
        }
        let c = Arc::new(Counter::default());
        children.insert(value.to_string(), c.clone());
        c
    }

    /// Drop the series for `value` from the family (and from snapshots):
    /// for a label whose subject is gone. Handles already given out keep
    /// counting, unseen.
    pub fn remove(&self, value: &str) {
        self.children.lock().remove(value);
    }
}

/// A family of [`Gauge`]s keyed by one label value.
#[derive(Debug)]
pub struct GaugeVec {
    label: &'static str,
    children: Mutex<HashMap<String, Arc<Gauge>>>,
}

impl GaugeVec {
    /// The child gauge for `value`, created on first use.
    pub fn with(&self, value: &str) -> Arc<Gauge> {
        let mut children = self.children.lock();
        if let Some(g) = children.get(value) {
            return g.clone();
        }
        let g = Arc::new(Gauge::default());
        children.insert(value.to_string(), g.clone());
        g
    }

    /// Drop the series for `value` from the family, as
    /// [`CounterVec::remove`].
    pub fn remove(&self, value: &str) {
        self.children.lock().remove(value);
    }
}

/// A family of [`Histogram`]s keyed by one label value.
#[derive(Debug)]
pub struct HistogramVec {
    label: &'static str,
    bounds: Vec<u64>,
    children: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl HistogramVec {
    /// The child histogram for `value`, created on first use.
    pub fn with(&self, value: &str) -> Arc<Histogram> {
        let mut children = self.children.lock();
        if let Some(h) = children.get(value) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new(&self.bounds));
        children.insert(value.to_string(), h.clone());
        h
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    GaugeVec(Arc<GaugeVec>),
    HistogramVec(Arc<HistogramVec>),
}

struct Family {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

fn registry() -> &'static Mutex<Vec<Family>> {
    static R: std::sync::OnceLock<Mutex<Vec<Family>>> = std::sync::OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(
    name: &'static str,
    help: &'static str,
    make: impl FnOnce() -> Instrument,
) -> Instrument {
    let mut reg = registry().lock();
    if let Some(f) = reg.iter().find(|f| f.name == name) {
        return f.instrument.clone();
    }
    let instrument = make();
    reg.push(Family { name, help, instrument: instrument.clone() });
    instrument
}

/// Register (or fetch) the counter `name`. Idempotent by name; panics if
/// `name` is already registered as a different instrument kind.
pub fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    match register(name, help, || Instrument::Counter(Arc::new(Counter::default()))) {
        Instrument::Counter(c) => c,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) the gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    match register(name, help, || Instrument::Gauge(Arc::new(Gauge::default()))) {
        Instrument::Gauge(g) => g,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) the histogram `name` with the given bucket bounds
/// (ascending; an implicit `+Inf` bucket is appended).
pub fn histogram(name: &'static str, help: &'static str, bounds: &[u64]) -> Arc<Histogram> {
    match register(name, help, || Instrument::Histogram(Arc::new(Histogram::new(bounds)))) {
        Instrument::Histogram(h) => h,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) a counter family labeled by `label`.
pub fn counter_vec(name: &'static str, help: &'static str, label: &'static str) -> Arc<CounterVec> {
    match register(name, help, || {
        Instrument::CounterVec(Arc::new(CounterVec { label, children: Mutex::new(HashMap::new()) }))
    }) {
        Instrument::CounterVec(v) => v,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) a gauge family labeled by `label`.
pub fn gauge_vec(name: &'static str, help: &'static str, label: &'static str) -> Arc<GaugeVec> {
    match register(name, help, || {
        Instrument::GaugeVec(Arc::new(GaugeVec { label, children: Mutex::new(HashMap::new()) }))
    }) {
        Instrument::GaugeVec(v) => v,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Register (or fetch) a histogram family labeled by `label`.
pub fn histogram_vec(
    name: &'static str,
    help: &'static str,
    label: &'static str,
    bounds: &[u64],
) -> Arc<HistogramVec> {
    match register(name, help, || {
        Instrument::HistogramVec(Arc::new(HistogramVec {
            label,
            bounds: bounds.to_vec(),
            children: Mutex::new(HashMap::new()),
        }))
    }) {
        Instrument::HistogramVec(v) => v,
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

// ---------------------------------------------------------------------------
// Cached-handle macros
// ---------------------------------------------------------------------------

/// A `&'static Counter` handle: registers on first evaluation, then the
/// cached handle makes each probe a single relaxed `fetch_add`. Expand once
/// per call site; every expansion with the same name shares one cell.
#[macro_export]
macro_rules! static_counter {
    ($name:expr, $help:expr) => {{
        static C: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**C.get_or_init(|| $crate::counter($name, $help))
    }};
}

/// A `&'static Gauge` handle (see [`static_counter!`]).
#[macro_export]
macro_rules! static_gauge {
    ($name:expr, $help:expr) => {{
        static G: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**G.get_or_init(|| $crate::gauge($name, $help))
    }};
}

/// A `&'static Histogram` handle (see [`static_counter!`]).
#[macro_export]
macro_rules! static_histogram {
    ($name:expr, $help:expr, $bounds:expr) => {{
        static H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**H.get_or_init(|| $crate::histogram($name, $help, $bounds))
    }};
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// The value of one series inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// One series: an optional `(label, value)` pair plus the reading.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `Some((label_name, label_value))` for children of labeled families.
    pub label: Option<(&'static str, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

/// All series of one registered metric name.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric name (Prometheus conventions, `tfe_` prefix).
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Family kind.
    pub kind: MetricKind,
    /// One sample per series, sorted by label value.
    pub samples: Vec<Sample>,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Find a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Value of an unlabeled counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.family(name)?.samples.first()?.value {
            SampleValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Value of a labeled counter child.
    pub fn counter_with(&self, name: &str, label_value: &str) -> Option<u64> {
        let fam = self.family(name)?;
        fam.samples
            .iter()
            .find(|s| s.label.as_ref().is_some_and(|(_, v)| v == label_value))
            .and_then(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Value of an unlabeled gauge.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.family(name)?.samples.first()?.value {
            SampleValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Reading of an unlabeled histogram.
    pub fn histogram_value(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.family(name)?.samples.first()?.value {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Render the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let kind = match fam.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, kind));
            for s in &fam.samples {
                let label = |extra: Option<(&str, String)>| -> String {
                    let mut parts = Vec::new();
                    if let Some((k, v)) = &s.label {
                        parts.push(format!("{k}=\"{}\"", escape_label(v)));
                    }
                    if let Some((k, v)) = extra {
                        parts.push(format!("{k}=\"{v}\""));
                    }
                    if parts.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", parts.join(","))
                    }
                };
                match &s.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&format!("{}{} {v}\n", fam.name, label(None)));
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&format!("{}{} {v}\n", fam.name, label(None)));
                    }
                    SampleValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, c) in h.counts.iter().enumerate() {
                            cum += c;
                            let le = if i < h.bounds.len() {
                                h.bounds[i].to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            out.push_str(&format!(
                                "{}_bucket{} {cum}\n",
                                fam.name,
                                label(Some(("le", le)))
                            ));
                        }
                        out.push_str(&format!("{}_sum{} {}\n", fam.name, label(None), h.sum));
                        out.push_str(&format!("{}_count{} {}\n", fam.name, label(None), h.count));
                    }
                }
            }
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn sample_children<T, F: Fn(&Arc<T>) -> SampleValue>(
    label: &'static str,
    children: &Mutex<HashMap<String, Arc<T>>>,
    read: F,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = children
        .lock()
        .iter()
        .map(|(k, v)| Sample { label: Some((label, k.clone())), value: read(v) })
        .collect();
    samples.sort_by(|a, b| a.label.as_ref().map(|l| &l.1).cmp(&b.label.as_ref().map(|l| &l.1)));
    samples
}

/// Copy every registered metric into a [`Snapshot`]. Cheap (one registry
/// lock plus relaxed loads) and safe to call from any thread at any time —
/// it never blocks a probe.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock();
    let mut families: Vec<FamilySnapshot> = reg
        .iter()
        .map(|f| {
            let (kind, samples) = match &f.instrument {
                Instrument::Counter(c) => (
                    MetricKind::Counter,
                    vec![Sample { label: None, value: SampleValue::Counter(c.get()) }],
                ),
                Instrument::Gauge(g) => (
                    MetricKind::Gauge,
                    vec![Sample { label: None, value: SampleValue::Gauge(g.get()) }],
                ),
                Instrument::Histogram(h) => (
                    MetricKind::Histogram,
                    vec![Sample { label: None, value: SampleValue::Histogram(h.read()) }],
                ),
                Instrument::CounterVec(v) => (
                    MetricKind::Counter,
                    sample_children(v.label, &v.children, |c| SampleValue::Counter(c.get())),
                ),
                Instrument::GaugeVec(v) => (
                    MetricKind::Gauge,
                    sample_children(v.label, &v.children, |g| SampleValue::Gauge(g.get())),
                ),
                Instrument::HistogramVec(v) => (
                    MetricKind::Histogram,
                    sample_children(v.label, &v.children, |h| SampleValue::Histogram(h.read())),
                ),
            };
            FamilySnapshot { name: f.name, help: f.help, kind, samples }
        })
        .collect();
    families.sort_by_key(|f| f.name);
    Snapshot { families }
}

/// [`snapshot`] rendered in the Prometheus text exposition format — the
/// string an HTTP `/metrics` endpoint would serve.
pub fn prometheus_text() -> String {
    snapshot().to_prometheus_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = counter("tfe_test_counter_total", "test counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Idempotent registration returns the same cell.
        let c2 = counter("tfe_test_counter_total", "test counter");
        assert_eq!(c2.get(), c.get());

        let g = gauge("tfe_test_gauge", "test gauge");
        g.set(7);
        g.inc();
        g.dec();
        g.sub(2);
        assert_eq!(g.get(), 5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000] {
            h.observe(v);
        }
        let s = h.read();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5556);
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.quantile(0.0), Some(10));
        assert_eq!(s.quantile(0.5), Some(100));
        // The +Inf observation reports the largest finite bound.
        assert_eq!(s.quantile(1.0), Some(1000));
        assert!((s.mean() - 5556.0 / 5.0).abs() < 1e-9);
        // Boundary values land in their own bucket (le semantics).
        let h2 = Histogram::new(&[10]);
        h2.observe(10);
        assert_eq!(h2.read().counts, vec![1, 0]);
        h2.observe(11);
        assert_eq!(h2.read().counts, vec![1, 1]);
    }

    #[test]
    fn labeled_families() {
        let v = counter_vec("tfe_test_family_total", "labeled", "who");
        v.with("a").inc();
        v.with("a").inc();
        v.with("b").add(5);
        let snap = snapshot();
        assert_eq!(snap.counter_with("tfe_test_family_total", "a"), Some(2));
        assert_eq!(snap.counter_with("tfe_test_family_total", "b"), Some(5));

        let hv = histogram_vec("tfe_test_hist_ns", "labeled hist", "who", &[10, 100]);
        hv.with("x").observe(50);
        let snap = snapshot();
        let fam = snap.family("tfe_test_hist_ns").unwrap();
        assert_eq!(fam.kind, MetricKind::Histogram);
        assert_eq!(fam.samples.len(), 1);
    }

    #[test]
    fn prometheus_text_format() {
        let c = counter("tfe_test_export_total", "exported counter");
        c.add(3);
        let h = histogram("tfe_test_export_ns", "exported histogram", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        let text = prometheus_text();
        assert!(text.contains("# TYPE tfe_test_export_total counter"));
        assert!(text.contains("# HELP tfe_test_export_total exported counter"));
        assert!(text.lines().any(|l| l.starts_with("tfe_test_export_total ")));
        assert!(text.contains("tfe_test_export_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("tfe_test_export_ns_bucket{le=\"100\"} 2"));
        assert!(text.contains("tfe_test_export_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tfe_test_export_ns_count 3"));
        assert!(text.contains("tfe_test_export_ns_sum 5055"));
    }

    #[test]
    fn snapshot_is_sorted_and_monotone() {
        let c = counter("tfe_test_monotone_total", "monotone");
        c.inc();
        let s1 = snapshot();
        c.add(10);
        let s2 = snapshot();
        let names: Vec<_> = s1.families.iter().map(|f| f.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "families must be sorted by name");
        assert!(
            s2.counter_value("tfe_test_monotone_total").unwrap()
                > s1.counter_value("tfe_test_monotone_total").unwrap()
        );
    }

    #[test]
    fn concurrent_probes_lose_nothing() {
        let c = counter("tfe_test_concurrent_total", "hammered");
        let h = histogram("tfe_test_concurrent_ns", "hammered hist", DEFAULT_NS_BUCKETS);
        let before = c.get();
        let hbefore = h.read().count;
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i % 7_000_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get() - before, 80_000);
        let s = h.read();
        assert_eq!(s.count - hbefore, 80_000);
        assert_eq!(s.counts.iter().sum::<u64>(), s.count);
    }
}
