//! Observability smoke test, run by `scripts/ci.sh`: the profiler, the
//! metrics registry and the flight recorder, on two workloads.
//!
//! 1. Probe budgets: the *disabled* profiler costs < 2 % of an eager op
//!    dispatch; a counter bump costs < 5 ns over a bare atomic increment; a
//!    probe site with the profiler and the flight recorder both off costs
//!    < 5 ns over the profiler's own check.
//! 2. A staged training step with `BRANCHES` independent matmul towers,
//!    run by the parallel executor. Its first two steps are profiled: the
//!    chrome trace parses, `X` spans land on >= 2 thread rows and nest per
//!    row, the trace-cache instants show a miss and a hit, the summary has
//!    a `matmul` kernel row, and `tfe_executor_aborts_total` does not move.
//!    The registry is scraped after them and again after ten more: the
//!    Prometheus text parses, histograms are consistent, no counter
//!    decreases, retraces stay flat, executor nodes advance. A shape change
//!    beforehand is diagnosed by the retrace report.
//! 3. A batched serve workload (8 concurrent clients) under profiling:
//!    every request's flow events form one `s` → `t`* → `f` chain in
//!    timestamp order across >= 2 thread rows (>= 3, reaching a pool
//!    worker, on at least one), and rows carry role names. Then a poisoned
//!    batch leaves a flight dump with its reason, the failing op, the
//!    request's trace id and that trace's history.
//!
//! Exits non-zero (panics) on any violation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use tfe_autodiff::GradientTape;
use tfe_core::{function, function1, Arg, TensorSpec};
use tfe_encode::Value;
use tfe_metrics::{MetricKind, SampleValue, Snapshot};
use tfe_nn::{optimizer, Adam};
use tfe_runtime::{api, context, ExecMode, Tensor, Variable};
use tfe_serve::{BatchPolicy, ModelRegistry, ServeError};
use tfe_tensor::{DType, Shape, TensorData};

const DIM: usize = 128;
const BRANCHES: usize = 4;
const D: usize = 8;
const CONCURRENCY: usize = 8;
const REQS_PER_CLIENT: usize = 6;
const MODEL: &str = "observability_smoke_model";
/// Tolerance for the ns -> us float conversion of chrome-trace times.
const EPS: f64 = 0.002;

fn vals(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64 - 6.0) * scale).collect()
}

/// Per-call cost of `f` in nanoseconds.
fn per_call_ns(iters: usize, f: impl Fn()) -> f64 {
    let t = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn str_of<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
    e.get(key).and_then(Value::as_str)
}

fn num_of(e: &Value, key: &str) -> f64 {
    e.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("event without `{key}`: {e:?}"))
}

fn check_probe_budgets() {
    assert!(!tfe_profile::enabled(), "profiler must start disabled");
    let enabled_ns = per_call_ns(8_000_000, || {
        std::hint::black_box(tfe_profile::enabled());
    });

    let (a, b) = (api::scalar(1.0f64), api::scalar(2.0f64));
    let dispatch_ns = per_call_ns(20_000, || {
        std::hint::black_box(api::add(&a, &b).expect("add"));
    });
    let ratio = enabled_ns / dispatch_ns;
    eprintln!(
        "disabled profiler probe: {enabled_ns:.2} ns/call, eager dispatch {dispatch_ns:.0} ns/op \
         ({:.4}%)",
        ratio * 100.0
    );
    assert!(
        ratio < 0.02,
        "disabled profiler costs {:.3}% of a dispatch (budget 2%)",
        ratio * 100.0
    );

    // A bare relaxed fetch_add is what any counter must pay; the registry's
    // own overhead (a OnceLock handle lookup) is the difference.
    static RAW: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let raw_ns = per_call_ns(8_000_000, || {
        RAW.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    let counter_ns = per_call_ns(8_000_000, || {
        tfe_metrics::static_counter!("tfe_smoke_probe_total", "overhead probe").inc();
    });
    let overhead = (counter_ns - raw_ns).max(0.0);
    eprintln!("counter bump: {counter_ns:.2} ns (raw fetch_add {raw_ns:.2} ns, +{overhead:.2} ns)");
    assert!(
        overhead < 5.0,
        "registry adds {overhead:.2} ns over an atomic increment (budget 5 ns)"
    );
    assert!(counter_ns < 25.0, "counter bump absurdly slow: {counter_ns:.2} ns/probe");

    tfe_profile::set_flight_enabled(false);
    let probe_ns = per_call_ns(8_000_000, || {
        std::hint::black_box(tfe_profile::span("serve", || -> &str {
            unreachable!("closure must not run")
        }));
    });
    tfe_profile::set_flight_enabled(true);
    let overhead = (probe_ns - enabled_ns).max(0.0);
    eprintln!("flight disabled probe site: {probe_ns:.2} ns (+{overhead:.2} ns)");
    assert!(overhead < 5.0, "disabled flight recorder adds {overhead:.2} ns a site (budget 5 ns)");
    assert!(probe_ns < 25.0, "absolute disabled probe cost {probe_ns:.2} ns is implausibly high");
}

/// The chrome trace of `profile`, written to a file and parsed back.
fn trace_events(profile: &tfe_profile::Profile, name: &str) -> Vec<Value> {
    let path = std::env::temp_dir().join(format!("tfe_{name}_trace.json"));
    profile.write_chrome_trace(&path).expect("write chrome trace");
    let text = std::fs::read_to_string(&path).expect("read trace file");
    std::fs::remove_file(&path).ok();
    let root = Value::parse(&text).expect("chrome trace JSON must parse");
    root.get("traceEvents").and_then(Value::as_array).expect("traceEvents array missing").to_vec()
}

/// Stage a training step with `BRANCHES` independent matmul towers, so the
/// parallel scheduler has real inter-op work to fan out.
fn staged_train_step(weights: &[Variable]) -> tfe_core::Func {
    let vars = weights.to_vec();
    let opt = Arc::new(Adam::new(1e-3));
    function("observability_smoke_step", move |args: &[Arg]| {
        let x = args[0].as_tensor().expect("x");
        let tape = GradientTape::new();
        let mut total = api::scalar(0.0f64);
        for w in &vars {
            let y = api::square(&api::matmul(x, &w.read()?)?)?;
            total = api::add(&total, &api::reduce_mean(&y, &[], false)?)?;
        }
        optimizer::minimize(opt.as_ref(), tape, &total, &vars)?;
        Ok(vec![total])
    })
}

fn validate_training_trace(profile: &tfe_profile::Profile) {
    let summary = profile.summary();
    eprintln!("{summary}");
    assert!(
        summary.ops.iter().any(|o| o.cat == "kernel" && o.name == "matmul"),
        "summary must contain matmul kernel rows"
    );

    let mut by_tid: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut instants = Vec::new();
    for e in &trace_events(profile, "observability_training") {
        match str_of(e, "ph") {
            Some("X") => by_tid
                .entry(num_of(e, "tid") as i64)
                .or_default()
                .push((num_of(e, "ts"), num_of(e, "dur"))),
            Some("i") => instants.extend(str_of(e, "name").map(str::to_string)),
            _ => {}
        }
    }
    assert!(by_tid.len() >= 2, "parallel run must place spans on >= 2 rows, got {}", by_tid.len());

    // Per row, sorted by start: each span nests inside the enclosing open
    // span or starts after it ends. Partial overlap is broken bookkeeping.
    for (tid, spans) in &mut by_tid {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<f64> = Vec::new(); // end times
        for &(ts, dur) in spans.iter() {
            while open.last().is_some_and(|&end| ts >= end - EPS) {
                open.pop();
            }
            if let Some(&end) = open.last() {
                assert!(ts + dur <= end + EPS, "tid {tid}: span at {ts} overlaps one ending {end}");
            }
            open.push(ts + dur);
        }
    }

    let count = |prefix: &str| instants.iter().filter(|n| n.starts_with(prefix)).count();
    let (misses, hits) = (count("cache_miss"), count("cache_hit"));
    assert!(misses >= 1, "step 1 must record a trace-cache miss");
    assert!(hits >= 1, "step 2 must record a trace-cache hit");
    let spans: usize = by_tid.values().map(Vec::len).sum();
    eprintln!("trace ok: {spans} spans on {} rows, {misses} miss(es), {hits} hit(s)", by_tid.len());
}

/// Every counter of a snapshot, histogram counts and sums included, by
/// series name.
fn counter_series(s: &Snapshot) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for fam in &s.families {
        for sample in &fam.samples {
            let key = match &sample.label {
                Some((_, v)) => format!("{}{{{v}}}", fam.name),
                None => fam.name.to_string(),
            };
            match &sample.value {
                SampleValue::Counter(v) => drop(out.insert(key, *v)),
                SampleValue::Histogram(h) => {
                    out.insert(format!("{key}_count"), h.count);
                    out.insert(format!("{key}_sum"), h.sum);
                }
                SampleValue::Gauge(_) => {} // gauges may legitimately fall
            }
        }
    }
    out
}

/// Line-by-line validation of the Prometheus text exposition format, and
/// histogram consistency on the snapshot form.
fn validate_scrape(s: &Snapshot) {
    let text = s.to_prometheus_text();
    let mut samples = 0usize;
    let mut typed = BTreeSet::new();
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with("# HELP ")) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line needs a name and a kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "TYPE `{kind}` of {name}");
            typed.insert(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample line has no value");
        assert!(value.parse::<f64>().is_ok(), "sample value is not a float: {line}");
        let base = series.split('{').next().unwrap();
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|s| base.strip_suffix(s));
        assert!(
            typed.contains(base) || family.is_some_and(|f| typed.contains(f)),
            "sample `{base}` appears before any TYPE declaration"
        );
        samples += 1;
    }
    assert!(samples > 10, "suspiciously few samples in the exposition: {samples}");
    for fam in s.families.iter().filter(|f| f.kind == MetricKind::Histogram) {
        for sample in &fam.samples {
            let SampleValue::Histogram(h) = &sample.value else { continue };
            assert_eq!(h.count, h.counts.iter().sum::<u64>(), "{}: count vs buckets", fam.name);
            assert_eq!(h.counts.len(), h.bounds.len() + 1, "{}: bucket arity", fam.name);
        }
    }
    eprintln!("prometheus text ok: {samples} samples, {} families", typed.len());
}

fn run_training_workload() {
    let shapes = function("smoke_shapes", |args: &[Arg]| {
        Ok(vec![api::relu(args[0].as_tensor().expect("tensor"))?])
    });
    for n in [4, 8] {
        shapes.call(&[Arg::from(&api::zeros(DType::F64, [n]))]).expect("shapes call");
    }
    assert_eq!(shapes.stats().retraces, 1);
    let report = shapes.retrace_report();
    assert!(report.contains("arg 0: shape [4] → [8]"), "bad retrace report:\n{report}");

    let weights: Vec<Variable> = (0..BRANCHES)
        .map(|i| {
            let data = vals(DIM * DIM, 1e-3 * (i + 1) as f64);
            Variable::new(TensorData::from_vec(data, Shape::from([DIM, DIM])).unwrap())
        })
        .collect();
    let step = staged_train_step(&weights);
    let x = Tensor::from_data(
        TensorData::from_vec(vals(DIM * DIM, 1e-2), Shape::from([DIM, DIM])).unwrap(),
    );
    let train = |n: usize| {
        for s in 0..n {
            let loss = step.call(&[Arg::from(&x)]).expect("train step").remove(0);
            assert!(loss.scalar_f64().expect("loss").is_finite(), "step {s} loss must be finite");
        }
    };

    let aborts = || tfe_metrics::snapshot().counter_value("tfe_executor_aborts_total").unwrap_or(0);
    let aborts_before = aborts();
    tfe_profile::start();
    train(2);
    let profile = tfe_profile::stop();
    assert_eq!(aborts(), aborts_before, "clean run must not abort");
    validate_training_trace(&profile);

    let s1 = tfe_metrics::snapshot();
    train(10);
    let s2 = tfe_metrics::snapshot();
    validate_scrape(&s1);
    validate_scrape(&s2);
    let (c1, c2) = (counter_series(&s1), counter_series(&s2));
    for (name, v1) in &c1 {
        let v2 = c2.get(name).unwrap_or_else(|| panic!("counter `{name}` disappeared"));
        assert!(v2 >= v1, "counter `{name}` decreased: {v1} -> {v2}");
    }
    let retraces = "tfe_trace_cache_retraces_total";
    assert_eq!(c1.get(retraces), c2.get(retraces), "steady-state training must not retrace");
    assert_eq!(step.stats().retraces, 0, "the smoke step itself must never retrace");
    let nodes = "tfe_executor_nodes_run_total";
    assert!(c2[nodes] > c1[nodes], "training must execute graph nodes");
}

fn example(i: usize) -> Tensor {
    let vals: Vec<f32> = (0..D).map(|j| ((i * 7 + j * 3) % 13) as f32 * 0.21 - 1.1).collect();
    api::constant(vals, [1, D]).expect("example")
}

fn validate_request_chains(profile: &tfe_profile::Profile) {
    let events = trace_events(profile, "observability_serve");
    let rows: Vec<&str> = events
        .iter()
        .filter(|e| str_of(e, "ph") == Some("M") && str_of(e, "name") == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| str_of(a, "name")))
        .collect();
    let serve_row = format!("serve:{MODEL}@v1");
    assert!(rows.contains(&serve_row.as_str()), "no {serve_row} row: {rows:?}");
    assert!(rows.iter().any(|n| n.starts_with("pool-worker-")), "no pool-worker row: {rows:?}");

    // Flow events by trace id and phase, as (tid, ts).
    let label = format!("request:{MODEL}@v1");
    let mut chains: BTreeMap<(i64, &str), Vec<(i64, f64)>> = BTreeMap::new();
    let mut serve_ids = BTreeSet::new();
    for e in &events {
        let Some(ph @ ("s" | "t" | "f")) = str_of(e, "ph") else { continue };
        let id = num_of(e, "id") as i64;
        if ph == "s" && e.get("args").and_then(|a| str_of(a, "detail")) == Some(&label) {
            serve_ids.insert(id);
        }
        chains.entry((id, ph)).or_default().push((num_of(e, "tid") as i64, num_of(e, "ts")));
    }
    let expected = CONCURRENCY * REQS_PER_CLIENT;
    assert_eq!(serve_ids.len(), expected, "every serve request must open exactly one flow");

    let mut widest = 0;
    for &id in &serve_ids {
        let phase = |ph| chains.get(&(id, ph)).map_or(&[][..], Vec::as_slice);
        let (starts, steps, ends) = (phase("s"), phase("t"), phase("f"));
        assert_eq!((starts.len(), ends.len()), (1, 1), "trace {id}: one start and one finish");
        assert!(!steps.is_empty(), "trace {id}: the request never visibly hopped threads");
        let ((start_tid, start_ts), (end_tid, end_ts)) = (starts[0], ends[0]);
        assert_eq!(start_tid, end_tid, "trace {id}: must start and finish on the front door");
        for (tid, ts) in steps {
            assert!(
                *ts >= start_ts - EPS && *ts <= end_ts + EPS,
                "trace {id}: step on tid {tid} at {ts} falls outside [{start_ts}, {end_ts}]"
            );
        }
        let rows: BTreeSet<i64> = starts.iter().chain(steps).chain(ends).map(|r| r.0).collect();
        assert!(rows.len() >= 2, "trace {id}: flow touches only {} thread rows", rows.len());
        widest = widest.max(rows.len());
    }
    assert!(widest >= 3, "no request reached a pool worker (widest chain {widest} rows)");

    let sample = *serve_ids.first().expect("non-empty") as u64;
    let report = profile.trace_report(sample).expect("trace_report for a recorded request");
    assert!(report.total_ns > 0, "request must have measurable latency");
    assert!(report.threads >= 2 && report.hops >= 1 && report.events > 0, "{report}");
    eprintln!("{report}");
    eprintln!("chains ok: {} requests, widest {widest} rows, {} named rows", expected, rows.len());
}

fn run_serve_workload() {
    let f = function1(MODEL, |x| {
        let w = (0..D * D).map(|i| ((i % 5) as f32 - 2.0) * 0.17).collect::<Vec<f32>>();
        api::relu(&api::matmul(x, &api::constant(w, [D, D])?)?)
    })
    .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(D)])]);
    let registry = Arc::new(ModelRegistry::new());
    let policy = BatchPolicy { max_batch: CONCURRENCY, budget: Duration::from_millis(50) };
    registry.register_with(MODEL, 1, f, policy).expect("register");

    tfe_profile::start();
    let barrier = Arc::new(Barrier::new(CONCURRENCY));
    let clients: Vec<_> = (0..CONCURRENCY)
        .map(|c| {
            let (registry, barrier) = (Arc::clone(&registry), Arc::clone(&barrier));
            std::thread::Builder::new()
                .name(format!("smoke-client-{c}"))
                .spawn(move || {
                    barrier.wait();
                    for r in 0..REQS_PER_CLIENT {
                        let out = registry.infer(MODEL, &[&example(c * REQS_PER_CLIENT + r)]);
                        assert_eq!(out.expect("infer").len(), 1);
                    }
                })
                .expect("spawn client")
        })
        .collect();
    clients.into_iter().for_each(|h| h.join().expect("client thread"));
    let profile = tfe_profile::stop();
    registry.unregister(MODEL);
    validate_request_chains(&profile);
}

fn check_poison_dump() {
    // matmul on [1, D] x [1, D] is a shape error: the batch's typed error.
    let poison = function1("observability_smoke_poison", |x| api::matmul(x, x));
    let registry = ModelRegistry::new();
    let policy = BatchPolicy { max_batch: 4, budget: Duration::from_millis(50) };
    registry.register_with("observability_smoke_poison", 1, poison, policy).expect("register");
    let err = registry.infer("observability_smoke_poison", &[&example(0)]).expect_err("must fail");
    assert!(matches!(err, ServeError::Batch { .. }), "expected a typed batch error, got {err}");

    let dump = tfe_profile::recent_dumps()
        .into_iter()
        .rev()
        .find(|d| d.reason == "batch_poisoned")
        .expect("poisoned batch must leave a flight-recorder dump");
    assert!(!dump.op.is_empty(), "dump must name the failing op");
    assert!(dump.trace_id != 0, "dump must carry the request's trace id");
    assert!(
        dump.records.iter().any(|r| r.trace_id() == dump.trace_id),
        "dump must hold trace {}'s history: {} records",
        dump.trace_id,
        dump.records.len()
    );
    let parsed = Value::parse(&dump.to_value().to_json_pretty()).expect("dump JSON parses");
    assert_eq!(str_of(&parsed, "reason"), Some("batch_poisoned"));
    let records = dump.records.len();
    eprintln!("poison dump ok: op `{}`, trace {}, {records} records", dump.op, dump.trace_id);
    registry.unregister("observability_smoke_poison");
}

fn main() {
    // Before anything touches the worker pool: several workers even on a
    // single-core box. With the retrace threshold at 1, the forced retrace
    // prints its diagnosis to stderr.
    std::env::set_var("TFE_NUM_THREADS", "4");
    std::env::set_var("TFE_LOG_RETRACES", "1");
    tfe_core::init();
    check_probe_budgets();

    let prev = context::set_exec_mode(ExecMode::Parallel);
    run_training_workload();
    run_serve_workload();
    context::set_exec_mode(prev);

    check_poison_dump();
    println!("observability smoke: ok");
}
