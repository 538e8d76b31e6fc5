//! Causal-tracing smoke gate, run by `scripts/ci.sh`:
//!
//! 1. Asserts the flight recorder's *disabled* path stays within its
//!    budget: a probe site (`span` with both sinks off) may cost at most
//!    5 ns over the bare profiler-enabled check, mirroring the metrics
//!    registry's probe budget.
//! 2. Runs a batched serve workload (8 concurrent clients, parallel
//!    executor) under profiling and validates the chrome trace
//!    structurally: every request's flow events form one connected
//!    `s` → `t`* → `f` chain in timestamp order, every chain crosses >= 2
//!    distinct thread rows (front door, batcher worker), at least one
//!    chain reaches a pool worker (>= 3 rows), and thread rows carry
//!    readable metadata names.
//! 3. Poisons a batch through a servable whose staged call fails and
//!    asserts the flight recorder dumped the failure post-mortem: reason
//!    `batch_poisoned`, the failing op named, the request's trace id
//!    attached, and the dump's records carrying that trace id.
//!
//! Exits non-zero (panics) on any violation.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use tfe_core::{function1, TensorSpec};
use tfe_runtime::{api, context, ExecMode, Tensor};
use tfe_serve::{BatchPolicy, ModelRegistry, ServeError};
use tfe_tensor::DType;

const D: usize = 8;
const CONCURRENCY: usize = 8;
const REQS_PER_CLIENT: usize = 6;
const MODEL: &str = "trace_smoke_model";

fn example(i: usize) -> Tensor {
    let vals: Vec<f32> = (0..D).map(|j| ((i * 7 + j * 3) % 13) as f32 * 0.21 - 1.1).collect();
    api::constant(vals, [1, D]).expect("example")
}

/// Per-call cost of `f` in nanoseconds.
fn per_call_ns(iters: usize, f: impl Fn()) -> f64 {
    let t = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn check_flight_disabled_overhead() {
    assert!(!tfe_profile::enabled(), "profiler must start disabled");
    tfe_profile::set_flight_enabled(false);
    const ITERS: usize = 8_000_000;
    // Baseline: the profiler's own disabled probe (one relaxed load).
    let baseline_ns = per_call_ns(ITERS, || {
        std::hint::black_box(tfe_profile::enabled());
    });
    // A full probe site with both sinks off: profiler check + flight check.
    let probe_ns = per_call_ns(ITERS, || {
        std::hint::black_box(tfe_profile::span("serve", || -> &str {
            unreachable!("closure must not run")
        }));
    });
    let overhead = (probe_ns - baseline_ns).max(0.0);
    eprintln!(
        "flight disabled path: probe {probe_ns:.2} ns/call vs baseline {baseline_ns:.2} ns/call \
         ({overhead:.2} ns overhead)"
    );
    assert!(
        overhead < 5.0,
        "disabled flight recorder adds {overhead:.2} ns per probe site (budget: 5 ns)"
    );
    assert!(probe_ns < 25.0, "absolute disabled probe cost {probe_ns:.2} ns is implausibly high");
    tfe_profile::set_flight_enabled(true);
}

/// One request's flow events pulled out of the chrome trace.
#[derive(Default)]
struct Chain {
    starts: Vec<(i64, f64)>,
    steps: Vec<(i64, f64)>,
    ends: Vec<(i64, f64)>,
}

fn validate_trace(profile: &tfe_profile::Profile) {
    let json = profile.chrome_trace().to_json_pretty();
    let root = tfe_encode::Value::parse(&json).expect("chrome trace JSON must parse");
    let events = root
        .get("traceEvents")
        .and_then(tfe_encode::Value::as_array)
        .expect("traceEvents array missing");

    // Satellite: thread rows must be named for their roles.
    let mut row_names = Vec::new();
    for e in events {
        if e.get("ph").and_then(tfe_encode::Value::as_str) == Some("M")
            && e.get("name").and_then(tfe_encode::Value::as_str) == Some("thread_name")
        {
            if let Some(n) =
                e.get("args").and_then(|a| a.get("name")).and_then(tfe_encode::Value::as_str)
            {
                row_names.push(n.to_string());
            }
        }
    }
    assert!(
        row_names.iter().any(|n| n == &format!("serve:{MODEL}@v1")),
        "serve worker row must be named serve:{MODEL}@v1, rows: {row_names:?}"
    );
    assert!(
        row_names.iter().any(|n| n.starts_with("pool-worker-")),
        "pool worker rows must be renamed pool-worker-K, rows: {row_names:?}"
    );

    // Collect flow events per trace id.
    let request_label = format!("request:{MODEL}@v1");
    let mut chains: std::collections::BTreeMap<i64, Chain> = Default::default();
    let mut serve_ids: std::collections::BTreeSet<i64> = Default::default();
    for e in events {
        let ph = e.get("ph").and_then(tfe_encode::Value::as_str);
        if !matches!(ph, Some("s") | Some("t") | Some("f")) {
            continue;
        }
        let id = e.get("id").and_then(tfe_encode::Value::as_i64).expect("flow event needs id");
        let tid = e.get("tid").and_then(tfe_encode::Value::as_i64).expect("flow event needs tid");
        let ts = e.get("ts").and_then(tfe_encode::Value::as_f64).expect("flow event needs ts");
        let chain = chains.entry(id).or_default();
        match ph {
            Some("s") => {
                let detail = e
                    .get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(tfe_encode::Value::as_str)
                    .unwrap_or("");
                if detail == request_label {
                    serve_ids.insert(id);
                }
                chain.starts.push((tid, ts));
            }
            Some("t") => chain.steps.push((tid, ts)),
            _ => chain.ends.push((tid, ts)),
        }
    }

    let expected = CONCURRENCY * REQS_PER_CLIENT;
    assert_eq!(
        serve_ids.len(),
        expected,
        "every serve request must open exactly one flow (got {} of {expected})",
        serve_ids.len()
    );

    // Structural check: each request's flow is one connected chain in
    // timestamp order, crossing >= 2 thread rows. Tolerance covers the
    // ns -> us float conversion.
    const EPS: f64 = 0.002;
    let mut max_rows = 0usize;
    for id in &serve_ids {
        let chain = &chains[id];
        assert_eq!(chain.starts.len(), 1, "trace {id}: exactly one flow start");
        assert_eq!(chain.ends.len(), 1, "trace {id}: exactly one flow finish");
        assert!(
            !chain.steps.is_empty(),
            "trace {id}: no flow steps — the request never visibly hopped threads"
        );
        let (start_tid, start_ts) = chain.starts[0];
        let (end_tid, end_ts) = chain.ends[0];
        assert_eq!(start_tid, end_tid, "trace {id}: must start and finish on the front door");
        for (tid, ts) in &chain.steps {
            assert!(
                *ts >= start_ts - EPS && *ts <= end_ts + EPS,
                "trace {id}: step on tid {tid} at {ts} falls outside [{start_ts}, {end_ts}]"
            );
        }
        let rows: std::collections::BTreeSet<i64> = chain
            .starts
            .iter()
            .chain(&chain.steps)
            .chain(&chain.ends)
            .map(|(tid, _)| *tid)
            .collect();
        assert!(
            rows.len() >= 2,
            "trace {id}: flow touches only {} thread rows (front door and batcher expected)",
            rows.len()
        );
        max_rows = max_rows.max(rows.len());
    }
    assert!(
        max_rows >= 3,
        "no request's flow reached a pool worker (max {max_rows} rows; expected front door + \
         batcher + pool)"
    );

    // Per-trace summary: sane numbers for one real request.
    let sample = *serve_ids.iter().next().expect("non-empty");
    let report = profile.trace_report(sample as u64).expect("trace_report for a recorded request");
    assert!(report.total_ns > 0, "request must have measurable latency");
    assert!(report.threads >= 2, "report must see the cross-thread hops: {report}");
    assert!(report.hops >= 1, "report must count the flow steps: {report}");
    assert!(report.events > 0);
    eprintln!("{report}");
    eprintln!(
        "trace ok: {} request flows, widest chain {} thread rows, {} named rows",
        serve_ids.len(),
        max_rows,
        row_names.len()
    );
}

fn run_traced_workload() {
    let f = function1(MODEL, |x| {
        let w = api::constant(
            (0..D * D).map(|i| ((i % 5) as f32 - 2.0) * 0.17).collect::<Vec<f32>>(),
            [D, D],
        )?;
        api::relu(&api::matmul(x, &w)?)
    })
    .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(D)])]);

    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_with(
            MODEL,
            1,
            f,
            // The parallel executor fans the staged call's nodes from the
            // batcher onto the pool.
            BatchPolicy {
                max_batch: CONCURRENCY,
                budget: Duration::from_millis(50),
                ewma_alpha: 0.25,
            },
        )
        .expect("register");

    tfe_profile::start();
    let barrier = Arc::new(Barrier::new(CONCURRENCY));
    let handles: Vec<_> = (0..CONCURRENCY)
        .map(|c| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .name(format!("trace-client-{c}"))
                .spawn(move || {
                    barrier.wait();
                    for r in 0..REQS_PER_CLIENT {
                        let x = example(c * REQS_PER_CLIENT + r);
                        let out = registry.infer(MODEL, &[&x]).expect("infer");
                        assert_eq!(out.len(), 1);
                    }
                })
                .expect("spawn client")
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let profile = tfe_profile::stop();
    registry.unregister(MODEL);

    validate_trace(&profile);
}

fn check_poison_dump() {
    // A servable whose staged call fails: matmul on [1, D] x [1, D] is a
    // shape error, surfaced as the batch's typed error.
    let poison = function1("trace_smoke_poison", |x| api::matmul(x, x));
    let registry = ModelRegistry::new();
    registry
        .register_with(
            "trace_smoke_poison",
            1,
            poison,
            BatchPolicy { max_batch: 4, budget: Duration::from_millis(50), ewma_alpha: 0.25 },
        )
        .expect("register poison model");
    let x = example(0);
    let err = registry.infer("trace_smoke_poison", &[&x]).expect_err("batch must fail");
    assert!(matches!(err, ServeError::Batch { .. }), "expected a typed batch error, got {err}");

    let dump = tfe_profile::recent_dumps()
        .into_iter()
        .rev()
        .find(|d| d.reason == "batch_poisoned")
        .expect("poisoned batch must leave a flight-recorder dump");
    assert!(!dump.op.is_empty(), "dump must name the failing op");
    assert!(dump.trace_id != 0, "dump must carry the request's trace id");
    assert!(
        dump.records.iter().any(|r| r.trace_id == dump.trace_id),
        "dump must contain causal history for trace {}: {} records",
        dump.trace_id,
        dump.records.len()
    );
    let json = dump.to_value().to_json_pretty();
    let parsed = tfe_encode::Value::parse(&json).expect("dump JSON parses");
    assert_eq!(parsed.get("reason").and_then(tfe_encode::Value::as_str), Some("batch_poisoned"));
    eprintln!(
        "poison dump ok: op `{}`, trace {}, {} records",
        dump.op,
        dump.trace_id,
        dump.records.len()
    );
    registry.unregister("trace_smoke_poison");
}

fn main() {
    // Before anything touches the worker pool: guarantee multiple workers
    // even on a single-core CI box.
    std::env::set_var("TFE_NUM_THREADS", "4");
    tfe_core::init();

    check_flight_disabled_overhead();

    let prev = context::set_exec_mode(ExecMode::Parallel);
    run_traced_workload();
    context::set_exec_mode(prev);

    check_poison_dump();
    println!("trace smoke: ok");
}
