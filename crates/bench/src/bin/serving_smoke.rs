//! Serving smoke gate: spin up the model registry with a SavedFunction
//! bundle behind the adaptive micro-batcher, fire concurrent clients at
//! it, and validate the serving layer end to end — every response matches
//! the direct staged call bitwise, the batcher actually coalesced (mean
//! batch rows > 1 in the `tfe_serve_batch_rows` family), every request is
//! accounted for in the metric families, and nothing errored or hung.
//!
//! Run with `cargo run --release -p tfe-bench --bin serving_smoke`.
//! Set `TFE_PROFILE=/tmp/serve.json` to additionally export a chrome
//! trace of the serve layer: named thread rows plus one causal flow arc
//! per request, and a per-trace latency report printed for one request.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use tfe_core::{function1, TensorSpec};
use tfe_metrics::SampleValue;
use tfe_runtime::{api, Tensor};
use tfe_serve::{BatchPolicy, ModelRegistry};
use tfe_state::saved;
use tfe_tensor::DType;

const D: usize = 16;
const CONCURRENCY: usize = 8;
const REQS_PER_CLIENT: usize = 40;
const MODEL: &str = "smoke_mlp";

fn example(i: usize) -> Tensor {
    let vals: Vec<f32> = (0..D).map(|j| ((i * 5 + j * 3) % 11) as f32 * 0.31 - 1.2).collect();
    api::constant(vals, [1, D]).expect("example")
}

fn main() {
    tfe_core::init();

    // Opt-in serve-layer trace: TFE_PROFILE names the chrome-trace path.
    let trace_path = tfe_profile::env_trace_path();
    if trace_path.is_some() {
        tfe_profile::start();
    }

    // A small MLP traced with a dynamic leading dimension, shipped through
    // the SavedFunction exporter/importer so the smoke covers the
    // production path: serve a bundle, not a live tracer object.
    let f = function1("smoke_mlp_src", |x| {
        let w = api::constant(
            (0..D * D).map(|i| ((i % 7) as f32 - 3.0) * 0.11).collect::<Vec<f32>>(),
            [D, D],
        )?;
        let b = api::constant(vec![0.02f32; D], [D])?;
        api::softmax(&api::relu(&api::add(&api::matmul(x, &w)?, &b)?)?)
    })
    .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(D)])]);
    let probe = example(0);
    let conc = f.concrete_for(&[tfe_core::Arg::from(&probe)]).expect("trace");
    let bundle = saved::export_to_value(&conc).expect("export");
    let loaded = saved::import_from_value(&bundle).expect("import");

    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_with(
            MODEL,
            1,
            loaded,
            BatchPolicy { max_batch: CONCURRENCY, budget: Duration::from_millis(5) },
        )
        .expect("register");

    // Concurrent clients; each checks its own responses against the direct
    // staged call.
    let barrier = Arc::new(Barrier::new(CONCURRENCY));
    let handles: Vec<_> = (0..CONCURRENCY)
        .map(|c| {
            let registry = Arc::clone(&registry);
            let f = f.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for r in 0..REQS_PER_CLIENT {
                    let i = c * REQS_PER_CLIENT + r;
                    let x = example(i);
                    let got =
                        registry.infer(MODEL, &[&x]).expect("infer")[0].to_f64_vec().expect("row");
                    let want = f.call_tensors(&[&x]).expect("direct")[0].to_f64_vec().expect("row");
                    assert_eq!(got, want, "request {i} diverged from the direct staged call");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // The metric families must account for every request.
    let label = format!("{MODEL}@v1");
    let total = (CONCURRENCY * REQS_PER_CLIENT) as u64;
    let snap = tfe_metrics::snapshot();
    let counter = |name: &str| snap.counter_with(name, &label).unwrap_or(0);
    let histogram = |name: &str| {
        snap.family(name)
            .and_then(|fam| {
                fam.samples
                    .iter()
                    .find(|s| s.label.as_ref().is_some_and(|(_, v)| *v == label))
                    .and_then(|s| match &s.value {
                        SampleValue::Histogram(h) => Some(h.clone()),
                        _ => None,
                    })
            })
            .unwrap_or_else(|| panic!("no {name} series for {label}"))
    };

    // Probe request (1) + client requests.
    let requests = counter("tfe_serve_requests_total");
    assert!(requests >= total, "requests_total {requests} < {total} issued");
    assert_eq!(counter("tfe_serve_errors_total"), 0, "no request may fail");
    let batches = counter("tfe_serve_batches_total");
    assert!(batches > 0, "no staged calls recorded");
    assert!(
        batches < requests,
        "batcher never coalesced: {batches} staged calls for {requests} requests"
    );
    let rows = histogram("tfe_serve_batch_rows");
    assert_eq!(rows.sum, requests, "coalesced rows must equal accepted requests");
    assert!(
        rows.mean() > 1.5,
        "mean batch size {:.2} rows — expected real coalescing at concurrency {CONCURRENCY}",
        rows.mean()
    );
    let latency = histogram("tfe_serve_request_latency_ns");
    assert_eq!(latency.count, requests, "every request must observe its latency");
    let exec = histogram("tfe_serve_batch_exec_ns");
    assert_eq!(exec.count, batches, "every staged call must observe its execution time");
    assert!(registry.unregister(MODEL), "unregister must find the model");

    if let Some(path) = &trace_path {
        let profile = tfe_profile::stop();
        profile.write_chrome_trace(path).expect("write chrome trace");
        if let Some(id) = profile.trace_ids().first() {
            if let Some(report) = profile.trace_report(*id) {
                println!("{report}");
            }
        }
        println!("chrome trace written to {path}");
    }

    println!(
        "serving smoke: {requests} requests in {batches} staged calls \
         (mean batch {:.1} rows, p99 latency {} ns, est exec {} ns)",
        rows.mean(),
        latency.quantile(0.99).unwrap_or(0),
        exec.mean() as u64,
    );
}
