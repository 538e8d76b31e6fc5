//! Distribution smoke gate: boot real TCP workers on localhost, run
//! data-parallel training through both collectives, and validate the
//! whole distribution stack end to end —
//!
//! 1. **Bitwise training parity.** Two identically-seeded models, one
//!    trained over the 2-worker TCP cluster (parameter-server and then
//!    ring all-reduce), one through the single-process bit-reference;
//!    every variable and every reported loss must agree bit for bit.
//! 2. **Requests and rounds a step.** Counted from the RPC counter and
//!    from the `rpc:round` / `rpc:run` spans of the profiled steps: 3
//!    requests in 2 rounds through the parameter server, 6 in 3 around the
//!    ring — the counts `nn::dist_train` pins, here over real sockets.
//! 3. **Metric reconciliation.** For each worker, completed RPCs in
//!    `tfe_dist_rpcs_total` must equal the `tfe_dist_rpc_ns` histogram
//!    count, wire bytes must have moved in both directions, and the
//!    workers ran more program steps than they answered requests.
//! 4. **Chaos.** Killing a worker mid-run must surface a typed
//!    `DistError` on every request shape within the configured deadline —
//!    never a hang — while the surviving worker keeps serving.
//!
//! Run with `cargo run --release -p tfe-bench --bin dist_smoke`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tfe_dist::{Cluster, ClusterSpec, DistError, RemoteArg, RpcOptions, TransportKind};
use tfe_metrics::SampleValue;
use tfe_nn::optimizer::Sgd;
use tfe_nn::{mlp, mse_grad_fn, Activation, DataParallel, Initializer, Layer, Reduction};
use tfe_ops::Attrs;
use tfe_runtime::{api, Tensor, Variable};
use tfe_tensor::{DType, Shape};

const STEPS: usize = 4;

/// Seeded model + traced gradient function; returns its variables and the
/// concrete function whose name workers resolve (the name is good for as
/// long as something holds the function).
fn setup(tag: &str, seed: u64) -> (Vec<Variable>, Arc<tfe_core::ConcreteFunction>) {
    let mut init = Initializer::seeded(seed);
    let model = Arc::new(mlp(4, &[8], 1, Activation::Tanh, &mut init));
    let vars = model.variables();
    let f = mse_grad_fn(&format!("smoke_grad_{tag}"), model, vars.clone());
    let conc = f
        .concrete_for(&[
            tfe_core::Arg::from(&api::zeros(DType::F32, [4, 4])),
            tfe_core::Arg::from(&api::zeros(DType::F32, [4, 1])),
        ])
        .expect("trace grad fn");
    (vars, conc)
}

fn batch(seed: u64) -> (Tensor, Tensor) {
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(seed);
    let x = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 4]), -1.0, 1.0).unwrap());
    let y = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 1]), -1.0, 1.0).unwrap());
    (x, y)
}

fn var_bits(vars: &[Variable]) -> Vec<Vec<u64>> {
    vars.iter().map(|v| v.peek().to_f64_vec().iter().map(|f| f.to_bits()).collect()).collect()
}

const WORKERS: [&str; 3] = ["train/0", "train/1", "ps/0"];

/// Requests completed so far, over every worker of the smoke's clusters.
fn requests_completed() -> u64 {
    let snap = tfe_metrics::snapshot();
    WORKERS.iter().map(|w| snap.counter_with("tfe_dist_rpcs_total", w).unwrap_or(0)).sum()
}

/// Train one (reduction, transport) configuration distributed and its
/// identically-seeded twin through the local bit-reference; panic on any
/// bit of divergence, or if a step is not `requests` requests in `rounds`
/// rounds. Returns ns/step for the distributed run (profiler on).
fn train_parity(tag: &str, reduction: Reduction, requests: u64, rounds: usize) -> f64 {
    let (vars_dist, fn_dist) = setup(&format!("d_{tag}"), 42);
    let (vars_local, fn_local) = setup(&format!("l_{tag}"), 42);
    assert_eq!(var_bits(&vars_dist), var_bits(&vars_local), "same seed must give same init");

    let spec =
        ClusterSpec::new().with_job("train", 2).expect("job").with_job("ps", 1).expect("job");
    let workers = vec![
        "/job:train/task:0/device:CPU:0".to_string(),
        "/job:train/task:1/device:CPU:0".to_string(),
    ];
    let tcp = Cluster::start_tcp(&spec).expect("TCP cluster boots");
    let dist = DataParallel::new(
        tcp,
        workers.clone(),
        reduction.clone(),
        &fn_dist.function.name,
        vars_dist.clone(),
        Arc::new(Sgd::new(0.05)),
    )
    .expect("distributed trainer");
    // The reference trainer never sends an RPC after construction; give it
    // an in-process cluster just to satisfy the constructor's liveness ping.
    let local = DataParallel::new(
        Cluster::start(&spec),
        workers,
        reduction,
        &fn_local.function.name,
        vars_local.clone(),
        Arc::new(Sgd::new(0.05)),
    )
    .expect("reference trainer");

    let requests_before = requests_completed();
    tfe_profile::start();
    let started = Instant::now();
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let (x, y) = batch(100 + step as u64);
        losses.push(dist.step(&x, &y).expect("distributed step"));
    }
    let ns_per_step = started.elapsed().as_nanos() as f64 / STEPS as f64;
    let profile = tfe_profile::stop();
    let spans = |prefix: &str| {
        let events = profile.threads.iter().flat_map(|t| &t.events);
        events.filter(|e| e.name.starts_with(prefix)).count()
    };
    let sent = requests_completed() - requests_before;
    println!(
        "dist smoke: {tag} step over TCP = {} request(s) in {} round(s)",
        sent as f64 / STEPS as f64,
        spans("rpc:round[") as f64 / STEPS as f64
    );
    assert_eq!(sent, requests * STEPS as u64, "{tag}: requests over {STEPS} steps");
    assert_eq!(spans("rpc:run["), (requests as usize) * STEPS, "{tag}: one span a request");
    assert_eq!(spans("rpc:round["), rounds * STEPS, "{tag}: rounds over {STEPS} steps");

    for (step, loss) in losses.iter().enumerate() {
        let (x, y) = batch(100 + step as u64);
        let l = local.local_step(&x, &y).expect("reference step");
        assert_eq!(loss.to_bits(), l.to_bits(), "{tag}: step {step} loss diverged ({loss} vs {l})");
    }
    assert_eq!(
        var_bits(&vars_dist),
        var_bits(&vars_local),
        "{tag}: variables diverged from the single-process reference"
    );
    assert!(losses[0] != losses[STEPS - 1], "{tag}: no training progress over {STEPS} steps");
    println!("dist smoke: {tag} trained {STEPS} steps bitwise-equal to local reference");
    ns_per_step
}

/// Every worker's RPC ledger must balance: completions == latency samples,
/// and bytes moved both ways over the wire.
fn reconcile_metrics() {
    let snap = tfe_metrics::snapshot();
    let histogram_count = |name: &str, label: &str| -> u64 {
        snap.family(name)
            .and_then(|fam| {
                fam.samples
                    .iter()
                    .find(|s| s.label.as_ref().is_some_and(|(_, v)| v == label))
                    .and_then(|s| match &s.value {
                        SampleValue::Histogram(h) => Some(h.count),
                        _ => None,
                    })
            })
            .unwrap_or(0)
    };
    for worker in WORKERS {
        let rpcs = snap.counter_with("tfe_dist_rpcs_total", worker).unwrap_or(0);
        let samples = histogram_count("tfe_dist_rpc_ns", worker);
        assert!(rpcs > 0, "no RPCs recorded for {worker}");
        assert_eq!(rpcs, samples, "{worker}: {rpcs} completed RPCs but {samples} latency samples");
        let sent = snap.counter_with("tfe_dist_bytes_sent_total", worker).unwrap_or(0);
        let received = snap.counter_with("tfe_dist_bytes_received_total", worker).unwrap_or(0);
        assert!(sent > 0, "{worker}: no bytes sent");
        assert!(received > 0, "{worker}: no bytes received");
        // Pings run no step; every program of a training step runs several.
        let steps = snap.counter_with("tfe_dist_program_steps_total", worker).unwrap_or(0);
        assert!(steps > rpcs, "{worker}: {steps} program steps in {rpcs} requests — not batched");
        println!(
            "dist smoke: {worker} reconciled — {rpcs} RPCs running {steps} steps, {sent} B out, \
             {received} B back"
        );
    }
}

/// Kill a TCP worker mid-run: every request shape must return a typed
/// error within the deadline, and the survivor must keep serving.
fn chaos() {
    let opts = RpcOptions::with_deadline(Duration::from_millis(800));
    let deadline = opts.deadline;
    let spec = ClusterSpec::new().with_job("chaos", 2).expect("job");
    let cluster = Cluster::start_with(&spec, TransportKind::Tcp, opts).expect("chaos cluster");
    let d0 = "/job:chaos/task:0/device:CPU:0";
    let d1 = "/job:chaos/task:1/device:CPU:0";
    let x = api::scalar(3.0f32);
    let resident = cluster
        .execute(d0, "identity", &[RemoteArg::from(&x)], Attrs::new())
        .expect("place resident tensor")
        .into_iter()
        .next()
        .expect("one output");

    cluster.kill_worker(d0).expect("kill");

    let started = Instant::now();
    let results: Vec<Result<(), DistError>> = vec![
        cluster.execute(d0, "square", &[RemoteArg::from(&x)], Attrs::new()).map(|_| ()),
        cluster.call_function(d0, "smoke_no_such_fn", &[]).map(|_| ()),
        resident.fetch().map(|_| ()),
        cluster.ping(d0),
    ];
    let elapsed = started.elapsed();
    for r in results {
        match r {
            Err(DistError::Timeout { .. }) | Err(DistError::ConnectionLost { .. }) => {}
            other => panic!("dead worker must yield a typed transport error, got {other:?}"),
        }
    }
    assert!(
        elapsed < deadline * 4 + Duration::from_secs(2),
        "typed errors took {elapsed:?} — deadlines are not being enforced"
    );

    let out =
        cluster.execute(d1, "square", &[RemoteArg::from(&x)], Attrs::new()).expect("survivor");
    assert_eq!(out[0].fetch().expect("fetch").scalar_f64().expect("scalar"), 9.0);
    drop(resident);
    cluster.shutdown();
    println!(
        "dist smoke: killed worker surfaced typed errors on all 4 request shapes in {elapsed:?} \
         (deadline {deadline:?}); survivor kept serving"
    );
}

fn main() {
    tfe_core::init();
    let ps_ns = train_parity(
        "ps",
        Reduction::ParameterServer { ps_device: "/job:ps/task:0/device:CPU:0".to_string() },
        3,
        2,
    );
    let ring_ns = train_parity("ring", Reduction::Ring, 6, 3);
    reconcile_metrics();
    chaos();
    println!(
        "dist smoke: OK (TCP 2-worker step: ps {:.1} ms, ring {:.1} ms)",
        ps_ns / 1e6,
        ring_ns / 1e6
    );
}
