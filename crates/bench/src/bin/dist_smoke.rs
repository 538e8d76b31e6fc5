//! Distribution smoke gate: boot real TCP workers on localhost, run
//! data-parallel training through both collectives, and validate the
//! whole distribution stack end to end —
//!
//! 1. **Bitwise training parity.** Two identically-seeded models, one
//!    trained over the 2-worker TCP cluster (parameter-server and then
//!    ring all-reduce), one through the single-process bit-reference;
//!    every variable and every reported loss must agree bit for bit.
//! 2. **Metric reconciliation.** For each worker, completed RPCs in
//!    `tfe_dist_rpcs_total` must equal the `tfe_dist_rpc_ns` histogram
//!    count, and wire bytes must have moved in both directions.
//! 3. **Chaos.** Killing a worker mid-run must surface a typed
//!    `DistError` on every RPC path within the configured deadline —
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
/// concrete function whose library name workers resolve (the name is good
/// for as long as something holds the function).
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

/// Train one (reduction, transport) configuration distributed and its
/// identically-seeded twin through the local bit-reference; panic on any
/// bit of divergence. Returns ns/step for the distributed run.
fn train_parity(tag: &str, reduction: Reduction) -> f64 {
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

    let started = Instant::now();
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let (x, y) = batch(100 + step as u64);
        losses.push(dist.step(&x, &y).expect("distributed step"));
    }
    let ns_per_step = started.elapsed().as_nanos() as f64 / STEPS as f64;

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
    for worker in ["train/0", "train/1", "ps/0"] {
        let rpcs = snap.counter_with("tfe_dist_rpcs_total", worker).unwrap_or(0);
        let samples = histogram_count("tfe_dist_rpc_ns", worker);
        assert!(rpcs > 0, "no RPCs recorded for {worker}");
        assert_eq!(rpcs, samples, "{worker}: {rpcs} completed RPCs but {samples} latency samples");
        let sent = snap.counter_with("tfe_dist_bytes_sent_total", worker).unwrap_or(0);
        let received = snap.counter_with("tfe_dist_bytes_received_total", worker).unwrap_or(0);
        assert!(sent > 0, "{worker}: no bytes sent");
        assert!(received > 0, "{worker}: no bytes received");
        println!("dist smoke: {worker} reconciled — {rpcs} RPCs, {sent} B out, {received} B back");
    }
}

/// Kill a TCP worker mid-run: every RPC path must return a typed error
/// within the deadline, and the survivor must keep serving.
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
        "dist smoke: killed worker surfaced typed errors on all 4 RPC paths in {elapsed:?} \
         (deadline {deadline:?}); survivor kept serving"
    );
}

fn main() {
    tfe_core::init();
    let ps_ns = train_parity(
        "ps",
        Reduction::ParameterServer { ps_device: "/job:ps/task:0/device:CPU:0".to_string() },
    );
    let ring_ns = train_parity("ring", Reduction::Ring);
    reconcile_metrics();
    chaos();
    println!(
        "dist smoke: OK (TCP 2-worker step: ps {:.1} ms, ring {:.1} ms)",
        ps_ns / 1e6,
        ring_ns / 1e6
    );
}
