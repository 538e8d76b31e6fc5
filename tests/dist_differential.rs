//! Distribution differential: for a sampled corpus of random graph
//! functions, executing on a 1-worker cluster — over the in-process
//! transport *and* over real TCP — must match local execution **bitwise**.
//! This pins the whole stack: tensor serialization keeps every bit, frames
//! survive the socket, and workers run the same executor as the
//! coordinator.
//!
//! The suite runs under whatever `TFE_ASYNC` is ambient (CI runs it both
//! ways) and additionally checks one explicit `sync_scope`/`async_scope`
//! pair per transport.

mod common;

use common::{fuzz_cases, generate, make_args};
use std::sync::Arc;
use tf_eager::dist::{Cluster, ClusterSpec, RemoteArg, TransportKind};
use tfe_tensor::TensorData;

fn bits(t: &TensorData) -> Vec<u64> {
    t.to_f64_vec().iter().map(|v| v.to_bits()).collect()
}

fn run_local(name: &str, args: &[Arc<TensorData>]) -> Vec<Vec<u64>> {
    let f = tfe_runtime::context::library().get(name).expect("case in library");
    let device = tfe_runtime::context::device_manager().host_cpu();
    let out = tfe_runtime::executor::run_function(
        &f,
        args,
        &device,
        tfe_runtime::ExecMode::SerialPlanned,
    )
    .expect("local execution");
    out.iter().map(|t| bits(t)).collect()
}

fn run_remote(cluster: &Cluster, name: &str, args: &[Arc<TensorData>]) -> Vec<Vec<u64>> {
    let dev = "/job:diff/task:0/device:CPU:0";
    let remote_args: Vec<RemoteArg> =
        args.iter().map(|a| RemoteArg::Local(tf_eager::Tensor::from_data((**a).clone()))).collect();
    let out = cluster.call_function(dev, name, &remote_args).expect("remote execution");
    out.iter().map(|r| bits(&r.fetch().expect("fetch").value().expect("value"))).collect()
}

/// 1-worker TCP == 1-worker in-process == local, bitwise, over the corpus.
#[test]
fn cluster_matches_local_bitwise() {
    tf_eager::init();
    let spec = ClusterSpec::new().with_job("diff", 1).unwrap();
    let in_process = Cluster::start(&spec);
    let tcp = Cluster::start_tcp(&spec).expect("tcp cluster");

    let cases = fuzz_cases(12);
    for seed in 0..cases {
        let (f, shapes) = generate(seed);
        let name = f.name.clone();
        tfe_runtime::context::library().insert(f);
        let args = make_args(seed, &shapes);

        let local = run_local(&name, &args);
        let via_channel = run_remote(&in_process, &name, &args);
        let via_tcp = run_remote(&tcp, &name, &args);

        assert_eq!(local, via_channel, "seed {seed}: in-process != local");
        assert_eq!(local, via_tcp, "seed {seed}: tcp != local");
    }
    in_process.shutdown();
    tcp.shutdown();
}

/// The differential holds regardless of the coordinator's dispatch mode:
/// shipping args and fetching results from inside an `async_scope` yields
/// the same bits as from a forced-sync scope.
#[test]
fn cluster_parity_under_both_dispatch_modes() {
    tf_eager::init();
    let spec = ClusterSpec::new().with_job("diff", 1).unwrap();
    let (f, shapes) = generate(9001);
    let name = f.name.clone();
    tfe_runtime::context::library().insert(f);
    let args = make_args(9001, &shapes);
    let local = tf_eager::sync_scope(|| run_local(&name, &args));

    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let cluster =
            Cluster::start_with(&spec, kind, tf_eager::dist::RpcOptions::default()).unwrap();
        let in_sync = tf_eager::sync_scope(|| run_remote(&cluster, &name, &args));
        let in_async = tf_eager::async_scope(|| run_remote(&cluster, &name, &args))
            .expect("async scope drains clean");
        assert_eq!(local, in_sync, "{kind:?} sync");
        assert_eq!(local, in_async, "{kind:?} async");
        cluster.shutdown();
    }
}
