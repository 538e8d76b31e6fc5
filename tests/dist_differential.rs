//! Distribution differential: for a sampled corpus of random graph
//! functions, executing on a 1-worker cluster — over the in-process
//! transport *and* over real TCP — must match local execution **bitwise**.
//! This pins the whole stack: tensor serialization keeps every bit, frames
//! survive the socket, and workers run the same executor as the
//! coordinator.

mod common;

use common::{bits, fuzz_cases, generate, make_args, Bits};
use std::sync::Arc;
use tf_eager::dist::{Cluster, ClusterSpec, RemoteArg};
use tfe_tensor::TensorData;

fn run_local(name: &str, args: &[Arc<TensorData>]) -> Vec<Bits> {
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

fn run_remote(cluster: &Cluster, name: &str, args: &[Arc<TensorData>]) -> Vec<Bits> {
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
