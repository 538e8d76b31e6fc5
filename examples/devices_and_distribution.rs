//! Devices (§4.4) and distribution (§4.5): `list_devices`, explicit
//! copies, device scopes with transparent input copies, staged functions
//! on accelerators, and a coordinator driving worker servers with
//! remote-resident tensors.
//!
//! Run with `cargo run --example devices_and_distribution`.

use tf_eager::device::DeviceType;
use tf_eager::dist::{Cluster, ClusterSpec, RemoteArg};
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_ops::Attrs;

fn main() -> Result<(), RuntimeError> {
    tf_eager::init();

    // The runtime detects devices at startup; accelerators, which run the
    // host kernels here, are registered by name (DESIGN.md §3 substitution).
    tf_eager::register_device("/gpu:0").ok();
    tf_eager::register_device("/tpu:0").ok();
    println!("list_devices:");
    for d in tf_eager::context::device_manager().list_devices() {
        println!("  {d}");
    }

    // Listing 4: explicit copies.
    let a = api::scalar(1.0f32);
    let b = a.gpu()?;
    println!("a lives on {}, b on {}", a.device()?, b.device()?);

    // Listing 5: device scope + transparent input copies.
    let x = api::scalar(1.0f32);
    let y = api::scalar(2.0f32);
    let c = tf_eager::context::with_device("/gpu:0", || api::add(&x, &y))??;
    assert_eq!(c.scalar_f64()?, 3.0);
    println!("add placed on {} -> {}", c.device()?, c.scalar_f64()?);

    // Graph functions as the unit of compilation for accelerators (§4.4):
    // tracing under a TPU scope turns on the XLA-style fusion pipeline.
    let f = function1("tpu_math", |t| {
        let t = api::mul(t, t)?;
        let t = api::add(&t, &api::scalar(1.0f32))?;
        api::tanh(&t)
    });
    let on_tpu = tf_eager::context::with_device("/tpu:0", || {
        f.call1(&api::constant(vec![0.5f32, -0.5], [2])?)
    })??;
    println!("staged-on-TPU result: {:?}", on_tpu.to_f64_vec()?);
    let conc = tf_eager::context::with_device("/tpu:0", || {
        f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [2]))])
    })??;
    let fused = conc.function.nodes.iter().filter(|n| n.op == "fused_elementwise").count();
    println!(
        "TPU-compiled graph: {} executable nodes ({} fused kernels) vs {} in the raw trace",
        conc.function.executable_node_count(),
        fused,
        conc.raw.executable_node_count()
    );
    assert_eq!(conc.function.output_sigs()[0].0, DType::F32);
    assert!(matches!(
        tf_eager::context::device_manager().resolve("/tpu:0").map(|d| d.device_type()),
        Ok(DeviceType::Tpu)
    ));

    // --- §4.5: a coordinator and two worker tasks, over real TCP -----------
    let spec = ClusterSpec::new().with_job("training", 2)?;
    let cluster = Cluster::start_tcp(&spec)?;
    println!("cluster devices:");
    for d in cluster.list_devices() {
        println!("  {d}");
    }

    // Run ops on remote devices by name; results *stay* on the worker.
    let shard0 = api::constant(vec![1.0f32, 2.0, 3.0, 4.0], [4])?;
    let shard1 = api::constant(vec![10.0f32, 20.0, 30.0, 40.0], [4])?;
    let r0 = cluster.execute(
        "/job:training/task:0/device:CPU:0",
        "reduce_sum",
        &[RemoteArg::from(&shard0)],
        Attrs::new().with("axes", Vec::<i64>::new()).with("keep_dims", false),
    )?;
    let r1 = cluster.execute(
        "/job:training/task:1/device:CPU:0",
        "reduce_sum",
        &[RemoteArg::from(&shard1)],
        Attrs::new().with("axes", Vec::<i64>::new()).with("keep_dims", false),
    )?;
    println!("partial sums stayed remote: {:?} and {:?}", r0[0], r1[0]);

    // Keep computing remotely on resident tensors, then fetch (the paper's
    // "copy them to the central server" step).
    let doubled = cluster.execute(
        "/job:training/task:0/device:CPU:0",
        "add",
        &[RemoteArg::from(&r0[0]), RemoteArg::from(&r0[0])],
        Attrs::new(),
    )?;
    let total = doubled[0].fetch()?.scalar_f64()? + r1[0].fetch()?.scalar_f64()?;
    println!("coordinator-side total: {total}");

    // Whole graph functions dispatched to a worker (§4.5).
    let g = function1("remote_poly", |t| {
        let sq = api::mul(t, t)?;
        api::add(&sq, t)
    });
    let conc = g.concrete_for(&[Arg::from(&api::zeros(DType::F32, [4]))])?;
    let remote = cluster.call_function(
        "/job:training/task:1/device:CPU:0",
        &conc.function.name,
        &[RemoteArg::from(&shard0)],
    )?;
    println!("remote graph-function result: {:?}", remote[0].fetch()?.to_f64_vec()?);

    cluster.shutdown();
    println!("devices_and_distribution finished ok");
    Ok(())
}
