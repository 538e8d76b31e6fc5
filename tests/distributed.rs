//! Distribution integration tests (§4.5): data-parallel gradient
//! computation with a single coordinator, remote graph-function dispatch
//! over both transports, typed failure semantics under worker death, and
//! bitwise collective parity against local reference emulations.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_eager::dist::{
    ps_all_reduce_mean, ps_reference_mean, ring_all_reduce_mean, ring_reference_mean, Cluster,
    ClusterSpec, DistError, RemoteArg, RemoteTensor, RpcOptions, TransportKind,
};
use tf_eager::nn::layers::Layer;
use tf_eager::nn::{mlp, Activation, Initializer};
use tf_eager::prelude::*;
use tfe_ops::Attrs;

fn both_transports() -> [TransportKind; 2] {
    [TransportKind::InProcess, TransportKind::Tcp]
}

fn start(spec: &ClusterSpec, kind: TransportKind) -> Cluster {
    Cluster::start_with(spec, kind, RpcOptions::default()).expect("cluster starts")
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.to_f64_vec().unwrap().iter().map(|v| v.to_bits()).collect()
}

/// Ship a local tensor to a worker and leave it resident there.
fn place(cluster: &Cluster, dev: &str, t: &Tensor) -> RemoteTensor {
    cluster
        .execute(dev, "identity", &[RemoteArg::from(t)], Attrs::new())
        .unwrap()
        .into_iter()
        .next()
        .unwrap()
}

/// Single-coordinator data parallelism: shard a batch over workers, each
/// worker computes per-shard predictions through one shared graph
/// function, the coordinator reduces. Runs identically over both
/// transports.
#[test]
fn data_parallel_inference_matches_local() {
    tf_eager::init();
    let model = Arc::new(mlp(4, &[8], 2, Activation::Tanh, &mut Initializer::seeded(3)));
    let infer = {
        let model = model.clone();
        function1("dist_infer", move |x| model.call(x, false))
    };
    // Trace once; workers resolve the graph function by name (§5: the
    // coordinator holds call operations, not N subgraph copies).
    let probe = api::zeros(DType::F32, [4, 4]);
    let conc = infer.concrete_for(&[Arg::from(&probe)]).unwrap();

    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(9);
    let full = Tensor::from_data(rng.uniform(DType::F32, Shape::from([12, 4]), -1.0, 1.0).unwrap());
    let local = model.call(&full, false).unwrap().to_f64_vec().unwrap();

    for kind in both_transports() {
        let cluster = start(&ClusterSpec::new().with_job("worker", 3).unwrap(), kind);
        // Shard rows across the three workers.
        let mut remote_rows = Vec::new();
        for t in 0..3 {
            let shard = api::slice(&full, &[t * 4, 0], &[4, -1]).unwrap();
            let dev = format!("/job:worker/task:{t}/device:CPU:0");
            let out = cluster
                .call_function(&dev, &conc.function.name, &[RemoteArg::from(&shard)])
                .unwrap();
            remote_rows.push(out.into_iter().next().unwrap());
        }
        let mut distributed = Vec::new();
        for r in &remote_rows {
            distributed.extend(r.fetch().unwrap().to_f64_vec().unwrap());
        }
        assert_eq!(local.len(), distributed.len());
        // The worker runs the same kernels on bitwise-identical inputs
        // (floats survive the wire exactly), so parity is exact.
        for (l, d) in local.iter().zip(&distributed) {
            assert_eq!(l.to_bits(), d.to_bits(), "local {l} vs distributed {d} ({kind:?})");
        }
        cluster.shutdown();
    }
}

/// Gradient averaging across workers: each worker computes a partial
/// mean-squared loss via a staged loss function; the coordinator averages
/// the per-shard losses, matching the full-batch loss.
#[test]
fn sharded_loss_averages_to_full_batch() {
    tf_eager::init();
    let loss_fn = function("dist_loss", |args| {
        let pred = args[0].as_tensor().expect("pred");
        let target = args[1].as_tensor().expect("target");
        Ok(vec![api::reduce_mean(&api::squared_difference(pred, target)?, &[], false)?])
    });
    let p = api::constant((0..8).map(|i| i as f32).collect::<Vec<_>>(), [8, 1]).unwrap();
    let t = api::ones(DType::F32, [8, 1]);
    let conc = loss_fn
        .concrete_for(&[
            Arg::from(&api::zeros(DType::F32, [4, 1])),
            Arg::from(&api::zeros(DType::F32, [4, 1])),
        ])
        .unwrap();

    let full = loss_fn.call_tensors(&[&p, &t]).unwrap()[0].scalar_f64().unwrap();

    let cluster = Cluster::start(&ClusterSpec::new().with_job("worker", 2).unwrap());
    let mut partials = Vec::new();
    for task in 0..2 {
        let ps = api::slice(&p, &[task * 4, 0], &[4, -1]).unwrap();
        let ts = api::slice(&t, &[task * 4, 0], &[4, -1]).unwrap();
        let dev = format!("/job:worker/task:{task}/device:CPU:0");
        let out = cluster
            .call_function(&dev, &conc.function.name, &[RemoteArg::from(&ps), RemoteArg::from(&ts)])
            .unwrap();
        partials.push(out[0].fetch().unwrap().scalar_f64().unwrap());
    }
    let averaged = partials.iter().sum::<f64>() / partials.len() as f64;
    assert!((full - averaged).abs() < 1e-6, "full-batch {full} vs averaged shards {averaged}");
    cluster.shutdown();
}

/// Remote tensors are freed when the last handle drops, and reusing a
/// dangling id fails loudly.
#[test]
fn remote_tensor_lifecycle() {
    tf_eager::init();
    let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
    let dev = "/job:w/task:0/device:CPU:0";
    let a = api::scalar(2.0f32);
    let r = cluster.execute(dev, "square", &[RemoteArg::from(&a)], Attrs::new()).unwrap();
    let handle = r.into_iter().next().unwrap();
    let id = handle.id;
    let clone = handle.clone();
    drop(handle);
    // Still alive through the clone.
    assert_eq!(clone.fetch().unwrap().scalar_f64().unwrap(), 4.0);
    drop(clone);
    // A forged handle to the dropped id must fail on the worker.
    let forged = cluster.execute(dev, "identity", &[RemoteArg::from(&a)], Attrs::new()).unwrap();
    assert!(forged[0].id != id || forged[0].fetch().is_ok());
    cluster.shutdown();
}

/// The worker is one of the places an op *name* enters the process: a name
/// the catalog does not have is a typed remote fault, over both transports,
/// and the worker serves the next request.
#[test]
fn unknown_op_is_a_remote_fault_and_the_worker_keeps_serving() {
    for kind in both_transports() {
        let cluster = start(&ClusterSpec::new().with_job("w", 1).unwrap(), kind);
        let dev = "/job:w/task:0/device:CPU:0";
        let x = api::scalar(3.0f32);
        match cluster.execute(dev, "nope", &[RemoteArg::from(&x)], Attrs::new()) {
            Err(DistError::RemoteFault { detail, .. }) => {
                assert!(detail.contains("unknown operation `nope`"), "{detail}");
            }
            other => panic!("want a remote fault ({kind:?}), got {:?}", other.map(|_| ())),
        }
        // So is an op that exists but that only the dispatcher can run.
        assert!(matches!(
            cluster.execute(dev, "call", &[], Attrs::new()),
            Err(DistError::RemoteFault { .. })
        ));
        let out = cluster.execute(dev, "square", &[RemoteArg::from(&x)], Attrs::new()).unwrap();
        assert_eq!(out[0].fetch().unwrap().scalar_f64().unwrap(), 9.0);
        cluster.shutdown();
    }
}

/// Multiple jobs in one cluster, mirroring the paper's naming examples
/// (`/job:training/task:2/...`).
#[test]
fn multi_job_clusters() {
    tf_eager::init();
    for kind in both_transports() {
        let spec = ClusterSpec::new().with_job("training", 2).unwrap().with_job("ps", 1).unwrap();
        let cluster = start(&spec, kind);
        assert_eq!(cluster.list_devices().len(), 3);
        let x = api::scalar(1.5f64);
        for dev in ["/job:training/task:1/device:CPU:0", "/job:ps/task:0/device:CPU:0"] {
            let out = cluster.execute(dev, "square", &[RemoteArg::from(&x)], Attrs::new()).unwrap();
            assert_eq!(out[0].fetch().unwrap().scalar_f64().unwrap(), 2.25);
            assert_eq!(out[0].device.to_string(), dev);
        }
        cluster.shutdown();
    }
}

/// Workers share the process-wide variable registry (standing in for
/// resource handles living on the worker): a staged function that reads
/// and updates a variable runs remotely and mutates the shared state.
#[test]
fn remote_stateful_graph_function() {
    tf_eager::init();
    let v = Variable::new(TensorData::scalar(100.0f32));
    let bump = {
        let v = v.clone();
        function("remote_bump", move |args| {
            let x = args[0].as_tensor().expect("x");
            v.assign_add(x)?;
            Ok(vec![v.read()?])
        })
    };
    let conc = bump.concrete_for(&[Arg::from(&api::scalar(0.0f32))]).unwrap();
    let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
    let out = cluster
        .call_function(
            "/job:w/task:0/device:CPU:0",
            &conc.function.name,
            &[RemoteArg::from(&api::scalar(5.0f32))],
        )
        .unwrap();
    assert_eq!(out[0].fetch().unwrap().scalar_f64().unwrap(), 105.0);
    // The mutation is visible to the coordinator.
    assert_eq!(v.peek().scalar_f64().unwrap(), 105.0);
    cluster.shutdown();
}

/// Killing a worker mid-cluster surfaces a typed `DistError` on every RPC
/// path within the configured deadline — never a hang, never a panic.
#[test]
fn killed_worker_surfaces_typed_error_within_deadline() {
    tf_eager::init();
    for kind in both_transports() {
        let opts = RpcOptions::with_deadline(Duration::from_millis(800));
        let deadline = opts.deadline;
        let spec = ClusterSpec::new().with_job("w", 2).unwrap();
        let cluster = Cluster::start_with(&spec, kind, opts).expect("cluster starts");
        let d0 = "/job:w/task:0/device:CPU:0";
        let d1 = "/job:w/task:1/device:CPU:0";
        let x = api::scalar(3.0f32);
        let resident = place(&cluster, d0, &x);

        cluster.kill_worker(d0).unwrap();

        // Every RPC path: execute, call_function, fetch, ping.
        let started = Instant::now();
        let results: Vec<Result<(), DistError>> = vec![
            cluster.execute(d0, "square", &[RemoteArg::from(&x)], Attrs::new()).map(|_| ()),
            cluster.call_function(d0, "no_fn_needed", &[]).map(|_| ()),
            resident.fetch().map(|_| ()),
            cluster.ping(d0),
        ];
        let elapsed = started.elapsed();
        for r in results {
            match r {
                Err(DistError::Timeout { .. }) | Err(DistError::ConnectionLost { .. }) => {}
                other => panic!("expected typed transport error ({kind:?}), got {other:?}"),
            }
        }
        // 4 RPCs, each bounded by its own deadline (+ generous slack for a
        // loaded CI box).
        assert!(
            elapsed < deadline * 4 + Duration::from_secs(2),
            "errors took {elapsed:?} ({kind:?})"
        );

        // The surviving worker keeps serving.
        let out = cluster.execute(d1, "square", &[RemoteArg::from(&x)], Attrs::new()).unwrap();
        assert_eq!(out[0].fetch().unwrap().scalar_f64().unwrap(), 9.0);
        drop(resident);
        cluster.shutdown();
    }
}

/// Parameter-server all-reduce matches its local reference emulation
/// bitwise on both transports.
#[test]
fn ps_collective_matches_reference_bitwise() {
    tf_eager::init();
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(17);
    let grads: Vec<Tensor> = (0..3)
        .map(|_| {
            Tensor::from_data(rng.uniform(DType::F32, Shape::from([5, 3]), -2.0, 2.0).unwrap())
        })
        .collect();
    let reference =
        ps_reference_mean(&grads.iter().map(|g| g.value().unwrap()).collect::<Vec<_>>()).unwrap();
    let ref_bits = bits(&Tensor::from_data(reference));

    for kind in both_transports() {
        let spec = ClusterSpec::new().with_job("train", 3).unwrap().with_job("ps", 1).unwrap();
        let cluster = start(&spec, kind);
        let shards: Vec<RemoteTensor> = grads
            .iter()
            .enumerate()
            .map(|(t, g)| place(&cluster, &format!("/job:train/task:{t}/device:CPU:0"), g))
            .collect();
        let mean = ps_all_reduce_mean(&cluster, "/job:ps/task:0/device:CPU:0", &shards).unwrap();
        assert_eq!(mean.device.to_string(), "/job:ps/task:0/device:CPU:0");
        assert_eq!(bits(&mean.fetch().unwrap()), ref_bits, "{kind:?}");
        cluster.shutdown();
    }
}

/// Ring all-reduce matches its local reference emulation bitwise on both
/// transports, including uneven chunking and the scalar fallback; all
/// workers end up with identical results.
#[test]
fn ring_collective_matches_reference_bitwise() {
    tf_eager::init();
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(23);
    // rows=7 over 3 workers: uneven chunks (3,2,2). Also a scalar case.
    for dims in [vec![7usize, 2], vec![]] {
        let grads: Vec<Tensor> = (0..3)
            .map(|_| {
                Tensor::from_data(
                    rng.uniform(DType::F64, Shape::from(dims.clone()), -1.0, 1.0).unwrap(),
                )
            })
            .collect();
        let reference =
            ring_reference_mean(&grads.iter().map(|g| g.value().unwrap()).collect::<Vec<_>>())
                .unwrap();
        let ref_bits = bits(&Tensor::from_data(reference));

        for kind in both_transports() {
            let spec = ClusterSpec::new().with_job("train", 3).unwrap();
            let cluster = start(&spec, kind);
            let shards: Vec<RemoteTensor> = grads
                .iter()
                .enumerate()
                .map(|(t, g)| place(&cluster, &format!("/job:train/task:{t}/device:CPU:0"), g))
                .collect();
            let reduced = ring_all_reduce_mean(&cluster, &shards).unwrap();
            assert_eq!(reduced.len(), 3);
            for r in &reduced {
                assert_eq!(bits(&r.fetch().unwrap()), ref_bits, "{kind:?} dims {dims:?}");
            }
            cluster.shutdown();
        }
    }
}

/// Spec and resolution failures are typed, not stringly panics.
#[test]
fn cluster_spec_typed_errors() {
    tf_eager::init();
    assert!(matches!(
        ClusterSpec::new().with_job("w", 1).unwrap().with_job("w", 2),
        Err(DistError::DuplicateJob(_))
    ));
    assert!(matches!(ClusterSpec::new().with_job("w", 0), Err(DistError::EmptyJob(_))));

    let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 2).unwrap());
    // Unknown job.
    assert!(matches!(
        cluster.ping("/job:nope/task:0/device:CPU:0"),
        Err(DistError::NoSuchWorker(_))
    ));
    // Task out of range.
    assert!(matches!(cluster.ping("/job:w/task:2/device:CPU:0"), Err(DistError::NoSuchWorker(_))));
    // Workers only contribute CPU:0.
    assert!(matches!(cluster.ping("/job:w/task:0/device:GPU:0"), Err(DistError::BadDevice(_))));
    assert!(matches!(cluster.ping("/job:w/task:0/device:CPU:1"), Err(DistError::BadDevice(_))));
    // Garbage device strings.
    assert!(matches!(cluster.ping("not-a-device"), Err(DistError::BadDevice(_))));
    cluster.shutdown();
}
