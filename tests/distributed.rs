//! Distribution integration tests (§4.5): data-parallel gradient
//! computation with a single coordinator, remote graph-function dispatch
//! over both transports, typed failure semantics under worker death, and
//! bitwise collective parity against local reference emulations.

mod common;

use common::{bits, tensor_bits};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_eager::dist::{
    all_reduce_means, ps_all_reduce_mean, ps_reference_mean, ring_all_reduce_mean,
    ring_reference_mean, Cluster, ClusterSpec, DistError, Input, Program, RemoteArg, RemoteTensor,
    RpcOptions, Shard, TransportKind,
};
use tf_eager::graph::program::{Program as FusedProgram, Programs};
use tf_eager::nn::layers::Layer;
use tf_eager::nn::{mlp, Activation, Initializer};
use tf_eager::prelude::*;
use tfe_ops::{AttrValue, Attrs};

fn both_transports() -> [TransportKind; 2] {
    [TransportKind::InProcess, TransportKind::Tcp]
}

fn start(spec: &ClusterSpec, kind: TransportKind) -> Cluster {
    Cluster::start_with(spec, kind, RpcOptions::default()).expect("cluster starts")
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

/// A fused op crosses the wire with its program as text, which the worker
/// compiles: one run remotely gives the bits of the program evaluated one
/// instruction at a time locally, whether the caller holds the compiled
/// program or only its text. An `out_dtype` attribute, which older writers
/// sent, is ignored.
#[test]
fn remote_fused_op_runs_its_program_text() {
    tf_eager::init();
    let text = "in:0;in:1;b:mul:0:1;u:tanh:2|3";
    let program = FusedProgram::decode(text).unwrap();
    let x = api::constant(vec![0.5f32, -1.25, 3.0, -0.0], [4]).unwrap();
    let y = api::constant(vec![2.0f32, 0.75, -0.5, 1.5], [4]).unwrap();
    let (xd, yd) = (x.value().unwrap(), y.value().unwrap());
    let want = common::per_instruction(&program, &[&xd, &yd]).unwrap();
    let compiled = Programs::default().compiled(program);
    for kind in both_transports() {
        let cluster = start(&ClusterSpec::new().with_job("w", 1).unwrap(), kind);
        let dev = "/job:w/task:0/device:CPU:0";
        let args = [RemoteArg::from(&x), RemoteArg::from(&y)];
        for attrs in [
            Attrs::new().with("program", AttrValue::Handle(compiled.clone())),
            Attrs::new().with("program", text),
            Attrs::new().with("program", text).with("out_dtype", DType::F64),
        ] {
            let out = cluster.execute(dev, "fused_elementwise", &args, attrs.clone()).unwrap();
            let got = out[0].fetch().unwrap().value().unwrap();
            assert!(common::same_bits(&got, &want), "{kind:?} {attrs:?}: {got:?} vs {want:?}");
        }
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

        // Every request shape: a one-step program of either kind, a
        // no-step fetch, a ping.
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
    let ref_bits = bits(&reference);

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
        assert_eq!(tensor_bits(&mean.fetch().unwrap()), ref_bits, "{kind:?}");
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
        let ref_bits = bits(&reference);

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
                assert_eq!(tensor_bits(&r.fetch().unwrap()), ref_bits, "{kind:?} dims {dims:?}");
            }
            cluster.shutdown();
        }
    }
}

/// A tensor of `dtype` and `dims` whose first elements are the values a
/// careless codec or combine order loses: −0.0, NaNs with a payload and a
/// sign, subnormals, infinities (floats); negatives and values that do not
/// divide evenly (ints). `salt` varies them from shard to shard.
fn awkward(dtype: DType, dims: &[usize], salt: u64) -> Tensor {
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(1000 + salt);
    let data = rng.uniform(DType::F64, Shape::from(dims.to_vec()), -3.0, 3.0).unwrap();
    let mut values = data.to_f64_vec();
    let len = values.len();
    let data = match dtype {
        DType::F32 => {
            let mut values: Vec<f32> = values.iter().map(|&v| v as f32).collect();
            let specials = [
                -0.0f32,
                f32::from_bits(0x7fc0_1234 + salt as u32),
                f32::from_bits(0xffa0_0001),
                f32::from_bits(1 + salt as u32),
                -f32::MIN_POSITIVE / 2.0,
                f32::INFINITY,
            ];
            for (at, special) in specials.into_iter().enumerate().take(len) {
                values[(at + salt as usize) % len] = special;
            }
            TensorData::from_vec(values, dims.to_vec()).unwrap()
        }
        DType::F64 => {
            let specials = [
                -0.0f64,
                f64::from_bits(0x7ff8_0000_dead_0000 + salt),
                f64::from_bits(3 + salt),
                f64::NEG_INFINITY,
            ];
            for (at, special) in specials.into_iter().enumerate().take(len) {
                values[(at + salt as usize) % len] = special;
            }
            TensorData::from_vec(values, dims.to_vec()).unwrap()
        }
        _ => {
            let values: Vec<i32> = values.iter().map(|&v| (v * 1000.0) as i32 - 7).collect();
            TensorData::from_vec(values, dims.to_vec()).unwrap()
        }
    };
    Tensor::from_data(data)
}

/// Both collectives, over several tensors at once and one tensor at a
/// time, match their references bit for bit — on both transports, for one,
/// two and three workers, over shapes that chunk evenly, unevenly, not at
/// all (fewer rows than workers, a scalar) or hold nothing, and over values
/// a lossy codec or another combine order would change.
#[test]
fn collectives_match_their_references_over_shapes_and_workers() {
    tf_eager::init();
    let cases: Vec<(DType, Vec<usize>)> = vec![
        (DType::F32, vec![]),
        (DType::F32, vec![1]),
        (DType::F32, vec![2, 3]),
        (DType::F32, vec![7, 2]),
        (DType::F32, vec![6]),
        (DType::F32, vec![0, 3]),
        (DType::F64, vec![5, 3]),
        (DType::F64, vec![]),
        (DType::I32, vec![4, 2]),
        (DType::I32, vec![2]),
    ];
    for kind in both_transports() {
        for n in 1..=3usize {
            let spec = ClusterSpec::new().with_job("train", n).unwrap().with_job("ps", 1).unwrap();
            let cluster = start(&spec, kind);
            let ps = "/job:ps/task:0/device:CPU:0";
            let device = |w: usize| format!("/job:train/task:{w}/device:CPU:0");
            let what =
                |v: usize| format!("{kind:?}, {n} worker(s), {:?}{:?}", cases[v].0, cases[v].1);

            let mut shards = Vec::new();
            let mut ps_bits = Vec::new();
            let mut ring_bits = Vec::new();
            for (v, (dtype, dims)) in cases.iter().enumerate() {
                let local: Vec<Tensor> =
                    (0..n).map(|w| awkward(*dtype, dims, (3 * v + w) as u64)).collect();
                let values: Vec<_> = local.iter().map(|t| t.value().unwrap()).collect();
                ps_bits.push(bits(&ps_reference_mean(&values).unwrap()));
                ring_bits.push(bits(&ring_reference_mean(&values).unwrap()));
                let placed: Vec<RemoteTensor> =
                    local.iter().enumerate().map(|(w, t)| place(&cluster, &device(w), t)).collect();
                shards.push(placed);
            }

            let all_at_once = |ps_device: Option<&str>| {
                let (specs, sides) = Shard::resident(&shards).unwrap();
                all_reduce_means(&cluster, ps_device, &specs, sides, false).unwrap().means
            };
            for (v, mean) in all_at_once(Some(ps)).iter().enumerate() {
                assert!(mean.value.is_none(), "not asked to fetch");
                let mean = &mean.resident[0];
                assert_eq!(mean.device.to_string(), ps);
                assert_eq!(
                    tensor_bits(&mean.fetch().unwrap()),
                    ps_bits[v],
                    "ps, all at once: {}",
                    what(v)
                );
            }
            for (v, mean) in all_at_once(None).iter().enumerate() {
                assert_eq!(mean.resident.len(), n);
                for (w, mean) in mean.resident.iter().enumerate() {
                    assert_eq!(mean.device.to_string(), device(w));
                    assert_eq!(mean.dims, cases[v].1);
                    let bits = tensor_bits(&mean.fetch().unwrap());
                    assert_eq!(bits, ring_bits[v], "ring, all at once: {}", what(v));
                }
            }
            for (v, of_tensor) in shards.iter().enumerate() {
                let mean = ps_all_reduce_mean(&cluster, ps, of_tensor).unwrap();
                assert_eq!(
                    tensor_bits(&mean.fetch().unwrap()),
                    ps_bits[v],
                    "ps, alone: {}",
                    what(v)
                );
                for mean in ring_all_reduce_mean(&cluster, of_tensor).unwrap() {
                    assert_eq!(
                        tensor_bits(&mean.fetch().unwrap()),
                        ring_bits[v],
                        "ring, alone: {}",
                        what(v)
                    );
                }
            }
            cluster.shutdown();
        }
    }
}

/// A round with a dead worker in it — first or last in worker order — is a
/// typed transport error inside the deadline, and it leaves the survivor's
/// connection in step: the reply the round did read, or gave up on, is not
/// what the next request reads.
#[test]
fn a_round_with_a_killed_worker_fails_typed_and_leaves_the_survivor_in_step() {
    tf_eager::init();
    for kind in both_transports() {
        for dead in 0..2 {
            let opts = RpcOptions::with_deadline(Duration::from_millis(800));
            let deadline = opts.deadline;
            let spec = ClusterSpec::new().with_job("w", 2).unwrap();
            let cluster = Cluster::start_with(&spec, kind, opts).expect("cluster starts");
            let devices = ["/job:w/task:0/device:CPU:0", "/job:w/task:1/device:CPU:0"];
            let x = api::scalar(3.0f32);
            let square = || {
                let mut program = Program::new();
                let step = program.op("square", &Attrs::new(), vec![Input::tensor(&x).unwrap()]);
                program.give(Input::Step(step, 0));
                program
            };
            // One good round first, so both connections are up and warm.
            let replies =
                cluster.round(vec![(devices[0], square()), (devices[1], square())]).unwrap();
            assert_eq!(replies.len(), 2);

            cluster.kill_worker(devices[dead]).unwrap();
            let started = Instant::now();
            let outcome = cluster.round(vec![(devices[0], square()), (devices[1], square())]);
            let elapsed = started.elapsed();
            match outcome {
                Err(DistError::Timeout { .. }) | Err(DistError::ConnectionLost { .. }) => {}
                other => panic!("want a typed transport error ({kind:?}), got {other:?}"),
            }
            assert!(elapsed < deadline + Duration::from_secs(1), "took {elapsed:?} ({kind:?})");

            // A mismatched call id would be a wire error here.
            let survivor = devices[1 - dead];
            cluster.ping(survivor).unwrap();
            let out = cluster.execute(survivor, "square", &[RemoteArg::from(&x)], Attrs::new());
            assert_eq!(out.unwrap()[0].fetch().unwrap().scalar_f64().unwrap(), 9.0);
            let replies = cluster.round(vec![(survivor, square())]).unwrap();
            let value = tf_eager::dist::decode_tensor(&replies[0].returned[0]).unwrap();
            assert_eq!(value.scalar_f64().unwrap(), 9.0);
            cluster.shutdown();
        }
    }
}

/// Two programs for one worker are not a round.
#[test]
fn a_round_takes_one_program_per_worker() {
    let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
    let dev = "/job:w/task:0/device:CPU:0";
    let outcome = cluster.round(vec![(dev, Program::new()), (dev, Program::new())]);
    assert!(matches!(outcome, Err(DistError::Spec(_))), "{outcome:?}");
    assert!(cluster.round(vec![]).unwrap().is_empty());
    cluster.shutdown();
}

/// A request no receiver would take is refused by the sender, typed, before
/// a byte is written: the connection stays up, and neither the completed
/// nor the failed counter moves. (One 64 MiB tensor: release builds only.)
#[cfg(not(debug_assertions))]
#[test]
fn an_oversized_request_is_refused_before_it_is_sent() {
    use tf_eager::dist::{WireError, MAX_FRAME_LEN};
    tf_eager::init();
    let huge = Tensor::from_data(TensorData::zeros(DType::Bool, Shape::from([MAX_FRAME_LEN])));
    for (kind, job) in both_transports().into_iter().zip(["big_chan", "big_tcp"]) {
        let cluster = start(&ClusterSpec::new().with_job(job, 1).unwrap(), kind);
        let dev = format!("/job:{job}/task:0/device:CPU:0");
        cluster.ping(&dev).unwrap();
        let counters = || {
            let snap = tf_eager::metrics::snapshot();
            let label = format!("{job}/0");
            let read = |name| snap.counter_with(name, &label).unwrap_or(0);
            (read("tfe_dist_rpcs_total"), read("tfe_dist_rpc_failures_total"))
        };
        let before = counters();
        match cluster.execute(&dev, "identity", &[RemoteArg::from(&huge)], Attrs::new()) {
            Err(DistError::Wire(WireError::Oversized { len, max })) => {
                assert!(len > max && max == MAX_FRAME_LEN, "{len} vs {max}");
            }
            other => panic!("want an oversized refusal ({kind:?}), got {:?}", other.map(|_| ())),
        }
        assert_eq!(counters(), before, "{kind:?}: the refusal is not an RPC");
        cluster.ping(&dev).unwrap();
        assert_eq!(counters(), (before.0 + 1, before.1), "{kind:?}: same connection, no failure");
        cluster.shutdown();
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
