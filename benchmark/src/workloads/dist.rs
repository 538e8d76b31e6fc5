//! Data-parallel training over real localhost TCP: 2 workers and 1
//! parameter server, all threads of the program's own. Phase 1 reduces
//! gradients through the parameter server, phase 2 with ring all-reduce:
//! the same wire, transport, rpc and JSON tensor codec under two call
//! patterns (few large frames against many chunked ones).

use super::{bitwise_check, err, falls_checks, trace_and_call, Check, Workload, CHECK_STEPS};
use crate::probes::{per_call_ns, self_timed_ns};
use crate::rng::{f32_tensor, Rng};
use crate::spans;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tf_eager::dist::{ps_all_reduce_mean, ring_all_reduce_mean};
use tf_eager::dist::{Cluster, ClusterSpec, Frame, RemoteArg};
use tf_eager::nn::losses::mean_squared_error;
use tf_eager::nn::{mlp, mse_grad_fn, Activation, DataParallel, Initializer, Layer, Reduction};
use tf_eager::nn::{Sequential, Sgd};
use tf_eager::{api, Arg, Attrs, ConcreteFunction, DType, Tensor};

pub const BATCH: usize = 64;
pub const FEATURES: usize = 32;
pub const HIDDEN: [usize; 2] = [128, 128];
pub const WORKERS: usize = 2;
const LEARNING_RATE: f64 = 0.05;

pub const PS_DEVICE: &str = "/job:ps/task:0/device:CPU:0";

pub fn worker_devices() -> Vec<String> {
    (0..WORKERS).map(|i| format!("/job:train/task:{i}/device:CPU:0")).collect()
}

pub fn cluster_spec() -> Result<ClusterSpec, String> {
    ClusterSpec::new().with_job("train", WORKERS).map_err(err)?.with_job("ps", 1).map_err(err)
}

/// One model with its traced gradient function, behind a trainer.
pub struct Replica {
    pub model: Arc<Sequential>,
    pub trainer: DataParallel,
}

impl Replica {
    fn new(seed: u64, cluster: Cluster, reduction: Reduction) -> Result<Replica, String> {
        let model =
            Arc::new(mlp(FEATURES, &HIDDEN, 1, Activation::Tanh, &mut Initializer::seeded(seed)));
        let grad_fn = trace_grad_fn(&model, "dist_grad")?;
        let trainer = DataParallel::new(
            cluster,
            worker_devices(),
            reduction,
            &grad_fn.function.name,
            model.variables(),
            Arc::new(Sgd::new(LEARNING_RATE)),
        )
        .map_err(err)?;
        Ok(Replica { model, trainer })
    }

    fn eval(&self, batch: &(Tensor, Tensor)) -> Result<f64, String> {
        let predictions = self.model.call(&batch.0, false).map_err(err)?;
        mean_squared_error(&predictions, &batch.1).map_err(err)?.scalar_f64().map_err(err)
    }
}

/// Trace the per-shard gradient function workers resolve by name.
fn trace_grad_fn(model: &Arc<Sequential>, name: &str) -> Result<Arc<ConcreteFunction>, String> {
    let rows = BATCH / WORKERS;
    mse_grad_fn(name, model.clone(), model.variables())
        .concrete_for(&[
            Arg::from(&api::zeros(DType::F32, [rows, FEATURES])),
            Arg::from(&api::zeros(DType::F32, [rows, 1])),
        ])
        .map_err(err)
}

pub struct Dist {
    /// Parameter server, then ring.
    pub replicas: [Replica; 2],
    /// The single-process reference of each, over an in-process cluster that
    /// only answers the constructor's liveness ping.
    pub references: [Replica; 2],
    batches: Box<dyn FnMut() -> (Tensor, Tensor)>,
    eval_batch: (Tensor, Tensor),
    eval_before: [f64; 2],
    checks: Vec<Check>,
}

/// The bytes one step has to move at the least: the batch out to the
/// workers, each worker's gradients out of it, and the mean back to the
/// coordinator that applies it. f32 throughout.
pub fn raw_bytes_per_step() -> f64 {
    let parameters = {
        let mut total = 0;
        let mut inputs = FEATURES;
        for units in HIDDEN.into_iter().chain([1]) {
            total += inputs * units + units;
            inputs = units;
        }
        total
    };
    (4 * (BATCH * (FEATURES + 1) + (WORKERS + 1) * parameters)) as f64
}

pub fn reductions() -> [Reduction; 2] {
    [Reduction::ParameterServer { ps_device: PS_DEVICE.to_string() }, Reduction::Ring]
}

pub fn build(seed: u64) -> Result<Dist, String> {
    let spec = cluster_spec()?;
    let replica = |reduction: &Reduction, tcp: bool| {
        let cluster =
            if tcp { Cluster::start_tcp(&spec).map_err(err)? } else { Cluster::start(&spec) };
        Replica::new(seed, cluster, reduction.clone())
    };
    let [ps, ring] = reductions();
    let replicas = [replica(&ps, true)?, replica(&ring, true)?];
    let references = [replica(&ps, false)?, replica(&ring, false)?];

    // The target is a fixed linear function of the features plus noise.
    let mut rng = Rng::new(seed);
    let teacher: Vec<f64> =
        (0..FEATURES).map(|_| rng.normal() / (FEATURES as f64).sqrt()).collect();
    let mut batches: Box<dyn FnMut() -> (Tensor, Tensor)> = Box::new(move || {
        let x = rng.normal_vec(BATCH * FEATURES, 1.0);
        let y: Vec<f32> = x
            .chunks(FEATURES)
            .map(|row| {
                let clean: f64 = row.iter().zip(&teacher).map(|(&a, &w)| a as f64 * w).sum();
                (clean + 0.05 * rng.normal()) as f32
            })
            .collect();
        (f32_tensor(x, &[BATCH, FEATURES]), f32_tensor(y, &[BATCH, 1]))
    });

    let eval_batch = batches();
    let eval_before = [replicas[0].eval(&eval_batch)?, replicas[1].eval(&eval_batch)?];
    let first: Vec<(Tensor, Tensor)> = (0..CHECK_STEPS).map(|_| batches()).collect();
    let mut checks = Vec::new();
    for (i, name) in ["ps_step_equals_local_step", "ring_step_equals_local_step"].iter().enumerate()
    {
        let mut over_tcp = Vec::new();
        let mut local = Vec::new();
        for (x, y) in &first {
            over_tcp.push(replicas[i].trainer.step(x, y).map_err(err)?);
            local.push(references[i].trainer.local_step(x, y).map_err(err)?);
        }
        checks.push(bitwise_check(name, &over_tcp, &local));
    }
    Ok(Dist { replicas, references, batches, eval_batch, eval_before, checks })
}

impl Workload for Dist {
    fn examples(&self) -> f64 {
        BATCH as f64
    }

    /// 0.50 s a set-up.
    fn setups(&self) -> usize {
        3
    }

    fn step(&mut self, phase: usize) -> Result<f64, String> {
        spans::next_step();
        spans::scope(super::STEP_SPANS[phase], || {
            let (x, y) = spans::scope("input", || (self.batches)());
            spans::scope("dist_step", || self.replicas[phase].trainer.step(&x, &y)).map_err(err)
        })
    }

    /// The function this workload stages is the per-shard gradient
    /// function, so its arguments are one worker's shard of a batch.
    fn first_call_args(&mut self) -> Result<Vec<Tensor>, String> {
        let rows = (BATCH / WORKERS) as i64;
        let (x, y) = (self.batches)();
        let shard = |t: &Tensor, width: usize| api::slice(t, &[0, 0], &[rows, width as i64]);
        Ok(vec![shard(&x, FEATURES).map_err(err)?, shard(&y, 1).map_err(err)?])
    }

    fn first_call(&mut self, args: &[Tensor]) -> Result<Arc<ConcreteFunction>, String> {
        let model = self.replicas[0].model.clone();
        trace_and_call(&mse_grad_fn("dist_grad_fresh", model.clone(), model.variables()), args)
    }

    fn layer_probes(&mut self) -> Result<super::Probed, String> {
        let mut out = Vec::new();
        crate::probes::tensor_codec(&mut out);

        let frame = Frame::new(1, None, crate::probes::gradient_frame_body());
        let bytes = frame.encode();
        let encode_ns = per_call_ns(|| {
            black_box(frame.encode());
        });
        let decode_ns = per_call_ns(|| {
            black_box(Frame::decode(&bytes).expect("frame decodes"));
        });
        out.push(("dist.frame_encode_us", encode_ns / 1e3));
        out.push(("dist.frame_decode_us", decode_ns / 1e3));

        let workers = worker_devices();
        let cluster = self.replicas[0].trainer.cluster();
        let ping_ns = per_call_ns(|| cluster.ping(&workers[0]).expect("ping"));
        out.push(("dist.rpc_ping_us", ping_ns / 1e3));

        // Each collective alone, over every gradient of the model, on
        // shards that already sit on the workers.
        let mut shards = Vec::new();
        for v in self.replicas[0].model.variables() {
            let value = Tensor::from_data(v.peek().as_ref().clone());
            let mut per_worker = Vec::new();
            for w in &workers {
                let placed = cluster
                    .execute(w, "identity", &[RemoteArg::from(&value)], Attrs::new())
                    .map_err(err)?;
                per_worker.push(placed.into_iter().next().ok_or("identity returned nothing")?);
            }
            shards.push(per_worker);
        }
        let ps_ns = self_timed_ns(|| {
            let t = Instant::now();
            for s in &shards {
                black_box(ps_all_reduce_mean(cluster, PS_DEVICE, s).expect("ps all-reduce"));
            }
            t.elapsed()
        });
        let ring_ns = self_timed_ns(|| {
            let t = Instant::now();
            for s in &shards {
                black_box(ring_all_reduce_mean(cluster, s).expect("ring all-reduce"));
            }
            t.elapsed()
        });
        out.push(("dist.allreduce_ps_ms", ps_ns / 1e6));
        out.push(("dist.allreduce_ring_ms", ring_ns / 1e6));
        drop(shards);

        let (x, y) = (self.batches)();
        let reference = &self.references[0].trainer;
        let local_ns = per_call_ns(|| {
            black_box(reference.local_step(&x, &y).expect("local step"));
        });
        out.push(("dist.local_step_ms", local_ns / 1e6));
        Ok(out)
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.checks.clone()
    }

    fn final_checks(&mut self, steps: [u64; 2]) -> Vec<Check> {
        let after = |phase: usize| self.replicas[phase].eval(&self.eval_batch);
        falls_checks(self.eval_before, after, steps)
    }
}
