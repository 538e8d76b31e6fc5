//! Data-parallel training over a `tfe_dist` cluster (§4.5): shard a batch
//! across workers, run one staged gradient function per shard remotely,
//! aggregate gradients with a deterministic collective, and apply the
//! optimizer update on the coordinator.
//!
//! A step is a handful of round trips, not one per op: each worker gets one
//! request that calls the gradient function and runs the collective's first
//! round over its outputs, all workers' requests are in flight at once, and
//! losses and means come back in the replies (`tfe_dist::collective` has
//! the rounds). On 2 workers that is 3 requests in 2 rounds through a
//! parameter server and 6 in 3 around a ring, for any number of variables.
//!
//! [`DataParallel::local_step`] is the bit-reference: it runs the *same*
//! staged function on the same shards in the same order on the
//! coordinator, aggregates with the collective's local reference
//! emulation, and applies the same update — so distributed training is
//! required to match it bitwise (see `crates/dist/src/collective.rs` for
//! the determinism policy).

use crate::layers::Layer;
use crate::losses::mean_squared_error;
use crate::optimizer::Optimizer;
use std::sync::Arc;
use tfe_autodiff::GradientTape;
use tfe_core::Func;
use tfe_dist::{
    all_reduce_means, decode_tensor, ps_reference_mean, ring_reference_mean, Cluster, DistError,
    Input, Program, Shard, Spec,
};
use tfe_runtime::{api, context, ExecMode, RuntimeError, Tensor, Variable};
use tfe_tensor::TensorData;

/// Result alias matching the distribution layer.
pub type Result<T, E = DistError> = std::result::Result<T, E>;

/// How per-worker gradients are combined into one update.
#[derive(Debug, Clone)]
pub enum Reduction {
    /// Relay all shard gradients to one parameter-server device, sum in
    /// worker order, divide by the worker count.
    ParameterServer {
        /// Device name of the parameter server (e.g.
        /// `/job:ps/task:0/device:CPU:0`).
        ps_device: String,
    },
    /// Ring all-reduce: chunked reduce-scatter + all-gather across the
    /// workers themselves (no dedicated parameter server).
    Ring,
}

/// Trace a gradient function `[loss, grad_0, …, grad_{V-1}] = f(x, y)` for
/// `model` under mean-squared-error loss. Variables that receive no
/// gradient contribute zeros, so the output arity is stable and equals
/// `1 + vars.len()`.
pub fn mse_grad_fn<L: Layer + Send + Sync + 'static>(
    name: &str,
    model: Arc<L>,
    vars: Vec<Variable>,
) -> Func {
    tfe_core::function(name, move |args| {
        let x = args[0]
            .as_tensor()
            .ok_or_else(|| RuntimeError::Internal("grad fn expects tensor x".to_string()))?;
        let y = args[1]
            .as_tensor()
            .ok_or_else(|| RuntimeError::Internal("grad fn expects tensor y".to_string()))?;
        let tape = GradientTape::new();
        let pred = model.call(x, true)?;
        let loss = mean_squared_error(&pred, y)?;
        let refs: Vec<&Variable> = vars.iter().collect();
        let grads = tape.gradient_vars(&loss, &refs)?;
        let mut out = vec![loss];
        for (g, v) in grads.into_iter().zip(&vars) {
            out.push(match g {
                Some(g) => g,
                None => api::constant_data(TensorData::zeros(v.dtype(), v.shape().clone())),
            });
        }
        Ok(out)
    })
}

/// A data-parallel training step over a running cluster.
pub struct DataParallel {
    cluster: Cluster,
    workers: Vec<String>,
    reduction: Reduction,
    grad_fn: String,
    /// The function `grad_fn` names, resolved once: `local_step` runs it,
    /// and holding it keeps the name resolving on the workers.
    grad: Arc<tfe_core::ConcreteFunction>,
    vars: Vec<Variable>,
    opt: Arc<dyn Optimizer>,
}

impl DataParallel {
    /// Build a trainer.
    ///
    /// `grad_fn` is the name of an already-traced gradient function (see
    /// [`mse_grad_fn`]) returning `[loss, grad per var]`; `workers` are the
    /// devices that each run one shard. The trainer holds the function for
    /// its own lifetime, so the caller may drop the `Func` it traced the
    /// name from.
    ///
    /// # Errors
    /// Empty worker lists, unknown devices and a `grad_fn` that names no
    /// live traced function are rejected up front.
    pub fn new(
        cluster: Cluster,
        workers: Vec<String>,
        reduction: Reduction,
        grad_fn: &str,
        vars: Vec<Variable>,
        opt: Arc<dyn Optimizer>,
    ) -> Result<DataParallel> {
        if workers.is_empty() {
            return Err(DistError::Spec("data-parallel trainer needs at least one worker".into()));
        }
        let grad = tfe_core::concrete_named(grad_fn).ok_or_else(|| {
            DistError::Spec(format!("no live traced function is named `{grad_fn}`"))
        })?;
        for w in &workers {
            cluster.ping(w)?;
        }
        if let Reduction::ParameterServer { ps_device } = &reduction {
            cluster.ping(ps_device)?;
        }
        Ok(DataParallel {
            cluster,
            workers,
            reduction,
            grad_fn: grad_fn.to_string(),
            grad,
            vars,
            opt,
        })
    }

    /// The number of workers (and therefore shards).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The cluster this trainer drives.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Slice `(x, y)` into one equal row-shard per worker.
    fn shard(&self, x: &Tensor, y: &Tensor) -> Result<Vec<(Tensor, Tensor)>> {
        let n = self.workers.len();
        let rows = x
            .shape()
            .map_err(DistError::from)?
            .dims()
            .first()
            .copied()
            .ok_or_else(|| DistError::Spec("batch must have a leading row axis".into()))?;
        if rows % n != 0 {
            return Err(DistError::Spec(format!(
                "batch of {rows} rows does not shard evenly over {n} workers"
            )));
        }
        let per = (rows / n) as i64;
        let slice_rows = |t: &Tensor, k: usize| -> Result<Tensor> {
            let rank = t.shape().map_err(DistError::from)?.dims().len();
            let mut begin = vec![0i64; rank];
            let mut size = vec![-1i64; rank];
            begin[0] = k as i64 * per;
            size[0] = per;
            api::slice(t, &begin, &size).map_err(DistError::from)
        };
        (0..n).map(|k| Ok((slice_rows(x, k)?, slice_rows(y, k)?))).collect()
    }

    /// One distributed step: dispatch shards, all-reduce gradients, apply
    /// the optimizer on the coordinator. Returns the mean shard loss.
    ///
    /// Each worker gets one request that calls the gradient function on its
    /// shard, returns the loss and goes straight on to the collective's
    /// first round over the gradients, so the shards compute at the same
    /// time and a step is 3 requests in 2 rounds through a parameter
    /// server, `3n` in 3 around a ring — whatever the number of variables.
    ///
    /// # Errors
    /// Typed [`DistError`] — sharding misfits, worker faults, transport
    /// failures — always within the RPC deadlines.
    pub fn step(&self, x: &Tensor, y: &Tensor) -> Result<f64> {
        let n = self.workers.len();
        let mut sides = Vec::with_capacity(n);
        for (device, (xs, ys)) in self.workers.iter().zip(self.shard(x, y)?) {
            let mut program = Program::new();
            let call = program.call(&self.grad_fn, vec![Input::tensor(&xs)?, Input::tensor(&ys)?]);
            program.give(Input::Step(call, 0));
            let grads = (0..self.vars.len()).map(|i| Input::Step(call, 1 + i)).collect();
            sides.push(Shard { device: device.clone(), program, grads });
        }
        let specs: Vec<Spec> =
            self.vars.iter().map(|v| (v.dtype(), v.shape().dims().to_vec())).collect();
        let ps_device = match &self.reduction {
            Reduction::ParameterServer { ps_device } => Some(ps_device.as_str()),
            Reduction::Ring => None,
        };
        let reduced = all_reduce_means(&self.cluster, ps_device, &specs, sides, true)?;

        let mut pairs = Vec::with_capacity(self.vars.len());
        for (mean, v) in reduced.means.iter().zip(&self.vars) {
            let value = mean.value.as_ref().expect("asked to fetch the means");
            pairs.push((decode_tensor(value)?, v.clone()));
        }

        // Mean shard loss, for reporting.
        let mut loss_sum = 0.0;
        for lead in &reduced.lead {
            let loss = lead.first().ok_or_else(|| {
                DistError::Spec(format!("grad fn `{}` returned no loss", self.grad_fn))
            })?;
            loss_sum += decode_tensor(loss)?.scalar_f64().map_err(DistError::from)?;
        }

        self.opt.apply(&pairs).map_err(DistError::from)?;
        Ok(loss_sum / n as f64)
    }

    /// The single-process bit-reference for [`DataParallel::step`]: the
    /// same staged function on the same shards in worker order, aggregated
    /// with the collective's local reference emulation, applied with the
    /// same optimizer. Distributed and local training from identical
    /// initial state must stay bitwise identical.
    ///
    /// # Errors
    /// Sharding misfits or local execution failures.
    pub fn local_step(&self, x: &Tensor, y: &Tensor) -> Result<f64> {
        let shards = self.shard(x, y)?;
        let n = self.workers.len();
        let f = &self.grad.function;
        let device = context::device_manager().host_cpu();

        let mut outs = Vec::with_capacity(n);
        for (xs, ys) in &shards {
            let inputs =
                vec![xs.value().map_err(DistError::from)?, ys.value().map_err(DistError::from)?];
            let out = tfe_runtime::executor::run_function_arc(
                f,
                &inputs,
                &device,
                ExecMode::SerialPlanned,
            )
            .map_err(DistError::from)?;
            if out.len() != 1 + self.vars.len() {
                return Err(DistError::Spec(format!(
                    "grad fn `{}` returned {} outputs, expected {}",
                    self.grad_fn,
                    out.len(),
                    1 + self.vars.len()
                )));
            }
            outs.push(out);
        }

        let mut pairs = Vec::with_capacity(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            let shard_grads: Vec<Arc<TensorData>> = outs.iter().map(|o| o[1 + i].clone()).collect();
            let mean = match &self.reduction {
                Reduction::ParameterServer { .. } => ps_reference_mean(&shard_grads)?,
                Reduction::Ring => ring_reference_mean(&shard_grads)?,
            };
            pairs.push((Tensor::from_data(mean), v.clone()));
        }

        let mut loss_sum = 0.0;
        for out in &outs {
            loss_sum += out[0]
                .to_f64_vec()
                .first()
                .copied()
                .ok_or_else(|| DistError::Spec("grad fn loss output is empty".into()))?;
        }

        self.opt.apply(&pairs).map_err(DistError::from)?;
        Ok(loss_sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mlp, optimizer::Sgd, Activation, Initializer};
    use tfe_core::Arg;
    use tfe_dist::ClusterSpec;
    use tfe_tensor::{DType, Shape};

    fn var_bits(vars: &[Variable]) -> Vec<Vec<u64>> {
        vars.iter().map(|v| v.peek().to_f64_vec().iter().map(|f| f.to_bits()).collect()).collect()
    }

    /// The gradient function comes back as its `ConcreteFunction`: its name
    /// resolves for as long as that is held.
    fn setup(
        tag: &str,
        seed: u64,
    ) -> (Arc<crate::Sequential>, Vec<Variable>, Arc<tfe_core::ConcreteFunction>) {
        let mut init = Initializer::seeded(seed);
        let model = Arc::new(mlp(4, &[8], 1, Activation::Tanh, &mut init));
        let vars = model.variables();
        let f = mse_grad_fn(&format!("dp_grad_{tag}"), model.clone(), vars.clone());
        let conc = f
            .concrete_for(&[
                Arg::from(&api::zeros(DType::F32, [4, 4])),
                Arg::from(&api::zeros(DType::F32, [4, 1])),
            ])
            .unwrap();
        (model, vars, conc)
    }

    fn batch(seed: u64) -> (Tensor, Tensor) {
        let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(seed);
        let x = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 4]), -1.0, 1.0).unwrap());
        let y = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 1]), -1.0, 1.0).unwrap());
        (x, y)
    }

    #[test]
    fn distributed_step_matches_local_reference_bitwise() {
        tfe_core::init();
        for (reduction_tag, make) in [("ps", true), ("ring", false)] {
            // Two models with identical seeds: one trained distributed,
            // one trained through the local bit-reference.
            let (_m1, vars_dist, fn_dist) = setup(&format!("d_{reduction_tag}"), 42);
            let (_m2, vars_local, fn_local) = setup(&format!("l_{reduction_tag}"), 42);
            assert_eq!(var_bits(&vars_dist), var_bits(&vars_local), "same seed, same init");

            let spec = ClusterSpec::new().with_job("train", 2).unwrap().with_job("ps", 1).unwrap();
            let workers = vec![
                "/job:train/task:0/device:CPU:0".to_string(),
                "/job:train/task:1/device:CPU:0".to_string(),
            ];
            let reduction = if make {
                Reduction::ParameterServer { ps_device: "/job:ps/task:0/device:CPU:0".to_string() }
            } else {
                Reduction::Ring
            };

            let dist = DataParallel::new(
                Cluster::start(&spec),
                workers.clone(),
                reduction.clone(),
                &fn_dist.function.name,
                vars_dist.clone(),
                Arc::new(Sgd::new(0.05)),
            )
            .unwrap();
            let local = DataParallel::new(
                Cluster::start(&spec),
                workers,
                reduction,
                &fn_local.function.name,
                vars_local.clone(),
                Arc::new(Sgd::new(0.05)),
            )
            .unwrap();

            let mut dist_losses = Vec::new();
            let mut local_losses = Vec::new();
            for step in 0..3 {
                let (x, y) = batch(100 + step);
                dist_losses.push(dist.step(&x, &y).unwrap());
                local_losses.push(local.local_step(&x, &y).unwrap());
            }
            assert_eq!(
                var_bits(&vars_dist),
                var_bits(&vars_local),
                "{reduction_tag}: distributed and local training diverged"
            );
            for (d, l) in dist_losses.iter().zip(&local_losses) {
                assert_eq!(d.to_bits(), l.to_bits(), "{reduction_tag}: losses diverged");
            }
            // Training moved: losses change across steps.
            assert!(dist_losses[0] != dist_losses[2], "no training progress");
        }
    }

    /// A name no live traced function has is refused when the trainer is
    /// built, typed, not at its first step.
    #[test]
    fn an_unknown_grad_fn_is_refused_at_construction() {
        let spec = ClusterSpec::new().with_job("dp_unknown", 1).unwrap();
        let built = DataParallel::new(
            Cluster::start(&spec),
            vec!["/job:dp_unknown/task:0/device:CPU:0".to_string()],
            Reduction::Ring,
            "dp_no_such_grad_fn",
            Vec::new(),
            Arc::new(Sgd::new(0.05)),
        );
        match built {
            Err(DistError::Spec(detail)) => {
                assert!(detail.contains("dp_no_such_grad_fn"), "{detail}")
            }
            Err(e) => panic!("not a spec error: {e}"),
            Ok(_) => panic!("a trainer was built for a function that does not exist"),
        }
    }

    /// A trainer over an in-process cluster whose jobs are `{job}` (two
    /// workers) and `{job}_ps`, so that the per-worker metrics it moves
    /// belong to the calling test alone. The model is the 6-variable MLP.
    fn isolated_trainer(job: &str, ps: bool) -> (DataParallel, Vec<String>) {
        isolated_trainer_of(job, ps, &[4, 8, 8, 1], 4)
    }

    /// [`isolated_trainer`] for an MLP of the layer `sizes`, its gradient
    /// function traced for shards of `rows` rows.
    fn isolated_trainer_of(
        job: &str,
        ps: bool,
        sizes: &[usize],
        rows: usize,
    ) -> (DataParallel, Vec<String>) {
        let mut init = Initializer::seeded(3);
        let hidden = &sizes[1..sizes.len() - 1];
        let model = Arc::new(mlp(sizes[0], hidden, 1, Activation::Tanh, &mut init));
        let vars = model.variables();
        assert_eq!(vars.len(), 2 * (sizes.len() - 1));
        let f = mse_grad_fn(&format!("dp_grad_{job}"), model, vars.clone());
        let conc = f
            .concrete_for(&[
                Arg::from(&api::zeros(DType::F32, [rows, sizes[0]])),
                Arg::from(&api::zeros(DType::F32, [rows, 1])),
            ])
            .unwrap();
        let ps_job = format!("{job}_ps");
        let spec = ClusterSpec::new().with_job(job, 2).unwrap().with_job(&ps_job, 1).unwrap();
        let workers: Vec<String> =
            (0..2).map(|task| format!("/job:{job}/task:{task}/device:CPU:0")).collect();
        let ps_device = format!("/job:{ps_job}/task:0/device:CPU:0");
        let reduction = if ps {
            Reduction::ParameterServer { ps_device: ps_device.clone() }
        } else {
            Reduction::Ring
        };
        let dp = DataParallel::new(
            Cluster::start(&spec),
            workers.clone(),
            reduction,
            &conc.function.name,
            vars,
            Arc::new(Sgd::new(0.05)),
        )
        .unwrap();
        (dp, [workers, vec![ps_device]].concat())
    }

    /// The value of `metric` for each `job/task` label of `devices`.
    fn per_worker(metric: &str, devices: &[String]) -> Vec<i64> {
        let snap = tfe_metrics::snapshot();
        devices
            .iter()
            .map(|device| {
                let name = tfe_device::DeviceName::parse(device).unwrap();
                let label = format!("{}/{}", name.job, name.task);
                let sample = snap.family(metric).and_then(|family| {
                    family
                        .samples
                        .iter()
                        .find(|s| s.label.as_ref().is_some_and(|(_, v)| *v == label))
                });
                match sample.map(|s| &s.value) {
                    Some(tfe_metrics::SampleValue::Counter(v)) => *v as i64,
                    Some(tfe_metrics::SampleValue::Gauge(v)) => *v,
                    _ => 0,
                }
            })
            .collect()
    }

    /// Requests completed by, and wire bytes moved to and from, `devices`
    /// so far.
    fn traffic(devices: &[String]) -> (i64, i64) {
        let sum = |metric| per_worker(metric, devices).iter().sum::<i64>();
        (
            sum("tfe_dist_rpcs_total"),
            sum("tfe_dist_bytes_sent_total") + sum("tfe_dist_bytes_received_total"),
        )
    }

    /// A step is one request per worker a round, whatever the number of
    /// variables: the gradient call with the collective's first round, then
    /// the parameter server's reduction (3 requests, 2 rounds) or the ring's
    /// reduce and gather (6 requests, 3 rounds). Losses and means come back
    /// in those replies; releasing the ring's kept pieces adds no request.
    /// The bytes a step moves repeat exactly and are pinned (less the two
    /// copies of the gradient function's name, whose trace index depends on
    /// test order): the per-op protocol moved 10 163 and 23 129 for the same
    /// tensors, names included, in 34 and 86 requests.
    #[test]
    fn step_rpc_counts_are_pinned() {
        tfe_core::init();
        for (job, ps, requests, bytes) in
            [("count_ps", true, 3, 6_220), ("count_ring", false, 6, 15_272)]
        {
            let (dp, devices) = isolated_trainer(job, ps);
            let bytes = bytes + 2 * dp.grad_fn.len() as i64;
            let (x, y) = batch(5);
            dp.step(&x, &y).unwrap();
            let before = traffic(&devices);
            dp.step(&x, &y).unwrap();
            let after = traffic(&devices);
            assert_eq!((after.0 - before.0, after.1 - before.1), (requests, bytes), "{job}");
            dp.step(&x, &y).unwrap();
            assert_eq!(traffic(&devices).1 - after.1, bytes, "{job}: bytes repeat");
        }
    }

    /// The per-tensor collectives over shards already on the workers, the
    /// mean left where it is: `n + 1` requests through a parameter server,
    /// `3n` around the ring, fewer for a tensor too short to chunk (worker 0
    /// has nothing to send in the first round and nobody else reduces).
    #[test]
    fn collective_rpc_counts_are_pinned() {
        tfe_core::init();
        let (dp, devices) = isolated_trainer("count_coll", true);
        let cluster = dp.cluster();
        let place = |dims: &[usize]| -> Vec<tfe_dist::RemoteTensor> {
            let t = api::ones(DType::F32, dims.to_vec());
            let placed = devices[..2].iter().map(|device| {
                let args = [tfe_dist::RemoteArg::from(&t)];
                cluster.execute(device, "identity", &args, tfe_ops::Attrs::new()).unwrap().remove(0)
            });
            placed.collect()
        };
        let (matrix, short) = (place(&[8, 8]), place(&[1]));
        let count = |run: &dyn Fn()| {
            let before = traffic(&devices).0;
            run();
            traffic(&devices).0 - before
        };
        let ps = &devices[2];
        assert_eq!(count(&|| drop(tfe_dist::ps_all_reduce_mean(cluster, ps, &matrix).unwrap())), 3);
        assert_eq!(count(&|| drop(tfe_dist::ps_all_reduce_mean(cluster, ps, &short).unwrap())), 3);
        assert_eq!(count(&|| drop(tfe_dist::ring_all_reduce_mean(cluster, &matrix).unwrap())), 6);
        assert_eq!(count(&|| drop(tfe_dist::ring_all_reduce_mean(cluster, &short).unwrap())), 4);
    }

    /// A step moves at most twice the f32 bytes it cannot avoid — the batch
    /// out, every worker's gradients out of it, the mean back — on the repo
    /// benchmark's model, where tensor payload decides the bytes on the
    /// wire. The coordinator relays tensors between workers, which alone
    /// costs 1.65x; a codec or a framing that spends more than the rest does
    /// not pass.
    #[test]
    fn a_step_moves_at_most_twice_its_payload() {
        tfe_core::init();
        const BATCH: usize = 64;
        const SIZES: [usize; 4] = [32, 128, 128, 1];
        for (job, ps) in [("bytes_ps", true), ("bytes_ring", false)] {
            let (dp, devices) = isolated_trainer_of(job, ps, &SIZES, BATCH / 2);
            let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(7);
            let mut uniform = |cols: usize| {
                let shape = Shape::from([BATCH, cols]);
                Tensor::from_data(rng.uniform(DType::F32, shape, -1.0, 1.0).unwrap())
            };
            let (x, y) = (uniform(SIZES[0]), uniform(1));
            dp.step(&x, &y).unwrap();
            let before = traffic(&devices).1;
            dp.step(&x, &y).unwrap();
            let moved = traffic(&devices).1 - before;
            let parameters: usize = SIZES.windows(2).map(|io| io[0] * io[1] + io[1]).sum();
            let payload = (4 * (BATCH * (SIZES[0] + 1) + 3 * parameters)) as i64;
            assert!(moved <= 2 * payload, "{job}: {moved} B moved for {payload} B of f32 payload");
        }
    }

    /// Dropped remote tensors are released with the next request to their
    /// worker: after 50 steps and one ping each, no worker holds anything.
    /// A parameter-server step leaves nothing behind in the first place; a
    /// ring step leaves the pieces and means its rounds kept.
    #[test]
    fn workers_hold_nothing_after_training() {
        tfe_core::init();
        for (job, ps) in [("resident_ps", true), ("resident_ring", false)] {
            let (dp, devices) = isolated_trainer(job, ps);
            for step in 0..50 {
                let (x, y) = batch(step);
                dp.step(&x, &y).unwrap();
            }
            let held = per_worker("tfe_dist_resident_tensors", &devices);
            assert_eq!(held.iter().sum::<i64>() == 0, ps, "{job}: {held:?}");
            // One step's worth at most: nothing accumulates over 50 steps.
            assert!(held.iter().all(|&n| n < 60), "{job}: {held:?}");
            for device in &devices {
                dp.cluster().ping(device).unwrap();
            }
            assert_eq!(per_worker("tfe_dist_resident_tensors", &devices), vec![0, 0, 0], "{job}");
        }
    }

    #[test]
    fn uneven_batch_is_a_typed_error() {
        tfe_core::init();
        let (_m, vars, grad_fn) = setup("uneven", 7);
        let spec = ClusterSpec::new().with_job("train", 2).unwrap();
        let dp = DataParallel::new(
            Cluster::start(&spec),
            vec![
                "/job:train/task:0/device:CPU:0".to_string(),
                "/job:train/task:1/device:CPU:0".to_string(),
            ],
            Reduction::Ring,
            &grad_fn.function.name,
            vars,
            Arc::new(Sgd::new(0.1)),
        )
        .unwrap();
        let x = api::zeros(DType::F32, [7, 4]);
        let y = api::zeros(DType::F32, [7, 1]);
        assert!(matches!(dp.step(&x, &y), Err(DistError::Spec(_))));
    }
}
