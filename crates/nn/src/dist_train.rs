//! Data-parallel training over a `tfe_dist` cluster (§4.5): shard a batch
//! across workers, run one staged gradient function per shard remotely,
//! aggregate gradients with a deterministic collective, and apply the
//! optimizer update on the coordinator.
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
    ps_all_reduce_mean, ps_reference_mean, ring_all_reduce_mean, ring_reference_mean, Cluster,
    DistError, RemoteArg, RemoteTensor,
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
    /// Keeps `grad_fn` resolving, here and on the workers, when a traced
    /// function owns the name; a function put in the library by hand has no
    /// owner and needs none.
    _grad_fn_owner: Option<Arc<tfe_core::ConcreteFunction>>,
    vars: Vec<Variable>,
    opt: Arc<dyn Optimizer>,
}

impl DataParallel {
    /// Build a trainer.
    ///
    /// `grad_fn` is the library name of an already-traced gradient
    /// function (see [`mse_grad_fn`]) returning `[loss, grad per var]`;
    /// `workers` are the devices that each run one shard. The trainer holds
    /// the function for its own lifetime, so the caller may drop the `Func`
    /// it traced the name from.
    ///
    /// # Errors
    /// Empty worker lists and unknown devices are rejected up front.
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
            _grad_fn_owner: tfe_core::concrete_named(grad_fn),
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
    /// # Errors
    /// Typed [`DistError`] — sharding misfits, worker faults, transport
    /// failures — always within the RPC deadlines.
    pub fn step(&self, x: &Tensor, y: &Tensor) -> Result<f64> {
        let shards = self.shard(x, y)?;
        let n = self.workers.len();

        // Fan out: one remote gradient-function call per worker.
        let mut outs: Vec<Vec<RemoteTensor>> = Vec::with_capacity(n);
        for (dev, (xs, ys)) in self.workers.iter().zip(&shards) {
            let out = self.cluster.call_function(
                dev,
                &self.grad_fn,
                &[RemoteArg::from(xs), RemoteArg::from(ys)],
            )?;
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

        // Aggregate each variable's gradient with the chosen collective.
        let mut pairs = Vec::with_capacity(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            let shard_grads: Vec<RemoteTensor> = outs.iter().map(|o| o[1 + i].clone()).collect();
            let mean = match &self.reduction {
                Reduction::ParameterServer { ps_device } => {
                    ps_all_reduce_mean(&self.cluster, ps_device, &shard_grads)?
                }
                Reduction::Ring => {
                    let reduced = ring_all_reduce_mean(&self.cluster, &shard_grads)?;
                    reduced.into_iter().next().expect("one result per worker")
                }
            };
            pairs.push((mean.fetch()?, v.clone()));
        }

        // Mean shard loss, for reporting.
        let mut loss_sum = 0.0;
        for out in &outs {
            loss_sum += out[0].fetch()?.scalar_f64().map_err(DistError::from)?;
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
        let f = context::library().get(&self.grad_fn).ok_or_else(|| {
            DistError::Spec(format!("function `{}` not in library", self.grad_fn))
        })?;
        let device = context::device_manager().host_cpu();

        let mut outs = Vec::with_capacity(n);
        for (xs, ys) in &shards {
            let inputs =
                vec![xs.value().map_err(DistError::from)?, ys.value().map_err(DistError::from)?];
            let out =
                tfe_runtime::executor::run_function(&f, &inputs, &device, ExecMode::SerialPlanned)
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

    /// The gradient function comes back as its owner: its library name
    /// resolves for as long as the `ConcreteFunction` is held.
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

    /// A trainer over an in-process cluster whose jobs are `{job}` (two
    /// workers) and `{job}_ps`, so that the per-worker metrics it moves
    /// belong to the calling test alone. The model is the 6-variable MLP.
    fn isolated_trainer(job: &str, ps: bool) -> (DataParallel, Vec<String>) {
        let mut init = Initializer::seeded(3);
        let model = Arc::new(mlp(4, &[8, 8], 1, Activation::Tanh, &mut init));
        let vars = model.variables();
        assert_eq!(vars.len(), 6);
        let f = mse_grad_fn(&format!("dp_grad_{job}"), model, vars.clone());
        let conc = f
            .concrete_for(&[
                Arg::from(&api::zeros(DType::F32, [4, 4])),
                Arg::from(&api::zeros(DType::F32, [4, 1])),
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

    /// One step is 2 function calls, 2 loss fetches and, per variable, the
    /// collective plus the fetch of its mean: 5 RPCs through a parameter
    /// server; 15 around the ring, or 7 for a tensor too short to chunk.
    /// Releasing the step's ~30 (PS) or ~70 (ring) remote tensors adds none.
    #[test]
    fn step_rpc_counts_are_pinned() {
        tfe_core::init();
        for (job, ps, expected) in [("count_ps", true, 34), ("count_ring", false, 86)] {
            let (dp, devices) = isolated_trainer(job, ps);
            let (x, y) = batch(5);
            dp.step(&x, &y).unwrap();
            let before: i64 = per_worker("tfe_dist_rpcs_total", &devices).iter().sum();
            dp.step(&x, &y).unwrap();
            let after: i64 = per_worker("tfe_dist_rpcs_total", &devices).iter().sum();
            assert_eq!(after - before, expected, "{job}");
        }
    }

    /// Dropped remote tensors are released with the next request to their
    /// worker: after 50 steps and one ping each, no worker holds anything.
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
            assert!(held.iter().sum::<i64>() > 0, "{job}: the last step's tensors await a request");
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
