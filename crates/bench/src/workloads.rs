//! The paper's benchmark workloads, packaged for the harness: the
//! ResNet-50 training step (Figure 3, Table 1) and the L2HMC sampler step
//! (Figure 4), each in eager and staged form.

use std::sync::Arc;
use tfe_core::Func;
use tfe_nn::l2hmc::{L2hmc, StronglyCorrelatedGaussian};
use tfe_nn::resnet::{self, ResNet};
use tfe_nn::{Initializer, Momentum};
use tfe_runtime::{Result, Tensor};
use tfe_tensor::{DType, Shape, TensorData};

/// ResNet-50 training workload: model + optimizer + a staged step.
pub struct ResnetWorkload {
    /// The model (shared by eager and staged paths).
    pub model: Arc<ResNet>,
    /// SGD with momentum, as in the reference ResNet training setup.
    pub optimizer: Arc<Momentum>,
    /// The staged training step (forward + gradients + update in one
    /// graph) — "converting the code to use function is simply a matter of
    /// decorating two functions" (§6).
    pub staged_step: Func,
    image_hw: usize,
    classes: usize,
}

impl ResnetWorkload {
    /// Build the full ResNet-50 (≈25.5M parameters). Constructing the
    /// variables takes a moment; do it once per process.
    pub fn resnet50() -> ResnetWorkload {
        Self::build(resnet::resnet50(1000, &mut Initializer::seeded(0)), 224, 1000)
    }

    /// A scaled-down variant for quick runs and tests.
    pub fn tiny() -> ResnetWorkload {
        Self::build(resnet::resnet_tiny(10, &mut Initializer::seeded(0)), 8, 10)
    }

    fn build(model: ResNet, image_hw: usize, classes: usize) -> ResnetWorkload {
        let model = Arc::new(model);
        let optimizer = Arc::new(Momentum::new(0.01, 0.9));
        let staged_step = {
            let model = model.clone();
            let optimizer = optimizer.clone();
            tfe_core::function("resnet_train_step", move |args| {
                let x = args[0].as_tensor().expect("images");
                let y = args[1].as_tensor().expect("labels");
                let loss = resnet::train_step(model.as_ref(), optimizer.as_ref(), x, y)?;
                Ok(vec![loss])
            })
        };
        ResnetWorkload { model, optimizer, staged_step, image_hw, classes }
    }

    /// A synthetic input batch (contents are irrelevant for throughput).
    ///
    /// # Errors
    /// Tensor construction failures.
    pub fn batch(&self, batch: usize) -> Result<(Tensor, Tensor)> {
        let hw = self.image_hw;
        let images = Tensor::from_data(TensorData::zeros(DType::F32, [batch, hw, hw, 3]));
        let labels = Tensor::from_data(TensorData::from_f64_vec(
            DType::I64,
            (0..batch).map(|i| (i % self.classes) as f64).collect(),
            Shape::from([batch]),
        ));
        Ok((images, labels))
    }

    /// One imperative training step.
    ///
    /// # Errors
    /// Execution failures.
    pub fn eager_step(&self, images: &Tensor, labels: &Tensor) -> Result<()> {
        resnet::train_step(self.model.as_ref(), self.optimizer.as_ref(), images, labels)?;
        Ok(())
    }

    /// One staged training step.
    ///
    /// # Errors
    /// Execution failures.
    pub fn staged_step(&self, images: &Tensor, labels: &Tensor) -> Result<()> {
        self.staged_step.call_tensors(&[images, labels])?;
        Ok(())
    }
}

/// L2HMC sampling workload: sampler + staged update.
pub struct L2hmcWorkload {
    /// The sampler.
    pub sampler: Arc<L2hmc>,
    /// The staged sampler step ("essentially running the entire update as
    /// a graph function", §6).
    pub staged_step: Func,
}

impl L2hmcWorkload {
    /// The §6 configuration: 2-D target, 10 leapfrog steps.
    pub fn paper() -> L2hmcWorkload {
        L2hmcWorkload::new(10, 10)
    }

    /// Custom step count / hidden width.
    pub fn new(n_steps: usize, hidden: usize) -> L2hmcWorkload {
        let sampler = Arc::new(L2hmc::new(
            Arc::new(StronglyCorrelatedGaussian::new()),
            hidden,
            n_steps,
            0.1,
            &mut Initializer::seeded(1),
        ));
        let staged_step = {
            let sampler = sampler.clone();
            tfe_core::function("l2hmc_sample_step", move |args| {
                let x = args[0].as_tensor().expect("x");
                let (x_next, prob) = sampler.sample_step(x)?;
                Ok(vec![x_next, prob])
            })
        };
        L2hmcWorkload { sampler, staged_step }
    }

    /// An initial chain state with `samples` parallel chains.
    pub fn chain(&self, samples: usize) -> Tensor {
        Tensor::from_data(TensorData::zeros(DType::F32, [samples, 2]))
    }

    /// One imperative sampler step.
    ///
    /// # Errors
    /// Execution failures.
    pub fn eager_step(&self, x: &Tensor) -> Result<()> {
        self.sampler.sample_step(x)?;
        Ok(())
    }

    /// One staged sampler step.
    ///
    /// # Errors
    /// Execution failures.
    pub fn staged_step(&self, x: &Tensor) -> Result<()> {
        self.staged_step.call_tensors(&[x])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate;
    use crate::harness::{measure, sim_device, ExecutionConfig};

    #[test]
    fn tiny_resnet_workload_measures() {
        let profile = calibrate::figure3_gpu();
        let device = sim_device("/gpu:3");
        let w = ResnetWorkload::tiny();
        let (x, y) = w.batch(2).unwrap();
        let eager =
            measure(ExecutionConfig::Eager, &profile, &device, 2, 1, 1, 2, || w.eager_step(&x, &y))
                .unwrap();
        let staged = measure(ExecutionConfig::Staged, &profile, &device, 2, 2, 1, 2, || {
            w.staged_step(&x, &y)
        })
        .unwrap();
        assert!(eager.eager_ops_per_step > 50.0, "{eager:?}");
        assert!(staged.staged_nodes_per_step > 50.0, "{staged:?}");
        // Staging must win on a small model with a Python-cost simulator.
        assert!(staged.examples_per_sec > eager.examples_per_sec, "{staged:?} vs {eager:?}");
    }

    #[test]
    fn l2hmc_workload_measures() {
        let profile = calibrate::figure4_cpu();
        let device = sim_device("/job:localhost/task:0/device:CPU:7");
        let w = L2hmcWorkload::new(2, 4);
        let x = w.chain(8);
        let eager =
            measure(ExecutionConfig::Eager, &profile, &device, 8, 1, 1, 2, || w.eager_step(&x))
                .unwrap();
        let staged =
            measure(ExecutionConfig::Staged, &profile, &device, 8, 2, 1, 2, || w.staged_step(&x))
                .unwrap();
        assert!(eager.eager_ops_per_step > 30.0);
        assert!(staged.examples_per_sec > eager.examples_per_sec);
    }
}
