//! Paper Figure 4: the L2HMC sampler, thousands of tiny ops per step.
//! Phase 1 runs the training step eagerly, phase 2 as one staged function.

use super::{Model, Phase2, TrainPair, TrainParts, Trainer};
use crate::rng::{f32_tensor, Rng};
use std::sync::Arc;
use tf_eager::nn::l2hmc::{L2hmc, StronglyCorrelatedGaussian};
use tf_eager::nn::Initializer;
use tf_eager::{RuntimeError, Tensor, Variable};

pub const CHAINS: usize = 64;
const LEAPFROG_STEPS: usize = 10;
const HIDDEN: usize = 10;
const LEARNING_RATE: f64 = 1e-3;

impl Model for L2hmc {
    fn loss(&self, batch: &[Tensor]) -> Result<Tensor, RuntimeError> {
        L2hmc::loss(self, &batch[0], 1.0)
    }

    fn variables(&self) -> Vec<Variable> {
        L2hmc::variables(self)
    }
}

fn sampler(seed: u64) -> Arc<Trainer<L2hmc>> {
    let target = Arc::new(StronglyCorrelatedGaussian::new());
    let mut init = Initializer::seeded(seed);
    Trainer::new(L2hmc::new(target, HIDDEN, LEAPFROG_STEPS, 0.1, &mut init), LEARNING_RATE)
}

pub fn build(seed: u64) -> Result<TrainPair<L2hmc>, String> {
    let staged = sampler(seed);
    let mut rng = Rng::new(seed);
    TrainPair::new(TrainParts {
        examples: CHAINS,
        // 0.30 s a set-up.
        setups: 5,
        eager: sampler(seed),
        phase2: Phase2::WholeStep(staged.staged_step("l2hmc_step")),
        staged,
        // One batch is the chains' positions, drawn afresh each step.
        batches: Box::new(move || vec![f32_tensor(rng.normal_vec(CHAINS * 2, 1.0), &[CHAINS, 2])]),
        eval_batches: 8,
        seed,
    })
}
