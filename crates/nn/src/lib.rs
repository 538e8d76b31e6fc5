//! # tfe-nn
//!
//! The model zoo and training utilities the TensorFlow Eager paper's
//! evaluation needs (§6): layers, optimizers, losses, synthetic datasets
//! with checkpointable iterators, ResNet-50 (Figure 3, Table 1) and the
//! L2HMC sampler (Figure 4). All of it is written against the
//! mode-agnostic op API, so the same model code runs imperatively or
//! staged under `tfe_core::function`.
//!
//! ```
//! use tfe_nn::{layers::{Activation, Dense, Layer}, init::Initializer};
//! use tfe_runtime::api;
//! # fn main() -> Result<(), tfe_runtime::RuntimeError> {
//! let mut init = Initializer::seeded(0);
//! let layer = Dense::new(4, 2, Activation::Relu, &mut init);
//! let y = layer.call(&api::zeros(tfe_tensor::DType::F32, [3, 4]), false)?;
//! assert_eq!(y.shape()?.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod dist_train;
pub mod init;
pub mod l2hmc;
pub mod layers;
pub mod losses;
pub mod optimizer;
pub mod resnet;
pub mod rnn;

pub use dist_train::{mse_grad_fn, DataParallel, Reduction};
pub use init::Initializer;
pub use layers::{Activation, Layer, Sequential};
pub use optimizer::{Adam, Momentum, Optimizer, Sgd};

/// Build a small MLP regressor/classifier (used by examples and benches).
pub fn mlp(
    inputs: usize,
    hidden: &[usize],
    outputs: usize,
    activation: Activation,
    init: &mut Initializer,
) -> Sequential {
    let mut model = Sequential::new();
    let mut prev = inputs;
    for &h in hidden {
        model = model.push(layers::Dense::new(prev, h, activation, init));
        prev = h;
    }
    model.push(layers::Dense::new(prev, outputs, Activation::Linear, init))
}

/// Held by every unit test here that seeds or draws from the process RNG
/// (`context::set_random_seed`, random ops, dropout): tests run on parallel
/// threads, and another test's reseed or draw landing between a seed and
/// its draws makes a seeded test depend on scheduling.
#[cfg(test)]
pub(crate) fn rng_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses::mean_squared_error;
    use tfe_autodiff::GradientTape;
    use tfe_runtime::api;

    #[test]
    fn mlp_builder_shapes() {
        let mut init = Initializer::seeded(9);
        let model = mlp(8, &[16, 16], 1, Activation::Relu, &mut init);
        assert_eq!(model.len(), 3);
        let x = api::zeros(tfe_tensor::DType::F32, [4, 8]);
        let y = model.call(&x, false).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[4, 1]);
    }

    #[test]
    fn mlp_learns_regression() {
        let mut init = Initializer::seeded(10);
        let model = mlp(4, &[32], 1, Activation::Tanh, &mut init);
        let ds = data::SyntheticRegression::new(5, 4);
        let opt = Adam::new(0.01);
        let vars = model.variables();
        let mut first = None;
        let mut last = 0.0;
        for step in 0..60 {
            let (x, y) = ds.batch(step, 64).unwrap();
            let tape = GradientTape::new();
            let pred = model.call(&x, true).unwrap();
            let loss = mean_squared_error(&pred, &y).unwrap();
            last = loss.scalar_f64().unwrap();
            if first.is_none() {
                first = Some(last);
            }
            optimizer::minimize(&opt, tape, &loss, &vars).unwrap();
        }
        let first = first.unwrap();
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn staged_mlp_step_trains() {
        use std::sync::Arc;
        let mut init = Initializer::seeded(11);
        let model = Arc::new(mlp(4, &[16], 1, Activation::Tanh, &mut init));
        let opt = Arc::new(Sgd::new(0.05));
        let vars = model.variables();
        let step = {
            let model = model.clone();
            let opt = opt.clone();
            tfe_core::function("mlp_step", move |args| {
                let x = args[0].as_tensor().unwrap();
                let y = args[1].as_tensor().unwrap();
                let tape = GradientTape::new();
                let pred = model.call(x, true)?;
                let loss = mean_squared_error(&pred, y)?;
                optimizer::minimize(opt.as_ref(), tape, &loss, &vars)?;
                Ok(vec![loss])
            })
        };
        let ds = data::SyntheticRegression::new(6, 4);
        let (x, y) = ds.batch(0, 32).unwrap();
        let l0 = step.call_tensors(&[&x, &y]).unwrap()[0].scalar_f64().unwrap();
        let mut l = l0;
        for _ in 0..30 {
            l = step.call_tensors(&[&x, &y]).unwrap()[0].scalar_f64().unwrap();
        }
        assert!(l < l0, "staged training stalled: {l0} -> {l}");
        assert_eq!(step.num_concrete(), 1);
    }
}
