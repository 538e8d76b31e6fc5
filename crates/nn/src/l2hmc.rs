//! L2HMC (Levy, Hoffman & Sohl-Dickstein, ICLR 2018): Hamiltonian Monte
//! Carlo with learned, network-parameterized leapfrog updates — the
//! workload of Figure 4 in the TensorFlow Eager paper.
//!
//! The sampler below follows the L2HMC construction: alternating binary
//! masks over the state dimensions, scale (`S`), transformation (`Q`) and
//! translation (`T`) networks modulating the momentum and position
//! updates, an accumulated log-Jacobian, and a Metropolis–Hastings
//! correction. The benchmark setting matches §6: a 2-dimensional target and
//! 10 leapfrog steps. Each update executes hundreds of *small* operations,
//! which is exactly why staging yields an order-of-magnitude speed-up for
//! this model. (Directions are fixed forward rather than sampled, which
//! does not change the op profile.)

use crate::init::Initializer;
use crate::layers::{Activation, Dense, Layer};
use std::sync::Arc;
use tfe_runtime::{api, Result, Tensor, Variable};
use tfe_tensor::{DType, Shape, TensorData};

/// An unnormalized target density with analytic energy and gradient.
///
/// The analytic gradient keeps the sampler expressible as a pure op graph
/// (stage-friendly); it also matches how L2HMC implementations feed
/// `grad U` into the networks.
pub trait TargetDensity: Send + Sync {
    /// State dimensionality.
    fn dim(&self) -> usize;
    /// `U(x)` per sample: input `(batch, dim)`, output `(batch,)`.
    ///
    /// # Errors
    /// Shape problems.
    fn energy(&self, x: &Tensor) -> Result<Tensor>;
    /// `∇U(x)`: input and output `(batch, dim)`.
    ///
    /// # Errors
    /// Shape problems.
    fn energy_grad(&self, x: &Tensor) -> Result<Tensor>;
}

/// The strongly-correlated 2-D Gaussian of the L2HMC experiments:
/// `N(0, R diag(σ²_max, σ²_min) Rᵀ)` with a 45° rotation — ill-conditioned
/// enough that plain HMC mixes poorly.
pub struct StronglyCorrelatedGaussian {
    precision: Tensor, // (2, 2)
}

impl StronglyCorrelatedGaussian {
    /// Build with the canonical (100, 0.1) eigenvalues.
    pub fn new() -> StronglyCorrelatedGaussian {
        StronglyCorrelatedGaussian::with_eigenvalues(100.0, 0.1)
    }

    /// Build with explicit covariance eigenvalues.
    ///
    /// # Panics
    /// Non-positive eigenvalues.
    pub fn with_eigenvalues(v_max: f64, v_min: f64) -> StronglyCorrelatedGaussian {
        assert!(v_max > 0.0 && v_min > 0.0, "eigenvalues must be positive");
        // Precision = R diag(1/v) R^T with R the 45-degree rotation.
        let (a, b) = (1.0 / v_max, 1.0 / v_min);
        let p00 = 0.5 * (a + b);
        let p01 = 0.5 * (a - b);
        let precision = TensorData::from_vec(
            vec![p00 as f32, p01 as f32, p01 as f32, p00 as f32],
            Shape::from([2, 2]),
        )
        .expect("2x2 precision");
        StronglyCorrelatedGaussian { precision: Tensor::from_data(precision) }
    }
}

impl Default for StronglyCorrelatedGaussian {
    fn default() -> StronglyCorrelatedGaussian {
        StronglyCorrelatedGaussian::new()
    }
}

impl TargetDensity for StronglyCorrelatedGaussian {
    fn dim(&self) -> usize {
        2
    }

    fn energy(&self, x: &Tensor) -> Result<Tensor> {
        // 0.5 * sum(x * (x P), -1)
        let xp = api::matmul(x, &self.precision)?;
        let q = api::mul(x, &xp)?;
        let s = api::reduce_sum(&q, &[1], false)?;
        api::mul(&s, &api::scalar(0.5f32))
    }

    fn energy_grad(&self, x: &Tensor) -> Result<Tensor> {
        api::matmul(x, &self.precision)
    }
}

/// One S/Q/T network: a small MLP with three heads and learned output
/// scales, as in the L2HMC reference implementation.
pub struct SqtNet {
    hidden1: Dense,
    hidden2: Dense,
    scale_head: Dense,
    transform_head: Dense,
    translate_head: Dense,
    lambda_s: Variable,
    lambda_q: Variable,
}

impl SqtNet {
    /// Build for `dim`-dimensional states with `hidden` units (the paper's
    /// benchmark uses a small net; 10 units by default).
    pub fn new(dim: usize, hidden: usize, init: &mut Initializer) -> SqtNet {
        let inputs = 2 * dim + 1; // x (or masked x), grad (or v), time
        SqtNet {
            hidden1: Dense::new(inputs, hidden, Activation::Relu, init),
            hidden2: Dense::new(hidden, hidden, Activation::Relu, init),
            scale_head: Dense::new(hidden, dim, Activation::Tanh, init),
            transform_head: Dense::new(hidden, dim, Activation::Tanh, init),
            translate_head: Dense::new(hidden, dim, Activation::Linear, init),
            lambda_s: Variable::new(TensorData::zeros(DType::F32, [dim])),
            lambda_q: Variable::new(TensorData::zeros(DType::F32, [dim])),
        }
    }

    /// Evaluate `(S, Q, T)` for inputs `a`, `b` and scalar time embedding.
    ///
    /// # Errors
    /// Execution failures.
    pub fn call(&self, a: &Tensor, b: &Tensor, t: f64) -> Result<(Tensor, Tensor, Tensor)> {
        let batch = api::shape_of(a)?; // [batch, dim]
        let b0 = api::slice(&batch, &[0], &[1])?;
        let _ = b0;
        // Time column: ones(batch, 1) * t. Built from ones_like of a column
        // slice so it works with dynamic batch sizes.
        let col = api::slice(a, &[0, 0], &[-1, 1])?;
        let t_col = api::mul(&api::mul(&col, &api::scalar(0.0f32))?, &api::scalar(1.0f32))?;
        let t_col = api::add(&t_col, &api::scalar(t as f32))?;
        let z = api::concat(&[a, b, &t_col], 1)?;
        let h = self.hidden2.call(&self.hidden1.call(&z, true)?, true)?;
        let s = api::mul(&self.scale_head.call(&h, true)?, &self.lambda_s.read()?)?;
        let q = api::mul(&self.transform_head.call(&h, true)?, &self.lambda_q.read()?)?;
        let t_out = self.translate_head.call(&h, true)?;
        Ok((s, q, t_out))
    }

    /// Trainable variables.
    pub fn variables(&self) -> Vec<Variable> {
        let mut v = Vec::new();
        for layer in [
            &self.hidden1,
            &self.hidden2,
            &self.scale_head,
            &self.transform_head,
            &self.translate_head,
        ] {
            v.extend(layer.variables());
        }
        v.push(self.lambda_s.clone());
        v.push(self.lambda_q.clone());
        v
    }
}

/// The L2HMC sampler.
pub struct L2hmc {
    target: Arc<dyn TargetDensity>,
    vnet: SqtNet,
    xnet: SqtNet,
    eps: Variable,
    n_steps: usize,
    masks: Vec<Tensor>,
}

impl L2hmc {
    /// Build a sampler with `n_steps` leapfrog steps (the benchmark uses
    /// 10) and `hidden` units in the S/Q/T networks.
    pub fn new(
        target: Arc<dyn TargetDensity>,
        hidden: usize,
        n_steps: usize,
        step_size: f64,
        init: &mut Initializer,
    ) -> L2hmc {
        let dim = target.dim();
        // Alternating half masks (the L2HMC partition of coordinates).
        let mut masks = Vec::with_capacity(n_steps);
        for step in 0..n_steps {
            let vals: Vec<f32> =
                (0..dim).map(|i| if (i + step) % 2 == 0 { 1.0 } else { 0.0 }).collect();
            masks.push(Tensor::from_data(
                TensorData::from_vec(vals, Shape::from([dim])).expect("mask"),
            ));
        }
        L2hmc {
            vnet: SqtNet::new(dim, hidden, init),
            xnet: SqtNet::new(dim, hidden, init),
            eps: Variable::new(TensorData::scalar(step_size as f32)),
            n_steps,
            masks,
            target,
        }
    }

    /// Number of leapfrog steps.
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// All trainable variables (both networks plus the step size).
    pub fn variables(&self) -> Vec<Variable> {
        let mut v = self.vnet.variables();
        v.extend(self.xnet.variables());
        v.push(self.eps.clone());
        v
    }

    fn half(&self) -> Result<Tensor> {
        api::mul(&self.eps.read()?, &api::scalar(0.5f32))
    }

    /// Half-step momentum update; returns the new momentum and the
    /// log-Jacobian contribution `0.5 ε Σ S_v`.
    fn update_v(&self, x: &Tensor, v: &Tensor, t: f64) -> Result<(Tensor, Tensor)> {
        let grad = self.target.energy_grad(x)?;
        let (s, q, tr) = self.vnet.call(x, &grad, t)?;
        let eps = self.eps.read()?;
        let half_eps = self.half()?;
        let scale = api::exp(&api::mul(&half_eps, &s)?)?;
        let gscale = api::exp(&api::mul(&eps, &q)?)?;
        let force = api::add(&api::mul(&grad, &gscale)?, &tr)?;
        let v_new = api::sub(&api::mul(v, &scale)?, &api::mul(&half_eps, &force)?)?;
        let logdet = api::reduce_sum(&api::mul(&half_eps, &s)?, &[1], false)?;
        Ok((v_new, logdet))
    }

    /// Masked position update; returns new x and log-Jacobian `ε Σ m̄ S_x`.
    fn update_x(&self, x: &Tensor, v: &Tensor, mask: &Tensor, t: f64) -> Result<(Tensor, Tensor)> {
        let one = api::scalar(1.0f32);
        let anti = api::sub(&one, mask)?;
        let xm = api::mul(x, mask)?;
        let (s, q, tr) = self.xnet.call(&xm, v, t)?;
        let eps = self.eps.read()?;
        let scale = api::exp(&api::mul(&eps, &s)?)?;
        let vscale = api::exp(&api::mul(&eps, &q)?)?;
        let drift = api::add(&api::mul(v, &vscale)?, &tr)?;
        let moved = api::add(&api::mul(x, &scale)?, &api::mul(&eps, &drift)?)?;
        let x_new = api::add(&xm, &api::mul(&anti, &moved)?)?;
        let logdet = api::reduce_sum(&api::mul(&api::mul(&eps, &anti)?, &s)?, &[1], false)?;
        Ok((x_new, logdet))
    }

    /// Run the full deterministic leapfrog proposal from `(x, v)`.
    /// Returns `(x', v', log_jacobian)`.
    ///
    /// # Errors
    /// Execution failures.
    pub fn propose(&self, x: &Tensor, v: &Tensor) -> Result<(Tensor, Tensor, Tensor)> {
        let mut x = x.clone();
        let mut v = v.clone();
        let mut logdet = api::mul(&self.target.energy(&x)?, &api::scalar(0.0f32))?;
        for step in 0..self.n_steps {
            let t = step as f64 / self.n_steps as f64;
            let (v1, ld1) = self.update_v(&x, &v, t)?;
            let mask = &self.masks[step];
            let (x1, ld2) = self.update_x(&x, &v1, mask, t)?;
            // Second half-mask position update.
            let one = api::scalar(1.0f32);
            let anti = api::sub(&one, mask)?;
            let (x2, ld3) = self.update_x(&x1, &v1, &anti, t)?;
            let (v2, ld4) = self.update_v(&x2, &v1, t)?;
            x = x2;
            v = v2;
            for ld in [ld1, ld2, ld3, ld4] {
                logdet = api::add(&logdet, &ld)?;
            }
        }
        Ok((x, v, logdet))
    }

    /// Hamiltonian `U(x) + 0.5|v|²` per sample.
    ///
    /// # Errors
    /// Execution failures.
    pub fn hamiltonian(&self, x: &Tensor, v: &Tensor) -> Result<Tensor> {
        let kinetic =
            api::mul(&api::reduce_sum(&api::square(v)?, &[1], false)?, &api::scalar(0.5f32))?;
        api::add(&self.target.energy(x)?, &kinetic)
    }

    /// One sampler step: resample momentum, propose, Metropolis-correct.
    /// Returns `(x_next, accept_prob)`; shapes `(batch, dim)` / `(batch,)`.
    ///
    /// This is the function the §6 benchmark stages — "essentially running
    /// the entire update as a graph function".
    ///
    /// # Errors
    /// Execution failures.
    pub fn sample_step(&self, x: &Tensor) -> Result<(Tensor, Tensor)> {
        let batch = x.sym_shape().dims().first().copied().flatten().ok_or_else(|| {
            tfe_runtime::RuntimeError::SymbolicValue(
                "l2hmc needs a known batch dimension".to_string(),
            )
        })?;
        let dim = self.target.dim();
        let v = api::random_normal(DType::F32, Shape::from([batch, dim]), 0.0, 1.0)?;
        let (x_new, v_new, logdet) = self.propose(x, &v)?;
        let h_old = self.hamiltonian(x, &v)?;
        let h_new = self.hamiltonian(&x_new, &v_new)?;
        // A = min(1, exp(H_old - H_new + logdet))
        let log_accept = api::add(&api::sub(&h_old, &h_new)?, &logdet)?;
        let accept_prob = api::minimum(&api::exp(&log_accept)?, &api::ones(DType::F32, [batch]))?;
        let u = api::random_uniform(DType::F32, Shape::from([batch]), 0.0, 1.0)?;
        let take = api::less(&u, &accept_prob)?;
        let take_col = api::reshape(&take, &[batch as i64, 1])?;
        let x_next = api::select(&take_col, &x_new, x)?;
        Ok((x_next, accept_prob))
    }

    /// The L2HMC training loss: encourage large accepted moves,
    /// `λ²/(A·δ²) − A·δ²/λ²` averaged over the batch.
    ///
    /// # Errors
    /// Execution failures.
    pub fn loss(&self, x: &Tensor, lambda: f64) -> Result<Tensor> {
        let batch = x.sym_shape().dims().first().copied().flatten().ok_or_else(|| {
            tfe_runtime::RuntimeError::SymbolicValue(
                "l2hmc needs a known batch dimension".to_string(),
            )
        })?;
        let dim = self.target.dim();
        let v = api::random_normal(DType::F32, Shape::from([batch, dim]), 0.0, 1.0)?;
        let (x_new, v_new, logdet) = self.propose(x, &v)?;
        let h_old = self.hamiltonian(x, &v)?;
        let h_new = self.hamiltonian(&x_new, &v_new)?;
        let log_accept = api::add(&api::sub(&h_old, &h_new)?, &logdet)?;
        let accept = api::minimum(&api::exp(&log_accept)?, &api::ones(DType::F32, [batch]))?;
        let jump = api::reduce_sum(&api::squared_difference(&x_new, x)?, &[1], false)?;
        let weighted = api::add(
            &api::mul(&accept, &jump)?,
            &api::constant_data(TensorData::fill_f64(DType::F32, Shape::scalar(), 1e-4)),
        )?;
        let l2 = api::scalar((lambda * lambda) as f32);
        let term1 = api::div(&l2, &weighted)?;
        let term2 = api::div(&weighted, &l2)?;
        api::reduce_mean(&api::sub(&term1, &term2)?, &[], false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_autodiff::GradientTape;

    fn sampler(steps: usize) -> L2hmc {
        let mut init = Initializer::seeded(42);
        L2hmc::new(Arc::new(StronglyCorrelatedGaussian::new()), 10, steps, 0.1, &mut init)
    }

    #[test]
    fn scg_energy_and_grad_consistent() {
        let target = StronglyCorrelatedGaussian::new();
        let x = api::constant(vec![1.0f32, -1.0, 0.5, 0.5], [2, 2]).unwrap();
        let e = target.energy(&x).unwrap();
        assert_eq!(e.shape().unwrap().dims(), &[2]);
        assert!(e.to_f64_vec().unwrap().iter().all(|&v| v > 0.0));
        // Finite-difference check of the analytic gradient.
        let g = target.energy_grad(&x).unwrap().to_f64_vec().unwrap();
        let eps = 1e-4;
        let base = target.energy(&x).unwrap().to_f64_vec().unwrap();
        for (i, j) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            let mut vals = x.to_f64_vec().unwrap();
            vals[i * 2 + j] += eps;
            let xp =
                api::constant(vals.iter().map(|&v| v as f32).collect::<Vec<_>>(), [2, 2]).unwrap();
            let ep = target.energy(&xp).unwrap().to_f64_vec().unwrap();
            let fd = (ep[i] - base[i]) / eps;
            assert!((fd - g[i * 2 + j]).abs() < 1e-2, "({i},{j}): {fd} vs {}", g[i * 2 + j]);
        }
    }

    #[test]
    fn propose_shapes_and_determinism() {
        let s = sampler(4);
        let x = api::zeros(DType::F32, [3, 2]);
        let v = api::ones(DType::F32, [3, 2]);
        let (x1, v1, ld) = s.propose(&x, &v).unwrap();
        assert_eq!(x1.shape().unwrap().dims(), &[3, 2]);
        assert_eq!(v1.shape().unwrap().dims(), &[3, 2]);
        assert_eq!(ld.shape().unwrap().dims(), &[3]);
        // Deterministic given (x, v).
        let (x2, _, _) = s.propose(&x, &v).unwrap();
        assert_eq!(x1.to_f64_vec().unwrap(), x2.to_f64_vec().unwrap());
    }

    #[test]
    fn sample_step_produces_valid_probabilities() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(1);
        let s = sampler(10);
        let x = api::zeros(DType::F32, [8, 2]);
        let (x_next, prob) = s.sample_step(&x).unwrap();
        assert_eq!(x_next.shape().unwrap().dims(), &[8, 2]);
        for p in prob.to_f64_vec().unwrap() {
            assert!((0.0..=1.0).contains(&p), "accept prob {p}");
        }
    }

    #[test]
    fn chain_explores_the_target() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(2);
        let s = sampler(10);
        let mut x = api::zeros(DType::F32, [16, 2]);
        for _ in 0..20 {
            x = s.sample_step(&x).unwrap().0;
        }
        // After some steps the chain should have left the origin.
        let spread = x.to_f64_vec().unwrap().iter().map(|v| v.abs()).sum::<f64>();
        assert!(spread > 0.1, "chain stuck at origin: {spread}");
        assert!(x.to_f64_vec().unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn loss_is_differentiable() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(3);
        let s = sampler(2);
        let x = api::zeros(DType::F32, [4, 2]);
        let vars = s.variables();
        let tape = GradientTape::new();
        let loss = s.loss(&x, 1.0).unwrap();
        assert!(loss.scalar_f64().unwrap().is_finite());
        let refs: Vec<&Variable> = vars.iter().collect();
        let grads = tape.gradient_vars(&loss, &refs).unwrap();
        // Every network variable gets a gradient (eps too).
        let got: usize = grads.iter().filter(|g| g.is_some()).count();
        assert!(got >= vars.len() - 2, "only {got}/{} grads", vars.len());
    }

    #[test]
    fn staged_sample_step_matches_shape() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(4);
        let s = Arc::new(sampler(3));
        let staged = {
            let s = s.clone();
            tfe_core::function("l2hmc_step", move |args| {
                let x = args[0].as_tensor().unwrap();
                let (x_next, prob) = s.sample_step(x)?;
                Ok(vec![x_next, prob])
            })
        };
        let x = api::zeros(DType::F32, [8, 2]);
        let out = staged.call_tensors(&[&x]).unwrap();
        assert_eq!(out[0].shape().unwrap().dims(), &[8, 2]);
        assert_eq!(out[1].shape().unwrap().dims(), &[8]);
        // Cached on the second call.
        staged.call_tensors(&[&x]).unwrap();
        assert_eq!(staged.num_concrete(), 1);
    }
}

#[cfg(test)]
mod training_tests {
    use super::*;
    use crate::optimizer::{minimize, Adam};
    use tfe_autodiff::GradientTape;

    /// Train the sampler's networks for a few steps on the ESJD loss —
    /// the L2HMC training loop the paper's benchmark executes — and check
    /// the loss improves while the sampler stays numerically sound.
    #[test]
    fn l2hmc_training_improves_loss() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(10);
        let mut init = Initializer::seeded(100);
        let sampler = L2hmc::new(
            Arc::new(StronglyCorrelatedGaussian::with_eigenvalues(10.0, 0.5)),
            8,
            3,
            0.1,
            &mut init,
        );
        let opt = Adam::new(5e-3);
        let vars = sampler.variables();
        let x = tfe_runtime::api::zeros(DType::F32, [32, 2]);
        // Average the stochastic loss over a few draws per measurement.
        let avg_loss = |sampler: &L2hmc| -> f64 {
            (0..4).map(|_| sampler.loss(&x, 1.0).unwrap().scalar_f64().unwrap()).sum::<f64>() / 4.0
        };
        let before = avg_loss(&sampler);
        for _ in 0..30 {
            let tape = GradientTape::new();
            let loss = sampler.loss(&x, 1.0).unwrap();
            minimize(&opt, tape, &loss, &vars).unwrap();
        }
        let after = avg_loss(&sampler);
        assert!(after.is_finite() && before.is_finite());
        assert!(
            after < before,
            "L2HMC training did not improve the ESJD loss: {before} -> {after}"
        );
        // The trained sampler still produces valid moves.
        let (x_next, prob) = sampler.sample_step(&x).unwrap();
        assert!(x_next.to_f64_vec().unwrap().iter().all(|v| v.is_finite()));
        assert!(prob.to_f64_vec().unwrap().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Staged training step for the sampler: one trace, loss still drops.
    #[test]
    fn l2hmc_staged_training_step() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(11);
        let mut init = Initializer::seeded(101);
        let sampler = Arc::new(L2hmc::new(
            Arc::new(StronglyCorrelatedGaussian::with_eigenvalues(10.0, 0.5)),
            6,
            2,
            0.1,
            &mut init,
        ));
        let opt = Arc::new(Adam::new(5e-3));
        let vars = sampler.variables();
        let step = {
            let sampler = sampler.clone();
            let opt = opt.clone();
            let vars = vars.clone();
            tfe_core::function("l2hmc_train", move |args| {
                let x = args[0].as_tensor().unwrap();
                let tape = GradientTape::new();
                let loss = sampler.loss(x, 1.0)?;
                minimize(opt.as_ref(), tape, &loss, &vars)?;
                Ok(vec![loss])
            })
        };
        let x = tfe_runtime::api::zeros(DType::F32, [16, 2]);
        let mut losses = Vec::new();
        for _ in 0..25 {
            losses.push(step.call_tensors(&[&x]).unwrap()[0].scalar_f64().unwrap());
        }
        assert_eq!(step.num_concrete(), 1);
        let head: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "staged L2HMC training stalled: {head} -> {tail} ({losses:?})");
    }
}
