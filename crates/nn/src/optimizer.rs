//! Optimizers: SGD, SGD-with-momentum, and Adam.
//!
//! `apply` is expressed in primitive operations, so a whole training step
//! (forward + backward + update) can be staged with `function` — the
//! configuration §6 benchmarks as "TFE + function".

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;
use tfe_parallel::lock;
use tfe_runtime::{api, Result, RuntimeError, Tensor, Variable};
use tfe_state::Trackable;
use tfe_tensor::{Shape, TensorData};

/// A gradient-based optimizer.
pub trait Optimizer: Send + Sync {
    /// Apply one update step given (gradient, variable) pairs.
    ///
    /// # Errors
    /// Shape mismatches or execution failures.
    fn apply(&self, grads_and_vars: &[(Tensor, Variable)]) -> Result<()>;

    /// Checkpointable slot state (momentum/Adam moments), if any.
    fn trackable(&self) -> Arc<dyn Trackable>;
}

fn scalar_like(v: &Variable, value: f64) -> Tensor {
    api::constant_data(TensorData::fill_f64(v.dtype(), Shape::scalar(), value))
}

/// Plain stochastic gradient descent: `v -= lr * g`.
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Create with a learning rate.
    pub fn new(lr: f64) -> Sgd {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn apply(&self, grads_and_vars: &[(Tensor, Variable)]) -> Result<()> {
        for (g, v) in grads_and_vars {
            let step = api::mul(g, &scalar_like(v, self.lr))?;
            v.assign_sub(&step)?;
        }
        Ok(())
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(tfe_state::TrackableGroup::new())
    }
}

/// SGD with classical momentum: `m = mu*m + g; v -= lr*m`.
pub struct Momentum {
    lr: f64,
    mu: f64,
    slots: Mutex<HashMap<u64, Variable>>,
}

impl Momentum {
    /// Create with learning rate and momentum coefficient.
    pub fn new(lr: f64, mu: f64) -> Momentum {
        Momentum { lr, mu, slots: Mutex::new(HashMap::new()) }
    }

    fn slot(&self, v: &Variable) -> Variable {
        lock(&self.slots)
            .entry(v.id())
            .or_insert_with(|| Variable::new(TensorData::zeros(v.dtype(), v.shape().clone())))
            .clone()
    }
}

impl Optimizer for Momentum {
    fn apply(&self, grads_and_vars: &[(Tensor, Variable)]) -> Result<()> {
        for (g, v) in grads_and_vars {
            let m = self.slot(v);
            let mv = m.read()?;
            let new_m = api::add(&api::mul(&mv, &scalar_like(v, self.mu))?, g)?;
            m.assign(&new_m)?;
            v.assign_sub(&api::mul(&new_m, &scalar_like(v, self.lr))?)?;
        }
        Ok(())
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        let slots = lock(&self.slots);
        let mut g = tfe_state::TrackableGroup::new();
        let mut keys: Vec<&u64> = slots.keys().collect();
        keys.sort();
        for (i, k) in keys.into_iter().enumerate() {
            g = g.with_variable(&format!("m{i}"), &slots[k]);
        }
        Arc::new(g)
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: Variable,
    slots: Mutex<HashMap<u64, (Variable, Variable)>>,
}

impl Adam {
    /// Create with the usual defaults for the betas.
    pub fn new(lr: f64) -> Adam {
        Adam::with_params(lr, 0.9, 0.999, 1e-8)
    }

    /// Full control.
    pub fn with_params(lr: f64, beta1: f64, beta2: f64, epsilon: f64) -> Adam {
        Adam {
            lr,
            beta1,
            beta2,
            epsilon,
            step: Variable::new(TensorData::scalar(0.0f32)),
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slots_for(&self, v: &Variable) -> (Variable, Variable) {
        lock(&self.slots)
            .entry(v.id())
            .or_insert_with(|| {
                (
                    Variable::new(TensorData::zeros(v.dtype(), v.shape().clone())),
                    Variable::new(TensorData::zeros(v.dtype(), v.shape().clone())),
                )
            })
            .clone()
    }
}

impl Optimizer for Adam {
    fn apply(&self, grads_and_vars: &[(Tensor, Variable)]) -> Result<()> {
        self.step.assign_add(&api::scalar(1.0f32))?;
        let t = self.step.read()?;
        let t = api::cast(&t, tfe_tensor::DType::F64)?;
        let b1 = api::scalar(self.beta1);
        let b2 = api::scalar(self.beta2);
        // Bias corrections 1 - beta^t.
        let one = api::scalar(1.0f64);
        let bc1 = api::sub(&one, &api::pow(&b1, &t)?)?;
        let bc2 = api::sub(&one, &api::pow(&b2, &t)?)?;
        for (g, v) in grads_and_vars {
            if !g.dtype().is_float() {
                return Err(RuntimeError::Internal("adam requires float gradients".into()));
            }
            let (m, s) = self.slots_for(v);
            let dt = v.dtype();
            let b1c = scalar_like(v, self.beta1);
            let b2c = scalar_like(v, self.beta2);
            let one_minus_b1 = scalar_like(v, 1.0 - self.beta1);
            let one_minus_b2 = scalar_like(v, 1.0 - self.beta2);
            let mv = m.read()?;
            let new_m = api::add(&api::mul(&mv, &b1c)?, &api::mul(g, &one_minus_b1)?)?;
            m.assign(&new_m)?;
            let sv = s.read()?;
            let new_s =
                api::add(&api::mul(&sv, &b2c)?, &api::mul(&api::square(g)?, &one_minus_b2)?)?;
            s.assign(&new_s)?;
            let m_hat = api::div(&new_m, &api::cast(&bc1, dt)?)?;
            let s_hat = api::div(&new_s, &api::cast(&bc2, dt)?)?;
            let denom = api::add(&api::sqrt(&s_hat)?, &scalar_like(v, self.epsilon))?;
            let step = api::mul(&api::div(&m_hat, &denom)?, &scalar_like(v, self.lr))?;
            v.assign_sub(&step)?;
        }
        Ok(())
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        let slots = lock(&self.slots);
        let mut g = tfe_state::TrackableGroup::new().with_variable("step", &self.step);
        let mut keys: Vec<&u64> = slots.keys().collect();
        keys.sort();
        for (i, k) in keys.into_iter().enumerate() {
            let (m, s) = &slots[k];
            g = g.with_variable(&format!("m{i}"), m).with_variable(&format!("v{i}"), s);
        }
        Arc::new(g)
    }
}

/// Compute gradients of `loss` w.r.t. `vars` and apply them — one optimizer
/// step, the `minimize` convenience.
///
/// # Errors
/// Tape or update failures.
pub fn minimize(
    opt: &dyn Optimizer,
    tape: tfe_autodiff::GradientTape,
    loss: &Tensor,
    vars: &[Variable],
) -> Result<()> {
    let refs: Vec<&Variable> = vars.iter().collect();
    let grads = tape.gradient_vars(loss, &refs)?;
    let pairs: Vec<(Tensor, Variable)> =
        grads.into_iter().zip(vars).filter_map(|(g, v)| g.map(|g| (g, v.clone()))).collect();
    opt.apply(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_autodiff::GradientTape;
    use tfe_state::TrackableChild;

    fn quadratic_step(opt: &dyn Optimizer, v: &Variable) -> f64 {
        // loss = (v - 3)^2; minimum at 3.
        let tape = GradientTape::new();
        let x = v.read().unwrap();
        let d = api::sub(&x, &api::scalar(3.0f32)).unwrap();
        let loss = api::square(&d).unwrap();
        minimize(opt, tape, &loss, std::slice::from_ref(v)).unwrap();
        loss.scalar_f64().unwrap()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let v = Variable::new(TensorData::scalar(0.0f32));
        let opt = Sgd::new(0.1);
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            last = quadratic_step(&opt, &v);
        }
        assert!(last < 1e-6, "loss {last}");
        assert!((v.peek().scalar_f64().unwrap() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn momentum_converges_faster_than_sgd_here() {
        let v1 = Variable::new(TensorData::scalar(0.0f32));
        let v2 = Variable::new(TensorData::scalar(0.0f32));
        let sgd = Sgd::new(0.02);
        let mom = Momentum::new(0.02, 0.9);
        for _ in 0..30 {
            quadratic_step(&sgd, &v1);
            quadratic_step(&mom, &v2);
        }
        let d1 = (v1.peek().scalar_f64().unwrap() - 3.0).abs();
        let d2 = (v2.peek().scalar_f64().unwrap() - 3.0).abs();
        assert!(d2 < d1, "momentum {d2} should beat sgd {d1}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let v = Variable::new(TensorData::scalar(0.0f32));
        let opt = Adam::new(0.2);
        for _ in 0..200 {
            quadratic_step(&opt, &v);
        }
        assert!((v.peek().scalar_f64().unwrap() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn optimizer_state_is_trackable() {
        let v = Variable::new(TensorData::scalar(0.0f32));
        let opt = Momentum::new(0.1, 0.9);
        quadratic_step(&opt, &v);
        let t = opt.trackable();
        let children = t.children();
        assert_eq!(children.len(), 1); // one slot variable
        assert!(matches!(children[0].1, TrackableChild::Variable(_)));
    }

    #[test]
    fn staged_training_step_with_momentum() {
        // The §6 configuration: stage forward + gradient + update together.
        let v = Variable::new(TensorData::scalar(0.0f32));
        let opt = Arc::new(Momentum::new(0.1, 0.9));
        let step = {
            let v = v.clone();
            let opt = opt.clone();
            tfe_core::function("train_step", move |_args| {
                let tape = GradientTape::new();
                let x = v.read()?;
                let d = api::sub(&x, &api::scalar(3.0f32))?;
                let loss = api::square(&d)?;
                minimize(opt.as_ref(), tape, &loss, std::slice::from_ref(&v))?;
                Ok(vec![loss])
            })
        };
        for _ in 0..120 {
            step.call(&[]).unwrap();
        }
        assert!((v.peek().scalar_f64().unwrap() - 3.0).abs() < 2e-2);
        assert_eq!(step.num_concrete(), 1);
    }
}
