//! The user-visible `GradientTape` (§4.2).

use crate::backprop;
use std::sync::Arc;
use tfe_runtime::{Result, RuntimeError, Tape, Tensor, Variable};

/// Records operations for reverse-mode differentiation.
///
/// Creating a tape pushes it onto the thread's active-tape stack; dropping
/// it (or letting it fall out of scope) pops it. If a tape watches a value,
/// operations taking that value as input are recorded; any scalar computed
/// while the tape is active can then be differentiated with respect to any
/// watched value. Tapes compose: one tape can record the gradient
/// computation another tape performs (Listing 1's nested tapes).
///
/// ```
/// use tfe_autodiff::GradientTape;
/// use tfe_runtime::api;
/// # fn main() -> Result<(), tfe_runtime::RuntimeError> {
/// let x = api::scalar(3.0f32);
/// let t1 = GradientTape::new();
/// let t2 = GradientTape::new();
/// t1.watch(&x);
/// t2.watch(&x);
/// let y = api::mul(&x, &x)?;
/// let dy_dx = t2.gradient1(&y, &x)?; // 6.0
/// let d2y_dx2 = t1.gradient1(&dy_dx, &x)?; // 2.0
/// assert_eq!(dy_dx.scalar_f64()?, 6.0);
/// assert_eq!(d2y_dx2.scalar_f64()?, 2.0);
/// # Ok(())
/// # }
/// ```
pub struct GradientTape {
    tape: Arc<Tape>,
}

impl GradientTape {
    /// A single-use tape that auto-watches variables.
    pub fn new() -> GradientTape {
        GradientTape::with_options(false, true)
    }

    /// A tape whose `gradient` may be called repeatedly.
    pub fn persistent() -> GradientTape {
        GradientTape::with_options(true, true)
    }

    /// Full control over persistence and variable auto-watching.
    pub fn with_options(persistent: bool, watch_accessed_variables: bool) -> GradientTape {
        let tape = Tape::new(persistent, watch_accessed_variables);
        tfe_runtime::context::push_tape(tape.clone());
        GradientTape { tape }
    }

    /// Watch a tensor (record ops consuming it).
    pub fn watch(&self, t: &Tensor) {
        self.tape.watch_id(t.id());
    }

    /// Explicitly watch a variable (usually automatic; see
    /// [`GradientTape::with_options`]).
    pub fn watch_variable(&self, v: &Variable) {
        self.tape.watch_id(v.id());
    }

    /// Number of operations recorded so far.
    pub fn num_recorded(&self) -> usize {
        self.tape.len()
    }

    /// d`target`/d`source` for a single tensor source.
    ///
    /// # Errors
    /// No gradient path, missing gradient definitions, or reuse of a
    /// non-persistent tape.
    pub fn gradient1(&self, target: &Tensor, source: &Tensor) -> Result<Tensor> {
        let mut v = self.gradient(target, &[source])?;
        v.remove(0).ok_or_else(|| {
            RuntimeError::Internal(
                "no gradient path from target to source (did you watch it?)".to_string(),
            )
        })
    }

    /// Gradients of `target` with respect to `sources` (None = unconnected).
    ///
    /// # Errors
    /// Missing gradient definitions along the path, or tape reuse.
    pub fn gradient(&self, target: &Tensor, sources: &[&Tensor]) -> Result<Vec<Option<Tensor>>> {
        self.gradient_with_output_grad(target, None, sources)
    }

    /// Gradients with respect to variables, accumulated across all reads.
    ///
    /// # Errors
    /// Missing gradient definitions along the path, or tape reuse.
    pub fn gradient_vars(
        &self,
        target: &Tensor,
        sources: &[&Variable],
    ) -> Result<Vec<Option<Tensor>>> {
        let ids: Vec<u64> = sources.iter().map(|v| v.id()).collect();
        self.gradient_ids(target, None, &ids)
    }

    /// Like [`GradientTape::gradient`] with an explicit seed gradient
    /// (defaults to ones of the target's shape).
    ///
    /// # Errors
    /// Missing gradient definitions along the path, or tape reuse.
    pub fn gradient_with_output_grad(
        &self,
        target: &Tensor,
        output_grad: Option<Tensor>,
        sources: &[&Tensor],
    ) -> Result<Vec<Option<Tensor>>> {
        let ids: Vec<u64> = sources.iter().map(|t| t.id()).collect();
        self.gradient_ids(target, output_grad, &ids)
    }

    fn gradient_ids(
        &self,
        target: &Tensor,
        output_grad: Option<Tensor>,
        source_ids: &[u64],
    ) -> Result<Vec<Option<Tensor>>> {
        self.tape.consume()?;
        // The tape must not record its own backward pass; outer tapes do
        // (that is how nesting yields higher-order derivatives).
        let was_active = tfe_runtime::context::pop_tape(self.tape.id);
        let result = (|| {
            let seed = match output_grad {
                Some(g) => g,
                None => {
                    let mut out = tfe_runtime::context::execute(
                        tfe_ops::Op::OnesLike,
                        std::slice::from_ref(target),
                        tfe_ops::Attrs::new(),
                    )?;
                    out.remove(0)
                }
            };
            let grads = backprop::accumulate(&self.tape.records(), target.id(), seed, source_ids)?;
            Ok(source_ids.iter().map(|id| grads.get(id).cloned()).collect())
        })();
        if was_active {
            tfe_runtime::context::push_tape(self.tape.clone());
        }
        result
    }
}

impl Default for GradientTape {
    fn default() -> GradientTape {
        GradientTape::new()
    }
}

impl Drop for GradientTape {
    fn drop(&mut self) {
        tfe_runtime::context::pop_tape(self.tape.id);
    }
}

impl std::fmt::Debug for GradientTape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GradientTape({:?})", self.tape)
    }
}

/// Convenience: compute `d f(x) / d x` at `x` for a unary function, eagerly.
///
/// # Errors
/// Propagates tape errors.
pub fn value_and_grad(
    f: impl FnOnce(&Tensor) -> Result<Tensor>,
    x: &Tensor,
) -> Result<(Tensor, Tensor)> {
    let tape = GradientTape::new();
    tape.watch(x);
    let y = f(x)?;
    let g = tape.gradient1(&y, x)?;
    Ok((y, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_runtime::api;

    #[test]
    fn simple_gradient() {
        // d(x^2)/dx = 2x
        let x = api::scalar(3.0f32);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = api::mul(&x, &x).unwrap();
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.scalar_f64().unwrap(), 6.0);
    }

    #[test]
    fn unwatched_is_unconnected() {
        let x = api::scalar(3.0f32);
        let tape = GradientTape::new();
        let y = api::mul(&x, &x).unwrap();
        let g = tape.gradient(&y, &[&x]).unwrap();
        assert!(g[0].is_none());
    }

    #[test]
    fn nested_tapes_second_derivative() {
        // Listing 1: y = x*x; dy/dx = 2x = 6; d2y/dx2 = 2.
        let x = api::scalar(3.0f32);
        let t1 = GradientTape::new();
        let t2 = GradientTape::new();
        t1.watch(&x);
        t2.watch(&x);
        let y = api::mul(&x, &x).unwrap();
        let dy = t2.gradient1(&y, &x).unwrap();
        assert_eq!(dy.scalar_f64().unwrap(), 6.0);
        let d2y = t1.gradient1(&dy, &x).unwrap();
        assert_eq!(d2y.scalar_f64().unwrap(), 2.0);
    }

    #[test]
    fn non_persistent_single_use() {
        let x = api::scalar(2.0f32);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = api::square(&x).unwrap();
        assert!(tape.gradient1(&y, &x).is_ok());
        assert!(tape.gradient1(&y, &x).is_err());
    }

    #[test]
    fn persistent_reuse() {
        let x = api::scalar(2.0f32);
        let tape = GradientTape::persistent();
        tape.watch(&x);
        let y = api::square(&x).unwrap();
        let z = api::mul(&y, &x).unwrap(); // x^3
        assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 4.0);
        assert_eq!(tape.gradient1(&z, &x).unwrap().scalar_f64().unwrap(), 12.0);
    }

    #[test]
    fn value_and_grad_helper() {
        let x = api::scalar(1.5f64);
        let (y, g) = value_and_grad(api::exp, &x).unwrap();
        assert!((y.scalar_f64().unwrap() - 1.5f64.exp()).abs() < 1e-12);
        assert!((g.scalar_f64().unwrap() - 1.5f64.exp()).abs() < 1e-12);
    }
}
