//! Variables: the program state of §4.3.
//!
//! Each variable is an object with its own unique storage, deleted when the
//! object is dropped. Staged computations reference variables by unique id
//! (the `var_id` attribute on `read_variable`/`assign*` nodes); those ids
//! stop resolving once the owning [`Variable`] is gone, exactly matching
//! the paper's semantics.

use crate::error::{Result, RuntimeError};
use crate::tensor::{fresh_id, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;
use std::sync::{Arc, Weak};
use tfe_device::DeviceName;
use tfe_ops::{Attrs, Op};
use tfe_parallel::{read, write};
use tfe_tensor::{DType, Shape, TensorData};

/// Backing storage for one variable.
#[derive(Debug)]
pub struct VarStorage {
    /// Unique id; what staged computations reference.
    pub id: u64,
    /// Fixed dtype.
    pub dtype: DType,
    /// Fixed shape.
    pub shape: Shape,
    /// The device the variable lives on.
    pub device: DeviceName,
    value: RwLock<Arc<TensorData>>,
}

impl VarStorage {
    /// Current value (cheap Arc clone).
    pub fn value(&self) -> Arc<TensorData> {
        read(&self.value).clone()
    }

    fn bytes(&self) -> i64 {
        (self.shape.num_elements() * self.dtype.size_bytes()) as i64
    }

    /// Replace the value.
    ///
    /// # Errors
    /// dtype/shape mismatch with the variable's declaration.
    pub fn set_value(&self, v: TensorData) -> Result<()> {
        if v.dtype() != self.dtype {
            return Err(RuntimeError::Tensor(tfe_tensor::TensorError::DTypeMismatch {
                expected: self.dtype.name().to_string(),
                got: v.dtype(),
            }));
        }
        if v.shape() != &self.shape {
            return Err(RuntimeError::Tensor(tfe_tensor::TensorError::ShapeMismatch {
                expected: format!("variable shape {}", self.shape),
                got: v.shape().clone(),
            }));
        }
        *write(&self.value) = Arc::new(v);
        Ok(())
    }
}

impl Drop for VarStorage {
    fn drop(&mut self) {
        tfe_metrics::static_gauge!("tfe_live_variables", "Live variables").dec();
        tfe_metrics::static_gauge!(
            "tfe_live_variable_bytes",
            "Tensor bytes held by live variables"
        )
        .sub(self.bytes());
    }
}

/// The global id→storage table. Holds weak references, so dropping the last
/// [`Variable`] handle makes its id unusable.
#[derive(Default)]
pub struct VariableRegistry {
    map: RwLock<HashMap<u64, Weak<VarStorage>>>,
}

impl VariableRegistry {
    fn register(&self, storage: &Arc<VarStorage>) {
        write(&self.map).insert(storage.id, Arc::downgrade(storage));
    }

    /// Resolve an id to live storage.
    ///
    /// # Errors
    /// [`RuntimeError::VariableDead`] when the owning object is gone.
    pub fn resolve(&self, id: u64) -> Result<Arc<VarStorage>> {
        read(&self.map).get(&id).and_then(Weak::upgrade).ok_or(RuntimeError::VariableDead(id))
    }

    /// Drop dead entries (called opportunistically).
    pub fn sweep(&self) {
        write(&self.map).retain(|_, w| w.strong_count() > 0);
    }
}

/// The process-wide variable registry.
pub fn registry() -> &'static VariableRegistry {
    static REGISTRY: std::sync::OnceLock<VariableRegistry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(VariableRegistry::default)
}

/// A mutable, tape-aware tensor variable (the `tf.Variable` analog).
///
/// Reading a variable goes through the `read_variable` operation, so all
/// active gradient tapes automatically watch it (§4.2, Listing 2), and
/// traced functions capture it *by reference* (§4.6, Listing 7).
///
/// Cloning a `Variable` clones the handle; both handles share storage.
#[derive(Clone)]
pub struct Variable {
    storage: Arc<VarStorage>,
}

impl Variable {
    /// Create a variable holding `initial`, placed on the current device.
    ///
    /// Notifies the active tracing context (if any) for the state-creation
    /// contract of §4.6.
    pub fn new(initial: TensorData) -> Variable {
        let device = crate::context::current_device_name();
        let storage = Arc::new(VarStorage {
            id: fresh_id(),
            dtype: initial.dtype(),
            shape: initial.shape().clone(),
            device,
            value: RwLock::new(Arc::new(initial)),
        });
        registry().register(&storage);
        tfe_metrics::static_counter!("tfe_variables_created_total", "Variables ever created").inc();
        tfe_metrics::static_gauge!("tfe_live_variables", "Live variables").inc();
        tfe_metrics::static_gauge!(
            "tfe_live_variable_bytes",
            "Tensor bytes held by live variables"
        )
        .add(storage.bytes());
        crate::context::notify_variable_created(storage.id);
        Variable { storage }
    }

    /// Convenience scalar-f32 variable.
    pub fn scalar(v: f32) -> Variable {
        Variable::new(TensorData::scalar(v))
    }

    /// The unique id staged computations use to reference this variable.
    pub fn id(&self) -> u64 {
        self.storage.id
    }

    /// Declared dtype.
    pub fn dtype(&self) -> DType {
        self.storage.dtype
    }

    /// Declared shape.
    pub fn shape(&self) -> &Shape {
        &self.storage.shape
    }

    /// Read the current value *as an operation* — recorded by tapes and
    /// traces. This is `read_value()` in the paper's listings.
    ///
    /// # Errors
    /// Execution failures.
    pub fn read(&self) -> Result<Tensor> {
        let dims: Vec<i64> = self.storage.shape.dims().iter().map(|&d| d as i64).collect();
        let attrs = Attrs::new()
            .with("var_id", self.storage.id as i64)
            .with("dtype", self.storage.dtype)
            .with("shape", dims);
        let mut out = crate::context::execute(Op::ReadVariable, &[], attrs)?;
        Ok(out.remove(0))
    }

    /// Overwrite the value (an operation; works inside traces).
    ///
    /// # Errors
    /// dtype/shape mismatch or execution failure.
    pub fn assign(&self, value: &Tensor) -> Result<()> {
        self.assign_op(Op::Assign, value)
    }

    /// Add `value` in place.
    ///
    /// # Errors
    /// dtype/shape mismatch or execution failure.
    pub fn assign_add(&self, value: &Tensor) -> Result<()> {
        self.assign_op(Op::AssignAdd, value)
    }

    /// Subtract `value` in place.
    ///
    /// # Errors
    /// dtype/shape mismatch or execution failure.
    pub fn assign_sub(&self, value: &Tensor) -> Result<()> {
        self.assign_op(Op::AssignSub, value)
    }

    fn assign_op(&self, op: Op, value: &Tensor) -> Result<()> {
        let attrs = Attrs::new().with("var_id", self.storage.id as i64);
        crate::context::execute(op, std::slice::from_ref(value), attrs)?;
        Ok(())
    }

    /// Peek at the value without going through an operation (not recorded
    /// by tapes; used by optimizers' host-side logic and checkpointing).
    pub fn peek(&self) -> Arc<TensorData> {
        self.storage.value()
    }

    /// Directly overwrite storage without an operation (checkpoint restore).
    ///
    /// # Errors
    /// dtype/shape mismatch.
    pub fn restore(&self, value: TensorData) -> Result<()> {
        self.storage.set_value(value)
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Variable(id={}, dtype={}, shape={}, value={:?})",
            self.storage.id,
            self.storage.dtype,
            self.storage.shape,
            self.storage.value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_validation() {
        let v = Variable::new(TensorData::zeros(DType::F32, [2]));
        assert!(v.restore(TensorData::zeros(DType::F32, [2])).is_ok());
        assert!(v.restore(TensorData::zeros(DType::F64, [2])).is_err());
        assert!(v.restore(TensorData::zeros(DType::F32, [3])).is_err());
    }

    #[test]
    fn registry_weak_semantics() {
        let id;
        {
            let v = Variable::scalar(1.0);
            id = v.id();
            assert!(registry().resolve(id).is_ok());
            // A clone keeps it alive.
            let v2 = v.clone();
            drop(v);
            assert!(registry().resolve(id).is_ok());
            drop(v2);
        }
        assert!(matches!(registry().resolve(id), Err(RuntimeError::VariableDead(_))));
        registry().sweep();
    }

    #[test]
    fn peek_without_op() {
        let v = Variable::new(TensorData::scalar(3.0f64));
        assert_eq!(v.peek().scalar_f64().unwrap(), 3.0);
        assert_eq!(v.dtype(), DType::F64);
        assert_eq!(v.shape().rank(), 0);
    }
}
