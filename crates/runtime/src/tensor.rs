//! The user-visible tensor handle.
//!
//! A [`Tensor`] is either *concrete* (an eagerly-computed value resident on
//! a device) or *symbolic* (a value flowing through a graph under
//! construction). User code and library code are written against `Tensor`
//! and work identically in both modes — the paper's "single, coherent API
//! surface ... agnostic to execution mode" (§1).

use crate::error::{Result, RuntimeError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfe_device::{Device, DeviceName};
use tfe_graph::TensorRef;
use tfe_ops::SymShape;
use tfe_tensor::{DType, Shape, TensorData};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh tensor/variable id. Ids are process-unique and used by
/// gradient tapes to track data flow.
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn live_tensors() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!("tfe_live_tensors", "Live eager tensor handles")
}

fn live_tensor_bytes() -> &'static tfe_metrics::Gauge {
    tfe_metrics::static_gauge!(
        "tfe_live_tensor_bytes",
        "Tensor bytes referenced by live eager handles (a shared buffer counts once per handle)"
    )
}

/// A concrete tensor resident on a device: one shared allocation, so a
/// clone of the handle is one reference-count bump.
#[derive(Clone)]
pub struct EagerTensor(Arc<EagerInner>);

/// What every clone of an [`EagerTensor`] shares.
pub struct EagerInner {
    /// Tape-tracking id.
    pub id: u64,
    /// The value, computed before the handle was made.
    data: Arc<TensorData>,
    /// Where the tensor lives.
    pub device: Device,
    /// What the live-tensor gauges were charged for this allocation.
    bytes: i64,
}

impl std::ops::Deref for EagerTensor {
    type Target = EagerInner;

    fn deref(&self) -> &EagerInner {
        &self.0
    }
}

/// The live-tensor gauges come back down exactly once per allocation: when
/// the last clone of the handle drops.
impl Drop for EagerInner {
    fn drop(&mut self) {
        live_tensors().dec();
        live_tensor_bytes().sub(self.bytes);
    }
}

impl EagerTensor {
    /// Wrap data on a device with a fresh id. One allocation: the gauges go
    /// up exactly once, here.
    pub fn new(data: Arc<TensorData>, device: Device) -> EagerTensor {
        let bytes = (data.num_elements() * data.dtype().size_bytes()) as i64;
        live_tensors().inc();
        let now = live_tensor_bytes().add_and_get(bytes);
        tfe_metrics::static_gauge!(
            "tfe_live_tensor_bytes_peak",
            "High-water mark of tfe_live_tensor_bytes"
        )
        .set_max(now);
        EagerTensor(Arc::new(EagerInner { id: fresh_id(), data, device, bytes }))
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Concrete shape.
    pub fn shape(&self) -> &Shape {
        self.data.shape()
    }

    /// The value.
    pub fn value(&self) -> &Arc<TensorData> {
        &self.data
    }
}

impl fmt::Debug for EagerTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EagerTensor(id={}, {:?}, device={})", self.id, self.data, self.device.name())
    }
}

/// A symbolic tensor: an output of a node in a graph under construction.
#[derive(Clone)]
pub struct SymbolicTensor {
    /// Tape-tracking id.
    pub id: u64,
    /// Which tracing frame produced it (guards against mixing graphs).
    pub frame_id: u64,
    /// The node output it refers to.
    pub tref: TensorRef,
    /// Element dtype.
    pub dtype: DType,
    /// Inferred (possibly partial) shape.
    pub shape: SymShape,
}

impl fmt::Debug for SymbolicTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SymbolicTensor(id={}, frame={}, %{}:{}, {}{})",
            self.id, self.frame_id, self.tref.node.0, self.tref.output, self.dtype, self.shape
        )
    }
}

/// A tensor handle: concrete in eager mode, symbolic while tracing.
#[derive(Clone, Debug)]
pub enum Tensor {
    /// Concrete value.
    Eager(EagerTensor),
    /// Graph value under construction.
    Symbolic(SymbolicTensor),
}

impl Tensor {
    /// Build a concrete tensor on the host CPU.
    pub fn from_data(data: TensorData) -> Tensor {
        Tensor::Eager(EagerTensor::new(Arc::new(data), crate::context::device_manager().host_cpu()))
    }

    /// The tape-tracking id.
    pub fn id(&self) -> u64 {
        match self {
            Tensor::Eager(t) => t.id,
            Tensor::Symbolic(t) => t.id,
        }
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        match self {
            Tensor::Eager(t) => t.dtype(),
            Tensor::Symbolic(t) => t.dtype,
        }
    }

    /// Possibly-symbolic shape.
    pub fn sym_shape(&self) -> SymShape {
        match self {
            Tensor::Eager(t) => SymShape::known(t.shape()),
            Tensor::Symbolic(t) => t.shape.clone(),
        }
    }

    /// Concrete shape.
    ///
    /// # Errors
    /// Symbolic tensor with unknown dimensions.
    pub fn shape(&self) -> Result<Shape> {
        self.sym_shape().to_shape().ok_or_else(|| {
            RuntimeError::SymbolicValue(format!(
                "shape {} has unknown dimensions",
                self.sym_shape()
            ))
        })
    }

    /// Rank (always known, even for symbolic tensors).
    pub fn rank(&self) -> usize {
        self.sym_shape().rank()
    }

    /// Whether this handle is symbolic (being traced).
    pub fn is_symbolic(&self) -> bool {
        matches!(self, Tensor::Symbolic(_))
    }

    /// The concrete value — the analog of `.numpy()` in the paper.
    ///
    /// # Errors
    /// Called on a symbolic tensor (inside a trace).
    pub fn value(&self) -> Result<Arc<TensorData>> {
        match self {
            Tensor::Eager(t) => Ok(t.value().clone()),
            Tensor::Symbolic(t) => Err(RuntimeError::SymbolicValue(format!(
                "tensor {t:?} is symbolic; use host_func or init_scope to escape the trace"
            ))),
        }
    }

    /// The single scalar value as `f64`.
    ///
    /// # Errors
    /// Symbolic handle or non-scalar tensor.
    pub fn scalar_f64(&self) -> Result<f64> {
        Ok(self.value()?.scalar_f64()?)
    }

    /// All elements as `f64`, row-major.
    ///
    /// # Errors
    /// Symbolic handle.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        Ok(self.value()?.to_f64_vec())
    }

    /// The device a concrete tensor lives on.
    ///
    /// # Errors
    /// Symbolic handle.
    pub fn device(&self) -> Result<DeviceName> {
        match self {
            Tensor::Eager(t) => Ok(t.device.name().clone()),
            Tensor::Symbolic(_) => Err(RuntimeError::SymbolicValue(
                "symbolic tensors have no device until executed".to_string(),
            )),
        }
    }

    /// The eager payload, if concrete.
    pub fn as_eager(&self) -> Option<&EagerTensor> {
        match self {
            Tensor::Eager(t) => Some(t),
            Tensor::Symbolic(_) => None,
        }
    }

    /// The symbolic payload, if tracing.
    pub fn as_symbolic(&self) -> Option<&SymbolicTensor> {
        match self {
            Tensor::Symbolic(t) => Some(t),
            Tensor::Eager(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = Tensor::from_data(TensorData::scalar(1.0f32));
        let b = Tensor::from_data(TensorData::scalar(1.0f32));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn eager_accessors() {
        let t =
            Tensor::from_data(TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2])).unwrap());
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.shape().unwrap(), Shape::from([2]));
        assert_eq!(t.rank(), 1);
        assert!(!t.is_symbolic());
        assert_eq!(t.to_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(t.device().unwrap(), DeviceName::local_cpu());
        assert!(t.as_eager().is_some());
        assert!(t.as_symbolic().is_none());
    }

    #[test]
    fn symbolic_value_errors() {
        let s = Tensor::Symbolic(SymbolicTensor {
            id: fresh_id(),
            frame_id: 1,
            tref: TensorRef::first(tfe_graph::NodeId(0)),
            dtype: DType::F32,
            shape: SymShape::new(vec![None]),
        });
        assert!(s.is_symbolic());
        assert!(s.value().is_err());
        assert!(s.device().is_err());
        assert!(s.shape().is_err()); // unknown dim
        assert_eq!(s.rank(), 1);
    }

    #[test]
    fn scalar_access() {
        let t = Tensor::from_data(TensorData::scalar(4.25f64));
        assert_eq!(t.scalar_f64().unwrap(), 4.25);
        let v = Tensor::from_data(TensorData::zeros(DType::F32, [3]));
        assert!(v.scalar_f64().is_err());
    }
}
