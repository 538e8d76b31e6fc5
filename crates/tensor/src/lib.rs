//! # tfe-tensor
//!
//! Dense tensor substrate for the `tf-eager` workspace — the layer that
//! plays the role of TensorFlow's Eigen/NumPy kernels in the paper
//! *TensorFlow Eager: A Multi-Stage, Python-Embedded DSL for Machine
//! Learning* (MLSys 2019).
//!
//! It provides:
//! - [`DType`], [`Shape`], and the contiguous row-major [`TensorData`];
//! - NumPy-style broadcasting ([`shape::broadcast_shapes`]);
//! - elementwise math ([`elementwise`]), reductions ([`reduce`]), matrix
//!   products ([`matmul`]), convolution ([`conv`]), pooling ([`pool`]),
//!   softmax/cross-entropy ([`softmax`]), shape manipulation
//!   ([`shape_ops`]), and seeded random generation ([`rng`]).
//!
//! Everything here is pure math with no notion of devices, graphs, or
//! automatic differentiation — those live in the crates layered above.
//!
//! ```
//! use tfe_tensor::{TensorData, Shape, elementwise::{binary, BinaryOp}};
//! # fn main() -> Result<(), tfe_tensor::TensorError> {
//! let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2]))?;
//! let b = TensorData::scalar(10.0f32);
//! let c = binary(&a, &b, BinaryOp::Add)?;
//! assert_eq!(c.to_f64_vec(), vec![11.0, 12.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// `$body` with the type `$T` standing for the element type of `$dtype`:
/// one `match` per call, a typed loop in each arm. The `numeric` form
/// refuses a bool with a typed error.
macro_rules! typed {
    ($dtype:expr, |$T:ident| $body:expr) => {
        typed!(@arms $dtype, $T, $body, { type $T = bool; $body })
    };
    (numeric $dtype:expr, |$T:ident| $body:expr) => {
        typed!(@arms $dtype, $T, $body, Err($crate::TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: $crate::DType::Bool,
        }))
    };
    (@arms $dtype:expr, $T:ident, $body:expr, $bool:expr) => {
        match $dtype {
            $crate::DType::F32 => { type $T = f32; $body }
            $crate::DType::F64 => { type $T = f64; $body }
            $crate::DType::I32 => { type $T = i32; $body }
            $crate::DType::I64 => { type $T = i64; $body }
            $crate::DType::Bool => $bool,
        }
    };
}

mod bytes;
mod data;
mod dtype;
mod error;

pub(crate) mod par;

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod lanes;
pub mod matmul;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod shape;
pub mod shape_ops;
pub mod softmax;

pub use data::{Buffer, Scalar, TensorData};
pub use dtype::DType;
pub use error::{Result, TensorError};
pub use shape::{broadcast_shapes, Shape};
