//! # tfe-runtime
//!
//! The imperative runtime of the `tf-eager` workspace (§4.1 and §5 of the
//! TensorFlow Eager paper): eager tensors, the mode-agnostic [`Tensor`]
//! handle, the thread-local execution [`context`] (tracing frames, device
//! scopes, gradient-tape stack), one CPU [`kernels`] table shared by both
//! execution modes, the dataflow [`executor`] for graph functions (serial
//! with buffer reuse, or inter-op parallel), [`Variable`]s with unique
//! storage (§4.3), and the user-visible op wrappers in [`api`].
//!
//! ```
//! use tfe_runtime::api;
//! # fn main() -> Result<(), tfe_runtime::RuntimeError> {
//! let a = api::constant(vec![1.0f32, 0.0], [1, 2])?;
//! let x = api::constant(vec![2.0f32, -2.0], [2, 1])?;
//! let y = api::matmul(&a, &x)?; // executes immediately
//! assert_eq!(y.scalar_f64()?, 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod context;
mod error;
pub mod executor;
pub mod kernels;
mod tape;
mod tensor;
mod variable;

pub use context::DeviceScope;
pub use error::{Result, RuntimeError};
pub use executor::ExecMode;
pub use tape::{Tape, TapeRecord};
pub use tensor::{fresh_id, EagerInner, EagerTensor, SymbolicTensor, Tensor};
pub use variable::{registry as variable_registry, VarStorage, Variable};
