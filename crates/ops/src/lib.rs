//! # tfe-ops
//!
//! Operation definitions for the `tf-eager` workspace: attributes, symbolic
//! shapes, shape/dtype inference, and the standard op catalog.
//!
//! The paper's key implementation property (§1, §5) is that imperative and
//! staged execution share *one* set of primitive operations. The closed
//! enum [`Op`] is that set: every other layer (eager dispatch, graph
//! building, gradients, kernels) is a `match` over it, and an op's
//! definition is `op.def()` — no registry, no lock, no lookup by name.
//!
//! ```
//! use tfe_ops::{Attrs, InferCtx, Op, SymShape};
//! use tfe_tensor::{DType, Shape};
//!
//! let add = Op::from_name("add").unwrap(); // or `Op::Binary(BinaryOp::Add)`
//! let shapes = [SymShape::known(&Shape::from([2, 1])), SymShape::known(&Shape::from([3]))];
//! let attrs = Attrs::new();
//! let out = add
//!     .infer(&InferCtx { dtypes: &[DType::F32, DType::F32], shapes: &shapes, attrs: &attrs })
//!     .unwrap();
//! assert_eq!(out[0].1, SymShape::known(&Shape::from([2, 3])));
//! ```

#![warn(missing_docs)]

pub mod algebra;
mod attr;
pub mod catalog;
mod opdef;
mod symshape;

pub use attr::{AttrError, AttrValue, Attrs};
pub use opdef::{elems_or, Arity, InferCtx, Op, OpDef, OpError, OutputSig, WorkEstimate};
pub use symshape::SymShape;
pub use tfe_tensor::elementwise::{BinaryOp, CmpOp, LogicalOp, UnaryOp};
