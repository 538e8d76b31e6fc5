//! # tfe-ops
//!
//! Operation definitions for the `tf-eager` workspace: typed op parameters
//! and their attribute form, symbolic shapes, shape/dtype inference, and the
//! standard op catalog.
//!
//! The paper's key implementation property (§1, §5) is that imperative and
//! staged execution share *one* set of primitive operations. The closed
//! enum [`Op`] is that set: every other layer (eager dispatch, graph
//! building, gradients, kernels) is a `match` over it, and an op's
//! definition is `op.def()` — no registry, no lock, no lookup by name. An
//! op instance's parameters are a [`Params`], decoded once from the
//! string-keyed [`Attrs`] where a name becomes an [`Op`].
//!
//! ```
//! use tfe_ops::{InferCtx, Op, Params, SymShape};
//! use tfe_tensor::{DType, Shape};
//!
//! let add = Op::from_name("add").unwrap(); // or `Op::Binary(BinaryOp::Add)`
//! let shapes = [SymShape::known(&Shape::from([2, 1])), SymShape::known(&Shape::from([3]))];
//! let (dtypes, params) = ([DType::F32, DType::F32], Params::None);
//! let out = add.infer(&InferCtx { dtypes: &dtypes, shapes: &shapes, params: &params }).unwrap();
//! assert_eq!(out[0].1, SymShape::known(&Shape::from([2, 3])));
//! ```

#![warn(missing_docs)]

pub mod algebra;
mod attr;
pub mod catalog;
mod opdef;
mod params;
mod symshape;

pub use attr::{AttrError, AttrValue, Attrs, Handle};
pub use opdef::{elems_or, Arity, InferCtx, Op, OpDef, OpError, OutputSig, WorkEstimate};
pub use params::{encode_sig, Float, Params, DEFAULT_MAX_ITERATIONS};
pub use symshape::SymShape;
pub use tfe_tensor::elementwise::{BinaryOp, CmpOp, LogicalOp, UnaryOp};
