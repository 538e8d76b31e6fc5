//! # tfe-graph
//!
//! Dataflow-graph IR for the `tf-eager` workspace: [`GraphFunction`]s (the
//! staged artifact of §4.1/§4.6 of the TensorFlow Eager paper — a graph
//! with named inputs and outputs), the [`GraphBuilder`] a tracing context
//! writes into, the optimization passes staging unlocks (pruning, CSE,
//! constant folding, and XLA-style elementwise fusion), and hand-rolled
//! JSON serialization for deployment without a tracer.
//!
//! ```
//! use tfe_graph::{GraphBuilder, passes};
//! use tfe_ops::{Attrs, SymShape};
//! use tfe_tensor::{DType, Shape};
//!
//! # fn main() -> Result<(), tfe_ops::OpError> {
//! let mut b = GraphBuilder::new("f");
//! let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4])))?;
//! let y = b.add_node("relu", vec![x], Attrs::new())?[0];
//! let _dead = b.add_node("exp", vec![x], Attrs::new())?;
//! let f = b.finish(vec![y], 0);
//! let optimized = passes::prune(&f);
//! assert_eq!(optimized.executable_node_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod ir;
pub mod passes;
pub mod program;
pub mod sequencing;
pub mod serial;

pub use builder::GraphBuilder;
pub use ir::{FunctionLibrary, GraphFunction, Node, NodeId, TensorRef};
