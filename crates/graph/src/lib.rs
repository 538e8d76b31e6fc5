//! # tfe-graph
//!
//! Dataflow-graph IR for the `tf-eager` workspace: [`GraphFunction`]s (the
//! staged artifact of §4.1/§4.6 of the TensorFlow Eager paper — a graph
//! with named inputs and outputs), the [`GraphBuilder`] a tracing context
//! writes into — and, with its rules on, the optimizer a traced graph is
//! replayed through (constant folding, algebraic identities, CSE, then
//! pruning and XLA-style elementwise fusion; see [`passes`]) — and
//! hand-rolled JSON serialization for deployment without a tracer.
//!
//! ```
//! use tfe_graph::{GraphBuilder, passes};
//! use tfe_ops::{Attrs, SymShape};
//! use tfe_tensor::{DType, Shape};
//!
//! # fn main() -> Result<(), tfe_ops::OpError> {
//! // The plain builder records what it is given ...
//! let mut b = GraphBuilder::new("f");
//! let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4])))?;
//! let twice = b.add_node("add", vec![x, x], Attrs::new())?[0];
//! let again = b.add_node("add", vec![x, x], Attrs::new())?[0];
//! let y = b.add_node("mul", vec![twice, again], Attrs::new())?[0];
//! let _dead = b.add_node("exp", vec![x], Attrs::new())?;
//! let f = b.finish(vec![y], 0);
//! assert_eq!(f.executable_node_count(), 4);
//!
//! // ... and the optimizer replays it through a simplifying one: the two
//! // sums are one node, `exp` is pruned, what is left is one fused kernel.
//! let (g, stats) = passes::optimize_with_stats(&f, &Default::default(), None);
//! assert_eq!(g.executable_node_count(), 1);
//! assert_eq!((stats.sweeps, stats.rewrites_for("cse")), (1, 1));
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
pub use ir::{GraphFunction, Node, NodeId, TensorRef};
