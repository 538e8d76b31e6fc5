//! # tfe-serve
//!
//! A multi-tenant model server for tf-eager: the production end of the
//! paper's staging story (§4.3 — traces "can be serialized ... and executed
//! without the Python front-end"). [`ModelRegistry`] holds versioned
//! [`Servable`]s (imported `SavedFunction` bundles or live staged `Func`s);
//! each registered version runs an adaptive micro-batcher that coalesces
//! concurrent single-example requests along the leading dimension into one
//! staged call (DESIGN.md §15).
//!
//! ```
//! use tfe_core::{function1, TensorSpec};
//! use tfe_runtime::api;
//! use tfe_serve::ModelRegistry;
//! use tfe_tensor::DType;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = function1("doc_mlp", |x| api::relu(x))
//!     .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(4)])]);
//! let registry = ModelRegistry::new();
//! registry.register("doc_mlp", 1, f)?;
//! let x = api::constant(vec![1.0f32, -2.0, 3.0, -4.0], [1, 4])?;
//! let y = registry.infer("doc_mlp", &[&x])?; // coalesced with concurrent callers
//! assert_eq!(y[0].to_f64_vec()?, vec![1.0, 0.0, 3.0, 0.0]);
//! # Ok(())
//! # }
//! ```
//!
//! Batching requires the served trace to have a dynamic leading dimension:
//! trace with `Func::with_input_signature` and `None` in position 0 (a
//! `Servable::Staged` without one will retrace per batch size and still
//! serve correctly, at trace cost — watch `Func::retrace_report()`).
//!
//! Observability: `tfe_serve_*` metric families labeled per `name@vN`
//! (queue depth, batch-size and latency SLO histograms, budget breaches),
//! plus `serve`-category profiler spans for enqueue → dispatch → split.

#![warn(missing_docs)]

mod batcher;
mod error;
mod metrics;
mod registry;

pub use batcher::{BatchPolicy, Model, Servable};
pub use error::ServeError;
pub use metrics::{ModelMetrics, ROWS_BUCKETS, SLO_NS_BUCKETS};
pub use registry::ModelRegistry;
