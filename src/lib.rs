//! # tf-eager
//!
//! A Rust reproduction of *TensorFlow Eager: A Multi-Stage, Python-Embedded
//! DSL for Machine Learning* (Agrawal et al., MLSys 2019) — an
//! imperative-by-default, optionally-staged differentiable-programming
//! runtime.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`api`] — the op surface (`tf.*`): works identically eagerly and
//!   under tracing;
//! - [`function`] / [`Func`] — the multi-stage JIT tracer (§4.6);
//! - [`GradientTape`] — tape-based autodiff, composable for higher-order
//!   derivatives (§4.2);
//! - [`Variable`] — program state with by-reference capture (§4.3);
//! - [`nn`], [`state`], [`dist`], [`device`], [`graph`] — the substrate
//!   crates (models, checkpointing, distribution, devices, graph IR).
//!
//! ## Quickstart
//!
//! ```
//! use tf_eager::prelude::*;
//! # fn main() -> Result<(), tf_eager::RuntimeError> {
//! tf_eager::init();
//!
//! // Imperative by default: ops run immediately (§4.1).
//! let x = api::constant(vec![2.0f32, -2.0], [2, 1])?;
//! let a = api::constant(vec![1.0f32, 0.0], [1, 2])?;
//! assert_eq!(api::matmul(&a, &x)?.scalar_f64()?, 2.0);
//!
//! // Differentiate with a tape (§4.2).
//! let v = api::scalar(3.0f32);
//! let tape = GradientTape::new();
//! tape.watch(&v);
//! let y = api::mul(&v, &v)?;
//! assert_eq!(tape.gradient1(&y, &v)?.scalar_f64()?, 6.0);
//!
//! // Stage with `function` (§4.6) — same code, now a dataflow graph.
//! let f = function1("square", |t| api::mul(t, t));
//! assert_eq!(f.call1(&api::scalar(4.0f32))?.scalar_f64()?, 16.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use tfe_autodiff::{value_and_grad, GradientTape};
pub use tfe_core::{cond, function, function1, init_scope, while_loop};
pub use tfe_core::{
    Arg, ConcreteFunction, Func, FuncStats, HostFunc, RetraceCause, RetraceEvent, TensorSpec,
};
pub use tfe_ops::{Attrs, Op, OpError};
pub use tfe_runtime::api;
pub use tfe_runtime::context::async_scope;
pub use tfe_runtime::{context, DeviceScope, ExecMode, RuntimeError, Tensor, Variable};
pub use tfe_tensor::{DType, Shape, TensorData, TensorError};

/// Device abstraction (names, kinds, the registry).
pub mod device {
    pub use tfe_device::*;
}

/// Dataflow-graph IR and optimization passes.
pub mod graph {
    pub use tfe_graph::*;
}

/// Neural-network layers, optimizers, models and datasets.
pub mod nn {
    pub use tfe_nn::*;
}

/// Checkpointing and SavedFunction bundles.
pub mod state {
    pub use tfe_state::*;
}

/// Model serving: versioned registry + adaptive micro-batching
/// (DESIGN.md §15).
pub mod serve {
    pub use tfe_serve::*;
}

/// Distributed execution (coordinator + workers).
pub mod dist {
    pub use tfe_dist::*;
}

/// Op-level profiling: spans, counters, chrome-trace export (DESIGN.md §10).
pub mod profile {
    pub use tfe_profile::*;
}

/// Always-on runtime metrics: counters, gauges, histograms, Prometheus
/// export and programmatic snapshots (DESIGN.md §11).
pub mod metrics {
    pub use tfe_metrics::*;
}

/// The value model of the on-disk formats (JSON text) and of wire frames
/// (binary).
pub mod encode {
    pub use tfe_encode::*;
}

/// Everything most programs need, in one import.
pub mod prelude {
    pub use crate::api;
    pub use crate::{
        function, function1, init_scope, Arg, Func, GradientTape, HostFunc, Tensor, TensorSpec,
        Variable,
    };
    pub use tfe_tensor::{DType, Shape, TensorData};
}

/// Install the gradients of `call` and `cond` (everything else about the
/// op set is compiled in). Idempotent; the public entry points call it
/// themselves, so this is only needed when differentiating hand-built
/// `call` records.
pub fn init() {
    tfe_core::init();
}

/// Register a device by name (say `/gpu:0`) so that `device` scopes and
/// copies can name it. Every device runs the host kernels; the benchmark
/// harness simulates what they would cost on the hardware the name stands
/// for.
///
/// # Errors
/// Malformed or duplicate device names.
pub fn register_device(name: &str) -> Result<(), RuntimeError> {
    let parsed = tfe_device::DeviceName::parse(name).map_err(RuntimeError::Device)?;
    context::device_manager()
        .register(tfe_device::Device::new(parsed))
        .map_err(RuntimeError::Device)
}
