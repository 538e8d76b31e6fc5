//! # tfe-bench
//!
//! The evaluation harness: regenerates every table and figure of §6 of the
//! TensorFlow Eager paper (Figure 3, Table 1, Figure 4) under the virtual
//! clock of [`sim`], plus the wall-clock `kernel_bench` and the smoke gates
//! of its binaries.
//!
//! See DESIGN.md §3 for the simulation substitution and EXPERIMENTS.md for
//! paper-vs-measured numbers.

#![warn(missing_docs)]

pub mod alloc;
pub mod calibrate;
pub mod harness;
pub mod sim;
pub mod workloads;

pub use harness::{measure, ExecutionConfig, Measurement};
