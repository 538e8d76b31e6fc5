//! Grain sizes for the tensor kernels' use of the shared worker pool.
//!
//! Kernels split large loops with [`tfe_parallel::par_chunks_mut`] (a
//! disjoint block of the output per tile; elementwise maps through
//! [`crate::lanes::Tiler`]) or [`tfe_parallel::par_reduce`]; the constants
//! here keep small tensors on the serial path (eager dispatch of tiny ops
//! must not pay pool-scheduling overhead).
//!
//! Every parallel kernel in this crate is **thread-count invariant**, NaNs
//! included: tiles write disjoint elements whose math does not depend on
//! the partition (an elementwise tile is a lane multiple fixed by the
//! length, so an element runs in a lane block or in the scalar tail by its
//! index alone), and reductions use `par_reduce`'s fixed chunking. See
//! DESIGN.md ("Two-level parallelism").

/// Minimum elements before an elementwise map goes parallel, fused or not
/// ([`crate::lanes::Tiler`]).
pub(crate) const GRAIN_ELEMWISE: usize = 4096;
/// Minimum rows before row-wise kernels (softmax, row reduce) go parallel
/// — rows are usually long, so the per-row grain is smaller.
pub(crate) const GRAIN_ROWS: usize = 8;
/// Fixed chunk length (in elements) for deterministic full reductions.
pub(crate) const GRAIN_REDUCE: usize = 8192;
