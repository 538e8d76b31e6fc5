//! Bridge between the tensor kernels and the shared worker pool.
//!
//! Kernels split large loops into tiles with [`tfe_parallel::par_for`] /
//! [`tfe_parallel::par_reduce`]; the helpers here handle the one unsafe
//! pattern those splits need — handing each tile a disjoint `&mut` view of
//! the output buffer — plus the grain-size constants that keep small
//! tensors on the serial path (eager dispatch of tiny ops must not pay
//! pool-scheduling overhead).
//!
//! Every parallel kernel in this crate is **thread-count invariant**: tiles
//! write disjoint elements whose math does not depend on the partition, and
//! reductions use `par_reduce`'s fixed chunking. See DESIGN.md
//! ("Two-level parallelism").

use std::ops::Range;

/// Minimum elements before an elementwise map goes parallel (the fused
/// tile executor in `tfe-graph` holds its tiles to the same figure).
pub const GRAIN_ELEMWISE: usize = 4096;
/// Minimum rows before row-wise kernels (softmax, row reduce) go parallel
/// — rows are usually long, so the per-row grain is smaller.
pub(crate) const GRAIN_ROWS: usize = 8;
/// Fixed chunk length (in elements) for deterministic full reductions.
pub(crate) const GRAIN_REDUCE: usize = 8192;

/// A raw pointer that may cross thread boundaries. Used to give parallel
/// tiles disjoint mutable views of one output buffer.
pub(crate) struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: callers guarantee every thread touches a disjoint region and the
// underlying buffer outlives the parallel scope (the splitter joins all
// tiles before returning).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(p: *mut T) -> Self {
        Self(p)
    }

    /// Pointer to element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation this pointer was taken from,
    /// and concurrent users must access disjoint elements.
    pub(crate) unsafe fn add(self, i: usize) -> *mut T {
        self.0.add(i)
    }

    /// Mutable subslice `[start, start + len)`.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every other live view
    /// of the buffer.
    pub(crate) unsafe fn slice_mut<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.add(start), len)
    }
}

/// Fill `out` in parallel: `fill(start, chunk)` receives the absolute start
/// index and the mutable chunk `out[start..start + chunk.len()]`. Chunks
/// are disjoint, so this is safe for any element-independent computation;
/// results are identical for every thread count.
pub(crate) fn par_fill<U, F>(out: &mut [U], grain: usize, fill: F)
where
    U: Send,
    F: Fn(usize, &mut [U]) + Sync,
{
    let ptr = SendPtr::new(out.as_mut_ptr());
    tfe_parallel::par_for(out.len(), grain, |r: Range<usize>| {
        // SAFETY: par_for ranges partition 0..out.len() disjointly and the
        // splitter joins before par_fill returns.
        let chunk = unsafe { ptr.slice_mut(r.start, r.len()) };
        fill(r.start, chunk);
    });
}

/// Like [`par_fill`] but chunks are aligned to `row` elements: `fill(r,
/// rows)` receives a range of row indices and the mutable row block. Used
/// by kernels whose unit of work is one output row (softmax, row-reduce,
/// conv output rows).
pub(crate) fn par_fill_rows<U, F>(out: &mut [U], row: usize, grain_rows: usize, fill: F)
where
    U: Send,
    F: Fn(Range<usize>, &mut [U]) + Sync,
{
    debug_assert!(row > 0 && out.len().is_multiple_of(row));
    let n_rows = out.len() / row;
    let ptr = SendPtr::new(out.as_mut_ptr());
    tfe_parallel::par_for(n_rows, grain_rows, |r: Range<usize>| {
        // SAFETY: disjoint row ranges; splitter joins before return.
        let chunk = unsafe { ptr.slice_mut(r.start * row, r.len() * row) };
        fill(r, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_fill_writes_every_element() {
        let mut out = vec![0usize; 100_000];
        par_fill(&mut out, 512, |start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn par_fill_rows_aligns_to_rows() {
        let row = 33;
        let mut out = vec![0usize; row * 1000];
        par_fill_rows(&mut out, row, 4, |rows, chunk| {
            assert_eq!(chunk.len(), rows.len() * row);
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = rows.start * row + off;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }
}
