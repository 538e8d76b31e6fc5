//! The process-wide worker pool shared by **both** levels of parallelism:
//!
//! - **Inter-op**: the dependency-counted graph scheduler in `tfe-runtime`
//!   enqueues ready nodes as jobs (see `tfe_runtime::executor`).
//! - **Intra-op**: tensor kernels split one large operation into tiles via
//!   [`par_for`]/[`par_reduce`] and run the tiles as jobs on the *same*
//!   queue, so graph-level and kernel-level parallelism never oversubscribe
//!   the machine with two competing thread pools.
//!
//! Threads that must wait — a graph run's caller, or a kernel waiting for
//! its tiles — never block idly: they *help*, popping jobs off the shared
//! queue until their own completion condition holds. That work-helping loop
//! is what makes nested graph-parallel + kernel-parallel execution
//! deadlock-free even when every worker is busy.
//!
//! # Determinism
//!
//! Kernel results are **thread-count invariant** by construction:
//!
//! - [`par_for`] tiles must write disjoint outputs whose per-element math
//!   does not depend on the partition, so any split gives identical bits.
//! - [`par_reduce`] always uses *fixed chunking*: chunk boundaries depend
//!   only on the problem size and grain, never on the thread count, and
//!   partial results are combined left-to-right in chunk order. A reduction
//!   therefore produces the same bits with 1 thread or 16.
//!
//! This is what keeps the executor differential suite's `serial == parallel`
//! bitwise guarantees intact with intra-op parallelism enabled.

pub mod pool;

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

pub use pool::{global, worker_count, Job, Pool};

// ---------------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------------

/// Session override of the intra-op split width; 0 means "auto" (use the
/// pool's worker count).
static INTRA_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override how many ways intra-op splitters divide work. `None` restores
/// the default (the pool's worker count, itself overridable with the
/// `TFE_NUM_THREADS` environment variable). Returns the previous override.
///
/// Setting `Some(1)` forces every kernel onto the serial path — used by the
/// bench harness to measure serial-vs-parallel speedups, and safe to flip
/// at any time because kernel results are thread-count invariant.
pub fn set_intra_threads(threads: Option<usize>) -> Option<usize> {
    let prev = INTRA_THREADS.swap(threads.unwrap_or(0).min(1024), Ordering::SeqCst);
    if prev == 0 {
        None
    } else {
        Some(prev)
    }
}

/// The effective intra-op split width: the [`set_intra_threads`] override
/// if set, else the pool's worker count.
pub fn intra_threads() -> usize {
    match INTRA_THREADS.load(Ordering::SeqCst) {
        0 => worker_count(),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Intra-op statistics
// ---------------------------------------------------------------------------

/// Counters describing what the intra-op splitter actually did; exposed
/// through `tfe_runtime::context::exec_stats` and the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntraStats {
    /// Kernel loops that ran on the parallel path (split into tiles).
    pub par_kernels: u64,
    /// Kernel loops the grain heuristic kept serial.
    pub serial_kernels: u64,
    /// Total tiles (chunks) executed by parallel kernel loops.
    pub tiles: u64,
}

fn par_kernels() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_intra_par_kernels_total",
        "Kernel loops the intra-op splitter ran as parallel tiles"
    )
}

fn serial_kernels() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!(
        "tfe_intra_serial_kernels_total",
        "Kernel loops the intra-op grain heuristic kept serial"
    )
}

fn tiles() -> &'static tfe_metrics::Counter {
    tfe_metrics::static_counter!("tfe_intra_tiles_total", "Tiles executed by parallel kernel loops")
}

/// Snapshot the intra-op counters: the current values of the
/// `tfe_intra_*` registry families, which are the only place these events
/// are counted. Monotone for the life of the process; scope a measurement
/// by subtracting an earlier snapshot.
pub fn intra_stats() -> IntraStats {
    IntraStats {
        par_kernels: par_kernels().get(),
        serial_kernels: serial_kernels().get(),
        tiles: tiles().get(),
    }
}

// ---------------------------------------------------------------------------
// The splitter
// ---------------------------------------------------------------------------

/// Completion latch for one batch of scoped tiles.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
}

/// Run `f(chunk_index)` for every index in `0..num_chunks`, on the shared
/// pool. The first chunk runs inline on the calling thread (best cache
/// locality for the common two-chunk case); the caller then work-helps
/// until every chunk has finished, so borrows captured by `f` stay valid.
///
/// Panics inside a chunk are caught on the worker (a stray panic would
/// otherwise kill the pool thread) and re-raised here once all chunks have
/// drained.
fn scope_chunks(num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    debug_assert!(num_chunks >= 1);
    // SAFETY: every job referencing `f` completes before this function
    // returns (the latch countdown below), so extending the borrow to
    // 'static never outlives the frame that owns the closure.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let run_chunk = move |c: usize| {
        let _sp = tfe_profile::span("intra", || "tile");
        f_static(c);
    };
    let latch = Arc::new(Latch {
        remaining: AtomicUsize::new(num_chunks),
        panicked: AtomicBool::new(false),
    });
    let pool = pool::global();
    for c in 1..num_chunks {
        let l = latch.clone();
        pool.submit(Box::new(move || {
            if catch_unwind(AssertUnwindSafe(|| run_chunk(c))).is_err() {
                l.panicked.store(true, Ordering::SeqCst);
            }
            if l.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                pool::global().notify();
            }
        }));
    }
    if catch_unwind(AssertUnwindSafe(|| run_chunk(0))).is_err() {
        latch.panicked.store(true, Ordering::SeqCst);
    }
    if latch.remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
        pool.wait_until(|| latch.remaining.load(Ordering::SeqCst) == 0);
    }
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("a parallel kernel tile panicked");
    }
}

/// Partition `0..n` for [`par_for`]: enough chunks to balance across the
/// workers (with a little slack for uneven tiles) but never finer than
/// `grain` items per chunk.
fn for_chunk_size(n: usize, grain: usize, threads: usize) -> usize {
    grain.max(n.div_ceil(threads * 4)).max(1)
}

/// Cache-budget for one kernel's live working set when picking a tile
/// length — sized to leave headroom in a typical 48–64 KiB L1D.
const TILE_BUDGET_BYTES: usize = 32 * 1024;

/// Elements per cache-resident tile for a kernel that keeps `buffers` live
/// arrays of `elem_bytes`-byte elements per tile (inputs + scratch
/// registers + output). The result depends only on the arguments — never on
/// the thread count — so tile boundaries, and therefore any math folded at
/// tile granularity, stay deterministic across serial and parallel runs.
///
/// Clamped to `[512, 4096]` elements: below 512 the per-tile bookkeeping
/// dominates, above 4096 an f32 register blows past the L1 budget.
pub fn tile_len(elem_bytes: usize, buffers: usize) -> usize {
    let per_elem = elem_bytes.max(1) * buffers.max(1);
    (TILE_BUDGET_BYTES / per_elem.max(1)).clamp(512, 4096)
}

/// Run `body` over disjoint index ranges covering `0..n`, in parallel on
/// the shared pool when the problem is big enough.
///
/// `grain` is the minimum number of items per tile; problems of `grain` or
/// fewer items run inline on the calling thread (tiny tensors never pay
/// scheduling overhead). Tiles must be independent: `body(r1)` and
/// `body(r2)` run concurrently for disjoint ranges, and each element's
/// result must not depend on the partition, so results are identical for
/// every thread count.
pub fn par_for<F: Fn(Range<usize>) + Sync>(n: usize, grain: usize, body: F) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let threads = intra_threads();
    if threads <= 1 || n <= grain {
        serial_kernels().inc();
        body(0..n);
        return;
    }
    let chunk = for_chunk_size(n, grain, threads);
    let num_chunks = n.div_ceil(chunk);
    if num_chunks <= 1 {
        serial_kernels().inc();
        body(0..n);
        return;
    }
    par_kernels().inc();
    tiles().add(num_chunks as u64);
    tfe_profile::counter("intra", "tiles", num_chunks as u64);
    scope_chunks(num_chunks, &|c: usize| {
        let start = c * chunk;
        body(start..(start + chunk).min(n));
    });
}

/// Tree-reduce `0..n`: `map` folds one chunk, `combine` merges partials
/// left-to-right in chunk order. Returns `None` only when `n == 0`.
///
/// **Fixed chunking**: the chunk boundaries are `grain`-sized slices of
/// `0..n` regardless of thread count or the serial/parallel decision, and
/// partials combine in ascending chunk order — so floating-point results
/// are bit-identical across thread counts (the deterministic-reduction
/// guarantee the executor differential suite relies on).
pub fn par_reduce<R, M, C>(n: usize, grain: usize, map: M, combine: C) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    C: Fn(R, R) -> R,
{
    if n == 0 {
        return None;
    }
    let grain = grain.max(1);
    let num_chunks = n.div_ceil(grain);
    let chunk_range = |c: usize| (c * grain)..((c + 1) * grain).min(n);
    if num_chunks == 1 || intra_threads() <= 1 {
        serial_kernels().inc();
        // Same fixed chunk boundaries, folded sequentially.
        let mut acc = map(chunk_range(0));
        for c in 1..num_chunks {
            acc = combine(acc, map(chunk_range(c)));
        }
        return Some(acc);
    }
    par_kernels().inc();
    tiles().add(num_chunks as u64);
    tfe_profile::counter("intra", "tiles", num_chunks as u64);
    let slots: Vec<parking_lot::Mutex<Option<R>>> =
        (0..num_chunks).map(|_| parking_lot::Mutex::new(None)).collect();
    scope_chunks(num_chunks, &|c: usize| {
        *slots[c].lock() = Some(map(chunk_range(c)));
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("completed chunk must have a result"))
        .reduce(combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_len_scales_with_working_set_and_clamps() {
        // One f32 buffer: clamped at the 4096-element ceiling (16 KiB).
        assert_eq!(tile_len(4, 1), 4096);
        // Four f32 buffers: 32 KiB budget / 16 B per element = 2048.
        assert_eq!(tile_len(4, 4), 2048);
        // Huge working sets clamp at the floor.
        assert_eq!(tile_len(8, 1024), 512);
        // Degenerate arguments are safe.
        assert_eq!(tile_len(0, 0), 4096);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, 128, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn par_for_small_stays_serial() {
        let before = intra_stats().serial_kernels;
        let sum = AtomicUsize::new(0);
        par_for(8, 1024, |r| {
            sum.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 8);
        assert!(intra_stats().serial_kernels > before);
    }

    #[test]
    fn par_reduce_matches_serial_bitwise() {
        // Pseudo-random f64s summed with fixed chunking: forcing the serial
        // path must give the exact same bits as the parallel path.
        let xs: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64) * 0.7315).sin() * 1e3 + ((i % 97) as f64) * 1e-7)
            .collect();
        let sum = |_: ()| {
            par_reduce(xs.len(), 1024, |r| xs[r].iter().fold(0.0f64, |a, &x| a + x), |a, b| a + b)
                .unwrap()
        };
        let parallel = sum(());
        let prev = set_intra_threads(Some(1));
        let serial = sum(());
        set_intra_threads(prev);
        assert_eq!(parallel.to_bits(), serial.to_bits());
    }

    #[test]
    fn par_reduce_empty_is_none() {
        assert!(par_reduce(0, 16, |_| 0u64, |a, b| a + b).is_none());
    }

    #[test]
    fn nested_par_for_does_not_deadlock() {
        let total = AtomicUsize::new(0);
        par_for(64, 1, |outer| {
            for _ in outer {
                par_for(256, 16, |inner| {
                    total.fetch_add(inner.len(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 64 * 256);
    }

    #[test]
    fn tile_panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            par_for(10_000, 1, |r| {
                if r.contains(&4321) {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // Pool still functional afterwards.
        let sum = AtomicUsize::new(0);
        par_for(10_000, 16, |r| {
            sum.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10_000);
    }
}
