//! The process-wide worker pool shared by **both** levels of parallelism:
//!
//! - **Inter-op**: the dependency-counted graph scheduler in `tfe-runtime`
//!   enqueues ready nodes as jobs (see `tfe_runtime::executor`).
//! - **Intra-op**: tensor kernels split one large operation into tiles via
//!   [`par_chunks_mut`]/[`par_reduce`] and run the tiles as jobs on the *same*
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
//! - [`par_chunks_mut`] tiles write disjoint output blocks; a kernel whose
//!   per-element math does not depend on the partition gives identical bits
//!   for any split.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use pool::{global, worker_count, Job, Pool};

// ---------------------------------------------------------------------------
// Non-poisoning lock acquisition
// ---------------------------------------------------------------------------
//
// A panic while a lock is held (a failing kernel tile, a poisoned serving
// batch) must not turn every later acquisition into a second panic: the
// workspace's locks guard plain data that is valid between statements, so
// every crate above this one acquires through these three helpers, which
// take the value out of a poisoned lock.

/// Lock `m`, recovering the guard if a panicking holder poisoned it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock `l`, recovering the guard if a panicking writer poisoned it.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `l`, recovering the guard if a panicking writer poisoned it.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

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
    // SAFETY: the borrow of `f` is stretched to 'static only for the jobs
    // submitted below, and this function neither returns nor unwinds until
    // each of them is done with it:
    // - a job counts the latch down after its chunk, whether the chunk
    //   returned or panicked (it runs under `catch_unwind`);
    // - chunk 0 runs here under `catch_unwind` too, the wait returns only
    //   once the latch reads zero, and the re-raise comes after the wait;
    // - nothing between the first submit and the wait unwinds: `submit`
    //   only allocates (a failed allocation aborts), and the queued jobs the
    //   wait helps with catch their own panics (graph nodes and tiles).
    // `tile_panic_reraises_after_every_other_tile_finished` tests the panic
    // path; the ASan step of `scripts/ci.sh` runs the kernels over it.
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

/// Units per tile for [`par_chunks_mut`] over `n` units: enough tiles to
/// balance across the workers (with a little slack for uneven tiles) but
/// never finer than `grain` units per tile.
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

/// Fill `out` in parallel, one disjoint block per tile. `out` is cut into
/// `n = out.len().div_ceil(unit)` units of `unit` elements (the last may be
/// short), and `body(units, block)` receives disjoint ranges of unit
/// indices covering `0..n`, each with its block
/// `out[units.start * unit .. min(units.end * unit, out.len())]`.
///
/// `grain_units` is the minimum number of units per tile; problems of
/// `grain_units` or fewer units run inline on the calling thread as one
/// block (tiny tensors never pay scheduling overhead). Otherwise the units
/// are split into tiles of `for_chunk_size(n, grain_units, intra_threads())`
/// units that run concurrently on the shared pool. Blocks are disjoint
/// `&mut` borrows handed out through `chunks_mut`, so any per-element
/// computation that does not depend on the partition gives identical bits
/// for every thread count. An empty `out` is a no-op (and may come with a
/// zero `unit`).
pub fn par_chunks_mut<T, F>(out: &mut [T], unit: usize, grain_units: usize, body: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(unit > 0, "par_chunks_mut: zero-length unit");
    let n = out.len().div_ceil(unit);
    let grain = grain_units.max(1);
    let threads = intra_threads();
    let chunk = if threads > 1 && n > grain { for_chunk_size(n, grain, threads) } else { n };
    if chunk >= n {
        serial_kernels().inc();
        return body(0..n, out);
    }
    let num_chunks = n.div_ceil(chunk);
    par_kernels().inc();
    tiles().add(num_chunks as u64);
    tfe_profile::counter("intra", "tiles", num_chunks as u64);
    // One slot per tile, each taken exactly once by the tile that owns it.
    let blocks: Vec<Mutex<Option<&mut [T]>>> =
        out.chunks_mut(chunk * unit).map(|b| Mutex::new(Some(b))).collect();
    debug_assert_eq!(blocks.len(), num_chunks);
    scope_chunks(num_chunks, &|c: usize| {
        let block = lock(&blocks[c]).take().expect("each tile takes its block once");
        let start = c * chunk;
        body(start..(start + chunk).min(n), block);
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
    let slots: Vec<Mutex<Option<R>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    scope_chunks(num_chunks, &|c: usize| {
        *lock(&slots[c]) = Some(map(chunk_range(c)));
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("completed chunk must have a result")
        })
        .reduce(combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Serializes the tests that split work or flip the split width, so a
    /// test reading the process-wide `tfe_intra_*` counters sees only its
    /// own loops.
    fn exclusive() -> MutexGuard<'static, ()> {
        static ONE: Mutex<()> = Mutex::new(());
        lock(&ONE)
    }

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
    fn par_chunks_mut_small_runs_inline() {
        let _one = exclusive();
        let before = intra_stats().serial_kernels;
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let mut out = [0u8; 8];
        par_chunks_mut(&mut out, 1, 1024, |units, block| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(std::thread::current().id(), caller, "runs on the caller");
            assert_eq!((units, block.len()), (0..8, 8));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(intra_stats().serial_kernels > before);
    }

    #[test]
    fn par_reduce_matches_serial_bitwise() {
        let _one = exclusive();
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
    fn nested_par_chunks_mut_does_not_deadlock() {
        let _one = exclusive();
        let mut rows = vec![0u32; 64 * 256];
        par_chunks_mut(&mut rows, 256, 1, |_, outer| {
            for row in outer.chunks_mut(256) {
                par_chunks_mut(row, 1, 16, |_, inner| inner.fill(1));
            }
        });
        assert!(rows.iter().all(|&v| v == 1));
    }

    #[test]
    fn tile_panic_propagates_and_pool_survives() {
        let _one = exclusive();
        let mut out = vec![0u8; 10_000];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut out, 1, 1, |r, _| {
                if r.contains(&4321) {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // Pool still functional afterwards.
        par_chunks_mut(&mut out, 1, 16, |_, block| block.fill(1));
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn tile_panic_reraises_after_every_other_tile_finished() {
        const TILES: usize = 6;
        // A buffer on this stack frame that every tile borrows: a tile still
        // running after the panic re-raises would write a dead frame.
        let wrote: [AtomicUsize; TILES] = std::array::from_fn(|_| AtomicUsize::new(0));
        let (started, failing) = (AtomicUsize::new(0), AtomicBool::new(false));
        let spin_until = |cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !cond() && Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope_chunks(TILES, &|c| {
                if c == 0 {
                    // Tile 0 runs inline on the caller: it fails once another
                    // tile is under way, so the panic lands mid-batch.
                    spin_until(&|| started.load(Ordering::SeqCst) > 0);
                    failing.store(true, Ordering::SeqCst);
                    panic!("tile 0 fails while the others run");
                }
                started.fetch_add(1, Ordering::SeqCst);
                // Write only after the panic has begun, and late enough that
                // an early re-raise would be seen before the write.
                spin_until(&|| failing.load(Ordering::SeqCst));
                std::thread::sleep(Duration::from_millis(10));
                wrote[c].store(c, Ordering::SeqCst);
            });
        }));
        assert!(caught.is_err(), "the tile's panic re-raises at the caller");
        for (c, slot) in wrote.iter().enumerate().skip(1) {
            assert_eq!(slot.load(Ordering::SeqCst), c, "tile {c} finished before the re-raise");
        }
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(1));
        let l = Arc::new(RwLock::new(2));
        let (m2, l2) = (m.clone(), l.clone());
        let holder = std::thread::spawn(move || {
            let _m = lock(&m2);
            let _l = write(&l2);
            panic!("poison both locks");
        });
        assert!(holder.join().is_err());
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*lock(&m), 1);
        assert_eq!(*read(&l), 2);
        *write(&l) += 1;
        assert_eq!(*read(&l), 3);
    }

    #[test]
    fn par_chunks_mut_visits_every_element_once() {
        let _one = exclusive();
        let mut out = vec![0usize; 100_003];
        par_chunks_mut(&mut out, 7, 4, |units, block| {
            for (off, v) in block.iter_mut().enumerate() {
                *v += units.start * 7 + off + 1;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn par_chunks_mut_blocks_align_to_unit_with_a_short_last_unit() {
        let _one = exclusive();
        let (unit, len) = (33, 33 * 1000 + 5);
        let seen = Mutex::new(Vec::new());
        let mut out = vec![0u8; len];
        par_chunks_mut(&mut out, unit, 4, |units, block| {
            lock(&seen).push((units, block.len()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(units, _)| units.start);
        let mut next = 0;
        for (units, block_len) in &seen {
            assert_eq!(units.start, next, "unit ranges tile 0..units in order");
            assert_eq!(*block_len, (units.end * unit).min(len) - units.start * unit);
            next = units.end;
        }
        assert_eq!(next, len.div_ceil(unit));
        assert_eq!(seen.last().unwrap().1 % unit, 5, "the last unit is short");
    }

    #[test]
    fn par_chunks_mut_tiles_follow_for_chunk_size() {
        let _one = exclusive();
        let prev = set_intra_threads(Some(4));
        for (n, grain) in [(1, 1), (100, 1), (10_000, 16), (50_000, 4096), (4096, 4096)] {
            // Units per tile as the splitter sizes them at width 4, with the
            // inline path for problems of `grain` units or fewer.
            let chunk = if n > grain { for_chunk_size(n, grain, 4) } else { n };
            let tiles = n.div_ceil(chunk);
            let blocks = AtomicUsize::new(0);
            let before = intra_stats();
            par_chunks_mut(&mut vec![0u8; n * 3], 3, grain, |units, _| {
                blocks.fetch_add(1, Ordering::SeqCst);
                assert!(units.len() == chunk || units.end == n, "n={n} grain={grain}");
            });
            let after = intra_stats();
            assert_eq!(blocks.load(Ordering::SeqCst), tiles, "n={n} grain={grain}");
            let parallel = u64::from(tiles > 1);
            assert_eq!(after.par_kernels - before.par_kernels, parallel, "n={n} grain={grain}");
            assert_eq!(after.serial_kernels - before.serial_kernels, 1 - parallel);
            assert_eq!(after.tiles - before.tiles, parallel * tiles as u64, "n={n} grain={grain}");
        }
        set_intra_threads(prev);
    }

    #[test]
    fn par_chunks_mut_with_one_thread_is_one_inline_block() {
        let _one = exclusive();
        let prev = set_intra_threads(Some(1));
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let mut out = vec![0u32; 100_000];
        par_chunks_mut(&mut out, 10, 1, |units, block| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(std::thread::current().id(), caller, "runs on the caller");
            assert_eq!((units, block.len()), (0..10_000, 100_000));
            block.fill(1);
        });
        set_intra_threads(prev);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(out.iter().all(|&v| v == 1));
    }
}
