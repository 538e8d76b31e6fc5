//! A counting global allocator, for the binaries that pin heap traffic
//! (`kernel_bench`'s `eager_dispatch` row, `tests/eager_allocations.rs`).
//!
//! [`CountingAlloc`] is the system allocator plus one process-wide counter
//! of allocations and reallocations. It counts only in a binary that
//! installs it, and [`allocations_per_call`] reads it:
//!
//! ```
//! use tfe_bench::alloc::{allocations_per_call, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let grown = allocations_per_call(10, || {
//!         let mut v: Vec<u64> = Vec::with_capacity(1);
//!         v.extend(0..64);
//!         assert_eq!(v.iter().sum::<u64>(), 2016, "the grown buffer kept its values");
//!     });
//!     assert_eq!(grown, 2.0, "one allocation and one reallocation a call");
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and reallocations.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returned, so `System`'s contract is this one's; the
// only addition is a relaxed counter increment, which neither allocates nor
// touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations per call of `f`: the mean over `n` calls, after `n`
/// calls of warm-up. Counts every thread's allocations, so measure with
/// nothing else running.
pub fn allocations_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..n {
        f();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..n {
        f();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / n as f64
}
