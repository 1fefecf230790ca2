//! The allocation-counting test harness: a global allocator shim that
//! counts every `alloc`/`realloc`, and helpers for asserting a budget.
//!
//! Install the shim in a test or bench **binary** (one per process —
//! `#[global_allocator]` is a process-global singleton):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();
//! ```
//!
//! then measure with [`allocation_count`] deltas or
//! [`min_allocations_over`]. Two caveats:
//!
//! * The counter is **per thread**: a measurement sees exactly the
//!   allocations of the thread that takes it, so sibling tests and the
//!   libtest harness running on other threads cannot pollute it. The
//!   flip side is that work the measured code hands to another thread
//!   is not counted — measure paths that run on the calling thread.
//! * Run release mode for enforcement. Debug builds of generic std
//!   code can allocate where release builds provably do not, so a
//!   zero-budget assert is only meaningful under `--release`
//!   (`cfg!(debug_assertions)` tells you which world you are in).

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this module is the one place we implement it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so the slot never
    // allocates or registers anything — safe to touch from inside the
    // allocator itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` only fails while the thread is being torn down; an
    // allocation then is not part of any measurement.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// A counting global allocator: forwards to [`System`], incrementing the
/// calling thread's counter on every `alloc` and `realloc` (frees are
/// not counted — the budgets here are about *acquiring* memory on a
/// hot path, and a free implies a former alloc anyway).
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap acquisitions (allocs + reallocs) by the calling thread since it
/// started. Only meaningful when [`CountingAlloc`] is installed as the
/// global allocator; returns a frozen 0 otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` once and return `(allocations, result)` for the call, as
/// counted on the calling thread.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// Run `f` up to `attempts` times and return the **minimum** number of
/// allocations observed in one run — the steady-state statistic for
/// "this path allocates N times": a first attempt that still grows a
/// warm-up buffer can only inflate a sample, never deflate it. Returns
/// early on a zero sample.
pub fn min_allocations_over(attempts: usize, mut f: impl FnMut()) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..attempts.max(1) {
        let (n, ()) = allocations_in(&mut f);
        min = min.min(n);
        if min == 0 {
            break;
        }
    }
    min
}
