//! The arena contract, proven with the crate's own counting allocator:
//! after a warm-up pass establishes the high-water mark, refilling a
//! [`ScratchVec`]/[`FlatRows`] is zero-allocation, and growth past the
//! mark allocates exactly as `Vec` growth does (then the new mark
//! holds). Lives in its own test binary because `#[global_allocator]`
//! is process-global (the count it keeps is per thread).

use snorkel_arena::{alloc_check, CountingAlloc, FlatRows, ScratchVec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn refill_below_high_water_is_allocation_free() {
    let mut cols: ScratchVec<u32> = ScratchVec::new();
    let mut rows: FlatRows<u8> = FlatRows::new();
    // Warm-up: grow both buffers to their working size.
    cols.extend(0..4096);
    for _ in 0..64 {
        rows.push_row(&[7u8; 100]);
    }
    cols.reset();
    rows.reset();

    let min = alloc_check::min_allocations_over(5, || {
        for pass in 0..100u32 {
            cols.reset();
            rows.reset();
            cols.extend(0..4096);
            for _ in 0..64 {
                rows.push_row(&[pass as u8; 100]);
            }
        }
    });
    assert_eq!(min, 0, "steady-state refill must not touch the allocator");
    assert_eq!(cols.len(), 4096);
    assert_eq!(rows.len(), 64);
}

#[test]
fn growth_raises_the_high_water_mark_then_reuse_resumes() {
    let mut buf: ScratchVec<u64> = ScratchVec::new();
    buf.extend(0..100);
    buf.reset();
    let small = buf.bytes();

    // Growing past the mark allocates…
    let (grow_allocs, ()) = alloc_check::allocations_in(|| buf.extend(0..10_000));
    assert!(grow_allocs > 0, "growth past high water must allocate");
    let big = buf.bytes();
    assert!(big > small);

    // …and the new mark then serves the larger size allocation-free.
    let min = alloc_check::min_allocations_over(5, || {
        for _ in 0..50 {
            buf.reset();
            buf.extend(0..10_000);
        }
    });
    assert_eq!(min, 0, "post-growth refill must reuse the larger block");
    assert_eq!(buf.bytes(), big, "reset never shrinks the mark");
}
