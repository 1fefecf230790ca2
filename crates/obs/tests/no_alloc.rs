//! Proves the record path is allocation-free: a counting global
//! allocator observes zero heap activity across counter, gauge,
//! histogram, span, and trace-ring recording once handles are
//! resolved. Lives in its own test binary so the allocator shim
//! cannot interfere with other tests. The shim itself is the shared
//! [`snorkel_arena::CountingAlloc`] harness — the same one the serve
//! crate's read-path budget test uses.

use std::sync::Arc;
use std::time::Duration;

use snorkel_arena::alloc_check::min_allocations_over;
use snorkel_obs::{Registry, Span, TraceLevel, TraceRing};

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

#[test]
fn record_path_does_not_allocate() {
    // Resolve handles and warm everything up-front (this side DOES
    // allocate — registry maps, ring slots).
    let registry = Registry::new();
    let counter = registry.counter("na_ops_total", &[("verb", "MARGINAL")]);
    let gauge = registry.gauge("na_lag", &[]);
    let hist = registry.histogram("na_seconds", &[("verb", "MARGINAL")]);
    let ring = TraceRing::with_capacity(64);
    // Fill the ring so recording only ever overwrites slots.
    for _ in 0..64 {
        ring.record("warmup", 1);
    }
    // Warm the span path (first drop may touch lazily initialized
    // global state).
    Span::start("warmup", Arc::clone(&hist), TraceLevel::Off).finish();

    // The counting allocator counts this thread's allocations only, so
    // other threads (the libtest harness) cannot show up here; the
    // minimum over attempts absorbs any first-touch warm-up.
    const ATTEMPTS: usize = 5;
    let min_allocs = min_allocations_over(ATTEMPTS, || {
        for i in 0..10_000u64 {
            counter.inc();
            gauge.set(i as i64);
            hist.record_ns(i);
            hist.record(Duration::from_nanos(i));
            ring.record("hot", i);
            let span = Span::start("hot", Arc::clone(&hist), TraceLevel::Off);
            let _ = span.finish();
        }
    });
    assert_eq!(
        min_allocs, 0,
        "record path allocated in every one of {ATTEMPTS} attempts"
    );

    assert_eq!(counter.get() % 10_000, 0);
    assert!(counter.get() >= 10_000);
    assert_eq!(hist.snapshot().count() % 10_000, 1, "warmup + 3 per iter");
}
