//! Steady-state allocation audit for the metrics + span hot paths.
//!
//! The observability contract: once handles are resolved, recording is
//! relaxed atomics only — no heap allocation whether the registry is
//! enabled or disabled, and a disabled tracer adds nothing to an
//! instrumented closure. This is what makes it safe to leave the
//! instrumentation compiled into the FISTA/descent hot paths.

use oscar_obs::span::{with_stage, Stage, Tracer};
use oscar_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The audited work runs on
    /// the test's own thread, and the test harness and other tests
    /// allocate on theirs, so a window measured here sees only its own.
    static THREAD_ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure delegation to `System`, which upholds the GlobalAlloc
// contract; the counter bump is a thread-local side effect with no bearing
// on allocation soundness.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout contract to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's pointer/layout contract to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards the caller's pointer/layout contract to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> usize {
    let count = || THREAD_ALLOC_CALLS.with(Cell::get);
    let before = count();
    f();
    count() - before
}

/// Counter/gauge/histogram recording through resolved handles is
/// allocation-free, enabled or not.
#[test]
fn metric_recording_is_allocation_free() {
    let registry = Registry::global();
    // Handle resolution allocates (name interning, registration) —
    // done once, outside the measured region, like production code's
    // OnceLock statics.
    let counter = registry.counter("test.alloc.counter");
    let gauge = registry.gauge("test.alloc.gauge");
    let histogram = registry.histogram("test.alloc.histogram");

    let allocs = allocations(|| {
        for i in 0..10_000u64 {
            counter.add(2);
            gauge.inc();
            gauge.dec();
            histogram.record(i * 37);
        }
    });
    assert_eq!(allocs, 0, "steady-state metric recording allocated");

    registry.set_enabled(false);
    let allocs_disabled = allocations(|| {
        for i in 0..10_000u64 {
            counter.add(2);
            histogram.record(i * 37);
        }
    });
    registry.set_enabled(true);
    assert_eq!(allocs_disabled, 0, "disabled-registry recording allocated");
}

/// An instrumented closure behind an inactive frame and a disabled
/// tracer costs no allocations — the price of leaving `with_stage`
/// in the pipeline permanently.
#[test]
fn disabled_tracing_is_allocation_free() {
    // First call initializes the global tracer ring and thread-local
    // frame — one-time costs, paid before the measured region.
    with_stage(Stage::Reconstruction, || ());
    let allocs = allocations(|| {
        for _ in 0..10_000 {
            let v = with_stage(Stage::Reconstruction, || 21 + 21);
            assert_eq!(v, 42);
        }
    });
    assert_eq!(allocs, 0, "with_stage allocated while tracing is off");
}

/// A warmed span ring records without allocating: slots are reused
/// once the ring has filled to capacity.
#[test]
fn warmed_span_ring_records_allocation_free() {
    let tracer = Tracer::new(64);
    tracer.set_enabled(true);
    let epoch = Instant::now();
    for i in 0..64 {
        tracer.record(i, Stage::Descent, epoch, Duration::from_micros(i));
    }
    let allocs = allocations(|| {
        for i in 0..10_000u64 {
            tracer.record(i, Stage::Descent, epoch, Duration::from_micros(i));
        }
    });
    assert_eq!(allocs, 0, "overwrite-mode span recording allocated");
}
