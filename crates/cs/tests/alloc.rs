//! Steady-state allocation audit for the solver hot path.
//!
//! The contract: once a [`Workspace`] has warmed up, FISTA iterations
//! and the support refit perform **zero heap allocation** — every transform and
//! operator apply goes through the `_into` APIs. This test pins that
//! with a counting global allocator: a warmed-up `fista_with` solve may
//! allocate only the result it returns, independent of iteration count
//! and grid size.

use oscar_cs::dct::{Dct1d, Dct2d, DctNd};
use oscar_cs::fista::{fista_with, FistaConfig};
use oscar_cs::measure::{
    MeasurementOperator, MeasurementOperatorNd, NdSamplePattern, SamplePattern,
};
use oscar_cs::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread. The audited work runs on
    /// the test's own thread, and the test harness and other tests
    /// allocate on theirs, so a window measured here sees only its own.
    static THREAD_ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure delegation to `System`, which upholds the GlobalAlloc
// contract; the counter bump is a Relaxed side effect with no bearing
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

/// Allocations made so far by the calling thread (the single-worker
/// audits run every kernel inline on it).
fn alloc_count() -> usize {
    THREAD_ALLOC_CALLS.with(Cell::get)
}

/// A 64x64 problem with a handful of DCT spikes, sampled at `fraction`.
fn setup(fraction: f64) -> (Dct2d, SamplePattern, Vec<f64>) {
    let dct = Dct2d::new(64, 64);
    assert!(
        dct.axes().iter().all(Dct1d::is_fast),
        "64x64 must take the FFT path"
    );
    let mut coeffs = vec![0.0; 64 * 64];
    for (i, v) in [
        (0usize, 5.0),
        (13, -2.0),
        (64, 1.5),
        (200, 0.8),
        (901, -0.6),
    ] {
        coeffs[i] = v;
    }
    let full = dct.inverse(&coeffs);
    let mut rng = StdRng::seed_from_u64(42);
    let pattern = SamplePattern::random(64, 64, fraction, &mut rng);
    let y = pattern.gather(&full);
    (dct, pattern, y)
}

#[test]
fn warmed_fista_solve_is_allocation_free_modulo_result() {
    // Pin the parallel helpers to one worker: thread spawning allocates,
    // and the audit is about the solver itself. (First use caches it.)
    std::env::set_var("OSCAR_THREADS", "1");
    assert_eq!(oscar_par::max_threads(), 1);

    let (dct, pattern, y) = setup(0.25);
    let op = MeasurementOperator::new(&dct, &pattern);
    // Fixed iteration budget so the measured work is substantial.
    let cfg = FistaConfig {
        max_iter: 100,
        tol: 0.0,
        ..FistaConfig::default()
    };

    let mut ws = Workspace::for_operator(&op);
    let warm = fista_with(&op, &y, &cfg, &mut ws); // warm-up: sizes settle

    let before = alloc_count();
    let result = fista_with(&op, &y, &cfg, &mut ws);
    let during = alloc_count() - before;

    // The only permitted allocations are the returned FistaResult's
    // coefficient vector (plus nothing proportional to iterations: over 200
    // operator applies and the support refit ran in the measured window).
    assert!(
        during <= 4,
        "steady-state FISTA made {during} allocations; hot loop must make none"
    );
    assert_eq!(result.iterations, warm.iterations);
    assert!(result.refit, "the refit must run, not be skipped");
    assert!((result.residual_norm - warm.residual_norm).abs() < 1e-12);
}

#[test]
fn warmed_fista_solve_with_full_transform_applies_is_allocation_free() {
    // At 50% the adjoint's per-sample sums cost more than the axis-0
    // pass, so the operator falls back to the full transform there (and
    // in the forward while the iterate is dense): that scratch must be
    // threaded through Workspace too.
    std::env::set_var("OSCAR_THREADS", "1");
    assert_eq!(oscar_par::max_threads(), 1);

    let (dct, pattern, y) = setup(0.5);
    let op = MeasurementOperator::new(&dct, &pattern);
    let cfg = FistaConfig {
        max_iter: 40,
        tol: 0.0,
        ..FistaConfig::default()
    };
    let mut ws = Workspace::for_operator(&op);
    let _ = fista_with(&op, &y, &cfg, &mut ws);

    let before = alloc_count();
    let result = fista_with(&op, &y, &cfg, &mut ws);
    let during = alloc_count() - before;
    assert!(result.refit, "the refit must run, not be skipped");
    assert!(
        during <= 4,
        "steady-state FISTA on full-transform applies made {during} allocations"
    );
}

#[test]
fn warmed_fista_solve_on_mixed_radix_grid_is_allocation_free() {
    // The paper's p=1 grid: both sides are non-power-of-two and
    // 2·3·5-smooth, so this pins that the mixed-radix kernel's scratch
    // (Stockham ping-pong buffer, gather block), the sample-point
    // operator's row buffers and the refit's atom columns, Gram matrix
    // and Cholesky factor are
    // fully threaded through Workspace and never allocated at apply time.
    std::env::set_var("OSCAR_THREADS", "1");
    assert_eq!(oscar_par::max_threads(), 1);

    let dct = Dct2d::new(50, 100);
    assert!(
        dct.axes().iter().all(Dct1d::is_fast),
        "50x100 must take the FFT path"
    );
    let mut coeffs = vec![0.0; 50 * 100];
    for (i, v) in [(0usize, 5.0), (7, -2.0), (120, 1.5), (3003, 0.7)] {
        coeffs[i] = v;
    }
    let full = dct.inverse(&coeffs);
    let mut rng = StdRng::seed_from_u64(43);
    let pattern = SamplePattern::random(50, 100, 0.15, &mut rng);
    let y = pattern.gather(&full);
    let op = MeasurementOperator::new(&dct, &pattern);
    let cfg = FistaConfig {
        max_iter: 40,
        tol: 0.0,
        ..FistaConfig::default()
    };

    let mut ws = Workspace::for_operator(&op);
    let _ = fista_with(&op, &y, &cfg, &mut ws);

    let before = alloc_count();
    let result = fista_with(&op, &y, &cfg, &mut ws);
    let during = alloc_count() - before;
    assert!(result.refit, "the refit must run, not be skipped");
    assert!(
        during <= 4,
        "steady-state mixed-radix FISTA made {during} allocations"
    );
}

#[test]
fn warmed_nd_fista_solve_on_rank8_tensor_is_allocation_free() {
    // The LiH scan's 3^8 tensor: every axis takes the strided dense
    // pass, whose tile lives in the operator scratch.
    std::env::set_var("OSCAR_THREADS", "1");
    assert_eq!(oscar_par::max_threads(), 1);

    let dims = [3usize; 8];
    let dct = DctNd::new(&dims);
    let mut coeffs = vec![0.0; dct.len()];
    for (i, v) in [
        (0usize, 4.0),
        (1, -1.5),
        (30, 0.9),
        (2200, 0.6),
        (6000, -0.3),
    ] {
        coeffs[i] = v;
    }
    let full = dct.inverse(&coeffs);
    let mut rng = StdRng::seed_from_u64(44);
    let pattern = NdSamplePattern::random(&dims, 0.25, &mut rng);
    let y = pattern.gather(&full);
    let op = MeasurementOperatorNd::new(&dct, &pattern);
    let cfg = FistaConfig {
        max_iter: 40,
        tol: 0.0,
        ..FistaConfig::default()
    };

    let mut ws = Workspace::for_operator(&op);
    let warm = fista_with(&op, &y, &cfg, &mut ws);

    let before = alloc_count();
    let result = fista_with(&op, &y, &cfg, &mut ws);
    let during = alloc_count() - before;
    assert!(
        during <= 4,
        "steady-state rank-8 FISTA made {during} allocations; hot loop must make none"
    );
    assert_eq!(result.iterations, warm.iterations);
    assert!(result.refit, "the refit must run, not be skipped");
}

#[test]
fn warmed_multiworker_parallel_apply_allocates_zero_words() {
    // ROADMAP item 6: the pool's region bookkeeping is a fixed slab, so
    // a steady-state *multi-worker* parallel apply allocates nothing at
    // all — not "a few words for the queue push", zero. An explicit
    // 4-worker pool sidesteps the OSCAR_THREADS=1 pin the other tests
    // need for the global helpers.
    let pool = oscar_par::pool::WorkerPool::with_threads(4);
    let mut v = vec![0.0f64; 1 << 16];
    // Warm-up: spawns the workers (which allocates) and settles the
    // region protocol.
    for _ in 0..4 {
        pool.for_each_chunk_mut(&mut v, 256, |offset, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x += (offset + k) as f64;
            }
        });
    }
    assert_eq!(pool.stats().threads_spawned, 3);

    // Other tests in this binary run concurrently and share the global
    // counter, so take the minimum over many short attempts: the apply
    // itself allocating would show in *every* window.
    let min_during = (0..50)
        .map(|_| {
            // Counted process-wide: the pool's workers allocate on their
            // own threads.
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            pool.for_each_chunk_mut(&mut v, 256, |_, chunk| {
                for x in chunk.iter_mut() {
                    *x *= 1.0000001;
                }
            });
            ALLOC_CALLS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        min_during, 0,
        "steady-state multi-worker apply allocated {min_during} times"
    );
}

#[test]
fn workspace_reuse_across_patterns_stays_quiet_once_sized() {
    std::env::set_var("OSCAR_THREADS", "1");
    let (dct, _, _) = setup(0.25);
    let cfg = FistaConfig {
        max_iter: 30,
        tol: 0.0,
        ..FistaConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    // Warm with the largest measurement count, then solve a smaller one.
    let big = SamplePattern::random(64, 64, 0.3, &mut rng);
    let small = SamplePattern::random(64, 64, 0.2, &mut rng);
    let mut coeffs = vec![0.0; 64 * 64];
    coeffs[5] = 2.0;
    let full = dct.inverse(&coeffs);

    let op_big = MeasurementOperator::new(&dct, &big);
    let op_small = MeasurementOperator::new(&dct, &small);
    let y_big = big.gather(&full);
    let y_small = small.gather(&full);

    let mut ws = Workspace::for_operator(&op_big);
    let _ = fista_with(&op_big, &y_big, &cfg, &mut ws);
    let _ = fista_with(&op_small, &y_small, &cfg, &mut ws); // resize happens here

    let before = alloc_count();
    let result = fista_with(&op_small, &y_small, &cfg, &mut ws);
    let during = alloc_count() - before;
    assert!(result.refit, "the refit must run, not be skipped");
    assert!(during <= 4, "re-used workspace made {during} allocations");
}
