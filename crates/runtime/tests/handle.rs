//! Shared job-handle pins: every clone of a [`JobHandle`] reads one
//! lifecycle slot, so results and losses are seen alike by all of them
//! and reading never consumes anything; and each runtime keeps its own
//! job-latency histogram.
//!
//! [`JobHandle`]: oscar_runtime::scheduler::JobHandle

use oscar_core::grid::Grid2d;
use oscar_problems::ising::IsingProblem;
use oscar_runtime::job::JobSpec;
use oscar_runtime::scheduler::{BatchRuntime, JobStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 40x40 landscape of 12-qubit evaluations: keeps one executor busy
/// well past the staging below, in release builds too.
fn blocker_spec(rng_seed: u64) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let problem = IsingProblem::random_3_regular(12, &mut rng);
    JobSpec::new(problem, Grid2d::small_p1(40, 40), 0.2, 0)
}

fn quick_spec(rng_seed: u64, seed: u64) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let problem = IsingProblem::random_3_regular(4, &mut rng);
    JobSpec::new(problem, Grid2d::small_p1(8, 10), 0.3, seed)
}

/// Blocks until the single executor has claimed the one queued job.
fn wait_until_busy(runtime: &BatchRuntime) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while runtime.running() == 0 || runtime.pending() > 0 {
        assert!(Instant::now() < deadline, "blocker never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn clones_and_repeated_waits_share_one_result() {
    let runtime = BatchRuntime::with_concurrency(1);
    let handle = runtime.submit(quick_spec(70, 1));
    let clone = handle.clone();
    let first = handle
        .wait_timeout(Duration::from_secs(120))
        .expect("job is never lost")
        .expect("job completes well within the timeout");
    assert_eq!(handle.status(), JobStatus::Done);
    for _ in 0..3 {
        // Reading again, from either clone, returns the same allocation
        // and leaves the job done.
        for h in [&handle, &clone] {
            let again = h
                .wait_timeout(Duration::ZERO)
                .expect("done job is never lost")
                .expect("done job answers at once");
            assert!(Arc::ptr_eq(&first, &again));
            assert_eq!(h.status(), JobStatus::Done);
        }
    }
    // Consuming one clone still hands out the same payload.
    let owned = clone.wait().expect("done job is never lost");
    assert_eq!(owned.nrmse.to_bits(), first.nrmse.to_bits());
    assert_eq!(owned.job_id, handle.id());
    assert_eq!(handle.status(), JobStatus::Done);
}

#[test]
fn dropping_the_runtime_resolves_every_clone_of_a_queued_job() {
    let runtime = BatchRuntime::with_concurrency(1);
    let _blocker = runtime.submit(blocker_spec(71));
    wait_until_busy(&runtime);
    let queued = runtime.submit(quick_spec(72, 1));
    let clones = [queued.clone(), queued.clone()];
    assert_eq!(queued.status(), JobStatus::Queued);
    // One clone blocks in a bounded wait on another thread while the
    // runtime drops: it must wake with the loss, not the timeout.
    let waiter = {
        let clone = queued.clone();
        std::thread::spawn(move || clone.wait_timeout(Duration::from_secs(120)))
    };
    drop(runtime);
    let err = match waiter.join().expect("waiter thread") {
        Err(err) => err,
        other => panic!("expected JobLost after runtime drop, got {other:?}"),
    };
    assert!(!err.was_cancelled() && !err.was_expired(), "{err}");
    for clone in &clones {
        assert_eq!(clone.status(), JobStatus::Failed);
        let err = clone
            .wait_timeout(Duration::ZERO)
            .expect_err("abandoned job has no result");
        assert_eq!(err.job_id(), queued.id());
    }
    assert!(queued.wait().is_err());
}

#[test]
fn each_runtime_owns_its_latency_histogram() {
    let one = BatchRuntime::with_concurrency(1);
    let two = BatchRuntime::with_concurrency(1);
    one.run_batch((0..2).map(|seed| quick_spec(73, seed)))
        .expect("runtime is alive");
    two.run_batch([quick_spec(74, 0)])
        .expect("runtime is alive");
    assert_eq!(one.job_latency_us().count(), 2);
    assert_eq!(two.job_latency_us().count(), 1);
}
