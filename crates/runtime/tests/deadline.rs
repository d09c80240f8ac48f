//! Deadline scheduling, `wait_timeout`, and drop/drain delivery pins.
//!
//! The robustness contract of the scheduler's no-result paths: a
//! deadline that passes before dispatch cancels the job server-side
//! and reports it *expired*; `wait_timeout` bounds every wait without
//! ever hanging or losing a late result; dropping the runtime (or
//! draining it) resolves **every** outstanding handle — including
//! cancelled-then-dropped ones — instead of leaving waiters blocked.

use oscar_core::grid::Grid2d;
use oscar_problems::ising::IsingProblem;
use oscar_runtime::job::JobSpec;
use oscar_runtime::scheduler::{BatchRuntime, JobStatus, Priority, SubmitOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A deliberately heavy spec (a 40x40 landscape of 12-qubit
/// evaluations) that keeps a single executor busy while the test stages
/// the queue behind it. It must outlast the tests' 20 ms windows in
/// release builds too, where a 10-qubit 30x30 landscape finishes in
/// 17–30 ms.
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

/// Blocks until the runtime's (single) executor has claimed the one
/// queued job — staging submitted afterwards is guaranteed to queue
/// behind it rather than race it to the executor.
fn wait_until_busy(runtime: &BatchRuntime) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while runtime.running() == 0 || runtime.pending() > 0 {
        assert!(Instant::now() < deadline, "blocker never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn wait_timeout_elapses_then_result_arrives() {
    let runtime = BatchRuntime::with_concurrency(1);
    let blocker = runtime.submit(blocker_spec(30));
    let queued = runtime.submit(quick_spec(31, 1));
    // The single executor is stuck in the blocker, so a short wait on
    // the queued job must time out (Ok(None)), leaving the handle
    // usable.
    match queued.wait_timeout(Duration::from_millis(20)) {
        Ok(None) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // The result still arrives on a later (generous) wait.
    let result = queued
        .wait_timeout(Duration::from_secs(120))
        .expect("job is never lost")
        .expect("job completes well within the timeout");
    assert!(result.nrmse.is_finite());
    assert!(blocker.wait().is_ok());
}

#[test]
fn wait_timeout_surfaces_executor_death() {
    let runtime = BatchRuntime::with_concurrency(1);
    // The blocker must still be running when the drop below lands, or
    // the executor would go on to run `doomed`.
    let _blocker = runtime.submit(blocker_spec(32));
    wait_until_busy(&runtime);
    let doomed = runtime.submit(quick_spec(33, 1));
    // Drop the runtime from another thread while this one blocks in
    // wait_timeout: the abandoned queue entry settles the job lost and
    // the wait must resolve to Err(JobLost) long before the timeout.
    let dropper = std::thread::spawn(move || drop(runtime));
    let err = match doomed.wait_timeout(Duration::from_secs(120)) {
        Err(err) => err,
        other => panic!("expected JobLost after runtime drop, got {other:?}"),
    };
    assert!(!err.was_cancelled() && !err.was_expired());
    dropper.join().expect("dropper thread");
}

#[test]
fn wait_timeout_on_panicked_job_reports_lost() {
    let runtime = BatchRuntime::with_concurrency(1);
    let mut poison = quick_spec(34, 1);
    poison.fraction = 2.0; // violates the sampler's contract mid-pipeline
    let handle = runtime.submit(poison);
    let err = loop {
        match handle.wait_timeout(Duration::from_millis(50)) {
            Ok(None) => continue,
            Err(err) => break err,
            Ok(Some(_)) => panic!("poison job cannot produce a result"),
        }
    };
    assert!(!err.was_cancelled() && !err.was_expired());
    assert_eq!(handle.status(), JobStatus::Failed);
}

#[test]
fn expired_deadline_cancels_queued_job_server_side() {
    let runtime = BatchRuntime::with_concurrency(1);
    let blocker = runtime.submit(blocker_spec(35));
    wait_until_busy(&runtime);
    // A deadline far shorter than the blocker's runtime: by the time
    // the executor reaches this entry it is overdue and must be
    // discarded without running.
    let doomed = runtime.submit_opts(
        quick_spec(36, 1),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_millis(5)),
    );
    let err = doomed.wait().expect_err("deadline passes before dispatch");
    assert!(err.was_expired(), "{err}");
    assert!(!err.was_cancelled());
    assert!(err.to_string().contains("deadline"));
    assert!(blocker.wait().is_ok());
    assert_eq!(runtime.expired(), 1);
    assert_eq!(runtime.completed(), 1, "only the blocker ran");
}

#[test]
fn expire_overdue_sweeps_without_waiting_for_dispatch() {
    let runtime = BatchRuntime::with_concurrency(1);
    let _blocker = runtime.submit(blocker_spec(37));
    wait_until_busy(&runtime);
    let doomed = runtime.submit_opts(
        quick_spec(38, 1),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_millis(5)),
    );
    let alive = runtime.submit_opts(
        quick_spec(38, 2),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_secs(600)),
    );
    std::thread::sleep(Duration::from_millis(20));
    // The executor is still busy with the blocker; the sweep must
    // expire the overdue entry eagerly and leave the healthy one.
    assert_eq!(runtime.expire_overdue(), 1);
    assert_eq!(doomed.status(), JobStatus::Expired);
    let err = doomed.wait().expect_err("swept job never runs");
    assert!(err.was_expired());
    assert!(alive
        .wait_timeout(Duration::from_secs(120))
        .expect("generous deadline never expires")
        .is_some());
}

#[test]
fn deadlines_dispatch_earliest_first_within_priority() {
    // One executor blocked on a heavy job while three normal-priority
    // jobs stage: two with deadlines (submitted far-then-near) and one
    // without. Dispatch must order near-deadline, far-deadline, then
    // the deadline-less job — EDF within the level, regardless of
    // submission order.
    let runtime = BatchRuntime::with_concurrency(1);
    let blocker = runtime.submit(blocker_spec(39));
    wait_until_busy(&runtime);
    let plain = runtime.submit(quick_spec(40, 1));
    let far = runtime.submit_opts(
        quick_spec(40, 2),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_secs(600)),
    );
    let near = runtime.submit_opts(
        quick_spec(40, 3),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_secs(300)),
    );
    let seq = |h: oscar_runtime::scheduler::JobHandle| {
        h.wait()
            .expect("runtime alive, generous deadlines")
            .dispatch_seq
    };
    let order = [seq(near), seq(far), seq(plain)];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "expected near-deadline, far-deadline, deadline-less: {order:?}"
    );
    let _ = seq(blocker);
}

#[test]
fn high_priority_still_outranks_deadlined_normal() {
    let runtime = BatchRuntime::with_concurrency(1);
    let blocker = runtime.submit(blocker_spec(41));
    wait_until_busy(&runtime);
    let deadlined = runtime.submit_opts(
        quick_spec(42, 1),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_secs(300)),
    );
    let high = runtime.submit_with_priority(quick_spec(42, 2), Priority::High);
    let high_seq = high.wait().expect("alive").dispatch_seq;
    let deadlined_seq = deadlined.wait().expect("alive").dispatch_seq;
    assert!(
        high_seq < deadlined_seq,
        "a deadline reorders within its level, never above High"
    );
    let _ = blocker.wait();
}

#[test]
fn dropping_runtime_resolves_every_handle_including_cancelled() {
    // Satellite regression: dropping a runtime with queued jobs must
    // deliver JobLost to every outstanding handle — including a job
    // cancelled while queued and then abandoned by the drop — with the
    // cancel/expiry cause preserved.
    let runtime = BatchRuntime::with_concurrency(1);
    let blocker = runtime.submit(blocker_spec(43));
    wait_until_busy(&runtime);
    let cancelled = runtime.submit(quick_spec(44, 1));
    let expired = runtime.submit_opts(
        quick_spec(44, 2),
        SubmitOptions::default().deadline(Instant::now() + Duration::from_millis(5)),
    );
    let abandoned = runtime.submit(quick_spec(44, 3));
    assert!(cancelled.cancel(), "still queued: cancel wins");
    std::thread::sleep(Duration::from_millis(10));
    drop(runtime);

    // A cancelled-then-dropped handle resolves immediately with the
    // cancellation preserved (it must not report a bare shutdown).
    let err = cancelled.wait().expect_err("cancelled job has no result");
    assert!(err.was_cancelled(), "{err}");

    // The expired-deadline entry was never dispatched; after the drop
    // its wait still must resolve (expired if an executor or sweep
    // marked it, shutdown-lost otherwise — never a hang).
    let err = expired.wait().expect_err("expired job has no result");
    assert!(!err.was_cancelled());

    // A plain queued job abandoned by the drop reports shutdown loss.
    let err = abandoned.wait().expect_err("abandoned job has no result");
    assert!(!err.was_cancelled() && !err.was_expired());

    // The in-flight blocker finished during shutdown and delivers.
    assert!(blocker.wait().is_ok(), "running job completes on drop");
}

#[test]
fn cancelled_then_waited_handle_resolves_before_dispatch() {
    // A cancel that wins while the entry is still buried in the queue
    // must resolve `wait` immediately — not when an executor finally
    // pops the dead entry.
    let runtime = BatchRuntime::with_concurrency(1);
    let _blocker = runtime.submit(blocker_spec(45));
    wait_until_busy(&runtime);
    let victim = runtime.submit(quick_spec(46, 1));
    assert!(victim.cancel());
    assert_eq!(victim.status(), JobStatus::Cancelled);
    let started = Instant::now();
    let err = victim.wait().expect_err("cancelled job has no result");
    assert!(err.was_cancelled());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "wait on a cancelled job must not block until dispatch"
    );
}

#[test]
fn drain_completes_queued_and_running_jobs() {
    let runtime = BatchRuntime::with_concurrency(2);
    let handles: Vec<_> = (0..6)
        .map(|seed| runtime.submit(quick_spec(47, seed)))
        .collect();
    let cancelled = runtime.submit(quick_spec(47, 99));
    cancelled.cancel();
    runtime.drain();
    assert_eq!(runtime.pending(), 0, "drain leaves an empty queue");
    assert_eq!(runtime.running(), 0, "drain leaves idle executors");
    assert_eq!(runtime.completed(), 6);
    for handle in handles {
        // Every admitted job ran to completion; no waiter is stranded.
        let result = handle
            .wait_timeout(Duration::from_secs(1))
            .expect("drained jobs are never lost")
            .expect("drained results are already delivered");
        assert!(result.nrmse.is_finite());
    }
    assert!(cancelled.wait().is_err());
}

#[test]
fn drain_on_idle_runtime_returns_immediately() {
    let runtime = BatchRuntime::with_concurrency(2);
    let started = Instant::now();
    runtime.drain();
    assert!(started.elapsed() < Duration::from_secs(5));
}
