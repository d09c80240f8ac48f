//! Admission control: retry-after hints and deadline→priority mapping.
//!
//! The daemon never queues without bound. A submit that would exceed
//! the pending-queue capacity or the client's quota of unsettled jobs
//! is rejected with a structured `retry_after_ms` computed here from
//! the observed job-latency distribution (the [`oscar_obs::Histogram`]
//! of job wall time in microseconds that the daemon's runtime keeps,
//! `BatchRuntime::job_latency_us`): the backlog ahead of the client,
//! divided by the executor concurrency, times the median job latency —
//! i.e. roughly when a queue slot should free up. Before any job has
//! completed (cold start) a conservative default median is assumed.
//! The histogram's log2 buckets make the median a ≤2x-coarse estimate,
//! which is exactly the precision a backoff hint needs — and unlike the
//! sliding sample window it replaced, recording is lock-free and the
//! estimate covers the daemon's whole lifetime.
//!
//! Deadlines map to dispatch priority the same way: a deadline tighter
//! than a few medians' worth of queue time cannot tolerate sitting
//! behind normal work, so it is admitted at [`Priority::High`];
//! anything looser keeps the requested (or Normal) priority and relies
//! on EDF ordering within its level.

use oscar_obs::Histogram;
use oscar_runtime::scheduler::Priority;
use std::time::Duration;

/// Assumed median job latency before the histogram has any samples.
const COLD_START_MEDIAN_S: f64 = 0.5;

/// Bounds on the retry-after hint.
const MIN_RETRY_S: f64 = 0.05;
const MAX_RETRY_S: f64 = 60.0;

/// Deadlines tighter than this many medians of estimated queue wait
/// are promoted to [`Priority::High`].
const TIGHT_DEADLINE_MEDIANS: f64 = 4.0;

/// The observed median job latency in seconds, or the cold-start
/// default while `latency_us` is empty.
fn observed_median_s(latency_us: &Histogram) -> f64 {
    if latency_us.count() == 0 {
        return COLD_START_MEDIAN_S;
    }
    latency_us.percentile(0.5) as f64 / 1e6
}

/// Estimated time until a queue slot frees up, given the current
/// backlog (`pending` queued + `running` in flight), the executor
/// concurrency, and the observed job-latency histogram (microseconds;
/// empty before the first completion). Clamped to `[50ms, 60s]` so a
/// degenerate distribution can neither hammer the daemon with instant
/// retries nor park clients forever.
pub fn retry_after(
    pending: usize,
    running: usize,
    concurrency: usize,
    latency_us: &Histogram,
) -> Duration {
    let median = observed_median_s(latency_us);
    let backlog = (pending + running) as f64;
    let slots = concurrency.max(1) as f64;
    let eta = median * (backlog / slots).max(1.0);
    Duration::from_secs_f64(eta.clamp(MIN_RETRY_S, MAX_RETRY_S))
}

/// The dispatch priority for a job admitted with `deadline` (time
/// until its start deadline) given the observed latency histogram:
/// tight deadlines are promoted to [`Priority::High`], loose ones keep
/// `requested` (or [`Priority::Normal`]). An explicit request is never
/// demoted — a client asking for High with a loose deadline gets High.
pub fn deadline_priority(
    requested: Option<Priority>,
    deadline: Duration,
    latency_us: &Histogram,
) -> Priority {
    let base = requested.unwrap_or(Priority::Normal);
    let median = observed_median_s(latency_us);
    if deadline.as_secs_f64() < TIGHT_DEADLINE_MEDIANS * median {
        base.max(Priority::High)
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram whose median sits at roughly `median_s` seconds.
    fn latency(median_s: f64) -> Histogram {
        let h = Histogram::new();
        h.record((median_s * 1e6) as u64);
        h
    }

    #[test]
    fn retry_scales_with_backlog_and_concurrency() {
        let h = latency(2.0);
        let small = retry_after(4, 2, 2, &h);
        let large = retry_after(40, 2, 2, &h);
        assert!(large > small, "{large:?} vs {small:?}");
        let wide = retry_after(40, 2, 8, &h);
        assert!(wide < large, "more executors drain the backlog faster");
    }

    #[test]
    fn retry_is_clamped_and_cold_start_safe() {
        // Empty histogram: the cold-start default median applies.
        assert_eq!(retry_after(0, 0, 4, &Histogram::new()).as_secs_f64(), 0.5);
        // Sub-microsecond jobs cannot drive the hint below the floor.
        let tiny = Histogram::new();
        tiny.record(0);
        assert!(retry_after(1, 0, 4, &tiny).as_secs_f64() >= 0.05);
        // A huge backlog of slow jobs saturates at the ceiling.
        assert!(retry_after(100_000, 0, 1, &latency(50.0)).as_secs_f64() <= 60.0);
    }

    #[test]
    fn tight_deadlines_promote_loose_ones_do_not() {
        let h = latency(1.0);
        assert_eq!(
            deadline_priority(None, Duration::from_millis(500), &h),
            Priority::High
        );
        assert_eq!(
            deadline_priority(None, Duration::from_secs(60), &h),
            Priority::Normal
        );
        // Explicit requests are never demoted.
        assert_eq!(
            deadline_priority(Some(Priority::High), Duration::from_secs(60), &h),
            Priority::High
        );
        assert_eq!(
            deadline_priority(Some(Priority::Low), Duration::from_secs(60), &h),
            Priority::Low
        );
    }

    #[test]
    fn histogram_median_is_within_bucket_precision() {
        // 2 s ≈ 2_000_000 µs lands in the bucket topping out below 2^21;
        // the estimate must stay within the histogram's 2x contract.
        let h = latency(2.0);
        let median = observed_median_s(&h);
        assert!(
            (1.0..=4.2).contains(&median),
            "median {median} out of the 2x bucket band around 2 s"
        );
    }
}
