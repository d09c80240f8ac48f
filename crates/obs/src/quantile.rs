//! The single home for exact sorted-sample quantile math.
//!
//! Every percentile in the workspace — the executor's
//! `LatencyStats`, the serve daemon's admission hints — goes through
//! these functions, so
//! there is exactly one rank convention: the `q`-quantile of `n`
//! samples is the sorted element at index `round((n - 1) * q)`.
//! [`crate::metrics::Histogram::percentile`] mirrors the same rank over
//! log2 buckets.

/// Sorts samples with `f64::total_cmp`: NaN sorts above every number,
/// so a poisoned sample degrades `max` deterministically instead of
/// panicking.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The `q`-quantile of already-sorted samples (shared rank convention).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn pick_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "need at least one sample");
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Exact percentile summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (q = 0.5).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample (NaN if any sample is NaN).
    pub max: f64,
}

/// Summarizes `samples` (unsorted, any order), or `None` when empty —
/// callers supply their own cold-start default rather than trusting
/// percentiles of nothing.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    Some(Summary {
        median: pick_sorted(&sorted, 0.5),
        p90: pick_sorted(&sorted, 0.9),
        p99: pick_sorted(&sorted, 0.99),
        max: *sorted.last().unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_on_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p99, 100.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn nan_surfaces_in_max() {
        let s = summarize(&[2.0, f64::NAN, 1.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert!(s.max.is_nan());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn pick_rejects_empty() {
        let _ = pick_sorted(&[], 0.5);
    }
}
