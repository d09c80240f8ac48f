//! Queue/latency model for simulated QPUs.
//!
//! Paper §5.2: queuing delays dominate wall time on shared quantum cloud
//! services, with 10–30x tail latencies over the median. We model job
//! latency as `base + LogNormal(mu, sigma)` — a heavy-tailed distribution
//! whose tail ratio is tunable — in *simulated seconds* (nothing sleeps).

use rand::Rng;

/// Heavy-tailed job latency model (simulated time).
///
/// # Examples
///
/// ```
/// use oscar_executor::latency::LatencyModel;
/// use rand::SeedableRng;
///
/// let model = LatencyModel::cloud_queue();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let t = model.sample(&mut rng);
/// assert!(t > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Deterministic execution time per job (circuit batch), seconds.
    pub base: f64,
    /// Log-space mean of the queuing delay.
    pub queue_mu: f64,
    /// Log-space standard deviation (controls the tail heaviness).
    pub queue_sigma: f64,
}

impl LatencyModel {
    /// A fast, deterministic model (no queue): simulators.
    pub fn instant() -> Self {
        LatencyModel {
            base: 0.1,
            queue_mu: f64::NEG_INFINITY,
            queue_sigma: 0.0,
        }
    }

    /// A cloud-QPU-like model: median queue ≈ 7 s with a heavy tail
    /// producing 10–30x outliers (matching the paper's observation).
    pub fn cloud_queue() -> Self {
        LatencyModel {
            base: 1.0,
            queue_mu: 2.0,
            queue_sigma: 1.0,
        }
    }

    /// Creates a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `base < 0` or `queue_sigma < 0`.
    pub fn new(base: f64, queue_mu: f64, queue_sigma: f64) -> Self {
        assert!(base >= 0.0, "base latency must be non-negative");
        assert!(queue_sigma >= 0.0, "sigma must be non-negative");
        LatencyModel {
            base,
            queue_mu,
            queue_sigma,
        }
    }

    /// Samples one job latency in simulated seconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let queue = if self.queue_mu == f64::NEG_INFINITY {
            0.0
        } else {
            let z = oscar_mitigation::gaussian::sample_normal(rng, self.queue_mu, self.queue_sigma);
            z.exp()
        };
        self.base + queue
    }

    /// The median latency (analytic).
    pub fn median(&self) -> f64 {
        if self.queue_mu == f64::NEG_INFINITY {
            self.base
        } else {
            self.base + self.queue_mu.exp()
        }
    }
}

/// Summary statistics over a set of sampled latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Median latency.
    pub median: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// Maximum latency.
    pub max: f64,
}

impl LatencyStats {
    /// Computes statistics from samples via the workspace-shared
    /// quantile math in [`oscar_obs::quantile`] (NaN samples sort above
    /// every number — `total_cmp` order — and surface in `max` instead
    /// of panicking the batch).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        let summary = oscar_obs::quantile::summarize(samples).expect("need at least one sample");
        LatencyStats::from(summary)
    }

    /// Tail ratio `p99 / median`.
    pub fn tail_ratio(&self) -> f64 {
        self.p99 / self.median
    }
}

impl From<oscar_obs::Summary> for LatencyStats {
    fn from(summary: oscar_obs::Summary) -> Self {
        LatencyStats {
            median: summary.median,
            p99: summary.p99,
            max: summary.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn instant_model_is_deterministic() {
        let m = LatencyModel::instant();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert!((m.sample(&mut rng) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn cloud_queue_has_heavy_tail() {
        let m = LatencyModel::cloud_queue();
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000).map(|_| m.sample(&mut rng)).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert!(
            stats.tail_ratio() > 3.0,
            "tail ratio {} not heavy",
            stats.tail_ratio()
        );
        assert!((stats.median - m.median()).abs() / m.median() < 0.2);
    }

    #[test]
    fn latencies_positive() {
        let m = LatencyModel::cloud_queue();
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..1000).all(|_| m.sample(&mut rng) > 0.0));
    }

    #[test]
    fn stats_on_known_values() {
        let s = LatencyStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn stats_reject_empty() {
        let _ = LatencyStats::from_samples(&[]);
    }

    #[test]
    fn stats_tolerate_nan_samples() {
        // Regression: this used to panic via partial_cmp().unwrap().
        // NaN sorts above every finite sample (total_cmp order), so it
        // lands in `max` while the low quantiles stay finite.
        let s = LatencyStats::from_samples(&[2.0, f64::NAN, 1.0, 3.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert!(s.max.is_nan(), "NaN must surface in max, got {}", s.max);

        let all_nan = LatencyStats::from_samples(&[f64::NAN, f64::NAN]);
        assert!(all_nan.median.is_nan() && all_nan.max.is_nan());
    }
}
