//! Lock-free metric primitives behind a process-wide registry.
//!
//! Instrumented code resolves a handle once and caches it (typically in
//! a `OnceLock` static); after that every update is a single relaxed
//! atomic operation — no allocation, no lock, safe from any thread.
//! Disabling a registry ([`Registry::set_enabled`]) turns every update
//! through its handles into one relaxed load and a branch, pinning the
//! "observability off ≈ free" contract (see `tests/alloc.rs`).
//!
//! Histograms use fixed log2 buckets: bucket 0 holds the value 0 and
//! bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so any `u64` maps to one of
//! [`HISTOGRAM_BUCKETS`] buckets with a `leading_zeros` instruction and
//! a percentile is reconstructible to within 2x — plenty for latency
//! telemetry, and recording stays allocation-free forever.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Number of log2 buckets in a [`Histogram`]: one for the value 0 plus
/// one per bit position of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The log2 bucket index for `value`: 0 for 0, else `floor(log2 v) + 1`.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index` (`0`, `2^index - 1`, or
/// `u64::MAX` for the last bucket).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing counter handle. Cloning shares the
/// underlying atomic; updates are relaxed atomic adds.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
            enabled,
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (a no-op while the owning registry is disabled).
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed up/down gauge handle (queue depths, occupancy).
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    fn new(enabled: Arc<AtomicBool>) -> Gauge {
        Gauge {
            value: Arc::new(AtomicI64::new(0)),
            enabled,
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (a no-op while the owning registry is disabled).
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed log2-bucket histogram handle for non-negative integer
/// samples (canonically: microseconds of latency). Recording is three
/// relaxed atomic adds; percentiles are bucket upper bounds, within 2x
/// of the exact sorted-sample quantile under the shared rank
/// convention (see the crate docs).
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    enabled: Arc<AtomicBool>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A standalone always-enabled histogram (not in any registry) —
    /// for consumers that want isolated percentile state, e.g. one
    /// daemon's admission window.
    pub fn new() -> Histogram {
        Histogram::with_enabled(Arc::new(AtomicBool::new(true)))
    }

    fn with_enabled(enabled: Arc<AtomicBool>) -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
            enabled,
        }
    }

    /// Records one sample (a no-op while the owning registry is
    /// disabled). Allocation-free.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket holding the `q`-quantile sample
    /// under the shared rank convention (`round((n-1) * q)`), or 0 for
    /// an empty histogram. `q` is clamped to `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_upper_bound(i), c))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram (nonzero buckets only, keyed
/// by inclusive upper bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// `(upper_bound, count)` for every nonzero bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A registered metric handle (any kind).
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time value of one registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// A process-wide (or test-local) named metric registry.
///
/// Names are dotted paths (`cache.hits.noisy`, `stage.descent_us`);
/// re-requesting a name returns a handle to the same underlying atomic,
/// so instrumentation sites in different modules can share one metric.
///
/// # Panics
///
/// Requesting an existing name as a *different* metric kind panics —
/// that is a programming error, not a runtime condition.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    enabled: Arc<AtomicBool>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh enabled registry (tests; the process normally uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// The process-wide registry every subsystem records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Turns all updates through this registry's handles on or off.
    /// Values are retained across a disable/enable cycle.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` while updates are being applied.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter named `name`, registering it on first request.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.metrics);
        match map.get(name) {
            Some(Metric::Counter(c)) => c.clone(),
            Some(_) => panic!("metric {name:?} is already registered as a different kind"),
            None => {
                let c = Counter::new(Arc::clone(&self.enabled));
                map.insert(name.to_string(), Metric::Counter(c.clone()));
                c
            }
        }
    }

    /// The gauge named `name`, registering it on first request.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.metrics);
        match map.get(name) {
            Some(Metric::Gauge(g)) => g.clone(),
            Some(_) => panic!("metric {name:?} is already registered as a different kind"),
            None => {
                let g = Gauge::new(Arc::clone(&self.enabled));
                map.insert(name.to_string(), Metric::Gauge(g.clone()));
                g
            }
        }
    }

    /// The histogram named `name`, registering it on first request.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.metrics);
        match map.get(name) {
            Some(Metric::Histogram(h)) => h.clone(),
            Some(_) => panic!("metric {name:?} is already registered as a different kind"),
            None => {
                let h = Histogram::with_enabled(Arc::clone(&self.enabled));
                map.insert(name.to_string(), Metric::Histogram(h.clone()));
                h
            }
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        lock(&self.metrics)
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Prometheus-style text exposition of the whole registry
    /// (`oscar_`-prefixed sanitized names; histograms as cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            let metric = sanitize_metric_name(&name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {metric} counter\n{metric} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {metric} gauge\n{metric} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {metric} histogram");
                    let mut cumulative = 0u64;
                    for (upper, count) in &h.buckets {
                        cumulative += count;
                        if *upper == u64::MAX {
                            continue;
                        }
                        let _ = writeln!(out, "{metric}_bucket{{le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{metric}_sum {}\n{metric}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }
}

/// `cache.hits.noisy` → `oscar_cache_hits_noisy`.
fn sanitize_metric_name(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("oscar_{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            if i > 0 {
                // The bucket starts one past its predecessor's end.
                assert_eq!(bucket_index(bucket_upper_bound(i - 1) + 1), i);
            }
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn disabled_registry_drops_updates_and_keeps_values() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(2);
        g.set(7);
        h.record(9);
        reg.set_enabled(false);
        c.add(100);
        g.set(100);
        h.record(100);
        assert_eq!(c.get(), 2);
        assert_eq!(g.get(), 7);
        assert_eq!(h.count(), 1);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn histogram_percentiles_on_known_values() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        // Rank convention: round(4 * 0.5) = 2 → the value 3 → bucket
        // [2, 3] → upper bound 3.
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(1.0), 127); // 100 lives in [64, 127]
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn snapshot_and_prometheus_render() {
        let reg = Registry::new();
        reg.counter("jobs.done").add(5);
        reg.gauge("queue.depth").set(-2);
        reg.histogram("lat_us").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].1, MetricValue::Counter(5));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE oscar_jobs_done counter"));
        assert!(text.contains("oscar_jobs_done 5"));
        assert!(text.contains("oscar_queue_depth -2"));
        assert!(text.contains("oscar_lat_us_bucket{le=\"15\"} 1"));
        assert!(text.contains("oscar_lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("oscar_lat_us_sum 10"));
    }
}
