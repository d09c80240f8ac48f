//! Observability must not perturb results: tracing a batch keeps every
//! job bit-identical to its untraced run, and the landscape cache's
//! per-class registry counters account for the hits/misses the batch
//! actually performed (including per-factor ZNE landscape hits).
//!
//! The registry and tracer are process-wide, so every assertion here is
//! on deltas (or `>=`), never absolute values — other tests in this
//! binary run concurrently against the same globals.

use oscar_core::grid::Grid2d;
use oscar_obs::span::Tracer;
use oscar_obs::{MetricValue, Registry};
use oscar_problems::ising::IsingProblem;
use oscar_runtime::descent::Descent;
use oscar_runtime::job::{JobResult, JobSpec};
use oscar_runtime::mitigation::Mitigation;
use oscar_runtime::scheduler::{BatchRuntime, RuntimeConfig};
use oscar_runtime::source::LandscapeSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small mitigated batch with real cache reuse: 6 jobs over 2
/// instances, ZNE mitigation, so landscapes dedupe per instance and
/// per noise factor.
fn batch_specs() -> Vec<JobSpec> {
    let problems: Vec<IsingProblem> = (0..2u64)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(90 + k);
            IsingProblem::try_random_3_regular(6, &mut rng).expect("6q 3-regular is feasible")
        })
        .collect();
    (0..6)
        .map(|j| {
            let k = j % 2;
            JobSpec::new(
                problems[k].clone(),
                Grid2d::small_p1(10, 12),
                0.3,
                500 + j as u64,
            )
            .with_source(LandscapeSource::Noisy {
                device: oscar_executor::device::DeviceSpec::by_name("noisy sim")
                    .expect("preset device"),
                shots: Some(256),
            })
            .with_landscape_seed(k as u64)
            .with_mitigation(Mitigation::zne_richardson())
            .with_descent(Descent::by_name("nelder-mead").unwrap())
        })
        .collect()
}

fn run_batch(specs: &[JobSpec]) -> Vec<JobResult> {
    let runtime = BatchRuntime::new(RuntimeConfig {
        concurrency: 2,
        ..RuntimeConfig::default()
    });
    let handles: Vec<_> = specs.iter().map(|s| runtime.submit(s.clone())).collect();
    handles
        .into_iter()
        .map(|h| h.wait().expect("job completed"))
        .collect()
}

/// Tracing on vs off: bit-identical results. This is the guard that
/// keeps wall-clock observability out of the deterministic outputs.
#[test]
fn traced_batch_is_bit_identical_to_untraced() {
    let specs = batch_specs();
    let untraced = run_batch(&specs);

    let tracer = Tracer::global();
    let was_enabled = tracer.is_enabled();
    tracer.set_enabled(true);
    let spans_before = tracer.len() as u64 + tracer.dropped();
    let traced = run_batch(&specs);
    let spans_after = tracer.len() as u64 + tracer.dropped();
    tracer.set_enabled(was_enabled);

    assert!(
        spans_after > spans_before,
        "the traced run must actually record spans"
    );
    for (a, b) in untraced.iter().zip(&traced) {
        assert_eq!(
            a.reconstruction.values(),
            b.reconstruction.values(),
            "reconstruction drifted under tracing"
        );
        assert_eq!(a.nrmse.to_bits(), b.nrmse.to_bits());
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
        assert_eq!(a.samples_used, b.samples_used);
        assert_eq!(a.solver_iterations, b.solver_iterations);
    }
}

fn counter(snapshot: &[(String, MetricValue)], name: &str) -> u64 {
    snapshot
        .iter()
        .find_map(|(n, v)| match (n == name, v) {
            (true, MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

/// The per-class cache counters see the batch's traffic: a ZNE batch
/// with shared instances produces per-factor (`zne_factor`) misses on
/// first touch, per-factor or mitigated hits on reuse, and no
/// `exact`-class traffic at all from this noisy batch.
#[test]
fn cache_class_counters_account_for_batch_traffic() {
    let registry = Registry::global();
    let before = registry.snapshot();
    let results = run_batch(&batch_specs());
    let after = registry.snapshot();

    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    // 2 instances x 3 ZNE factors: at least 6 per-factor landscape
    // generations (re-runs of other tests only add to the deltas).
    assert!(
        delta("cache.misses.zne_factor") >= 6,
        "expected >= 6 zne_factor misses, got {}",
        delta("cache.misses.zne_factor")
    );
    // 6 jobs over 2 instances: at least 4 jobs reuse a cached
    // mitigated landscape (hits at the mitigated or zne_factor level).
    assert!(
        delta("cache.hits.mitigated") + delta("cache.hits.zne_factor") >= 4,
        "expected mitigated/zne_factor reuse across the batch"
    );
    assert!(
        results.iter().filter(|r| r.landscape_cache_hit).count() >= 4,
        "the batch itself must have seen cache reuse"
    );
}

/// Every job records its FISTA iteration count, and a solve that stops
/// at its iteration cap also bumps `fista.cap_exits`. Two iterations
/// from zero leave a support far larger than the 36 samples, so that
/// solve also skips its refit and bumps `fista.refit_skips`.
#[test]
fn fista_metrics_record_iterations_and_cap_exits() {
    let registry = Registry::global();
    let iterations = registry.histogram("fista.iterations");
    let cap_exits = registry.counter("fista.cap_exits");
    let refit_skips = registry.counter("fista.refit_skips");
    let (count0, sum0, caps0) = (iterations.count(), iterations.sum(), cap_exits.get());
    let skips0 = refit_skips.get();

    let first = oscar_runtime::job::run_job(&batch_specs()[0], None);
    let mut capped_spec = batch_specs()[1].clone();
    capped_spec.fista.max_iter = 2;
    let capped = oscar_runtime::job::run_job(&capped_spec, None);

    assert_eq!(capped.solver_iterations, 2);
    assert!(iterations.count() - count0 >= 2);
    assert!(
        iterations.sum() - sum0 >= (first.solver_iterations + 2) as u64,
        "both jobs' iterations must land in the histogram"
    );
    assert!(cap_exits.get() - caps0 >= 1, "the capped job must count");
    assert!(
        refit_skips.get() - skips0 >= 1,
        "the capped job's skipped refit must count"
    );
}

/// Every job of the noisy ZNE batch converges under the default
/// `FistaConfig`: none stops at the iteration cap.
#[test]
fn noisy_zne_batch_converges_under_default_fista() {
    for spec in batch_specs() {
        assert_eq!(spec.fista, oscar_cs::fista::FistaConfig::default());
        let result = oscar_runtime::job::run_job(&spec, None);
        assert!(
            result.solver_iterations < spec.fista.max_iter,
            "job seed {} stopped at the {}-iteration cap",
            spec.seed,
            spec.fista.max_iter
        );
    }
}
