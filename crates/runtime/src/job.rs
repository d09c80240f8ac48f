//! Reconstruction jobs: the unit of work a [`crate::scheduler::BatchRuntime`]
//! schedules.
//!
//! One job runs the full OSCAR pipeline for one problem instance — a
//! QAOA Ising workload (MaxCut or SK model, any depth) or a molecular
//! VQE scan — over a landscape of any shape:
//!
//! 1. **Landscape sampling** — evaluate (or fetch from the
//!    [`crate::cache::LandscapeCache`]) the ground-truth landscape over
//!    the job's shape, through the spec's [`LandscapeSource`]: exact
//!    noiseless simulation or a noisy simulated device with
//!    deterministic counter-based per-point noise. Grid points run
//!    data-parallel on the shared worker pool either way. The spec's
//!    [`Mitigation`] is applied on top ([`mitigated_landscape`]): ZNE
//!    measures one landscape per noise-scale factor (each individually
//!    cached and shared across jobs) and extrapolates pointwise;
//!    readout correction and Gaussian smoothing post-process the raw
//!    landscape.
//! 2. **CS reconstruction** — sample `fraction` of the points with the
//!    job's seed and recover the full landscape by FISTA
//!    ([`Reconstructor::reconstruct_tensor_fraction_seeded`], one path
//!    for grids and tensors).
//! 3. **Optimization** — descend the interpolated reconstruction
//!    (bivariate spline on grids, clamped multilinear on tensors) from
//!    its best point with the spec's [`Descent`] optimizer (SPSA
//!    seeded from the job seed; [`Descent::None`] skips the stage),
//!    yielding the suggested minimum the debugging use cases consume.
//!
//! Every stage is deterministic given the [`JobSpec`], so a job's
//! [`JobResult`] is bit-identical whether it runs inline, on one
//! executor, or interleaved with 63 other jobs on four executors.

use crate::cache::LandscapeCache;
use crate::descent::Descent;
use crate::mitigation::{mitigated_landscape, Mitigation};
use crate::source::LandscapeSource;
use oscar_core::grid::{Grid2d, Shape};
use oscar_core::landscape::ShapedLandscape;
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::optimizer_debug::{
    optimize_on_reconstruction, optimize_on_reconstruction_nd,
};
use oscar_cs::fista::{FistaConfig, FistaExit};
use oscar_obs::span::{with_stage, JobFrame, Stage};
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, ProblemInstance};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-stage duration histograms (`stage.<name>_us` in the obs
/// registry), indexed by [`Stage`], resolved once.
fn stage_metrics() -> &'static [oscar_obs::Histogram; oscar_obs::span::STAGE_COUNT] {
    static METRICS: OnceLock<[oscar_obs::Histogram; oscar_obs::span::STAGE_COUNT]> =
        OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = oscar_obs::Registry::global();
        Stage::ALL.map(|stage| registry.histogram(&format!("stage.{}_us", stage.as_str())))
    })
}

/// Solver telemetry, resolved once: `fista.iterations` (histogram of
/// iterations per job), `fista.cap_exits` (jobs whose FISTA solve
/// stopped at its iteration cap instead of converging) and
/// `fista.refit_skips` (jobs whose support was not refitted).
fn fista_metrics() -> &'static (oscar_obs::Histogram, oscar_obs::Counter, oscar_obs::Counter) {
    static METRICS: OnceLock<(oscar_obs::Histogram, oscar_obs::Counter, oscar_obs::Counter)> =
        OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = oscar_obs::Registry::global();
        (
            registry.histogram("fista.iterations"),
            registry.counter("fista.cap_exits"),
            registry.counter("fista.refit_skips"),
        )
    })
}

/// The default landscape shape for a molecular VQE scan: a coarse
/// symmetric window around zero on every ansatz parameter, sized so the
/// landscape stays in the same few-thousand-point budget as the paper's
/// 2-D grids (H2: 3 axes × 10 points; LiH: 8 axes × 3 points).
pub fn default_vqe_shape(molecule: Molecule) -> Shape {
    let per_axis = match molecule {
        Molecule::H2 => 10,
        Molecule::LiH => 3,
    };
    Shape::vqe_scan(&vec![per_axis; molecule.num_params()])
}

/// Everything needed to run one reconstruction job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The problem instance whose energy landscape is reconstructed.
    pub problem: ProblemInstance,
    /// Parameter-space shape of the landscape: a 2-D `(beta, gamma)`
    /// grid for depth-1 QAOA, an N-D tensor for deeper QAOA or VQE.
    /// Its rank must equal the problem's parameter count.
    pub shape: Shape,
    /// Sampling budget as a fraction of landscape points in `(0, 1]`.
    pub fraction: f64,
    /// Seed for the random sampling pattern (stage 2). Two jobs that
    /// differ only here share a cached landscape but sample it
    /// differently.
    pub seed: u64,
    /// Where stage 1's ground-truth landscape comes from: exact
    /// noiseless evaluation (the default) or a noisy simulated device
    /// with deterministic per-point noise.
    pub source: LandscapeSource,
    /// Noise-realization seed for stage 1 when [`Self::source`] is
    /// noisy: every landscape point draws from a counter-based stream
    /// keyed by `(landscape_seed, point_index)`, so two jobs with the
    /// same seed share one bit-identical noisy landscape (and one cache
    /// entry). Ignored — and normalized to 0 in cache keys — for the
    /// exact source.
    pub landscape_seed: u64,
    /// Error mitigation applied between landscape generation and CS
    /// reconstruction. Defaults to [`Mitigation::None`].
    pub mitigation: Mitigation,
    /// Sparse-recovery solver settings.
    pub fista: FistaConfig,
    /// Stage-3 optimizer descending the reconstruction (SPSA seeded
    /// from [`Self::seed`]). Defaults to [`Descent::NelderMead`];
    /// [`Descent::None`] skips the stage for pure-reconstruction
    /// throughput runs.
    pub descent: Descent,
}

impl JobSpec {
    /// A depth-1 QAOA job over a 2-D grid with default solver settings,
    /// no mitigation, and Nelder–Mead optimization — the original OSCAR
    /// workload, kept as the short constructor.
    pub fn new(problem: IsingProblem, grid: Grid2d, fraction: f64, seed: u64) -> Self {
        JobSpec::shaped(
            ProblemInstance::ising(problem, 1),
            Shape::Grid2d(grid),
            fraction,
            seed,
        )
    }

    /// A job over an arbitrary problem instance and landscape shape
    /// (deep QAOA tensors, molecular VQE scans) with default solver
    /// settings, no mitigation, and Nelder–Mead optimization.
    ///
    /// # Panics
    ///
    /// Panics if `shape.rank() != problem.num_params()` — the mismatch
    /// would otherwise surface only when the job runs.
    pub fn shaped(problem: ProblemInstance, shape: Shape, fraction: f64, seed: u64) -> Self {
        assert_eq!(
            shape.rank(),
            problem.num_params(),
            "shape rank must match the problem's parameter count"
        );
        JobSpec {
            problem,
            shape,
            fraction,
            seed,
            source: LandscapeSource::Exact,
            landscape_seed: 0,
            mitigation: Mitigation::None,
            fista: FistaConfig::default(),
            descent: Descent::NelderMead,
        }
    }

    /// Replaces the landscape source (builder-style).
    pub fn with_source(mut self, source: LandscapeSource) -> Self {
        self.source = source;
        self
    }

    /// Replaces the stage-1 noise-realization seed (builder-style).
    pub fn with_landscape_seed(mut self, landscape_seed: u64) -> Self {
        self.landscape_seed = landscape_seed;
        self
    }

    /// Replaces the mitigation stage (builder-style).
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Replaces the stage-3 optimizer (builder-style).
    pub fn with_descent(mut self, descent: Descent) -> Self {
        self.descent = descent;
        self
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Submission id (0 for jobs run outside a scheduler).
    pub job_id: u64,
    /// Order in which the scheduler *started* this job (1-based; 0 for
    /// jobs run outside a scheduler). Diagnostic only — it pins
    /// priority ordering in tests — and deliberately excluded from
    /// determinism comparisons: with several executors the start order
    /// depends on timing, while the result payload never does.
    pub dispatch_seq: u64,
    /// The reconstructed landscape (2-D grid or N-D tensor, matching
    /// the spec's shape).
    pub reconstruction: ShapedLandscape,
    /// NRMSE against the ground truth (paper Eq. 1).
    pub nrmse: f64,
    /// Circuit evaluations spent on sampling (stage 2 budget).
    pub samples_used: usize,
    /// FISTA iterations performed.
    pub solver_iterations: usize,
    /// Optimized parameter-space minimum on the reconstruction
    /// (stage 3; the reconstruction's argmin under [`Descent::None`]).
    /// One coordinate per landscape axis.
    pub best_point: Vec<f64>,
    /// Objective value at `best_point`.
    pub best_value: f64,
    /// `true` when the ground-truth landscape came from the cache.
    pub landscape_cache_hit: bool,
    /// Wall-clock time of the job body (excluding queue wait).
    pub wall: Duration,
}

/// Runs the full pipeline for `spec` on the calling thread, using
/// `cache` for stage 1 when provided. Deterministic: the result is a
/// pure function of the spec (timings and cache-hit flag aside).
pub fn run_job(spec: &JobSpec, cache: Option<&LandscapeCache>) -> JobResult {
    // lint:allow(wall-clock): feeds only the telemetry `wall` field,
    // which is excluded from result comparison and replay hashes.
    let started = Instant::now();
    // Collect per-stage durations for this job (telemetry only: they
    // feed the obs registry and span ring, never the result).
    let frame = JobFrame::begin();
    let (truth, cache_hit) = mitigated_landscape(
        &spec.problem,
        &spec.shape,
        &spec.source,
        spec.landscape_seed,
        &spec.mitigation,
        cache,
    );

    let report = with_stage(Stage::Reconstruction, || {
        Reconstructor::new(spec.fista).reconstruct_tensor_fraction_seeded(
            &truth,
            spec.fraction,
            spec.seed,
        )
    });
    let reconstruction = ShapedLandscape::from_values(&spec.shape, report.landscape.into_values());
    let (iterations_hist, cap_exits, refit_skips) = fista_metrics();
    iterations_hist.record(report.solver_iterations as u64);
    if report.solver_exit == FistaExit::IterationCap {
        cap_exits.inc();
    }
    if !report.solver_refit {
        refit_skips.inc();
    }

    let (best_point, best_value) = with_stage(Stage::Descent, || {
        match (spec.descent.optimizer(spec.seed), &reconstruction) {
            (Some(optimizer), ShapedLandscape::Grid2d(l)) => {
                let (_, (b0, g0)) = l.argmin();
                let run = optimize_on_reconstruction(optimizer.as_ref(), l, [b0, g0]);
                (vec![run.x[0], run.x[1]], run.fx)
            }
            (Some(optimizer), ShapedLandscape::Tensor(l)) => {
                let (_, x0) = l.argmin();
                let run = optimize_on_reconstruction_nd(optimizer.as_ref(), l, &x0);
                (run.x, run.fx)
            }
            (None, _) => {
                let (value, point) = reconstruction.argmin();
                (point, value)
            }
        }
    });

    let stage_durations = frame.finish();
    let histograms = stage_metrics();
    for (stage, duration) in Stage::ALL.iter().zip(stage_durations) {
        // A cache-served stage spends no time here; recording zeros
        // would drown the distributions in hit noise.
        if !duration.is_zero() {
            histograms[stage.index()].record_duration(duration);
        }
    }

    JobResult {
        job_id: 0,
        dispatch_seq: 0,
        reconstruction,
        nrmse: report.nrmse,
        samples_used: report.samples_used,
        solver_iterations: report.solver_iterations,
        best_point,
        best_value,
        landscape_cache_hit: cache_hit,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(seed: u64) -> JobSpec {
        let mut rng = StdRng::seed_from_u64(3);
        let problem = IsingProblem::random_3_regular(6, &mut rng);
        JobSpec::new(problem, Grid2d::small_p1(10, 14), 0.3, seed)
    }

    #[test]
    fn job_is_deterministic() {
        let s = spec(7);
        let a = run_job(&s, None);
        let b = run_job(&s, None);
        assert_eq!(a.reconstruction.values(), b.reconstruction.values());
        assert_eq!(a.nrmse.to_bits(), b.nrmse.to_bits());
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.samples_used, b.samples_used);
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        let s = spec(9);
        let cache = LandscapeCache::new(2);
        let plain = run_job(&s, None);
        let miss = run_job(&s, Some(&cache));
        let hit = run_job(&s, Some(&cache));
        assert!(!miss.landscape_cache_hit && hit.landscape_cache_hit);
        for r in [&miss, &hit] {
            assert_eq!(plain.reconstruction.values(), r.reconstruction.values());
            assert_eq!(plain.nrmse.to_bits(), r.nrmse.to_bits());
        }
    }

    #[test]
    fn exact_jobs_with_distinct_landscape_seeds_share_one_cache_entry() {
        // Regression: `run_job` used to fold the unused landscape_seed
        // into the cache key, so exact specs differing only there filled
        // the cache with duplicate identical landscapes and recomputed
        // each one.
        let cache = LandscapeCache::new(4);
        let a = run_job(&spec(7), Some(&cache));
        let b = run_job(&spec(7).with_landscape_seed(99), Some(&cache));
        assert!(!a.landscape_cache_hit);
        assert!(
            b.landscape_cache_hit,
            "seed-only variation must hit the shared exact entry"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.len, stats.misses, stats.hits),
            (1, 1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn noisy_job_runs_and_differs_from_exact() {
        use oscar_executor::device::DeviceSpec;
        let exact = spec(7);
        let noisy = spec(7)
            .with_source(LandscapeSource::noisy(
                DeviceSpec::by_name("noisy sim").unwrap(),
            ))
            .with_landscape_seed(3);
        let e = run_job(&exact, None);
        let n = run_job(&noisy, None);
        assert!(n.nrmse.is_finite());
        assert_ne!(
            e.reconstruction.values(),
            n.reconstruction.values(),
            "noisy source must reconstruct a different landscape"
        );
        // Determinism: the same noisy spec reproduces bit-identically.
        let n2 = run_job(&noisy, None);
        assert_eq!(n.reconstruction.values(), n2.reconstruction.values());
        assert_eq!(n.nrmse.to_bits(), n2.nrmse.to_bits());
    }

    #[test]
    fn optimization_stage_improves_on_grid_argmin() {
        let s = spec(11);
        let with = run_job(&s, None);
        let without = run_job(&s.clone().with_descent(Descent::None), None);
        // The spline descent must not be worse than the raw grid argmin
        // it starts from (evaluated on the same reconstruction).
        assert!(with.best_value <= without.best_value + 1e-9);
        assert_eq!(
            with.reconstruction.values(),
            without.reconstruction.values()
        );
    }

    #[test]
    fn every_descent_variant_runs_and_is_deterministic() {
        let base = spec(13);
        let reference = run_job(&base.clone().with_descent(Descent::None), None);
        for descent in Descent::OPTIMIZERS {
            let s = base.clone().with_descent(descent);
            let a = run_job(&s, None);
            let b = run_job(&s, None);
            assert_eq!(
                (a.best_point.clone(), a.best_value.to_bits()),
                (b.best_point.clone(), b.best_value.to_bits()),
                "{} must be deterministic",
                descent.name()
            );
            // Stage 3 never changes stages 1–2.
            assert_eq!(a.reconstruction.values(), reference.reconstruction.values());
            // Descending from the argmin must not end above it.
            assert!(
                a.best_value <= reference.best_value + 1e-9,
                "{}: {} vs argmin {}",
                descent.name(),
                a.best_value,
                reference.best_value
            );
        }
    }

    #[test]
    fn mitigated_job_runs_end_to_end_and_differs_from_raw() {
        use oscar_executor::device::DeviceSpec;
        let noisy = spec(7)
            .with_source(LandscapeSource::noisy(
                DeviceSpec::by_name("ibm perth").unwrap(),
            ))
            .with_landscape_seed(3);
        let raw = run_job(&noisy, None);
        let zne = run_job(
            &noisy.clone().with_mitigation(Mitigation::zne_richardson()),
            None,
        );
        assert!(zne.nrmse.is_finite());
        assert_ne!(
            raw.reconstruction.values(),
            zne.reconstruction.values(),
            "ZNE must reconstruct a different landscape"
        );
        let zne2 = run_job(&noisy.with_mitigation(Mitigation::zne_richardson()), None);
        assert_eq!(zne.reconstruction.values(), zne2.reconstruction.values());
        assert_eq!(zne.nrmse.to_bits(), zne2.nrmse.to_bits());
    }

    #[test]
    fn depth_two_qaoa_job_runs_end_to_end() {
        let mut rng = StdRng::seed_from_u64(3);
        let problem = IsingProblem::random_3_regular(6, &mut rng);
        let s = JobSpec::shaped(
            ProblemInstance::ising(problem, 2),
            Shape::qaoa(2, 5, 6),
            0.35,
            7,
        );
        let a = run_job(&s, None);
        let b = run_job(&s, None);
        assert_eq!(a.reconstruction.values(), b.reconstruction.values());
        assert_eq!(a.best_point.len(), 4, "p=2 has 4 parameters");
        assert!(a.nrmse.is_finite());
        assert_eq!(a.reconstruction.values().len(), 5 * 5 * 6 * 6);
        // The descent must not end above the reconstruction's argmin.
        let (argmin_value, _) = a.reconstruction.argmin();
        assert!(a.best_value <= argmin_value + 1e-9);
    }

    #[test]
    fn vqe_job_runs_end_to_end_with_default_shape() {
        let s = JobSpec::shaped(
            ProblemInstance::molecule(Molecule::H2),
            default_vqe_shape(Molecule::H2),
            0.3,
            11,
        );
        let a = run_job(&s, None);
        let b = run_job(&s, None);
        assert_eq!(a.reconstruction.values(), b.reconstruction.values());
        assert_eq!(a.best_point.len(), 3, "H2 UCCSD has 3 parameters");
        assert!(a.nrmse.is_finite());
        // The optimized energy must respect the variational bound (the
        // H2 ground state is about -1.851 Ha in this encoding) and land
        // at or below the exact landscape's own minimum neighborhood.
        assert!(a.best_value >= -1.9, "below the variational bound");
        let (argmin_value, _) = a.reconstruction.argmin();
        assert!(a.best_value <= argmin_value + 1e-9);
    }

    #[test]
    #[should_panic(expected = "shape rank must match")]
    fn shaped_rejects_rank_mismatch() {
        let mut rng = StdRng::seed_from_u64(3);
        let problem = IsingProblem::random_3_regular(6, &mut rng);
        // Depth 2 needs 4 axes; a 2-D grid has rank 2.
        let _ = JobSpec::shaped(
            ProblemInstance::ising(problem, 2),
            Shape::Grid2d(Grid2d::small_p1(10, 10)),
            0.3,
            1,
        );
    }
}
