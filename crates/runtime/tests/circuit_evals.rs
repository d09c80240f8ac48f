//! `source.circuit_evals` counts the ideal circuit simulations stage 1
//! runs: one per landscape point per ideal pass, however many ZNE
//! factors the pass serves.
//!
//! The counter lives in the process-wide obs registry, so this binary
//! holds a single test: no other test can add to it mid-measurement.

use oscar_core::grid::Grid2d;
use oscar_executor::device::DeviceSpec;
use oscar_obs::Registry;
use oscar_problems::ising::IsingProblem;
use oscar_runtime::job::{run_job, JobSpec};
use oscar_runtime::mitigation::Mitigation;
use oscar_runtime::source::LandscapeSource;
use oscar_runtime::LandscapeCache;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A `zne_cold`-shaped job: 10-qubit MaxCut on a 32×40 grid under
/// `ibm perth` noise.
fn job(landscape_seed: u64, mitigation: Mitigation) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(11);
    let problem = IsingProblem::random_3_regular(10, &mut rng);
    let perth = DeviceSpec::by_name("ibm perth").expect("known device");
    JobSpec::new(problem, Grid2d::small_p1(32, 40), 0.2, 1)
        .with_source(LandscapeSource::noisy(perth))
        .with_landscape_seed(landscape_seed)
        .with_mitigation(mitigation)
}

#[test]
fn each_point_is_simulated_once_per_job_whatever_the_factor_count() {
    let evals = Registry::global().counter("source.circuit_evals");
    let cache = LandscapeCache::new(64);
    let delta = |spec: &JobSpec| {
        let before = evals.get();
        run_job(spec, Some(&cache));
        evals.get() - before
    };

    // Cold ZNE {1, 2, 3}: one ideal pass serves all three factors.
    assert_eq!(delta(&job(1, Mitigation::zne_richardson())), 1280);
    // The same job again hits its final entry: nothing is simulated.
    assert_eq!(delta(&job(1, Mitigation::zne_richardson())), 0);
    // Linear ZNE over {1, 3} misses its final entry but hits both
    // factors, so it never runs the ideal pass.
    assert_eq!(delta(&job(1, Mitigation::zne_linear())), 0);
    // A raw noisy job caches what is also the ZNE factor-1 landscape;
    // the ZNE job after it simulates once more, for factors 2 and 3:
    // 2560 over the pair.
    let raw = delta(&job(2, Mitigation::None));
    let zne = delta(&job(2, Mitigation::zne_richardson()));
    assert_eq!((raw, zne), (1280, 1280));
}
