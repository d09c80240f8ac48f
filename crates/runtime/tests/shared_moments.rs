//! Bit-identity of the shared-moments stage 1: a ZNE job simulates
//! each point once and derives every factor landscape from those
//! moments, and must produce exactly the values of independent
//! per-factor generation — with no cache, with a partially warm cache,
//! and through a persistent-store round trip — on a 2-D grid, a depth-2
//! QAOA tensor and an H2 VQE scan.

use oscar_core::grid::Shape;
use oscar_core::landscape::ShapedLandscape;
use oscar_core::usecases::mitigation::{scaled_noisy_landscape, zne_factor_seed};
use oscar_executor::device::DeviceSpec;
use oscar_mitigation::zne::ZneConfig;
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, ProblemInstance};
use oscar_runtime::mitigation::{mitigated_landscape, Mitigation};
use oscar_runtime::source::LandscapeSource;
use oscar_runtime::store::LandscapeStore;
use oscar_runtime::{LandscapeCache, LandscapeKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SEED: u64 = 7;

fn perth() -> DeviceSpec {
    DeviceSpec::by_name("ibm perth").expect("known device")
}

fn cases() -> Vec<(&'static str, ProblemInstance, Shape)> {
    let mut rng = StdRng::seed_from_u64(3);
    let graph = IsingProblem::random_3_regular(6, &mut rng);
    vec![
        (
            "grid",
            ProblemInstance::ising(graph.clone(), 1),
            Shape::qaoa(1, 8, 10),
        ),
        (
            "qaoa-p2",
            ProblemInstance::ising(graph, 2),
            Shape::qaoa(2, 3, 4),
        ),
        (
            "h2",
            ProblemInstance::molecule(Molecule::H2),
            Shape::vqe_scan(&[4, 4, 4]),
        ),
    ]
}

/// Factor `scale`'s landscape at one full device execution per point
/// (for grids, `oscar-core`'s per-point ZNE factor landscape) — the
/// path every noisy landscape took before the ideal pass was split
/// from the noise pass.
fn per_point(problem: &ProblemInstance, shape: &Shape, scale: f64) -> Vec<f64> {
    let seed = zne_factor_seed(SEED, scale);
    let point = |i: usize| shape.point(i);
    match (problem, shape) {
        (ProblemInstance::Ising { problem, .. }, Shape::Grid2d(grid)) => {
            let qpu = perth().build(problem, 0);
            scaled_noisy_landscape(&qpu, *grid, SEED, scale)
                .values()
                .to_vec()
        }
        (ProblemInstance::Ising { problem, depth }, Shape::Tensor(_)) => {
            let qpu = perth().with_depth(*depth).build(problem, 0);
            (0..shape.len())
                .map(|i| {
                    let x = point(i);
                    qpu.execute_scaled_at(&x[..*depth], &x[*depth..], scale, seed, i as u64)
                })
                .collect()
        }
        (ProblemInstance::Molecule(molecule), _) => {
            let dev = perth().build_vqe(*molecule);
            (0..shape.len())
                .map(|i| dev.execute_scaled_at(&point(i), scale, seed, i as u64))
                .collect()
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-factor references and the extrapolated landscape built from
/// them pointwise.
struct Reference {
    factors: Vec<(f64, Vec<u64>)>,
    mitigated: Vec<u64>,
}

fn reference(problem: &ProblemInstance, shape: &Shape, zne: &ZneConfig) -> Reference {
    let source = LandscapeSource::noisy(perth());
    let factors: Vec<(f64, Vec<f64>)> = zne
        .scale_factors
        .iter()
        .map(|&scale| {
            let independent = source.generate_scaled(problem, shape, SEED, scale);
            let expected = per_point(problem, shape, scale);
            assert_eq!(
                bits(independent.values()),
                bits(&expected),
                "factor {scale}"
            );
            (scale, expected)
        })
        .collect();
    let mitigated: Vec<f64> = (0..shape.len())
        .map(|i| {
            let samples: Vec<f64> = factors.iter().map(|(_, f)| f[i]).collect();
            zne.extrapolate_values(&samples)
        })
        .collect();
    Reference {
        factors: factors.into_iter().map(|(s, f)| (s, bits(&f))).collect(),
        mitigated: bits(&mitigated),
    }
}

fn zne_config(mitigation: &Mitigation) -> ZneConfig {
    match mitigation {
        Mitigation::Zne {
            factors,
            extrapolator,
        } => ZneConfig::new(factors.clone(), *extrapolator),
        other => panic!("not a ZNE mitigation: {}", other.name()),
    }
}

fn run(
    problem: &ProblemInstance,
    shape: &Shape,
    mitigation: &Mitigation,
    cache: Option<&LandscapeCache>,
) -> Arc<ShapedLandscape> {
    let source = LandscapeSource::noisy(perth());
    mitigated_landscape(problem, shape, &source, SEED, mitigation, cache).0
}

/// Every factor entry resident in `cache` equals its reference.
fn assert_cached_factors(
    name: &str,
    problem: &ProblemInstance,
    shape: &Shape,
    cache: &LandscapeCache,
    reference: &Reference,
) {
    let source = LandscapeSource::noisy(perth());
    for (scale, expected) in &reference.factors {
        let key = LandscapeKey::zne_factor(problem, shape, &source, SEED, *scale);
        let (entry, hit) = cache.get_or_compute(key, || panic!("{name}: factor {scale} missing"));
        assert!(hit);
        assert_eq!(&bits(entry.values()), expected, "{name}: factor {scale}");
    }
}

#[test]
fn shared_moments_match_per_factor_generation_without_a_cache() {
    for (name, problem, shape) in cases() {
        for mitigation in [Mitigation::zne_richardson(), Mitigation::zne_linear()] {
            let reference = reference(&problem, &shape, &zne_config(&mitigation));
            let got = run(&problem, &shape, &mitigation, None);
            assert_eq!(bits(got.values()), reference.mitigated, "{name}");
        }
    }
}

#[test]
fn shared_moments_match_per_factor_generation_with_a_partially_warm_cache() {
    let source = LandscapeSource::noisy(perth());
    let mitigation = Mitigation::zne_richardson();
    for (name, problem, shape) in cases() {
        let reference = reference(&problem, &shape, &zne_config(&mitigation));
        // Warm factor 1 through a raw job and factor 3 directly: only
        // factor 2 misses, and it is derived from a fresh ideal pass.
        let cache = LandscapeCache::new(16);
        run(&problem, &shape, &Mitigation::None, Some(&cache));
        let key = LandscapeKey::zne_factor(&problem, &shape, &source, SEED, 3.0);
        cache.get_or_compute(key, || source.generate_scaled(&problem, &shape, SEED, 3.0));
        let got = run(&problem, &shape, &mitigation, Some(&cache));
        assert_eq!(bits(got.values()), reference.mitigated, "{name}");
        assert_cached_factors(name, &problem, &shape, &cache, &reference);
    }
}

#[test]
fn shared_moments_survive_a_store_round_trip() {
    let dir = std::env::temp_dir().join(format!("oscar-shared-moments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (name, problem, shape) in cases() {
        let richardson = Mitigation::zne_richardson();
        let linear = Mitigation::zne_linear();
        let store = LandscapeStore::open(&dir).expect("store opens");
        let cold = LandscapeCache::with_store(16, Some(Arc::clone(&store)));
        let first = run(&problem, &shape, &richardson, Some(&cold));
        store.flush();
        // A fresh cache over the same store: the Richardson landscape
        // comes back from disk, and linear ZNE reads its factors 1 and
        // 3 from disk and extrapolates them.
        let warm = LandscapeCache::with_store(16, Some(store));
        let again = run(&problem, &shape, &richardson, Some(&warm));
        let lin = run(&problem, &shape, &linear, Some(&warm));
        let rich_reference = reference(&problem, &shape, &zne_config(&richardson));
        assert_eq!(bits(first.values()), rich_reference.mitigated, "{name}");
        assert_eq!(bits(again.values()), rich_reference.mitigated, "{name}");
        let lin_reference = reference(&problem, &shape, &zne_config(&linear));
        assert_eq!(bits(lin.values()), lin_reference.mitigated, "{name}");
        assert_cached_factors(name, &problem, &shape, &warm, &lin_reference);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
