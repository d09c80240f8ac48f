//! Stage 1.5 of the job pipeline: error mitigation between landscape
//! generation and CS reconstruction.
//!
//! The paper's central comparison (Table 5, Figures 9–13) runs OSCAR on
//! *mitigated* noisy landscapes — ZNE-extrapolated, readout-corrected,
//! or smoothed — not just raw ones. [`Mitigation`] makes that a
//! first-class, deterministic axis of a [`crate::job::JobSpec`]:
//!
//! * [`Mitigation::Zne`] measures the landscape at every noise-scale
//!   factor (each factor a full deterministic landscape with its own
//!   derived noise seed, individually cached and shared across jobs)
//!   and extrapolates pointwise to zero noise. The factors that miss
//!   the cache share one ideal simulation per point: only the analytic
//!   noise model depends on the scale;
//! * [`Mitigation::Readout`] inverts the analytic readout damping per
//!   point using the device's calibrated rates;
//! * [`Mitigation::Gaussian`] smooths the landscape with a
//!   constant-preserving Gaussian filter (no extra shots, trades sharp
//!   features for noise suppression).
//!
//! Every variant is shape-generic: 2-D grids go through the original
//! code paths bit-for-bit, while N-D tensors (deep QAOA, molecular VQE
//! scans) extrapolate pointwise, correct pointwise, or smooth
//! separably per axis ([`GaussianFilter::smooth_nd`]).
//!
//! Every variant is a pure function of the job spec, so mitigated jobs
//! stay bit-identical across executor counts, cache hit/miss, and
//! scheduling order — the invariant `oscar-batch --compare` verifies.
//!
//! ## Cache identity
//!
//! The landscape a mitigated job's stage 2 consumes is cached under a
//! key carrying the mitigation fingerprint
//! ([`LandscapeKey::mitigated`]), so mitigated and raw variants of the
//! same `(device, seed)` never share an entry. ZNE's per-factor
//! sub-landscapes are cached as *raw* landscapes of *scaled* sources
//! ([`LandscapeKey::zne_factor`]): two ZNE jobs that measure the same
//! factor share one entry, and the factor-1 entry is the plain noisy
//! landscape itself, shared with unmitigated jobs of the same seed.

use crate::cache::{LandscapeCache, LandscapeKey};
use crate::source::{LandscapeSource, MomentsCell};
use oscar_core::grid::Shape;
use oscar_core::landscape::{Landscape, NdLandscape, ShapedLandscape};
use oscar_core::usecases::mitigation::extrapolated_landscape;
use oscar_mitigation::gaussian::GaussianFilter;
use oscar_mitigation::readout::correct_damped_expectation;
use oscar_mitigation::zne::{Extrapolation, ZneConfig};
use oscar_obs::span::{with_stage, Stage};
use oscar_problems::workload::ProblemInstance;
use oscar_qsim::fingerprint::{tag, Fingerprint};
use oscar_qsim::noise::ReadoutError;
use std::sync::Arc;

/// How (and whether) a job mitigates its stage-1 landscape.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Mitigation {
    /// No mitigation: stage 2 reconstructs the raw landscape.
    #[default]
    None,
    /// Zero-noise extrapolation: measure at every factor, extrapolate
    /// pointwise to zero noise (paper Figures 9–10).
    Zne {
        /// Noise amplification factors (≥ 2, positive, strictly
        /// increasing — [`ZneConfig::new`]'s contract, enforced when
        /// the job runs).
        factors: Vec<f64>,
        /// The extrapolation model.
        extrapolator: Extrapolation,
    },
    /// Invert the device's readout damping per grid point using its
    /// calibrated error rates (shot-frugal; amplifies shot noise by
    /// the inverse damping).
    Readout,
    /// Gaussian smoothing of the landscape (`sigma` in grid-cell
    /// units). The only variant that also acts on exact landscapes.
    Gaussian {
        /// Filter standard deviation in grid cells.
        sigma: f64,
    },
}

impl Mitigation {
    /// The paper's Richardson ZNE configuration: scales `{1, 2, 3}`.
    pub fn zne_richardson() -> Self {
        Mitigation::Zne {
            factors: vec![1.0, 2.0, 3.0],
            extrapolator: Extrapolation::Richardson,
        }
    }

    /// The paper's linear ZNE configuration: scales `{1, 3}`.
    pub fn zne_linear() -> Self {
        Mitigation::Zne {
            factors: vec![1.0, 3.0],
            extrapolator: Extrapolation::Linear,
        }
    }

    /// Gaussian smoothing with the default 1-cell standard deviation.
    pub fn gaussian() -> Self {
        Mitigation::Gaussian { sigma: 1.0 }
    }

    /// Resolves a CLI-style name: `none`, `zne` (Richardson {1,2,3}),
    /// `zne-linear` ({1,3}), `readout`, or `gaussian`.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "none" => Mitigation::None,
            "zne" => Mitigation::zne_richardson(),
            "zne-linear" => Mitigation::zne_linear(),
            "readout" => Mitigation::Readout,
            "gaussian" => Mitigation::gaussian(),
            _ => return None,
        })
    }

    /// The CLI-style name of this variant (the inverse of
    /// [`Self::by_name`] for its five named configurations; custom ZNE
    /// factor sets all render as `zne`/`zne-linear`).
    pub fn name(&self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Zne {
                extrapolator: Extrapolation::Richardson,
                ..
            } => "zne",
            Mitigation::Zne {
                extrapolator: Extrapolation::Linear,
                ..
            } => "zne-linear",
            Mitigation::Readout => "readout",
            Mitigation::Gaussian { .. } => "gaussian",
        }
    }

    /// The variant that actually runs for `source`, with no-op
    /// configurations normalized to [`Mitigation::None`] so they share
    /// the raw landscape's cache entry instead of duplicating it:
    ///
    /// * ZNE and readout correction on the [`LandscapeSource::Exact`]
    ///   source change nothing (no noise to extrapolate, no readout to
    ///   invert);
    /// * readout correction on a device with ideal readout is the
    ///   identity.
    ///
    /// Gaussian smoothing is never normalized away — it blurs exact
    /// landscapes too.
    pub fn normalized(&self, source: &LandscapeSource) -> Mitigation {
        match self {
            Mitigation::None | Mitigation::Gaussian { .. } => self.clone(),
            Mitigation::Zne { .. } if source.is_exact() => Mitigation::None,
            Mitigation::Readout => match source.effective_device() {
                None => Mitigation::None,
                Some(spec) if spec.noise.readout == ReadoutError::ideal() => Mitigation::None,
                Some(_) => Mitigation::Readout,
            },
            Mitigation::Zne { .. } => self.clone(),
        }
    }

    /// Stable 128-bit fingerprint folded into
    /// [`LandscapeKey::mitigated`]: `0` iff the mitigation normalizes
    /// to [`Mitigation::None`] for `source` (the raw key), so mitigated
    /// and raw variants of the same device and seed never collide while
    /// no-op configurations share the raw entry. Process-stable
    /// ([`oscar_qsim::fingerprint`]), so persistent-store entries keyed
    /// by it survive restarts.
    ///
    /// Canonical encoding: `tag::ZNE` + factor count + each factor's
    /// f64 bit pattern + a Richardson flag byte; `tag::READOUT`; or
    /// `tag::GAUSSIAN` + sigma's bit pattern. The digest is forced
    /// nonzero (`| 1`).
    pub fn fingerprint(&self, source: &LandscapeSource) -> u128 {
        let mut h = Fingerprint::new();
        match self.normalized(source) {
            Mitigation::None => return 0,
            Mitigation::Zne {
                factors,
                extrapolator,
            } => {
                h.write_u8(tag::ZNE);
                h.write_usize(factors.len());
                for f in &factors {
                    h.write_f64(*f);
                }
                h.write_bool(matches!(extrapolator, Extrapolation::Richardson));
            }
            Mitigation::Readout => h.write_u8(tag::READOUT),
            Mitigation::Gaussian { sigma } => {
                h.write_u8(tag::GAUSSIAN);
                h.write_f64(sigma);
            }
        }
        // Keep a pathological all-zero hash from aliasing the raw key.
        h.finish() | 1
    }
}

/// Stage 1 + 1.5 of the pipeline: the (possibly mitigated) ground-truth
/// landscape stage 2 reconstructs, served from `cache` when provided.
///
/// Deterministic: a pure function of the arguments (the cache-hit flag
/// aside), bit-identical whether sub-landscapes come from the cache or
/// are recomputed, on any executor count. The returned flag reports a
/// hit on the *final* entry — the one keyed with the mitigation
/// fingerprint (equal to the raw key when the mitigation normalizes to
/// none).
///
/// # Panics
///
/// Panics if a [`Mitigation::Zne`] factor list violates
/// [`ZneConfig::new`]'s contract, a [`Mitigation::Gaussian`] sigma is
/// not finite and positive, or `shape` does not fit `problem` (see
/// [`LandscapeSource::generate`]).
pub fn mitigated_landscape(
    problem: &ProblemInstance,
    shape: &Shape,
    source: &LandscapeSource,
    landscape_seed: u64,
    mitigation: &Mitigation,
    cache: Option<&LandscapeCache>,
) -> (Arc<ShapedLandscape>, bool) {
    let mitigation = mitigation.normalized(source);
    // Stage spans wrap the *leaf* work sites (generation here, the
    // transform/extrapolation math below), never whole cache lookups,
    // so a cache hit costs the span machinery nothing and nothing
    // double-counts. A waiter in the in-flight dedup never runs the
    // producer, so generation time attributes to the producing job.
    let raw = || {
        with_stage(Stage::LandscapeGen, || {
            source.generate(problem, shape, landscape_seed)
        })
    };
    if mitigation == Mitigation::None {
        let key = LandscapeKey::new(problem, shape, source, landscape_seed);
        return match cache {
            Some(cache) => cache.get_or_compute(key, raw),
            None => (Arc::new(raw()), false),
        };
    }
    let apply = || apply_mitigation(problem, shape, source, landscape_seed, &mitigation, cache);
    let key = LandscapeKey::mitigated(
        problem,
        shape,
        source,
        landscape_seed,
        mitigation.fingerprint(source),
    );
    match cache {
        Some(cache) => cache.get_or_compute(key, apply),
        None => (Arc::new(apply()), false),
    }
}

/// Computes the mitigated landscape (the producer of the final cache
/// entry). Sub-computations — ZNE factor landscapes, the raw landscape
/// readout/Gaussian corrections start from — go through `cache` under
/// their own keys, so they are shared across jobs.
fn apply_mitigation(
    problem: &ProblemInstance,
    shape: &Shape,
    source: &LandscapeSource,
    landscape_seed: u64,
    mitigation: &Mitigation,
    cache: Option<&LandscapeCache>,
) -> ShapedLandscape {
    let raw_arc = || {
        let key = LandscapeKey::new(problem, shape, source, landscape_seed);
        let raw = || {
            with_stage(Stage::LandscapeGen, || {
                source.generate(problem, shape, landscape_seed)
            })
        };
        match cache {
            Some(cache) => cache.get_or_compute(key, raw).0,
            None => Arc::new(raw()),
        }
    };
    match mitigation {
        Mitigation::None => unreachable!("normalized away by the caller"),
        Mitigation::Zne {
            factors,
            extrapolator,
        } => {
            let zne = ZneConfig::new(factors.clone(), *extrapolator);
            // The first factor that misses the cache runs the ideal
            // pass; every later miss reuses its moments, so a cold job
            // simulates each point once whatever the factor count.
            let moments = MomentsCell::new();
            let subs: Vec<Arc<ShapedLandscape>> = zne
                .scale_factors
                .iter()
                .map(|&scale| {
                    let key =
                        LandscapeKey::zne_factor(problem, shape, source, landscape_seed, scale);
                    let gen = || {
                        with_stage(Stage::LandscapeGen, || {
                            source.generate_scaled_sharing(
                                problem,
                                shape,
                                landscape_seed,
                                scale,
                                &moments,
                            )
                        })
                    };
                    match cache {
                        Some(cache) => cache.get_or_compute(key, gen).0,
                        None => Arc::new(gen()),
                    }
                })
                .collect();
            with_stage(Stage::Mitigation, || match shape {
                Shape::Grid2d(_) => {
                    let refs: Vec<&Landscape> = subs
                        .iter()
                        // lint:allow(no-panic): generate() with a Grid2d shape always yields Grid2d sub-landscapes; the shape is threaded through unchanged.
                        .map(|s| s.as_grid2d().expect("grid source yields grid landscapes"))
                        .collect();
                    extrapolated_landscape(&zne, &refs).into()
                }
                Shape::Tensor(tensor) => {
                    let mut samples = vec![0.0; subs.len()];
                    let values: Vec<f64> = (0..tensor.len())
                        .map(|i| {
                            for (slot, sub) in samples.iter_mut().zip(&subs) {
                                *slot = sub.values()[i];
                            }
                            zne.extrapolate_values(&samples)
                        })
                        .collect();
                    NdLandscape::from_values(tensor.clone(), values).into()
                }
            })
        }
        Mitigation::Readout => {
            // Normalization keeps `Readout` only for noisy sources; if
            // a noiseless source slips through anyway, a zero readout
            // error makes the correction an exact identity.
            let error = source
                .effective_device()
                .map(|d| d.noise.readout)
                .unwrap_or(ReadoutError::new(0.0, 0.0));
            let mixed = problem.mixed_mean();
            let raw = raw_arc();
            let values = raw.values();
            with_stage(Stage::Mitigation, || match shape {
                Shape::Grid2d(grid) => Landscape::generate_indexed_par(*grid, |i, _, _| {
                    correct_damped_expectation(values[i], mixed, error)
                })
                .into(),
                Shape::Tensor(tensor) => {
                    NdLandscape::generate_indexed_par(tensor.clone(), |i, _| {
                        correct_damped_expectation(values[i], mixed, error)
                    })
                    .into()
                }
            })
        }
        Mitigation::Gaussian { sigma } => {
            let raw = raw_arc();
            with_stage(Stage::Mitigation, || match shape {
                Shape::Grid2d(grid) => {
                    let smoothed = GaussianFilter::new(*sigma).smooth_2d(
                        raw.values(),
                        grid.rows(),
                        grid.cols(),
                    );
                    Landscape::generate_indexed_par(*grid, |i, _, _| smoothed[i]).into()
                }
                Shape::Tensor(tensor) => {
                    let smoothed =
                        GaussianFilter::new(*sigma).smooth_nd(raw.values(), &tensor.dims());
                    NdLandscape::from_values(tensor.clone(), smoothed).into()
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_core::grid::Grid2d;
    use oscar_executor::device::DeviceSpec;
    use oscar_problems::ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn raw_problem() -> IsingProblem {
        let mut rng = StdRng::seed_from_u64(77);
        IsingProblem::random_3_regular(6, &mut rng)
    }

    fn problem() -> ProblemInstance {
        ProblemInstance::ising(raw_problem(), 1)
    }

    fn perth() -> LandscapeSource {
        LandscapeSource::noisy(DeviceSpec::by_name("ibm perth").expect("known device"))
    }

    #[test]
    fn normalization_drops_noop_configurations() {
        let exact = LandscapeSource::Exact;
        assert_eq!(
            Mitigation::zne_richardson().normalized(&exact),
            Mitigation::None
        );
        assert_eq!(Mitigation::Readout.normalized(&exact), Mitigation::None);
        // Gaussian smoothing acts on exact landscapes too.
        assert_eq!(
            Mitigation::gaussian().normalized(&exact),
            Mitigation::gaussian()
        );
        // "noisy sim" has no readout error: correction is the identity.
        let no_readout = LandscapeSource::noisy(DeviceSpec::by_name("noisy sim").unwrap());
        assert_eq!(
            Mitigation::Readout.normalized(&no_readout),
            Mitigation::None
        );
        assert_eq!(
            Mitigation::Readout.normalized(&perth()),
            Mitigation::Readout
        );
    }

    #[test]
    fn fingerprints_zero_iff_normalized_none_and_separate_variants() {
        let noisy = perth();
        assert_eq!(Mitigation::None.fingerprint(&noisy), 0);
        assert_eq!(
            Mitigation::zne_richardson().fingerprint(&LandscapeSource::Exact),
            0
        );
        let fps = [
            Mitigation::zne_richardson().fingerprint(&noisy),
            Mitigation::zne_linear().fingerprint(&noisy),
            Mitigation::Readout.fingerprint(&noisy),
            Mitigation::gaussian().fingerprint(&noisy),
            Mitigation::Gaussian { sigma: 2.0 }.fingerprint(&noisy),
        ];
        for fp in fps {
            assert_ne!(fp, 0);
        }
        let mut unique = std::collections::HashSet::new();
        for fp in fps {
            assert!(unique.insert(fp), "fingerprint collision");
        }
        // Different factor sets are different fingerprints.
        let custom = Mitigation::Zne {
            factors: vec![1.0, 1.5, 2.0],
            extrapolator: Extrapolation::Richardson,
        };
        assert_ne!(
            custom.fingerprint(&noisy),
            Mitigation::zne_richardson().fingerprint(&noisy)
        );
    }

    #[test]
    fn zne_is_deterministic_and_beats_raw_on_a_noisy_device() {
        use oscar_core::metrics::nrmse;
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(10, 12));
        let noisy = perth();
        let ideal = LandscapeSource::Exact.generate(&p, &shape, 0);
        let (raw, _) = mitigated_landscape(&p, &shape, &noisy, 3, &Mitigation::None, None);
        let (zne, _) = mitigated_landscape(&p, &shape, &noisy, 3, &Mitigation::zne_linear(), None);
        let (zne2, _) = mitigated_landscape(&p, &shape, &noisy, 3, &Mitigation::zne_linear(), None);
        assert_eq!(zne.values(), zne2.values(), "ZNE must be bit-stable");
        assert_ne!(zne.values(), raw.values());
        let e_raw = nrmse(ideal.values(), raw.values());
        let e_zne = nrmse(ideal.values(), zne.values());
        assert!(
            e_zne < e_raw,
            "linear ZNE {e_zne} should beat unmitigated {e_raw}"
        );
    }

    #[test]
    fn readout_correction_moves_toward_the_depolarizing_only_landscape() {
        use oscar_core::metrics::nrmse;
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(10, 12));
        // Infinite-shot Perth: the correction is exact there.
        let spec = DeviceSpec::by_name("ibm perth").unwrap();
        let no_shots = DeviceSpec {
            noise: oscar_mitigation::model::NoiseModel {
                shots: None,
                ..spec.noise
            },
            ..spec.clone()
        };
        let depol_only = DeviceSpec {
            noise: oscar_mitigation::model::NoiseModel {
                readout: ReadoutError::ideal(),
                shots: None,
                ..spec.noise
            },
            ..spec.clone()
        };
        let src = LandscapeSource::noisy(no_shots);
        let target = LandscapeSource::noisy(depol_only).generate(&p, &shape, 1);
        let (raw, _) = mitigated_landscape(&p, &shape, &src, 1, &Mitigation::None, None);
        let (fixed, _) = mitigated_landscape(&p, &shape, &src, 1, &Mitigation::Readout, None);
        let e_raw = nrmse(target.values(), raw.values());
        let e_fixed = nrmse(target.values(), fixed.values());
        assert!(
            e_fixed < 1e-10,
            "infinite-shot readout correction must be exact, got {e_fixed}"
        );
        assert!(e_raw > 1e-3, "raw landscape should be visibly damped");
    }

    #[test]
    fn gaussian_smoothing_applies_to_exact_landscapes_too() {
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(10, 12));
        let exact = LandscapeSource::Exact;
        let (raw, _) = mitigated_landscape(&p, &shape, &exact, 0, &Mitigation::None, None);
        let (smooth, _) = mitigated_landscape(&p, &shape, &exact, 0, &Mitigation::gaussian(), None);
        assert_ne!(raw.values(), smooth.values());
        // Smoothing is an average: range can only shrink.
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max(smooth.values()) <= max(raw.values()) + 1e-12);
        assert!(min(smooth.values()) >= min(raw.values()) - 1e-12);
    }

    #[test]
    fn zne_factor_entries_are_cached_and_shared() {
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(8, 10));
        let noisy = perth();
        let cache = LandscapeCache::new(16);
        let (a, hit_a) = mitigated_landscape(
            &p,
            &shape,
            &noisy,
            5,
            &Mitigation::zne_richardson(),
            Some(&cache),
        );
        assert!(!hit_a);
        // 4 entries: factors 1, 2, 3 + the final extrapolated landscape.
        assert_eq!(cache.stats().len, 4);
        // A second identical job hits the final entry outright.
        let (b, hit_b) = mitigated_landscape(
            &p,
            &shape,
            &noisy,
            5,
            &Mitigation::zne_richardson(),
            Some(&cache),
        );
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "final entry must be shared");
        // Linear ZNE over {1, 3} reuses two of the three factor entries:
        // only its own final entry is new.
        let before = cache.stats();
        let (_, hit_lin) = mitigated_landscape(
            &p,
            &shape,
            &noisy,
            5,
            &Mitigation::zne_linear(),
            Some(&cache),
        );
        assert!(!hit_lin, "different extrapolation is a different landscape");
        let after = cache.stats();
        assert_eq!(after.len, 5, "only the linear final entry is new");
        assert_eq!(
            after.hits,
            before.hits + 2,
            "factors 1 and 3 must be served from cache"
        );
        // A raw job over the same seed shares the factor-1 entry.
        let (raw, hit_raw) =
            mitigated_landscape(&p, &shape, &noisy, 5, &Mitigation::None, Some(&cache));
        assert!(hit_raw, "raw landscape is the ZNE factor-1 entry");
        let factor1 = cache
            .get_or_compute(LandscapeKey::zne_factor(&p, &shape, &noisy, 5, 1.0), || {
                unreachable!("factor-1 entry must be resident")
            });
        assert!(Arc::ptr_eq(&raw, &factor1.0));
        assert_eq!(after.len, cache.stats().len, "no new entries");
    }

    #[test]
    fn cached_and_uncached_mitigation_agree_bitwise() {
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(8, 10));
        let noisy = perth();
        for mitigation in [
            Mitigation::zne_richardson(),
            Mitigation::zne_linear(),
            Mitigation::Readout,
            Mitigation::gaussian(),
        ] {
            let cache = LandscapeCache::new(16);
            let (plain, _) = mitigated_landscape(&p, &shape, &noisy, 2, &mitigation, None);
            let (miss, hit_miss) =
                mitigated_landscape(&p, &shape, &noisy, 2, &mitigation, Some(&cache));
            let (hit, hit_hit) =
                mitigated_landscape(&p, &shape, &noisy, 2, &mitigation, Some(&cache));
            assert!(!hit_miss && hit_hit, "{}", mitigation.name());
            assert_eq!(plain.values(), miss.values(), "{}", mitigation.name());
            assert_eq!(plain.values(), hit.values(), "{}", mitigation.name());
        }
    }

    #[test]
    fn mitigated_and_raw_entries_never_collide() {
        let p = problem();
        let shape = Shape::Grid2d(Grid2d::small_p1(8, 10));
        let noisy = perth();
        let raw = LandscapeKey::new(&p, &shape, &noisy, 3);
        for mitigation in [
            Mitigation::zne_richardson(),
            Mitigation::zne_linear(),
            Mitigation::Readout,
            Mitigation::gaussian(),
        ] {
            let key =
                LandscapeKey::mitigated(&p, &shape, &noisy, 3, mitigation.fingerprint(&noisy));
            assert_ne!(key, raw, "{}", mitigation.name());
        }
    }

    #[test]
    fn every_mitigation_runs_on_tensor_shapes_deterministically() {
        let p = ProblemInstance::ising(raw_problem(), 2);
        let shape = Shape::qaoa(2, 4, 5);
        assert!(matches!(shape, Shape::Tensor(_)));
        let noisy = perth();
        let (raw, _) = mitigated_landscape(&p, &shape, &noisy, 3, &Mitigation::None, None);
        for mitigation in [
            Mitigation::zne_linear(),
            Mitigation::Readout,
            Mitigation::gaussian(),
        ] {
            let (a, _) = mitigated_landscape(&p, &shape, &noisy, 3, &mitigation, None);
            let (b, _) = mitigated_landscape(&p, &shape, &noisy, 3, &mitigation, None);
            assert_eq!(
                a.values(),
                b.values(),
                "{} not bit-stable",
                mitigation.name()
            );
            assert_ne!(a.values(), raw.values(), "{} is a no-op", mitigation.name());
            assert_eq!(a.values().len(), shape.len());
            assert!(
                a.as_tensor().is_some(),
                "{} changed shape",
                mitigation.name()
            );
        }
    }

    #[test]
    fn tensor_gaussian_matches_direct_nd_smoothing() {
        use oscar_problems::workload::Molecule;
        let p = ProblemInstance::molecule(Molecule::H2);
        let shape = Shape::vqe_scan(&[4, 4, 4]);
        let exact = LandscapeSource::Exact;
        let raw = exact.generate(&p, &shape, 0);
        let (smooth, _) = mitigated_landscape(&p, &shape, &exact, 0, &Mitigation::gaussian(), None);
        let direct = GaussianFilter::new(1.0).smooth_nd(raw.values(), &raw.dims());
        for (a, b) in smooth.values().iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
