//! Use case 1: benchmarking and tuning noise mitigation (paper §6).
//!
//! Generates landscapes under different ZNE configurations, reconstructs
//! them with OSCAR, and compares the paper's three shape metrics — showing
//! that reconstructions preserve the (dis)advantages of each mitigation
//! configuration at a fraction of the circuit cost.

use crate::grid::Grid2d;
use crate::landscape::Landscape;
use crate::metrics::LandscapeMetrics;
use crate::reconstruct::Reconstructor;
use oscar_executor::device::QpuDevice;
use oscar_mitigation::zne::ZneConfig;
use oscar_qsim::rng::derive_seed;
use rand::Rng;

/// The noise-realization seed for one ZNE scale factor.
///
/// Each scale factor is a separate batch of circuit executions on real
/// hardware, so each must draw *fresh* shot noise: reusing
/// `landscape_seed` across factors would hand every factor identical
/// Gaussian draws and let extrapolation cancel noise it cannot cancel
/// physically. Factor `1.0` keeps the base seed unchanged, so the
/// factor-1 landscape is bit-identical to the plain unscaled noisy
/// landscape of the same seed — and can share its cache entry.
pub fn zne_factor_seed(landscape_seed: u64, scale: f64) -> u64 {
    if scale == 1.0 {
        landscape_seed
    } else {
        derive_seed(landscape_seed, scale.to_bits())
    }
}

/// Deterministic noise-scaled landscape: every grid point executes at
/// ZNE noise scale `scale` with counter-based noise keyed by
/// `(zne_factor_seed(landscape_seed, scale), point_index)`.
///
/// A pure function of `(device, grid, landscape_seed, scale)` —
/// bit-identical across worker counts and evaluation orders, which is
/// what lets the batch runtime cache one scale factor's landscape and
/// share it between ZNE jobs.
pub fn scaled_noisy_landscape(
    device: &QpuDevice,
    grid: Grid2d,
    landscape_seed: u64,
    scale: f64,
) -> Landscape {
    let seed = zne_factor_seed(landscape_seed, scale);
    Landscape::generate_indexed_par(grid, |i, beta, gamma| {
        device.execute_scaled_at(&[beta], &[gamma], scale, seed, i as u64)
    })
}

/// Pointwise zero-noise extrapolation of per-factor landscapes: grid
/// point `i` of the result is `zne.extrapolate_values` applied to point
/// `i` of each factor landscape, in factor order
/// ([`ZneConfig::extrapolate_pointwise`]).
///
/// # Panics
///
/// Panics if the landscape count does not match the config's factor
/// count, or the landscapes' grids differ.
pub fn extrapolated_landscape(zne: &ZneConfig, factors: &[&Landscape]) -> Landscape {
    let grid = factors[0].grid();
    assert!(
        factors.iter().all(|l| l.grid() == grid),
        "factor landscapes must share one grid"
    );
    let values: Vec<&[f64]> = factors.iter().map(|l| l.values()).collect();
    Landscape::from_values(grid, zne.extrapolate_pointwise(&values))
}

/// A set of landscapes for one problem under different mitigation
/// configurations.
#[derive(Clone, Debug)]
pub struct ZneLandscapes {
    /// The noiseless ground truth.
    pub ideal: Landscape,
    /// Noisy landscape without mitigation.
    pub unmitigated: Landscape,
    /// ZNE with Richardson extrapolation on scales {1,2,3}.
    pub richardson: Landscape,
    /// ZNE with linear extrapolation on scales {1,3}.
    pub linear: Landscape,
}

impl ZneLandscapes {
    /// Generates all four landscapes on `grid` by executing the device at
    /// every grid point (the expensive ground-truth path OSCAR avoids).
    pub fn generate(device: &QpuDevice, grid: Grid2d) -> Self {
        let richardson_cfg = ZneConfig::richardson_123();
        let linear_cfg = ZneConfig::linear_13();
        let ideal = Landscape::from_qaoa(grid, device.evaluator());
        let unmitigated = Landscape::generate(grid, |b, g| device.execute_scaled(&[b], &[g], 1.0));
        let richardson = Landscape::generate(grid, |b, g| {
            richardson_cfg.extrapolate(&mut |c| device.execute_scaled(&[b], &[g], c))
        });
        let linear = Landscape::generate(grid, |b, g| {
            linear_cfg.extrapolate(&mut |c| device.execute_scaled(&[b], &[g], c))
        });
        ZneLandscapes {
            ideal,
            unmitigated,
            richardson,
            linear,
        }
    }

    /// Like [`Self::generate`], but with deterministic counter-based
    /// noise keyed by `landscape_seed`: the result is a pure function
    /// of `(device, grid, landscape_seed)`, bit-identical across runs,
    /// worker counts, and evaluation orders (the device's internal
    /// order-dependent RNG stream is bypassed). The batch runtime's
    /// ZNE stage computes exactly these per-factor landscapes
    /// ([`scaled_noisy_landscape`]), so figures regenerated through
    /// this path agree with runtime sweeps.
    pub fn generate_seeded(device: &QpuDevice, grid: Grid2d, landscape_seed: u64) -> Self {
        let richardson_cfg = ZneConfig::richardson_123();
        let linear_cfg = ZneConfig::linear_13();
        let factor = |scale: f64| scaled_noisy_landscape(device, grid, landscape_seed, scale);
        let (f1, f2, f3) = (factor(1.0), factor(2.0), factor(3.0));
        let richardson = extrapolated_landscape(&richardson_cfg, &[&f1, &f2, &f3]);
        let linear = extrapolated_landscape(&linear_cfg, &[&f1, &f3]);
        ZneLandscapes {
            ideal: Landscape::from_qaoa(grid, device.evaluator()),
            unmitigated: f1,
            richardson,
            linear,
        }
    }

    /// The metrics of each original landscape.
    pub fn metrics(&self) -> MitigationMetrics {
        MitigationMetrics {
            unmitigated: metrics_of(&self.unmitigated),
            richardson: metrics_of(&self.richardson),
            linear: metrics_of(&self.linear),
        }
    }

    /// Reconstructs each mitigated landscape from a `fraction` of samples
    /// and reports the reconstructed metrics (the OSCAR-side columns of
    /// Figure 10).
    pub fn reconstructed_metrics<R: Rng + ?Sized>(
        &self,
        oscar: &Reconstructor,
        fraction: f64,
        rng: &mut R,
    ) -> MitigationMetrics {
        let recon =
            |l: &Landscape, rng: &mut R| oscar.reconstruct_fraction(l, fraction, rng).landscape;
        MitigationMetrics {
            unmitigated: metrics_of(&recon(&self.unmitigated, rng)),
            richardson: metrics_of(&recon(&self.richardson, rng)),
            linear: metrics_of(&recon(&self.linear, rng)),
        }
    }
}

/// Shape metrics for the three mitigation settings (Figure 10's bars).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MitigationMetrics {
    /// No mitigation.
    pub unmitigated: LandscapeMetrics,
    /// Richardson {1,2,3}.
    pub richardson: LandscapeMetrics,
    /// Linear {1,3}.
    pub linear: LandscapeMetrics,
}

fn metrics_of(l: &Landscape) -> LandscapeMetrics {
    LandscapeMetrics::compute(l.values(), l.grid().rows(), l.grid().cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_executor::latency::LatencyModel;
    use oscar_mitigation::model::NoiseModel;
    use oscar_problems::ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(shots: Option<usize>) -> QpuDevice {
        let mut rng = StdRng::seed_from_u64(10);
        let problem = IsingProblem::random_3_regular(8, &mut rng);
        let mut noise = NoiseModel::depolarizing(0.001, 0.02);
        if let Some(s) = shots {
            noise = noise.with_shots(s);
        }
        QpuDevice::new("zne-dev", &problem, 1, noise, LatencyModel::instant(), 0)
    }

    #[test]
    fn zne_improves_over_unmitigated() {
        // Without shot noise, both extrapolations should sit closer to the
        // ideal landscape than the unmitigated one.
        let dev = device(None);
        let grid = Grid2d::small_p1(10, 12);
        let set = ZneLandscapes::generate(&dev, grid);
        let err = |l: &Landscape| crate::metrics::nrmse(set.ideal.values(), l.values());
        let raw = err(&set.unmitigated);
        let rich = err(&set.richardson);
        let lin = err(&set.linear);
        assert!(rich < raw, "richardson {rich} vs raw {raw}");
        assert!(lin < raw, "linear {lin} vs raw {raw}");
    }

    #[test]
    fn richardson_is_rougher_with_shot_noise() {
        // Figure 9/10's headline: Richardson amplifies shot noise into
        // salt-like jaggedness; linear stays smooth.
        let dev = device(Some(1024));
        let grid = Grid2d::small_p1(12, 14);
        let set = ZneLandscapes::generate(&dev, grid);
        let m = set.metrics();
        assert!(
            m.richardson.second_derivative > 2.0 * m.linear.second_derivative,
            "richardson roughness {} should far exceed linear {}",
            m.richardson.second_derivative,
            m.linear.second_derivative
        );
    }

    #[test]
    fn seeded_generation_is_bit_stable_and_factor1_matches_unscaled() {
        let dev = device(Some(1024));
        let grid = Grid2d::small_p1(8, 10);
        let a = ZneLandscapes::generate_seeded(&dev, grid, 5);
        let b = ZneLandscapes::generate_seeded(&dev, grid, 5);
        assert_eq!(a.unmitigated.values(), b.unmitigated.values());
        assert_eq!(a.richardson.values(), b.richardson.values());
        assert_eq!(a.linear.values(), b.linear.values());
        // Another seed is a genuinely different noise realization.
        let c = ZneLandscapes::generate_seeded(&dev, grid, 6);
        assert_ne!(a.unmitigated.values(), c.unmitigated.values());
        // Factor 1.0 keeps the base seed: the unmitigated landscape is
        // exactly the scale-1 factor landscape.
        let f1 = scaled_noisy_landscape(&dev, grid, 5, 1.0);
        assert_eq!(a.unmitigated.values(), f1.values());
        // Other factors draw fresh noise rather than replaying seed 5.
        assert_eq!(zne_factor_seed(5, 1.0), 5);
        assert_ne!(zne_factor_seed(5, 2.0), 5);
        assert_ne!(zne_factor_seed(5, 2.0), zne_factor_seed(5, 3.0));
    }

    #[test]
    fn extrapolated_landscape_matches_pointwise_extrapolation() {
        let dev = device(None);
        let grid = Grid2d::small_p1(6, 8);
        let zne = ZneConfig::richardson_123();
        let subs: Vec<Landscape> = zne
            .scale_factors
            .iter()
            .map(|&c| scaled_noisy_landscape(&dev, grid, 3, c))
            .collect();
        let refs: Vec<&Landscape> = subs.iter().collect();
        let combined = extrapolated_landscape(&zne, &refs);
        for i in 0..grid.len() {
            let vals: Vec<f64> = subs.iter().map(|l| l.values()[i]).collect();
            assert_eq!(
                combined.values()[i].to_bits(),
                zne.extrapolate_values(&vals).to_bits(),
                "point {i}"
            );
        }
    }

    #[test]
    fn reconstruction_preserves_roughness_ordering() {
        let dev = device(Some(1024));
        let grid = Grid2d::small_p1(12, 14);
        let set = ZneLandscapes::generate(&dev, grid);
        let mut rng = StdRng::seed_from_u64(3);
        let rm = set.reconstructed_metrics(&Reconstructor::default(), 0.3, &mut rng);
        assert!(
            rm.richardson.second_derivative > rm.linear.second_derivative,
            "reconstructed roughness ordering lost: {} vs {}",
            rm.richardson.second_derivative,
            rm.linear.second_derivative
        );
    }
}
