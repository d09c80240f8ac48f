//! Zero-Noise Extrapolation (ZNE) — the "mitigation with supplementary
//! shots" technique of the paper's use case 1 (Figures 9 and 10).
//!
//! ZNE evaluates the expectation at amplified noise levels (gate folding /
//! rate scaling) and extrapolates back to zero noise. The extrapolation
//! model is the crucial configuration knob the paper studies: Richardson
//! on `{1,2,3}` amplifies shot noise (weights `{3,-3,1}` — "salt-like"
//! jaggedness), while linear on `{1,3}` yields smoother landscapes.

/// Extrapolation model for ZNE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extrapolation {
    /// Least-squares straight-line fit, evaluated at zero noise.
    Linear,
    /// Richardson (exact polynomial interpolation through all points,
    /// evaluated at zero).
    Richardson,
}

/// A ZNE configuration: noise scale factors plus extrapolation model.
///
/// # Examples
///
/// ```
/// use oscar_mitigation::zne::{Extrapolation, ZneConfig};
///
/// let zne = ZneConfig::richardson_123();
/// // A quadratic decay E(c) = 1 - 0.1 c - 0.02 c^2 is recovered exactly
/// // at c = 0 by Richardson through three points.
/// let e = zne.extrapolate(&mut |c| 1.0 - 0.1 * c - 0.02 * c * c);
/// assert!((e - 1.0).abs() < 1e-10);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ZneConfig {
    /// Noise amplification factors (must be positive and strictly
    /// increasing; conventionally starting at 1).
    pub scale_factors: Vec<f64>,
    /// The extrapolation model.
    pub extrapolation: Extrapolation,
}

impl ZneConfig {
    /// The paper's Richardson configuration: scales `{1, 2, 3}`.
    pub fn richardson_123() -> Self {
        ZneConfig {
            scale_factors: vec![1.0, 2.0, 3.0],
            extrapolation: Extrapolation::Richardson,
        }
    }

    /// The paper's linear configuration: scales `{1, 3}`.
    pub fn linear_13() -> Self {
        ZneConfig {
            scale_factors: vec![1.0, 3.0],
            extrapolation: Extrapolation::Linear,
        }
    }

    /// Creates a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two factors, non-positive factors, or factors
    /// not strictly increasing.
    pub fn new(scale_factors: Vec<f64>, extrapolation: Extrapolation) -> Self {
        assert!(scale_factors.len() >= 2, "need at least two scale factors");
        assert!(
            scale_factors.iter().all(|&c| c > 0.0),
            "scale factors must be positive"
        );
        assert!(
            scale_factors.windows(2).all(|w| w[0] < w[1]),
            "scale factors must be strictly increasing"
        );
        ZneConfig {
            scale_factors,
            extrapolation,
        }
    }

    /// Number of circuit evaluations one mitigated expectation costs.
    pub fn cost_multiplier(&self) -> usize {
        self.scale_factors.len()
    }

    /// Runs the mitigation: `measure(c)` must return the noisy expectation
    /// at noise scale `c`; returns the zero-noise estimate.
    pub fn extrapolate(&self, measure: &mut dyn FnMut(f64) -> f64) -> f64 {
        let values: Vec<f64> = self.scale_factors.iter().map(|&c| measure(c)).collect();
        self.extrapolate_values(&values)
    }

    /// [`Self::extrapolate_values`] at every point of per-factor value
    /// arrays (one array per scale factor, in factor order): element `i`
    /// of the result extrapolates element `i` of each array.
    ///
    /// # Panics
    ///
    /// Panics if the array count differs from the factor count or the
    /// arrays differ in length.
    pub fn extrapolate_pointwise(&self, factors: &[&[f64]]) -> Vec<f64> {
        assert_eq!(
            factors.len(),
            self.scale_factors.len(),
            "one value array per scale factor required"
        );
        let len = factors[0].len();
        assert!(
            factors.iter().all(|f| f.len() == len),
            "factor value arrays must have equal length"
        );
        let mut values = vec![0.0; factors.len()];
        (0..len)
            .map(|i| {
                for (slot, factor) in values.iter_mut().zip(factors) {
                    *slot = factor[i];
                }
                self.extrapolate_values(&values)
            })
            .collect()
    }

    /// Extrapolates from pre-measured values (one per scale factor).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != scale_factors.len()`.
    pub fn extrapolate_values(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            self.scale_factors.len(),
            "one value per scale factor required"
        );
        match self.extrapolation {
            Extrapolation::Richardson => {
                // Lagrange interpolation evaluated at c = 0:
                // E(0) = sum_i E_i prod_{j != i} c_j / (c_j - c_i).
                let c = &self.scale_factors;
                let mut total = 0.0;
                for i in 0..c.len() {
                    let mut w = 1.0;
                    for j in 0..c.len() {
                        if i != j {
                            w *= c[j] / (c[j] - c[i]);
                        }
                    }
                    total += w * values[i];
                }
                total
            }
            Extrapolation::Linear => {
                // Least-squares line fit; intercept at zero noise.
                let n = values.len() as f64;
                let sx: f64 = self.scale_factors.iter().sum();
                let sy: f64 = values.iter().sum();
                let sxx: f64 = self.scale_factors.iter().map(|c| c * c).sum();
                let sxy: f64 = self
                    .scale_factors
                    .iter()
                    .zip(values)
                    .map(|(c, v)| c * v)
                    .sum();
                let denom = n * sxx - sx * sx;
                if denom.abs() < 1e-15 {
                    return sy / n;
                }
                let slope = (n * sxy - sx * sy) / denom;
                (sy - slope * sx) / n
            }
        }
    }

    /// The extrapolation weights applied to each measured value; their
    /// squared sum is the shot-noise variance amplification factor (the
    /// source of Richardson's jaggedness in Figure 9).
    pub fn weights(&self) -> Vec<f64> {
        match self.extrapolation {
            Extrapolation::Richardson => {
                let c = &self.scale_factors;
                (0..c.len())
                    .map(|i| {
                        let mut w = 1.0;
                        for j in 0..c.len() {
                            if i != j {
                                w *= c[j] / (c[j] - c[i]);
                            }
                        }
                        w
                    })
                    .collect()
            }
            Extrapolation::Linear => {
                let n = self.scale_factors.len() as f64;
                let sx: f64 = self.scale_factors.iter().sum();
                let sxx: f64 = self.scale_factors.iter().map(|c| c * c).sum();
                let denom = n * sxx - sx * sx;
                self.scale_factors
                    .iter()
                    .map(|&ci| (sxx - sx * ci) / denom)
                    .collect()
            }
        }
    }

    /// Shot-noise variance amplification: `sum w_i^2`.
    pub fn variance_amplification(&self) -> f64 {
        self.weights().iter().map(|w| w * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn richardson_recovers_quadratic_exactly() {
        let zne = ZneConfig::richardson_123();
        let e = zne.extrapolate(&mut |c| 2.0 - 0.3 * c + 0.07 * c * c);
        assert!((e - 2.0).abs() < 1e-10, "got {e}");
    }

    #[test]
    fn linear_recovers_line_exactly() {
        let zne = ZneConfig::linear_13();
        let e = zne.extrapolate(&mut |c| -1.5 + 0.4 * c);
        assert!((e - (-1.5)).abs() < 1e-10, "got {e}");
    }

    #[test]
    fn richardson_weights_are_3_m3_1() {
        let zne = ZneConfig::richardson_123();
        let w = zne.weights();
        assert!((w[0] - 3.0).abs() < 1e-12);
        assert!((w[1] + 3.0).abs() < 1e-12);
        assert!((w[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn richardson_amplifies_variance_more_than_linear() {
        let r = ZneConfig::richardson_123().variance_amplification();
        let l = ZneConfig::linear_13().variance_amplification();
        assert!(
            r > 3.0 * l,
            "Richardson amplification {r} should far exceed linear {l}"
        );
    }

    #[test]
    fn weights_sum_to_interpolation_at_zero() {
        // For constant measurements the estimate equals the constant, so
        // the weights sum to 1.
        for zne in [ZneConfig::richardson_123(), ZneConfig::linear_13()] {
            let s: f64 = zne.weights().iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-12,
                "{:?} sums to {s}",
                zne.extrapolation
            );
            let e = zne.extrapolate(&mut |_| 0.7);
            assert!((e - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn extrapolate_values_matches_closure_path() {
        let zne = ZneConfig::richardson_123();
        let f = |c: f64| 1.0 / (1.0 + c);
        let via_closure = zne.extrapolate(&mut { |c| f(c) });
        let via_values = zne.extrapolate_values(&[f(1.0), f(2.0), f(3.0)]);
        assert!((via_closure - via_values).abs() < 1e-15);
    }

    #[test]
    fn improves_exponential_decay_estimate() {
        // True zero-noise value 1.0, decay E(c) = exp(-0.2 c): the raw
        // c=1 measurement is off by ~0.18; ZNE should do much better.
        let zne = ZneConfig::richardson_123();
        let e = zne.extrapolate(&mut |c| (-0.2 * c).exp());
        let raw_error = (1.0f64 - (-0.2f64).exp()).abs();
        assert!((e - 1.0).abs() < raw_error / 3.0, "zne {e}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_factors() {
        let _ = ZneConfig::new(vec![2.0, 1.0], Extrapolation::Linear);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_factor() {
        let _ = ZneConfig::new(vec![1.0], Extrapolation::Linear);
    }
}
