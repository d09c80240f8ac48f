//! Noise Compensation Model (NCM) — paper §5.1.
//!
//! When landscape samples come from QPUs with different noise levels, the
//! reconstruction mixes the devices' landscapes and masks device-specific
//! effects. The NCM is a linear regression trained on a small set of
//! circuit parameters executed on *both* devices; it maps expectation
//! values measured on QPU-2 into the noise frame of the reference QPU-1.
//! Linear is the right model class here because global depolarizing noise
//! acts affinely on expectations (`E -> f E + (1-f) mean`), so the
//! QPU-2 -> QPU-1 map is itself affine.

/// A fitted affine map `y ≈ slope * x + intercept`.
///
/// # Examples
///
/// ```
/// use oscar_executor::ncm::NoiseCompensationModel;
///
/// // y = 2x + 1, recovered exactly from three points.
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [1.0, 3.0, 5.0];
/// let ncm = NoiseCompensationModel::fit(&xs, &ys);
/// assert!((ncm.transform(10.0) - 21.0).abs() < 1e-10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseCompensationModel {
    slope: f64,
    intercept: f64,
    r_squared: f64,
}

impl NoiseCompensationModel {
    /// Fits by ordinary least squares on paired samples
    /// (`xs[i]` measured on the source QPU, `ys[i]` on the reference QPU
    /// at the same circuit parameters).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two pairs or the lengths differ.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "paired samples must align");
        assert!(xs.len() >= 2, "need at least two training pairs");
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| (x - mx) * (y - my))
            .sum();
        let slope = if sxx.abs() < 1e-15 { 1.0 } else { sxy / sxx };
        let intercept = my - slope * mx;
        // Coefficient of determination.
        let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| {
                let pred = slope * x + intercept;
                (y - pred) * (y - pred)
            })
            .sum();
        let r_squared = if syy.abs() < 1e-15 {
            1.0
        } else {
            1.0 - ss_res / syy
        };
        NoiseCompensationModel {
            slope,
            intercept,
            r_squared,
        }
    }

    /// The identity map (uncompensated mode).
    pub fn identity() -> Self {
        NoiseCompensationModel {
            slope: 1.0,
            intercept: 0.0,
            r_squared: 1.0,
        }
    }

    /// Maps one source-QPU expectation into the reference frame.
    pub fn transform(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Fitted slope.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Training goodness-of-fit (1 = perfect affine relationship).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_affine_recovery() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.7 * x + 0.3).collect();
        let m = NoiseCompensationModel::fit(&xs, &ys);
        assert!((m.slope() + 0.7).abs() < 1e-12);
        assert!((m.intercept() - 0.3).abs() < 1e-12);
        assert!((m.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_close() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 * 0.739).sin()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.4 * x - 0.2 + 0.01 * ((i * 37 % 11) as f64 - 5.0))
            .collect();
        let m = NoiseCompensationModel::fit(&xs, &ys);
        assert!((m.slope() - 1.4).abs() < 0.05, "slope {}", m.slope());
        assert!((m.intercept() + 0.2).abs() < 0.05);
        assert!(m.r_squared() > 0.99);
    }

    #[test]
    fn identity_map() {
        let m = NoiseCompensationModel::identity();
        assert_eq!(m.transform(0.42), 0.42);
    }

    #[test]
    fn degenerate_x_falls_back_to_shift() {
        let m = NoiseCompensationModel::fit(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        assert!((m.transform(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compensates_depolarizing_relationship() {
        // Two global depolarizing channels: E1 = f1 E + (1-f1) m,
        // E2 = f2 E + (1-f2) m. The map E2 -> E1 is affine with slope
        // f1/f2; the NCM must recover it from samples.
        let f1 = 0.9;
        let f2 = 0.7;
        let mean = -1.5;
        let ideal: Vec<f64> = (0..50).map(|i| -3.0 + i as f64 * 0.05).collect();
        let e1: Vec<f64> = ideal.iter().map(|e| f1 * e + (1.0 - f1) * mean).collect();
        let e2: Vec<f64> = ideal.iter().map(|e| f2 * e + (1.0 - f2) * mean).collect();
        let m = NoiseCompensationModel::fit(&e2, &e1);
        assert!((m.slope() - f1 / f2).abs() < 1e-9, "slope {}", m.slope());
        for (x, y) in e2.iter().zip(&e1) {
            assert!((m.transform(*x) - y).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_pair() {
        let _ = NoiseCompensationModel::fit(&[1.0], &[2.0]);
    }
}
