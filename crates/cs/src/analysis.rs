//! Frequency-domain sparsity analysis of landscapes.
//!
//! Reproduces the paper's Table 4 methodology: the fraction of DCT
//! coefficients needed to retain 99% of a landscape's signal energy — the
//! empirical justification that VQA landscapes are compressible.

use crate::dct::DctNd;

/// Fraction of (sorted, largest-first) coefficients whose cumulative squared
/// magnitude reaches `energy_fraction` of the total energy.
///
/// Returns a value in `(0, 1]`. A tiny return value means the signal is
/// highly compressible.
///
/// # Panics
///
/// Panics unless `0 < energy_fraction <= 1` and `coeffs` is non-empty.
///
/// # Examples
///
/// ```
/// // A 1-sparse spectrum needs exactly one coefficient.
/// let mut coeffs = vec![0.0; 100];
/// coeffs[3] = 5.0;
/// let f = oscar_cs::analysis::energy_fraction(&coeffs, 0.99);
/// assert!((f - 0.01).abs() < 1e-12);
/// ```
pub fn energy_fraction(coeffs: &[f64], energy_fraction: f64) -> f64 {
    assert!(!coeffs.is_empty(), "coefficient vector is empty");
    assert!(
        energy_fraction > 0.0 && energy_fraction <= 1.0,
        "energy fraction must be in (0,1]"
    );
    let mut energies: Vec<f64> = coeffs.iter().map(|c| c * c).collect();
    let total: f64 = energies.iter().sum();
    if total == 0.0 {
        // The zero signal is "fully captured" by a single (zero) term.
        return 1.0 / coeffs.len() as f64;
    }
    // total_cmp, not partial_cmp: a NaN coefficient (e.g. a landscape
    // from a misbehaving noisy device) must degrade deterministically
    // (NaN energies sort first, the cumulative sum goes NaN, and the
    // function returns 1.0) instead of panicking mid-batch.
    energies.sort_by(|a, b| b.total_cmp(a));
    let target = energy_fraction * total;
    let mut acc = 0.0;
    for (i, e) in energies.iter().enumerate() {
        acc += e;
        if acc >= target - 1e-15 {
            return (i + 1) as f64 / coeffs.len() as f64;
        }
    }
    1.0
}

/// Convenience: DCT-transform a row-major landscape and report the 99%
/// energy fraction (Table 4's metric).
///
/// # Panics
///
/// Panics if `landscape.len() != rows * cols`.
pub fn dct_energy_fraction_99(landscape: &[f64], rows: usize, cols: usize) -> f64 {
    let coeffs = DctNd::new(&[rows, cols]).forward(landscape);
    energy_fraction(&coeffs, 0.99)
}

/// Keeps only the `k` largest-magnitude coefficients (hard thresholding);
/// used to test how well a k-sparse approximation reproduces a landscape.
pub fn keep_top_k(coeffs: &[f64], k: usize) -> Vec<f64> {
    if k >= coeffs.len() {
        return coeffs.to_vec();
    }
    let mut order: Vec<usize> = (0..coeffs.len()).collect();
    // total_cmp so NaN inputs sort deterministically (largest) instead
    // of panicking; a NaN coefficient counts as "large" and is kept.
    order.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()));
    let mut out = vec![0.0; coeffs.len()];
    for &i in order.iter().take(k) {
        out[i] = coeffs[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sparse_needs_one_coefficient() {
        let mut c = vec![0.0; 50];
        c[7] = 2.0;
        assert!((energy_fraction(&c, 0.99) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn flat_spectrum_needs_nearly_all() {
        let c = vec![1.0; 100];
        let f = energy_fraction(&c, 0.99);
        assert!(f >= 0.99, "flat spectrum fraction {f}");
    }

    #[test]
    fn zero_signal_handled() {
        let c = vec![0.0; 10];
        assert!((energy_fraction(&c, 0.99) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn full_energy_needs_all_nonzero() {
        let c = vec![1.0, 1.0, 0.0, 0.0];
        let f = energy_fraction(&c, 1.0);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smooth_landscape_is_compressible() {
        // A slowly varying cosine landscape concentrates in few DCT terms.
        let (rows, cols) = (30, 30);
        let mut x = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                x[r * cols + c] =
                    (r as f64 * 0.2).cos() * (c as f64 * 0.15).sin() + 0.5 * (r as f64 * 0.1).sin();
            }
        }
        let f = dct_energy_fraction_99(&x, rows, cols);
        assert!(f < 0.05, "smooth landscape fraction {f} not sparse");
    }

    #[test]
    fn keep_top_k_zeroes_small_terms() {
        let c = vec![5.0, -1.0, 3.0, 0.5];
        let kept = keep_top_k(&c, 2);
        assert_eq!(kept, vec![5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn keep_top_k_with_large_k_is_identity() {
        let c = vec![1.0, 2.0];
        assert_eq!(keep_top_k(&c, 10), c);
    }

    #[test]
    #[should_panic(expected = "energy fraction must be in (0,1]")]
    fn rejects_invalid_energy_fraction() {
        let _ = energy_fraction(&[1.0], 0.0);
    }

    #[test]
    fn nan_input_degrades_deterministically() {
        // Regression: these used to panic via partial_cmp().unwrap()
        // when a noisy-device landscape produced a NaN. Both calls must
        // return (not panic), identically on every run.
        let c = vec![1.0, f64::NAN, 3.0, 0.5];
        let f1 = energy_fraction(&c, 0.99);
        let f2 = energy_fraction(&c, 0.99);
        assert_eq!(f1.to_bits(), f2.to_bits(), "must be deterministic");
        assert_eq!(f1, 1.0, "NaN energy never reaches the target");

        let kept = keep_top_k(&c, 2);
        assert_eq!(kept.len(), 4);
        // NaN sorts as the largest magnitude and is kept; the true
        // largest finite coefficient fills the second slot.
        assert!(kept[1].is_nan());
        assert_eq!(kept[2], 3.0);
        assert_eq!((kept[0], kept[3]), (0.0, 0.0));
    }
}
