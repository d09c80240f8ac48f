//! FISTA solver for the LASSO formulation of compressed-sensing recovery.
//!
//! Solves `min_s 0.5 ||y - A s||_2^2 + lambda ||s||_1` with the fast
//! iterative shrinkage-thresholding algorithm (Beck & Teboulle 2009). For
//! our measurement operator `||A||_2 <= 1` (orthonormal basis + row
//! selection), so the step size is fixed at 1 and no backtracking is
//! needed. With small `lambda` the solution approximates basis pursuit,
//! the l1 program in the paper's Appendix A (Eq. 7).
//!
//! The momentum restarts adaptively, by the gradient scheme of
//! O'Donoghue & Candès ("Adaptive Restart for Accelerated Gradient
//! Schemes", Found. Comput. Math. 2015): after the proximal step from
//! the momentum point `z` to `s_next`, if `(z − s_next)·(s_next − s) > 0`
//! the step and the momentum disagree, so the solver sets `z = s_next`
//! and `t = 1`, dropping the momentum built up so far. The inner product
//! is summed in the same pass as the soft threshold and the momentum
//! update, so it costs one multiply-add per coefficient. The fixed point
//! is unchanged (the same LASSO solution), but plain FISTA's
//! oscillations around it are cut short.
//!
//! Two entry points: [`fista`] is the convenience form that allocates a
//! fresh [`Workspace`] per call; [`fista_with`] takes a caller-owned
//! workspace and performs **no heap allocation in steady state** (the
//! only allocation per solve is the result's coefficient vector).
//!
//! # Cost model
//!
//! A solve of `I` iterations costs `I` forward and `I` adjoint operator
//! applies (see [`crate::measure`] for what one apply costs), plus
//! `O(n)` vector work per iteration. With the restart, the benchmark
//! workloads average `I` ≈ 76 (50x100 MaxCut), 59 (32x40 ZNE) and 37
//! (LiH 3⁸) iterations, against 232, 141 and 82 for plain FISTA.
//!
//! The debias refit that follows keeps the recovered support `S` fixed
//! and solves `min ‖Φ x − y‖₂` exactly on its atom columns
//! `Φ = A[:, S]`: building them costs `|S|` forward applies of a one-hot
//! iterate and `m·|S|` floats, the Gram matrix `ΦᵀΦ` about `|S|²·m/2`
//! multiply-adds, its Cholesky factor `|S|³/6` and the two triangular
//! solves `|S|²`. There is no iteration budget. Supports stay far below
//! `m`: in the benchmark workloads they hold 7–15 (50x100 MaxCut,
//! `m = 500`), 7–25 (32x40 ZNE, `m = 256`) and 2 (LiH 3⁸, `m = 1641`)
//! coefficients. The refit is skipped, keeping FISTA's coefficients,
//! when `|S| ≥ m` (the normal equations are singular, so no atom column
//! is built) or when a Cholesky pivot falls to `REFIT_PIVOT_FLOOR`
//! times the largest diagonal entry of `ΦᵀΦ` (collinear atoms);
//! [`FistaResult::refit`] reports which happened.

use crate::measure::SensingOperator;
use crate::workspace::Workspace;

/// Configuration for [`fista`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FistaConfig {
    /// l1 penalty weight relative to `max|A^T y|`: the effective penalty
    /// is `lambda * max|A^T y|`, which makes the setting scale-free.
    pub lambda: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
    /// Stop when the relative change of the iterate drops below this.
    pub tol: f64,
}

impl Default for FistaConfig {
    fn default() -> Self {
        FistaConfig {
            lambda: 0.005,
            max_iter: 500,
            tol: 1e-7,
        }
    }
}

/// A Cholesky pivot of the refit's Gram matrix at or below this
/// fraction of its largest diagonal entry marks the support's atom
/// columns as numerically dependent, and the refit is skipped.
const REFIT_PIVOT_FLOOR: f64 = 1e-10;

/// Why the FISTA iteration stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FistaExit {
    /// The relative change of the iterate fell to `tol`.
    Converged,
    /// `max_iter` iterations ran without meeting `tol`.
    IterationCap,
}

/// Outcome of a FISTA run.
#[derive(Clone, Debug)]
pub struct FistaResult {
    /// Recovered sparse coefficient vector.
    pub coefficients: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
    /// Why the iteration stopped.
    pub exit: FistaExit,
    /// Final residual norm `||y - A s||_2`.
    pub residual_norm: f64,
    /// Number of non-zero coefficients in the solution.
    pub support_size: usize,
    /// Whether the coefficients on the support are the exact
    /// least-squares refit (vacuously so for an empty support). `false`
    /// when the refit was skipped and they are FISTA's: the support held
    /// `m` or more coefficients, or its atom columns were numerically
    /// dependent.
    pub refit: bool,
}

/// Runs FISTA for the operator `op` and measurements `y`.
///
/// # Panics
///
/// Panics if `y.len()` does not match the operator's measurement length, or
/// if the config has `max_iter == 0` / non-positive `lambda`.
///
/// # Examples
///
/// ```
/// use oscar_cs::dct::Dct2d;
/// use oscar_cs::measure::{MeasurementOperator, SamplePattern};
/// use oscar_cs::fista::{fista, FistaConfig};
/// use rand::SeedableRng;
///
/// // A 1-sparse signal in DCT space, recovered from 40% of samples.
/// let dct = Dct2d::new(8, 8);
/// let mut coeffs = vec![0.0; 64];
/// coeffs[9] = 3.0;
/// let full = dct.inverse(&coeffs);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let pattern = SamplePattern::random(8, 8, 0.4, &mut rng);
/// let y = pattern.gather(&full);
/// let op = MeasurementOperator::new(&dct, &pattern);
/// let result = fista(&op, &y, &FistaConfig::default());
/// assert!((result.coefficients[9] - 3.0).abs() < 0.1);
/// ```
pub fn fista<O: SensingOperator + ?Sized>(op: &O, y: &[f64], cfg: &FistaConfig) -> FistaResult {
    let mut ws = Workspace::for_operator(op);
    fista_with(op, y, cfg, &mut ws)
}

/// Runs FISTA through a caller-owned [`Workspace`].
///
/// After the workspace has warmed up to this problem shape (one call, or
/// [`Workspace::ensure`]), iterations perform no heap allocation; the
/// solve's only allocation is the returned coefficient vector.
///
/// # Panics
///
/// Same conditions as [`fista`].
pub fn fista_with<O: SensingOperator + ?Sized>(
    op: &O,
    y: &[f64],
    cfg: &FistaConfig,
    ws: &mut Workspace,
) -> FistaResult {
    assert_eq!(y.len(), op.measurement_len(), "measurement length mismatch");
    assert!(cfg.max_iter > 0, "max_iter must be positive");
    assert!(cfg.lambda > 0.0, "lambda must be positive");
    ws.ensure(op);

    op.adjoint_into(y, &mut ws.grad, &mut ws.op);
    let max_corr = ws.grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let lambda = (cfg.lambda * max_corr).max(f64::MIN_POSITIVE);

    ws.s.fill(0.0); // current iterate
    ws.z.fill(0.0); // momentum point
    let mut t = 1.0f64;
    let mut iterations = 0;
    let mut exit = FistaExit::IterationCap;

    for it in 0..cfg.max_iter {
        iterations = it + 1;
        // Gradient step at z: grad = A^T (A z - y).
        op.forward_into(&ws.z, &mut ws.az, &mut ws.op);
        for ((r, &a), &b) in ws.resid.iter_mut().zip(ws.az.iter()).zip(y.iter()) {
            *r = a - b;
        }
        op.adjoint_into(&ws.resid, &mut ws.grad, &mut ws.op);
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        let mut max_delta = 0.0f64;
        let mut max_mag = 0.0f64;
        // `(z − s_next)·(s_next − s)`: positive when the momentum step
        // points uphill, which triggers the restart below.
        let mut uphill = 0.0f64;
        // One pass: proximal (soft-threshold) step with unit step size,
        // then the momentum update of the same entry.
        for (((next, &s), z), &g) in ws
            .s_next
            .iter_mut()
            .zip(&ws.s)
            .zip(ws.z.iter_mut())
            .zip(&ws.grad)
        {
            *next = soft_threshold(*z - g, lambda);
            let delta = *next - s;
            uphill += (*z - *next) * delta;
            *z = *next + beta * delta;
            max_delta = max_delta.max(delta.abs());
            max_mag = max_mag.max(next.abs());
        }
        std::mem::swap(&mut ws.s, &mut ws.s_next);
        t = t_next;
        if uphill > 0.0 {
            ws.z.copy_from_slice(&ws.s);
            t = 1.0;
        }
        if max_delta <= cfg.tol * max_mag.max(1e-12) {
            exit = FistaExit::Converged;
            break;
        }
    }

    let refit = debias(op, y, ws);

    op.forward_into(&ws.s, &mut ws.az, &mut ws.op);
    let residual_norm = ws
        .az
        .iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let support_size = ws.s.iter().filter(|v| **v != 0.0).count();
    FistaResult {
        coefficients: ws.s.clone(),
        iterations,
        exit,
        residual_norm,
        support_size,
        refit,
    }
}

/// Refits the values on the current support by least squares with the
/// l1 term dropped, removing the soft threshold's shrinkage bias.
/// Operates on `ws.s`: builds each atom column `A e_j` of `Φ = A[:, S]`
/// once into `ws.atoms` (`|S| x m`), forms the normal equations
/// `ΦᵀΦ x = Φᵀy` in `ws.gram` and `ws.rhs`, and solves them by Cholesky
/// into `ws.coef`. Returns `false`, leaving `ws.s` as FISTA left it, when
/// `|S| ≥ m` or the factorization meets a pivot at or below
/// [`REFIT_PIVOT_FLOOR`] times `max diag(ΦᵀΦ)`.
fn debias<O: SensingOperator + ?Sized>(op: &O, y: &[f64], ws: &mut Workspace) -> bool {
    ws.support.clear();
    ws.support.extend(
        ws.s.iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i),
    );
    let k = ws.support.len();
    let m = y.len();
    if k == 0 {
        return true;
    }
    if k >= m {
        return false;
    }
    ws.atoms.clear();
    ws.atoms.resize(k * m, 0.0);
    // `z` (the momentum point) is dead after the main loop: reuse it as
    // the unit vector `e_j`.
    ws.z.fill(0.0);
    for (&j, atom) in ws.support.iter().zip(ws.atoms.chunks_exact_mut(m)) {
        ws.z[j] = 1.0;
        op.forward_into(&ws.z, atom, &mut ws.op);
        ws.z[j] = 0.0;
    }
    ws.gram.clear();
    ws.gram.resize(k * k, 0.0);
    ws.rhs.clear();
    for (a, atom) in ws.atoms.chunks_exact(m).enumerate() {
        for (b, other) in ws.atoms.chunks_exact(m).take(a + 1).enumerate() {
            ws.gram[a * k + b] = dot(atom, other);
        }
        ws.rhs.push(dot(atom, y));
    }
    let max_diag = (0..k).fold(0.0f64, |d, a| d.max(ws.gram[a * k + a]));
    ws.chol.clear();
    ws.chol.resize(k * k, 0.0);
    ws.coef.clear();
    ws.coef.resize(k, 0.0);
    let floor = REFIT_PIVOT_FLOOR * max_diag;
    if !cholesky_solve_into(&ws.gram, &ws.rhs, k, floor, &mut ws.chol, &mut ws.coef) {
        return false;
    }
    for (&j, &c) in ws.support.iter().zip(&ws.coef) {
        ws.s[j] = c;
    }
    true
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `G x = b` for symmetric positive-definite `G` (row-major
/// `k x k`; only its lower triangle is read) by Cholesky factorization
/// into `l` (at least `k * k`) and two triangular solves; the solution
/// lands in `x` (length `k`), which doubles as the substitution buffer.
/// Returns `false`, with `x` unspecified, when a pivot is at or below
/// `floor`.
fn cholesky_solve_into(
    g: &[f64],
    b: &[f64],
    k: usize,
    floor: f64,
    l: &mut [f64],
    x: &mut [f64],
) -> bool {
    for i in 0..k {
        for j in 0..=i {
            let mut sum = g[i * k + j];
            for p in 0..j {
                sum -= l[i * k + p] * l[j * k + p];
            }
            if i == j {
                if sum <= floor || sum.is_nan() {
                    return false;
                }
                l[i * k + i] = sum.sqrt();
            } else {
                l[i * k + j] = sum / l[j * k + j];
            }
        }
    }
    // Forward substitution L z = b (z stored in x).
    for i in 0..k {
        let mut sum = b[i];
        for p in 0..i {
            sum -= l[i * k + p] * x[p];
        }
        x[i] = sum / l[i * k + i];
    }
    // Back substitution Lᵀ x = z, in place.
    for i in (0..k).rev() {
        let mut sum = x[i];
        for p in i + 1..k {
            sum -= l[p * k + i] * x[p];
        }
        x[i] = sum / l[i * k + i];
    }
    true
}

/// Soft-thresholding operator `sign(x) * max(|x| - t, 0)`.
#[inline]
pub fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::{Dct1d, Dct2d, DctNd};
    use crate::measure::{MeasurementOperator, NdSamplePattern, SamplePattern};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_signal(dct: &DctNd, spikes: &[(usize, f64)]) -> (Vec<f64>, Vec<f64>) {
        let mut coeffs = vec![0.0; dct.len()];
        for &(i, v) in spikes {
            coeffs[i] = v;
        }
        let full = dct.inverse(&coeffs);
        (coeffs, full)
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn recovers_three_sparse_signal() {
        let dct = Dct2d::new(12, 12);
        let (coeffs, full) = sparse_signal(&dct, &[(0, 5.0), (13, -2.0), (30, 1.5)]);
        let mut rng = StdRng::seed_from_u64(2);
        let pattern = SamplePattern::random(12, 12, 0.35, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(&op, &y, &FistaConfig::default());
        for (i, (&c, &r)) in coeffs.iter().zip(res.coefficients.iter()).enumerate() {
            assert!((c - r).abs() < 0.05, "coef {i}: true {c} rec {r}");
        }
    }

    #[test]
    fn reconstruction_matches_full_signal() {
        let dct = Dct2d::new(10, 14);
        let (_, full) = sparse_signal(&dct, &[(1, 2.0), (15, 1.0), (29, -0.8), (3, 0.4)]);
        let mut rng = StdRng::seed_from_u64(8);
        let pattern = SamplePattern::random(10, 14, 0.4, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(&op, &y, &FistaConfig::default());
        let recon = dct.inverse(&res.coefficients);
        let err: f64 = recon
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = full.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / norm < 0.02, "relative error {}", err / norm);
    }

    #[test]
    fn noisy_measurements_still_approximate() {
        let dct = Dct2d::new(10, 10);
        let (_, full) = sparse_signal(&dct, &[(0, 4.0), (11, 2.0)]);
        let mut rng = StdRng::seed_from_u64(21);
        let pattern = SamplePattern::random(10, 10, 0.5, &mut rng);
        let y: Vec<f64> = pattern
            .gather(&full)
            .iter()
            .map(|v| v + rng.gen_range(-0.01..0.01))
            .collect();
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(
            &op,
            &y,
            &FistaConfig {
                lambda: 0.02,
                ..FistaConfig::default()
            },
        );
        let recon = dct.inverse(&res.coefficients);
        let err: f64 = recon
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = full.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / norm < 0.1, "relative error {}", err / norm);
    }

    #[test]
    fn full_sampling_reproduces_any_signal() {
        // With 100% sampling, even a non-sparse signal is recovered by the
        // data-fidelity term.
        let dct = Dct2d::new(6, 6);
        let full: Vec<f64> = (0..36).map(|i| ((i * 17) % 7) as f64 - 3.0).collect();
        let pattern = SamplePattern::from_indices(6, 6, (0..36).collect());
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(
            &op,
            &y,
            &FistaConfig {
                lambda: 1e-5,
                max_iter: 2000,
                ..FistaConfig::default()
            },
        );
        let recon = dct.inverse(&res.coefficients);
        for (a, b) in recon.iter().zip(&full) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    /// `min ‖Φ x − y‖₂` by Householder QR on the dense columns `Φ`: the
    /// reference the Cholesky refit must match. Never squares `Φ`, so it
    /// does not share the normal equations' rounding.
    fn dense_least_squares(columns: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let mut a = columns.to_vec();
        let mut b = y.to_vec();
        let k = a.len();
        for j in 0..k {
            let norm = a[j][j..].iter().map(|v| v * v).sum::<f64>().sqrt();
            let alpha = if a[j][j] > 0.0 { -norm } else { norm };
            let mut v = a[j][j..].to_vec();
            v[0] -= alpha;
            let vv: f64 = v.iter().map(|x| x * x).sum();
            for col in a[j..]
                .iter_mut()
                .map(Vec::as_mut_slice)
                .chain([b.as_mut_slice()])
            {
                let d = 2.0 * v.iter().zip(&col[j..]).map(|(p, q)| p * q).sum::<f64>() / vv;
                for (c, vi) in col[j..].iter_mut().zip(&v) {
                    *c -= d * vi;
                }
            }
        }
        let mut x = vec![0.0; k];
        for i in (0..k).rev() {
            let tail: f64 = (i + 1..k).map(|j| a[j][i] * x[j]).sum();
            x[i] = (b[i] - tail) / a[i][i];
        }
        x
    }

    /// The refit as a dense reference: builds `Φ = A[:, S]` column by
    /// column and replaces `s[S]` with [`dense_least_squares`], under the
    /// solver's `|S| < m` guard.
    fn dense_refit<O: SensingOperator>(op: &O, y: &[f64], s: &mut [f64]) {
        let support: Vec<usize> = (0..s.len()).filter(|&i| s[i] != 0.0).collect();
        if support.len() >= y.len() {
            return;
        }
        let mut scratch = op.make_scratch();
        let columns: Vec<Vec<f64>> = support
            .iter()
            .map(|&j| {
                let mut e = vec![0.0; s.len()];
                e[j] = 1.0;
                let mut col = vec![0.0; y.len()];
                op.forward_into(&e, &mut col, &mut scratch);
                col
            })
            .collect();
        for (&j, c) in support.iter().zip(dense_least_squares(&columns, y)) {
            s[j] = c;
        }
    }

    /// The solver's refit lands on the dense reference fitted to the same
    /// support, to 1e-10.
    fn assert_refit_matches_dense_reference<O: SensingOperator>(op: &O, y: &[f64]) {
        let res = fista(
            op,
            y,
            &FistaConfig {
                lambda: 1e-3,
                ..FistaConfig::default()
            },
        );
        assert!(res.refit);
        assert!(res.support_size >= 2, "support {}", res.support_size);
        let mut reference = res.coefficients.clone();
        dense_refit(op, y, &mut reference);
        for (i, (a, b)) in res.coefficients.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-10, "coef {i}: cholesky {a} vs dense {b}");
        }
    }

    #[test]
    fn refit_matches_dense_least_squares() {
        let dct = Dct2d::new(24, 40);
        // 30 spikes, so the refit has a support of at least 30 to fit.
        let spikes: Vec<(usize, f64)> = (0..30)
            .map(|j| (j * 37 % 400, 2.0 - 0.05 * j as f64))
            .collect();
        let (_, full) = sparse_signal(&dct, &spikes);
        let mut rng = StdRng::seed_from_u64(31);
        let pattern = SamplePattern::random(24, 40, 0.5, &mut rng);
        let y = pattern.gather(&full);
        assert_refit_matches_dense_reference(&MeasurementOperator::new(&dct, &pattern), &y);

        let dims = [3usize, 4, 5, 6];
        let dct = DctNd::new(&dims);
        let mut coeffs = vec![0.0; dct.len()];
        for j in 0..30 {
            coeffs[j * 11 % 360] = 1.5 - 0.04 * j as f64;
        }
        let full = dct.inverse(&coeffs);
        let pattern = NdSamplePattern::random(&dims, 0.5, &mut rng);
        let y = pattern.gather(&full);
        assert_refit_matches_dense_reference(&MeasurementOperator::new(&dct, &pattern), &y);
    }

    #[test]
    fn refit_is_skipped_when_the_support_reaches_m() {
        // One iteration from zero soft-thresholds `Aᵀy` at 0.5% of its
        // peak, which keeps far more than the 58 sampled coefficients.
        // The guard fires before a single atom column is built.
        let dct = Dct2d::new(24, 40);
        let (_, full) = sparse_signal(&dct, &[(0, 3.0), (41, -1.0), (300, 0.5)]);
        let mut rng = StdRng::seed_from_u64(12);
        let pattern = SamplePattern::random(24, 40, 0.06, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let cfg = FistaConfig {
            max_iter: 1,
            ..FistaConfig::default()
        };
        let mut ws = Workspace::for_operator(&op);
        let res = fista_with(&op, &y, &cfg, &mut ws);
        assert!(res.support_size >= y.len(), "support {}", res.support_size);
        assert!(!res.refit);
        assert!(ws.atoms.is_empty(), "{} atom floats built", ws.atoms.len());
        let (raw, _, _) = plain_fista_unrefitted(&op, &y, &cfg);
        assert_eq!(res.coefficients, raw);
    }

    #[test]
    fn refit_is_skipped_on_dependent_atoms() {
        // With every sample in grid row `r`, atom `(k, l)` evaluates to
        // `D[k][r]·D[l][c]`: atoms of one column frequency `l` differ
        // only by a scale and are collinear. All of `y`'s energy is at
        // `l = 3`, so the first iterate keeps most of that column's 16
        // atoms, well below the 40 samples. One more sample, in the next
        // row, raises that column's rank to 2; at λ = 0.95 the first
        // iterate keeps three of its atoms, and rounding leaves some rows
        // a tiny positive last pivot that only the floor catches.
        let (rows, cols) = (16, 40);
        let dct = Dct2d::new(rows, cols);
        let (_, full) = sparse_signal(&dct, &[(3, 2.0), (2 * cols + 3, -1.0)]);
        for r in 0..rows {
            let row: Vec<usize> = (r * cols..(r + 1) * cols).collect();
            let mut row_plus_one = row.clone();
            row_plus_one.push((r + 1) % rows * cols + 7);
            row_plus_one.sort_unstable();
            for (indices, lambda) in [(row, 0.005), (row_plus_one, 0.95)] {
                let pattern = SamplePattern::from_indices(rows, cols, indices);
                let y = pattern.gather(&full);
                let op = MeasurementOperator::new(&dct, &pattern);
                let cfg = FistaConfig {
                    lambda,
                    max_iter: 1,
                    ..FistaConfig::default()
                };
                let res = fista(&op, &y, &cfg);
                assert!(
                    (3..y.len()).contains(&res.support_size),
                    "row {r}, λ {lambda}: support {}",
                    res.support_size
                );
                assert!(!res.refit, "row {r}, λ {lambda}");
                let (raw, _, _) = plain_fista_unrefitted(&op, &y, &cfg);
                assert_eq!(res.coefficients, raw, "row {r}, λ {lambda}");
            }
        }
    }

    /// Beck & Teboulle's FISTA without the restart, with the solver's
    /// relative λ and stopping rule and no refit. Returns the
    /// coefficients, the iteration count and the exit.
    fn plain_fista_unrefitted<O: SensingOperator>(
        op: &O,
        y: &[f64],
        cfg: &FistaConfig,
    ) -> (Vec<f64>, usize, FistaExit) {
        let n = op.signal_len();
        let mut scratch = op.make_scratch();
        let mut resid = vec![0.0; y.len()];
        let mut grad = vec![0.0; n];
        op.adjoint_into(y, &mut grad, &mut scratch);
        let lambda = cfg.lambda * grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let (mut s, mut z) = (vec![0.0; n], vec![0.0; n]);
        let mut t = 1.0f64;
        for it in 1..=cfg.max_iter {
            op.forward_into(&z, &mut resid, &mut scratch);
            for (r, &b) in resid.iter_mut().zip(y) {
                *r -= b;
            }
            op.adjoint_into(&resid, &mut grad, &mut scratch);
            let next: Vec<f64> = z
                .iter()
                .zip(&grad)
                .map(|(zi, g)| soft_threshold(zi - g, lambda))
                .collect();
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            let mut max_delta = 0.0f64;
            for ((zi, &ni), &si) in z.iter_mut().zip(&next).zip(&s) {
                *zi = ni + beta * (ni - si);
                max_delta = max_delta.max((ni - si).abs());
            }
            let max_mag = next.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            s = next;
            t = t_next;
            if max_delta <= cfg.tol * max_mag.max(1e-12) {
                return (s, it, FistaExit::Converged);
            }
        }
        (s, cfg.max_iter, FistaExit::IterationCap)
    }

    /// [`plain_fista_unrefitted`] followed by the dense refit: the
    /// reference the restarted, refitted solve must agree with.
    fn plain_fista<O: SensingOperator>(
        op: &O,
        y: &[f64],
        cfg: &FistaConfig,
    ) -> (Vec<f64>, usize, FistaExit) {
        let (mut s, iterations, exit) = plain_fista_unrefitted(op, y, cfg);
        dense_refit(op, y, &mut s);
        (s, iterations, exit)
    }

    /// The restarted solve lands on the reference's solution: the same
    /// support and coefficients within `1e-6·max|s|`, in no more
    /// iterations.
    fn assert_restart_matches_plain_fista<O: SensingOperator>(
        op: &O,
        y: &[f64],
        cfg: &FistaConfig,
    ) {
        let (plain, plain_iters, _) = plain_fista(op, y, cfg);
        let restarted = fista(op, y, cfg);
        assert!(
            restarted.iterations <= plain_iters,
            "restarted {} > plain {plain_iters} iterations",
            restarted.iterations
        );
        let scale = plain.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (a, b)) in restarted.coefficients.iter().zip(&plain).enumerate() {
            assert_eq!(*a != 0.0, *b != 0.0, "support differs at {i}: {a} vs {b}");
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "coef {i}: restarted {a} vs plain {b}"
            );
        }
    }

    #[test]
    fn restart_matches_plain_fista_on_every_kernel() {
        let spikes = [(0, 4.0), (1, -1.2), (17, 0.9), (40, 0.5), (66, -0.3)];
        let cfg = FistaConfig::default();
        let mut rng = StdRng::seed_from_u64(41);
        for dct in [
            DctNd::from_axes(vec![Dct1d::new_dense(12), Dct1d::new_dense(16)]),
            DctNd::from_axes(vec![Dct1d::new_fast(36), Dct1d::new_fast(40)]),
            DctNd::from_axes(vec![Dct1d::new_bluestein(33), Dct1d::new_bluestein(35)]),
        ] {
            let (_, full) = sparse_signal(&dct, &spikes);
            let pattern = NdSamplePattern::random(dct.shape(), 0.3, &mut rng);
            let y = pattern.gather(&full);
            assert_restart_matches_plain_fista(&MeasurementOperator::new(&dct, &pattern), &y, &cfg);
        }

        let dims = [3usize, 4, 5, 6];
        let dct = DctNd::new(&dims);
        let mut coeffs = vec![0.0; dct.len()];
        for &(i, v) in &spikes {
            coeffs[i * 5] = v;
        }
        let full = dct.inverse(&coeffs);
        let pattern = NdSamplePattern::random(&dims, 0.3, &mut rng);
        let y = pattern.gather(&full);
        assert_restart_matches_plain_fista(&MeasurementOperator::new(&dct, &pattern), &y, &cfg);
    }

    #[test]
    fn restart_converges_where_plain_fista_hits_the_cap() {
        // A compressible, not sparse, 24x30 landscape: 150 coefficients
        // decaying as k^-1.2, plus uniform noise, at 25% sampling.
        let dct = Dct2d::new(24, 30);
        let mut coeffs = vec![0.0; dct.len()];
        for k in 0..150usize {
            coeffs[k * 37 % 720] = 3.0 / (1.0 + k as f64).powf(1.2);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let full: Vec<f64> = dct
            .inverse(&coeffs)
            .iter()
            .map(|v| v + rng.gen_range(-0.01..0.01))
            .collect();
        let pattern = SamplePattern::random(24, 30, 0.25, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let cfg = FistaConfig::default();
        let (_, plain_iters, plain_exit) = plain_fista(&op, &y, &cfg);
        assert_eq!(plain_exit, FistaExit::IterationCap);
        assert_eq!(plain_iters, cfg.max_iter);
        let restarted = fista(&op, &y, &cfg);
        assert_eq!(restarted.exit, FistaExit::Converged);
        assert!(restarted.iterations < cfg.max_iter);
    }

    #[test]
    fn exit_reports_convergence_or_the_cap() {
        let dct = Dct2d::new(8, 8);
        let (_, full) = sparse_signal(&dct, &[(5, 1.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        let pattern = SamplePattern::random(8, 8, 0.5, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let done = fista(&op, &y, &FistaConfig::default());
        assert_eq!(done.exit, FistaExit::Converged);
        assert!(done.iterations < FistaConfig::default().max_iter);
        let capped = fista(
            &op,
            &y,
            &FistaConfig {
                max_iter: 3,
                ..FistaConfig::default()
            },
        );
        assert_eq!(capped.exit, FistaExit::IterationCap);
        assert_eq!(capped.iterations, 3);
    }

    #[test]
    fn support_size_reported() {
        let dct = Dct2d::new(8, 8);
        let (_, full) = sparse_signal(&dct, &[(5, 1.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        let pattern = SamplePattern::random(8, 8, 0.5, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(&op, &y, &FistaConfig::default());
        assert!(res.support_size >= 1);
        assert!(res.residual_norm < 0.05);
    }

    #[test]
    fn recovers_sparse_signal_through_nd_operator() {
        let dct = DctNd::new(&[6, 5, 7]);
        let mut coeffs = vec![0.0; dct.len()];
        coeffs[0] = 4.0;
        coeffs[12] = -1.5;
        coeffs[40] = 0.8;
        let full = dct.inverse(&coeffs);
        let mut rng = StdRng::seed_from_u64(17);
        let pattern = NdSamplePattern::random(&[6, 5, 7], 0.4, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let res = fista(&op, &y, &FistaConfig::default());
        for (i, (&c, &r)) in coeffs.iter().zip(res.coefficients.iter()).enumerate() {
            assert!((c - r).abs() < 0.05, "coef {i}: true {c} rec {r}");
        }
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_nonpositive_lambda() {
        let dct = Dct2d::new(4, 4);
        let pattern = SamplePattern::from_indices(4, 4, vec![0, 1]);
        let op = MeasurementOperator::new(&dct, &pattern);
        let _ = fista(
            &op,
            &[0.0, 0.0],
            &FistaConfig {
                lambda: 0.0,
                ..FistaConfig::default()
            },
        );
    }
}
