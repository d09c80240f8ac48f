//! Plain ISTA (no momentum) — the baseline FISTA accelerates.
//!
//! Kept as a separate solver so the convergence benefit of FISTA's
//! momentum is measurable (`recovery_ablation` bench) and so users with
//! pathological operators have the unconditionally-monotone option.

use crate::fista::{soft_threshold, FistaConfig, FistaExit, FistaResult};
use crate::measure::MeasurementOperator;
use crate::workspace::Workspace;

/// Runs ISTA with the same configuration type as FISTA.
///
/// Identical proximal-gradient iteration, but without the Nesterov
/// momentum sequence — O(1/k) convergence instead of O(1/k²).
///
/// # Panics
///
/// Panics under the same conditions as [`crate::fista::fista`].
pub fn ista(op: &MeasurementOperator<'_>, y: &[f64], cfg: &FistaConfig) -> FistaResult {
    let mut ws = Workspace::for_operator(op);
    ista_with(op, y, cfg, &mut ws)
}

/// Runs ISTA through a caller-owned [`Workspace`]; iterations are
/// heap-allocation-free once the workspace fits the problem shape.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::fista::fista`].
pub fn ista_with(
    op: &MeasurementOperator<'_>,
    y: &[f64],
    cfg: &FistaConfig,
    ws: &mut Workspace,
) -> FistaResult {
    assert_eq!(y.len(), op.measurement_len(), "measurement length mismatch");
    assert!(cfg.max_iter > 0, "max_iter must be positive");
    assert!(cfg.lambda > 0.0, "lambda must be positive");
    ws.ensure(op);

    let n = op.signal_len();
    let lambda = if cfg.relative_lambda {
        op.adjoint_into(y, &mut ws.grad, &mut ws.op);
        let max_corr = ws.grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (cfg.lambda * max_corr).max(f64::MIN_POSITIVE)
    } else {
        cfg.lambda
    };

    ws.s.fill(0.0);
    let mut iterations = 0;
    let mut exit = FistaExit::IterationCap;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        op.forward_into(&ws.s, &mut ws.az, &mut ws.op);
        for ((r, &a), &b) in ws.resid.iter_mut().zip(ws.az.iter()).zip(y.iter()) {
            *r = a - b;
        }
        op.adjoint_into(&ws.resid, &mut ws.grad, &mut ws.op);
        let mut max_delta = 0.0f64;
        let mut max_mag = 0.0f64;
        for i in 0..n {
            let next = soft_threshold(ws.s[i] - ws.grad[i], lambda);
            max_delta = max_delta.max((next - ws.s[i]).abs());
            max_mag = max_mag.max(next.abs());
            ws.s[i] = next;
        }
        if max_delta <= cfg.tol * max_mag.max(1e-12) {
            exit = FistaExit::Converged;
            break;
        }
    }

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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::Dct2d;
    use crate::fista::fista;
    use crate::measure::SamplePattern;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dct2d, SamplePattern, Vec<f64>, Vec<f64>) {
        let dct = Dct2d::new(10, 10);
        let mut coeffs = vec![0.0; 100];
        coeffs[3] = 2.0;
        coeffs[40] = -1.0;
        let full = dct.inverse(&coeffs);
        let mut rng = StdRng::seed_from_u64(9);
        let pattern = SamplePattern::random(10, 10, 0.4, &mut rng);
        let y = pattern.gather(&full);
        (dct, pattern, y, coeffs)
    }

    #[test]
    fn ista_recovers_sparse_signal() {
        let (dct, pattern, y, coeffs) = setup();
        let op = MeasurementOperator::new(&dct, &pattern);
        let cfg = FistaConfig {
            max_iter: 3000,
            ..FistaConfig::default()
        };
        let res = ista(&op, &y, &cfg);
        for (i, (&c, &r)) in coeffs.iter().zip(res.coefficients.iter()).enumerate() {
            assert!((c - r).abs() < 0.1, "coef {i}: {c} vs {r}");
        }
    }

    #[test]
    fn fista_converges_in_fewer_iterations() {
        let (dct, pattern, y, _) = setup();
        let op = MeasurementOperator::new(&dct, &pattern);
        let cfg = FistaConfig {
            max_iter: 5000,
            tol: 1e-9,
            debias_iters: 0,
            ..FistaConfig::default()
        };
        let slow = ista(&op, &y, &cfg);
        let fast = fista(&op, &y, &cfg);
        assert!(
            fast.iterations < slow.iterations,
            "FISTA {} should beat ISTA {}",
            fast.iterations,
            slow.iterations
        );
    }

    #[test]
    fn ista_monotone_residual() {
        // ISTA is monotone in the objective; check the residual after more
        // iterations is no worse.
        let (dct, pattern, y, _) = setup();
        let op = MeasurementOperator::new(&dct, &pattern);
        let short = ista(
            &op,
            &y,
            &FistaConfig {
                max_iter: 20,
                tol: 0.0,
                debias_iters: 0,
                ..FistaConfig::default()
            },
        );
        let long = ista(
            &op,
            &y,
            &FistaConfig {
                max_iter: 400,
                tol: 0.0,
                debias_iters: 0,
                ..FistaConfig::default()
            },
        );
        assert!(long.residual_norm <= short.residual_norm + 1e-12);
    }
}
