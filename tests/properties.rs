//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use oscar::core::prelude::*;
use oscar::cs::prelude::*;
use oscar::qsim::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DCT forward→inverse is the identity for arbitrary signals.
    #[test]
    fn dct1d_roundtrip(values in prop::collection::vec(-100.0f64..100.0, 2..64)) {
        let dct = Dct1d::new(values.len());
        let back = dct.inverse(&dct.forward(&values));
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Parseval: the orthonormal DCT conserves energy.
    #[test]
    fn dct1d_parseval(values in prop::collection::vec(-10.0f64..10.0, 2..64)) {
        let dct = Dct1d::new(values.len());
        let coeffs = dct.forward(&values);
        let e_time: f64 = values.iter().map(|v| v * v).sum();
        let e_freq: f64 = coeffs.iter().map(|c| c * c).sum();
        prop_assert!((e_time - e_freq).abs() < 1e-7 * (1.0 + e_time));
    }

    /// 2-D DCT roundtrip on arbitrary rectangular grids.
    #[test]
    fn dct2d_roundtrip(rows in 2usize..12, cols in 2usize..12, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let dct = Dct2d::new(rows, cols);
        let back = dct.inverse(&dct.forward(&values));
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Random sampling patterns produce distinct, in-range indices with
    /// the requested count.
    #[test]
    fn sample_pattern_valid(rows in 2usize..20, cols in 2usize..20, frac in 0.05f64..1.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = SamplePattern::random(rows, cols, frac, &mut rng);
        let expect = ((frac * (rows * cols) as f64).ceil() as usize).clamp(1, rows * cols);
        prop_assert_eq!(p.num_samples(), expect);
        prop_assert!(p.indices().windows(2).all(|w| w[0] < w[1]));
        prop_assert!(*p.indices().last().unwrap() < rows * cols);
    }

    /// FISTA recovers 2-sparse DCT spectra from 40% of samples.
    #[test]
    fn fista_recovers_sparse(i in 0usize..63, j in 64usize..100, a in 0.5f64..5.0, b in -5.0f64..-0.5, seed in 0u64..200) {
        use rand::SeedableRng;
        let dct = Dct2d::new(10, 10);
        let mut coeffs = vec![0.0; 100];
        coeffs[i] = a;
        coeffs[j] = b;
        let full = dct.inverse(&coeffs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pattern = SamplePattern::random(10, 10, 0.4, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let sol = fista(&op, &y, &FistaConfig::default());
        let recon = dct.inverse(&sol.coefficients);
        let err: f64 = recon.iter().zip(&full).map(|(x, t)| (x - t).abs()).sum::<f64>() / 100.0;
        prop_assert!(err < 0.05, "mean abs error {}", err);
    }

    /// Quantum circuits preserve the state norm for arbitrary gate
    /// sequences and angles.
    #[test]
    fn random_circuits_preserve_norm(
        seed in 0u64..500,
        n_ops in 1usize..30,
        n in 2usize..5,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut psi = StateVector::plus_state(n);
        for _ in 0..n_ops {
            let q = rng.gen_range(0..n);
            let theta = rng.gen_range(-3.0..3.0);
            match rng.gen_range(0..7) {
                0 => psi.h(q),
                1 => psi.rx(q, theta),
                2 => psi.ry(q, theta),
                3 => psi.rz(q, theta),
                4 => {
                    let r = (q + 1) % n;
                    psi.cnot(q, r);
                }
                5 => {
                    let r = (q + 1) % n;
                    psi.cz(q, r);
                }
                _ => {
                    let r = (q + 1) % n;
                    psi.rzz(q, r, theta);
                }
            }
        }
        prop_assert!((psi.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Pauli strings are involutions: applying one twice restores the
    /// state up to machine precision.
    #[test]
    fn pauli_strings_are_involutions(seed in 0u64..500, n in 1usize..5) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ops: Vec<Pauli> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => Pauli::I,
                1 => Pauli::X,
                2 => Pauli::Y,
                _ => Pauli::Z,
            })
            .collect();
        let p = PauliString::new(&ops, 1.0);
        let mut psi = StateVector::plus_state(n);
        psi.ry(0, 0.37);
        let reference = psi.clone();
        psi.apply_pauli(&p);
        psi.apply_pauli(&p);
        for (a, b) in psi.amplitudes().iter().zip(reference.amplitudes()) {
            prop_assert!((*a - *b).norm() < 1e-10);
        }
    }

    /// The QAOA landscape is invariant under (β,γ) → (−β,−γ) for real
    /// cost diagonals (time-reversal symmetry).
    #[test]
    fn qaoa_landscape_symmetry(beta in -1.5f64..1.5, gamma in -3.0f64..3.0, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let problem = oscar::problems::ising::IsingProblem::random_3_regular(6, &mut rng);
        let eval = problem.qaoa_evaluator();
        let e1 = eval.expectation(&[beta], &[gamma]);
        let e2 = eval.expectation(&[-beta], &[-gamma]);
        prop_assert!((e1 - e2).abs() < 1e-9);
    }

    /// NRMSE is non-negative, zero only for identical landscapes, and
    /// scale-invariant.
    #[test]
    fn nrmse_properties(seed in 0u64..500, scale in 0.1f64..10.0) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..50).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let y: Vec<f64> = x.iter().map(|v| v + rng.gen_range(-0.1..0.1)).collect();
        let e = nrmse(&x, &y);
        prop_assert!(e >= 0.0);
        prop_assert!((nrmse(&x, &x)).abs() < 1e-15);
        let xs: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let ys: Vec<f64> = y.iter().map(|v| v * scale).collect();
        prop_assert!((nrmse(&xs, &ys) - e).abs() < 1e-9);
    }

    /// Bivariate splines reproduce every grid knot exactly.
    #[test]
    fn spline_interpolates_knots(seed in 0u64..200, rows in 4usize..10, cols in 4usize..10) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let grid = Grid2d::small_p1(rows, cols);
        let l = Landscape::generate(grid, |_, _| rng.gen_range(-2.0..2.0));
        let spline = BivariateSpline::fit(&l);
        for r in 0..rows {
            for c in 0..cols {
                let v = spline.eval(grid.beta.value(r), grid.gamma.value(c));
                prop_assert!((v - l.at(r, c)).abs() < 1e-8);
            }
        }
    }

    /// Gathering then reconstructing at 100% sampling reproduces any
    /// landscape (information-preservation sanity).
    #[test]
    fn full_sampling_reconstruction_is_lossless(seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let grid = Grid2d::small_p1(6, 8);
        let truth = Landscape::generate(grid, |b, g| (2.0*b).sin() + (g).cos() + rng.gen_range(-0.01..0.01));
        let pattern = SamplePattern::from_indices(6, 8, (0..48).collect());
        let samples = pattern.gather(truth.values());
        let oscar = Reconstructor::new(oscar::cs::fista::FistaConfig {
            lambda: 1e-6,
            max_iter: 3000,
            ..Default::default()
        });
        let (recon, _) = oscar.reconstruct(&grid, &pattern, &samples);
        prop_assert!(nrmse(truth.values(), recon.values()) < 0.02);
    }

    /// ZNE weights always sum to one (interpolation at zero of a constant
    /// is the constant), for arbitrary increasing scale factors.
    #[test]
    fn zne_weights_sum_to_one(c1 in 0.5f64..1.5, d1 in 0.1f64..2.0, d2 in 0.1f64..2.0) {
        use oscar::mitigation::zne::{Extrapolation, ZneConfig};
        let factors = vec![c1, c1 + d1, c1 + d1 + d2];
        for extrapolation in [Extrapolation::Richardson, Extrapolation::Linear] {
            let zne = ZneConfig::new(factors.clone(), extrapolation);
            let s: f64 = zne.weights().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9, "{:?}: {}", extrapolation, s);
        }
    }
}
