//! Property-based tests for the quantum simulator substrate.

use oscar_qsim::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-qubit rotations satisfy RX(a) RX(b) = RX(a+b).
    #[test]
    fn rx_composes_additively(a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let mut p1 = StateVector::plus_state(2);
        p1.rx(0, a);
        p1.rx(0, b);
        let mut p2 = StateVector::plus_state(2);
        p2.rx(0, a + b);
        for (x, y) in p1.amplitudes().iter().zip(p2.amplitudes()) {
            prop_assert!((*x - *y).norm() < 1e-10);
        }
    }

    /// RZ commutes with RZZ (both diagonal).
    #[test]
    fn diagonal_gates_commute(t1 in -3.0f64..3.0, t2 in -3.0f64..3.0) {
        let mut a = StateVector::plus_state(3);
        a.rz(0, t1);
        a.rzz(0, 2, t2);
        let mut b = StateVector::plus_state(3);
        b.rzz(0, 2, t2);
        b.rz(0, t1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((*x - *y).norm() < 1e-12);
        }
    }

    /// Expectation of a Hermitian Pauli sum is always real-bounded by the
    /// sum of |coefficients|.
    #[test]
    fn expectation_bounded_by_one_norm(seed in 0u64..300, theta in -3.0f64..3.0) {
        use rand::SeedableRng;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 3;
        let labels = ["XYZ", "ZZI", "IXX", "YIY"];
        let mut terms = Vec::new();
        for l in labels {
            terms.push(PauliString::parse(l, rng.gen_range(-2.0..2.0)).unwrap());
        }
        let h = PauliSum::from_strings(terms);
        let mut psi = StateVector::plus_state(n);
        psi.ry(0, theta);
        psi.cnot(0, 1);
        psi.rx(2, theta * 0.5);
        let e = psi.expectation(&h);
        prop_assert!(e.abs() <= h.one_norm() + 1e-9);
    }

    /// Gate folding preserves circuit semantics for every odd/even factor.
    #[test]
    fn folding_is_semantically_identity(
        factor in 1usize..6,
        theta in -2.0f64..2.0,
    ) {
        let mut c = Circuit::new(2, 1);
        c.push(Op::H(0));
        c.push(Op::Rzz(0, 1, Param::Var(0)));
        c.push(Op::Rx(1, Param::Scaled(0, 0.5)));
        let base = c.run(&[theta]);
        let folded = c.folded(factor).run(&[theta]);
        for (x, y) in base.amplitudes().iter().zip(folded.amplitudes()) {
            prop_assert!((*x - *y).norm() < 1e-9);
        }
    }

    /// Sampling frequencies converge to Born-rule probabilities.
    #[test]
    fn sampling_matches_born_rule(theta in 0.2f64..2.9) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut psi = StateVector::zero_state(1);
        psi.ry(0, theta);
        let p1 = psi.probabilities()[1];
        let outcomes = psi.sample(20_000, &mut rng);
        let f1 = outcomes.iter().filter(|&&o| o == 1).count() as f64 / 20_000.0;
        prop_assert!((f1 - p1).abs() < 0.02, "f1 {} vs p1 {}", f1, p1);
    }

    /// The trajectory noise executor preserves norm for any rates.
    #[test]
    fn trajectories_preserve_norm(p1 in 0.0f64..0.5, p2 in 0.0f64..0.5, seed in 0u64..100) {
        use rand::SeedableRng;
        use oscar_qsim::noise::{run_trajectory, DepolarizingNoise};
        let mut c = Circuit::new(3, 0);
        c.push(Op::H(0));
        c.push(Op::Cnot(0, 1));
        c.push(Op::Cnot(1, 2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let psi = run_trajectory(&c, &[], DepolarizingNoise::new(p1, p2), &mut rng);
        prop_assert!((psi.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// QAOA probabilities always form a distribution.
    #[test]
    fn qaoa_probabilities_normalized(beta in -1.5f64..1.5, gamma in -3.0f64..3.0) {
        let diag = vec![0.0, -1.0, -1.0, 0.0];
        let eval = QaoaEvaluator::new(2, diag);
        let p = eval.probabilities(&[beta], &[gamma]);
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
    }
}
