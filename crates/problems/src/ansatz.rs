//! Ansatz library: QAOA, hardware-efficient Two-local, and UCCSD-style
//! circuits (the three families of paper Tables 2–4).

use crate::ising::IsingProblem;
use oscar_qsim::circuit::{Circuit, Op, Param};
use oscar_qsim::pauli::PauliString;

/// A parameterized ansatz: a circuit plus metadata about its parameters.
#[derive(Clone, Debug)]
pub struct Ansatz {
    name: String,
    circuit: Circuit,
}

impl Ansatz {
    /// The ansatz family name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying parameterized circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of variational parameters.
    pub fn num_params(&self) -> usize {
        self.circuit.num_params()
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Builds the QAOA ansatz for an Ising problem with `p` layers.
    ///
    /// Parameter layout: `[gamma_1..gamma_p, beta_1..beta_p]` (2p total).
    /// Each layer applies `e^{-i γ C}` via per-edge `Rzz` plus `RX(2β)`
    /// mixers, matching the convention of
    /// [`oscar_qsim::qaoa::QaoaEvaluator`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn qaoa(problem: &IsingProblem, p: usize) -> Ansatz {
        assert!(p > 0, "QAOA depth must be at least 1");
        let n = problem.num_qubits();
        let mut c = Circuit::new(n, 2 * p);
        for q in 0..n {
            c.push(Op::H(q));
        }
        for layer in 0..p {
            let gamma = layer;
            let beta = p + layer;
            for &(a, b, w) in problem.graph().edges() {
                // MaxCut: cost per edge = -w [cut] = w/2 (ZZ - 1);
                // phase e^{-i γ (w/2) ZZ} = Rzz(w γ). SK: cost = w ZZ ->
                // Rzz(2 w γ).
                let scale = match problem.kind() {
                    crate::ising::IsingKind::MaxCut => w,
                    crate::ising::IsingKind::SherringtonKirkpatrick => 2.0 * w,
                };
                c.push(Op::Rzz(a, b, Param::Scaled(gamma, scale)));
            }
            for q in 0..n {
                c.push(Op::Rx(q, Param::Scaled(beta, 2.0)));
            }
        }
        Ansatz {
            name: format!("QAOA(p={p})"),
            circuit: c,
        }
    }

    /// The hardware-efficient Two-local ansatz: alternating layers of RY
    /// rotations on every qubit and a linear chain of CZ entanglers,
    /// finishing with a final rotation layer.
    ///
    /// Parameters: `n * (reps + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn two_local(n: usize, reps: usize) -> Ansatz {
        assert!(n > 0, "need at least one qubit");
        let num_params = n * (reps + 1);
        let mut c = Circuit::new(n, num_params);
        let mut next = 0usize;
        for rep in 0..=reps {
            for q in 0..n {
                c.push(Op::Ry(q, Param::Var(next)));
                next += 1;
            }
            if rep < reps {
                for q in 0..n.saturating_sub(1) {
                    c.push(Op::Cz(q, q + 1));
                }
            }
        }
        Ansatz {
            name: format!("TwoLocal(reps={reps})"),
            circuit: c,
        }
    }

    /// A UCCSD-style ansatz: a Hartree–Fock-like reference state followed
    /// by parameterized Pauli-exponential excitation generators.
    ///
    /// `reference` flags which qubits start in `|1>`; each generator in
    /// `generators` contributes `exp(-i θ_k/2 P_k)` with its own parameter.
    ///
    /// # Panics
    ///
    /// Panics if generators act on a different register size or the list is
    /// empty.
    pub fn uccsd(n: usize, reference: &[usize], generators: Vec<PauliString>) -> Ansatz {
        assert!(!generators.is_empty(), "need at least one generator");
        assert!(
            generators.iter().all(|g| g.num_qubits() == n),
            "generator register size mismatch"
        );
        let mut c = Circuit::new(n, generators.len());
        for &q in reference {
            c.push(Op::X(q));
        }
        for (k, g) in generators.into_iter().enumerate() {
            c.push(Op::PauliRot(g, Param::Var(k)));
        }
        Ansatz {
            name: "UCCSD".to_string(),
            circuit: c,
        }
    }

    /// The 3-parameter UCCSD ansatz for the 2-qubit H2 Hamiltonian
    /// (paper Table 3: "H2, UCCSD, 3 parameters").
    ///
    /// Generators: the two single-excitation components `X0 Y1`, `Y0 X1`
    /// and the double-excitation component `Y0 Y1`... — for the
    /// parity-mapped 2-qubit problem the YX/XY pair plus an entangling YY
    /// term spans the relevant manifold.
    pub fn uccsd_h2() -> Ansatz {
        let gens = vec![
            PauliString::parse("XY", 1.0).expect("valid"),
            PauliString::parse("YX", 1.0).expect("valid"),
            PauliString::parse("YY", 1.0).expect("valid"),
        ];
        Ansatz::uccsd(2, &[0], gens)
    }

    /// An 8-parameter UCCSD-style ansatz for the 4-qubit LiH Hamiltonian
    /// (paper Table 3: "LiH, UCCSD, 8 parameters"): four single-excitation
    /// and four double-excitation generators.
    pub fn uccsd_lih() -> Ansatz {
        let p = |s: &str| PauliString::parse(s, 1.0).expect("valid");
        let gens = vec![
            // Singles (occupied 0,1 -> virtual 2,3), Jordan-Wigner style.
            p("XZYI"),
            p("YZXI"),
            p("IXZY"),
            p("IYZX"),
            // Doubles.
            p("XXYY"),
            p("YYXX"),
            p("XYYX"),
            p("YXXY"),
        ];
        Ansatz::uccsd(4, &[0, 1], gens)
    }

    /// Evaluates the ansatz expectation value against a Pauli-sum
    /// observable: `<ψ(θ)| H |ψ(θ)>`.
    ///
    /// # Panics
    ///
    /// Panics if parameter or register sizes mismatch.
    pub fn expectation(&self, params: &[f64], observable: &oscar_qsim::pauli::PauliSum) -> f64 {
        let psi = self.circuit.run(params);
        psi.expectation(observable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::molecules::{ground_state_energy, h2_hamiltonian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qaoa_ansatz_matches_fast_evaluator() {
        let mut rng = StdRng::seed_from_u64(4);
        let prob = IsingProblem::random_3_regular(6, &mut rng);
        let ansatz = Ansatz::qaoa(&prob, 2);
        assert_eq!(ansatz.num_params(), 4);
        let eval = prob.qaoa_evaluator();
        let gammas = [0.37, -0.61];
        let betas = [0.22, 0.95];
        let params = [gammas[0], gammas[1], betas[0], betas[1]];
        let via_circuit = ansatz.expectation(&params, &prob.hamiltonian());
        let via_fast = eval.expectation(&betas, &gammas);
        assert!(
            (via_circuit - via_fast).abs() < 1e-9,
            "{via_circuit} vs {via_fast}"
        );
    }

    #[test]
    fn qaoa_sk_matches_fast_evaluator() {
        let mut rng = StdRng::seed_from_u64(8);
        let prob = IsingProblem::sk_model(5, &mut rng);
        let ansatz = Ansatz::qaoa(&prob, 1);
        let eval = prob.qaoa_evaluator();
        let params = [0.41, -0.18]; // [gamma, beta]
        let via_circuit = ansatz.expectation(&params, &prob.hamiltonian());
        let via_fast = eval.expectation(&[params[1]], &[params[0]]);
        assert!(
            (via_circuit - via_fast).abs() < 1e-9,
            "{via_circuit} vs {via_fast}"
        );
    }

    #[test]
    fn two_local_parameter_count() {
        let a = Ansatz::two_local(4, 2);
        assert_eq!(a.num_params(), 12);
        assert_eq!(a.num_qubits(), 4);
    }

    #[test]
    fn two_local_zero_params_give_reference_energy() {
        // All-zero RY angles leave |0...0> unchanged.
        let a = Ansatz::two_local(2, 1);
        let h = h2_hamiltonian();
        let e = a.expectation(&vec![0.0; a.num_params()], &h);
        let mut psi = oscar_qsim::state::StateVector::zero_state(2);
        let direct = psi.expectation(&h);
        let _ = &mut psi;
        assert!((e - direct).abs() < 1e-12);
    }

    #[test]
    fn two_local_can_reach_h2_ground_state() {
        // Coarse grid search over 4 parameters of a reps=1 two-local ansatz
        // should get within chemical-accuracy-ish range of the ground
        // state (this ansatz is expressive enough for 2 qubits).
        let a = Ansatz::two_local(2, 1);
        let h = h2_hamiltonian();
        let gs = ground_state_energy(&h);
        let grid: Vec<f64> = (0..6).map(|i| -1.5 + i as f64 * 0.6).collect();
        let mut best = f64::INFINITY;
        for &p0 in &grid {
            for &p1 in &grid {
                for &p2 in &grid {
                    for &p3 in &grid {
                        best = best.min(a.expectation(&[p0, p1, p2, p3], &h));
                    }
                }
            }
        }
        assert!(best - gs < 0.1, "best {best} vs ground {gs}");
    }

    #[test]
    fn uccsd_h2_zero_params_is_hf() {
        let a = Ansatz::uccsd_h2();
        assert_eq!(a.num_params(), 3);
        let h = h2_hamiltonian();
        let e0 = a.expectation(&[0.0, 0.0, 0.0], &h);
        // HF reference |01> energy.
        let mut psi = oscar_qsim::state::StateVector::zero_state(2);
        psi.x(0);
        assert!((e0 - psi.expectation(&h)).abs() < 1e-12);
    }

    #[test]
    fn uccsd_h2_improves_on_hf() {
        let a = Ansatz::uccsd_h2();
        let h = h2_hamiltonian();
        let e_hf = a.expectation(&[0.0, 0.0, 0.0], &h);
        // Scan the double-excitation parameter.
        let mut best = f64::INFINITY;
        for k in -40..=40 {
            let t = k as f64 * 0.05;
            for g in 0..3 {
                let mut params = [0.0; 3];
                params[g] = t;
                best = best.min(a.expectation(&params, &h));
            }
        }
        assert!(best < e_hf - 1e-4, "UCCSD best {best} vs HF {e_hf}");
    }

    #[test]
    fn uccsd_lih_has_eight_params() {
        let a = Ansatz::uccsd_lih();
        assert_eq!(a.num_params(), 8);
        assert_eq!(a.num_qubits(), 4);
    }

    #[test]
    fn qaoa_depth_sets_param_count() {
        let prob = IsingProblem::max_cut(Graph::ring(4, 1.0));
        for p in 1..=3 {
            assert_eq!(Ansatz::qaoa(&prob, p).num_params(), 2 * p);
        }
    }

    #[test]
    #[should_panic(expected = "QAOA depth must be at least 1")]
    fn rejects_zero_depth() {
        let prob = IsingProblem::max_cut(Graph::ring(4, 1.0));
        let _ = Ansatz::qaoa(&prob, 0);
    }
}
