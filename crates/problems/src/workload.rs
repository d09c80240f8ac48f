//! Problem-kind abstraction: the workload axis of the pipeline.
//!
//! The paper evaluates OSCAR on three workload families (Tables 2–4):
//! QAOA on MaxCut / SK-model Ising instances, and molecular VQE (H2,
//! LiH) with UCCSD-style ansatze. [`ProblemKind`] names the family,
//! [`ProblemInstance`] pairs a concrete instance with its circuit depth,
//! and [`VqeEvaluator`] provides the statevector expectation/variance
//! evaluations that feed both exact landscapes and the noisy device
//! model.

use crate::ansatz::Ansatz;
use crate::ising::{IsingKind, IsingProblem};
use crate::molecules::{apply_hamiltonian, h2_hamiltonian, lih_hamiltonian};
use oscar_qsim::pauli::PauliSum;

/// The molecular VQE systems of paper Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Molecule {
    /// 2-qubit parity-mapped H2 with the 3-parameter UCCSD ansatz.
    H2,
    /// 4-qubit LiH with the 8-parameter UCCSD-style ansatz.
    LiH,
}

impl Molecule {
    /// Stable lowercase name (wire format / CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Molecule::H2 => "h2",
            Molecule::LiH => "lih",
        }
    }

    /// Parses a molecule name as accepted on the wire and CLI.
    pub fn by_name(name: &str) -> Option<Molecule> {
        match name {
            "h2" => Some(Molecule::H2),
            "lih" => Some(Molecule::LiH),
            _ => None,
        }
    }

    /// Number of qubits in the mapped Hamiltonian.
    pub fn num_qubits(self) -> usize {
        match self {
            Molecule::H2 => 2,
            Molecule::LiH => 4,
        }
    }

    /// Number of variational parameters of the reference ansatz.
    pub fn num_params(self) -> usize {
        match self {
            Molecule::H2 => 3,
            Molecule::LiH => 8,
        }
    }

    /// Builds the reference UCCSD-style ansatz for this molecule.
    pub fn ansatz(self) -> Ansatz {
        match self {
            Molecule::H2 => Ansatz::uccsd_h2(),
            Molecule::LiH => Ansatz::uccsd_lih(),
        }
    }

    /// The qubit Hamiltonian of this molecule.
    pub fn hamiltonian(self) -> PauliSum {
        match self {
            Molecule::H2 => h2_hamiltonian(),
            Molecule::LiH => lih_hamiltonian(),
        }
    }
}

/// The workload family a job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// QAOA on a MaxCut Ising instance.
    MaxCut,
    /// QAOA on a Sherrington–Kirkpatrick Ising instance.
    SkModel,
    /// Molecular VQE.
    Molecule(Molecule),
}

impl ProblemKind {
    /// Stable lowercase name (wire format / CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::MaxCut => "maxcut",
            ProblemKind::SkModel => "sk",
            ProblemKind::Molecule(m) => m.name(),
        }
    }

    /// Parses a problem-kind name: `maxcut`, `sk`, `h2`, or `lih`.
    pub fn by_name(name: &str) -> Option<ProblemKind> {
        match name {
            "maxcut" => Some(ProblemKind::MaxCut),
            "sk" => Some(ProblemKind::SkModel),
            other => Molecule::by_name(other).map(ProblemKind::Molecule),
        }
    }

    /// All recognized problem-kind names, for CLI help and sweeps.
    pub fn names() -> [&'static str; 4] {
        ["maxcut", "sk", "h2", "lih"]
    }

    /// True for the molecular VQE kinds.
    pub fn is_molecule(self) -> bool {
        matches!(self, ProblemKind::Molecule(_))
    }
}

/// A concrete workload instance: what the landscape is a landscape *of*.
#[derive(Clone, Debug)]
pub enum ProblemInstance {
    /// QAOA at a given depth on an Ising instance.
    Ising {
        /// The Ising problem (MaxCut or SK model).
        problem: IsingProblem,
        /// QAOA depth `p` (number of alternating layers).
        depth: usize,
    },
    /// Molecular VQE with the molecule's reference ansatz.
    Molecule(Molecule),
}

impl ProblemInstance {
    /// Wraps an Ising problem as a depth-`p` QAOA workload.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn ising(problem: IsingProblem, depth: usize) -> ProblemInstance {
        assert!(depth > 0, "QAOA depth must be at least 1");
        ProblemInstance::Ising { problem, depth }
    }

    /// Wraps a molecule as a VQE workload.
    pub fn molecule(molecule: Molecule) -> ProblemInstance {
        ProblemInstance::Molecule(molecule)
    }

    /// The workload family this instance belongs to.
    pub fn kind(&self) -> ProblemKind {
        match self {
            ProblemInstance::Ising { problem, .. } => match problem.kind() {
                IsingKind::MaxCut => ProblemKind::MaxCut,
                IsingKind::SherringtonKirkpatrick => ProblemKind::SkModel,
            },
            ProblemInstance::Molecule(m) => ProblemKind::Molecule(*m),
        }
    }

    /// QAOA depth for Ising workloads; 1 for molecules (a VQE circuit has
    /// a single ansatz "layer").
    pub fn depth(&self) -> usize {
        match self {
            ProblemInstance::Ising { depth, .. } => *depth,
            ProblemInstance::Molecule(_) => 1,
        }
    }

    /// Number of variational parameters: `2p` for QAOA, the ansatz
    /// parameter count for molecules.
    pub fn num_params(&self) -> usize {
        match self {
            ProblemInstance::Ising { depth, .. } => 2 * depth,
            ProblemInstance::Molecule(m) => m.num_params(),
        }
    }

    /// Number of qubits of the underlying register.
    pub fn num_qubits(&self) -> usize {
        match self {
            ProblemInstance::Ising { problem, .. } => problem.num_qubits(),
            ProblemInstance::Molecule(m) => m.num_qubits(),
        }
    }

    /// Expectation value of the observable in the maximally mixed state —
    /// the depolarizing fixed point used by the noise model and readout
    /// mitigation. For Ising this is the mean of the cost diagonal; for
    /// molecules every Pauli term is traceless, leaving the constant.
    pub fn mixed_mean(&self) -> f64 {
        match self {
            ProblemInstance::Ising { problem, .. } => problem.qaoa_evaluator().diagonal_mean(),
            ProblemInstance::Molecule(m) => m.hamiltonian().constant(),
        }
    }

    /// Builds the variational circuit for this workload (QAOA at the
    /// instance depth, or the molecule's reference ansatz).
    pub fn ansatz(&self) -> Ansatz {
        match self {
            ProblemInstance::Ising { problem, depth } => Ansatz::qaoa(problem, *depth),
            ProblemInstance::Molecule(m) => m.ansatz(),
        }
    }
}

/// Statevector evaluator for a molecular VQE workload: pairs the
/// reference ansatz with the molecule's Hamiltonian and produces the
/// `(expectation, variance)` moments needed by the shot-noise model
/// (the VQE analogue of [`oscar_qsim::qaoa::QaoaEvaluator::moments`]).
#[derive(Clone, Debug)]
pub struct VqeEvaluator {
    ansatz: Ansatz,
    hamiltonian: PauliSum,
}

impl VqeEvaluator {
    /// Builds the evaluator for a molecule.
    pub fn new(molecule: Molecule) -> VqeEvaluator {
        VqeEvaluator {
            ansatz: molecule.ansatz(),
            hamiltonian: molecule.hamiltonian(),
        }
    }

    /// The underlying ansatz.
    pub fn ansatz(&self) -> &Ansatz {
        &self.ansatz
    }

    /// The observable being minimized.
    pub fn hamiltonian(&self) -> &PauliSum {
        &self.hamiltonian
    }

    /// `<ψ(θ)| H |ψ(θ)>`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the ansatz parameter count.
    pub fn expectation(&self, params: &[f64]) -> f64 {
        self.ansatz.expectation(params, &self.hamiltonian)
    }

    /// Energy expectation and variance `<H²> - <H>²` at `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the ansatz parameter count.
    pub fn moments(&self, params: &[f64]) -> (f64, f64) {
        let psi = self.ansatz.circuit().run(params);
        let e = psi.expectation(&self.hamiltonian);
        let hv = apply_hamiltonian(&self.hamiltonian, psi.amplitudes());
        let h_sq: f64 = hv.iter().map(|a| a.norm_sqr()).sum();
        (e, (h_sq - e * e).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecules::ground_state_energy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_names_round_trip() {
        for name in ProblemKind::names() {
            let kind = ProblemKind::by_name(name).expect("known name");
            assert_eq!(kind.name(), name);
        }
        assert!(ProblemKind::by_name("ising").is_none());
    }

    #[test]
    fn instance_metadata_matches_paper_tables() {
        let mut rng = StdRng::seed_from_u64(3);
        let ising = ProblemInstance::ising(IsingProblem::random_3_regular(8, &mut rng), 2);
        assert_eq!(ising.kind(), ProblemKind::MaxCut);
        assert_eq!(ising.num_params(), 4);
        assert_eq!(ising.depth(), 2);
        assert_eq!(ising.num_qubits(), 8);

        let h2 = ProblemInstance::molecule(Molecule::H2);
        assert_eq!(h2.kind().name(), "h2");
        assert_eq!(h2.num_params(), 3);
        assert_eq!(h2.num_qubits(), 2);
        assert_eq!(h2.ansatz().num_params(), 3);

        let lih = ProblemInstance::molecule(Molecule::LiH);
        assert_eq!(lih.num_params(), 8);
        assert_eq!(lih.num_qubits(), 4);
    }

    #[test]
    fn molecule_mixed_mean_is_hamiltonian_constant() {
        let h2 = ProblemInstance::molecule(Molecule::H2);
        assert_eq!(h2.mixed_mean(), Molecule::H2.hamiltonian().constant());
        // Cross-check against the definition: tr(H)/dim, i.e. the average
        // of <b|H|b> over the computational basis.
        let h = Molecule::H2.hamiltonian();
        let mut trace = 4.0 * h.constant();
        for term in h.terms() {
            for b in 0u64..4 {
                let (t, ph) = term.apply_basis(b);
                if t == b {
                    trace += term.coeff() * ph.re;
                }
            }
        }
        assert!((h2.mixed_mean() - trace / 4.0).abs() < 1e-12);
    }

    #[test]
    fn vqe_moments_match_direct_evaluation() {
        let eval = VqeEvaluator::new(Molecule::H2);
        let params = [0.12, -0.31, 0.57];
        let (e, var) = eval.moments(&params);
        assert!((e - eval.expectation(&params)).abs() < 1e-12);
        assert!(var >= 0.0);
        // In an eigenstate the variance vanishes; elsewhere it is
        // strictly positive. The HF reference is not an eigenstate of
        // the full H2 Hamiltonian (XX/YY terms couple it out).
        let (_, var_hf) = eval.moments(&[0.0, 0.0, 0.0]);
        assert!(var_hf > 1e-6, "HF variance {var_hf}");
    }

    #[test]
    fn vqe_expectation_bounded_below_by_ground_state() {
        let eval = VqeEvaluator::new(Molecule::LiH);
        let gs = ground_state_energy(eval.hamiltonian());
        let params: Vec<f64> = (0..8).map(|k| 0.1 * k as f64 - 0.3).collect();
        let (e, var) = eval.moments(&params);
        assert!(e >= gs - 1e-9, "energy {e} below ground {gs}");
        assert!(var.is_finite());
    }

    #[test]
    #[should_panic(expected = "QAOA depth must be at least 1")]
    fn rejects_zero_depth_instance() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ProblemInstance::ising(IsingProblem::random_3_regular(4, &mut rng), 0);
    }
}
