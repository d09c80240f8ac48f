//! Parameterized quantum circuits.
//!
//! A [`Circuit`] is an ordered list of [`Op`]s, some of which reference
//! entries of a parameter vector through [`Param`]. Binding a concrete
//! parameter vector and running against a [`StateVector`] executes the
//! circuit; [`GateCounts`] summarizes the one- and two-qubit gate volume,
//! which downstream noise models use.

use crate::pauli::PauliString;
use crate::state::StateVector;

/// A (possibly parameterized) rotation angle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Param {
    /// A fixed angle.
    Fixed(f64),
    /// `params[index]`.
    Var(usize),
    /// `scale * params[index]` — lets e.g. QAOA use `2*beta` without an
    /// auxiliary parameter.
    Scaled(usize, f64),
}

impl Param {
    /// Resolves the angle against a bound parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of bounds.
    pub fn resolve(&self, params: &[f64]) -> f64 {
        match *self {
            Param::Fixed(v) => v,
            Param::Var(i) => params[i],
            Param::Scaled(i, k) => k * params[i],
        }
    }

    /// The referenced parameter index, if any.
    pub fn var_index(&self) -> Option<usize> {
        match *self {
            Param::Fixed(_) => None,
            Param::Var(i) | Param::Scaled(i, _) => Some(i),
        }
    }
}

impl From<f64> for Param {
    fn from(v: f64) -> Self {
        Param::Fixed(v)
    }
}

/// A circuit operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// X rotation.
    Rx(usize, Param),
    /// Y rotation.
    Ry(usize, Param),
    /// Z rotation.
    Rz(usize, Param),
    /// Controlled-NOT (control, target).
    Cnot(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// ZZ rotation on a qubit pair.
    Rzz(usize, usize, Param),
    /// `exp(-i theta/2 P)` for an arbitrary Pauli string.
    PauliRot(PauliString, Param),
}

impl Op {
    /// Qubits this operation touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Op::H(q) | Op::X(q) | Op::Y(q) | Op::Z(q) => vec![*q],
            Op::Rx(q, _) | Op::Ry(q, _) | Op::Rz(q, _) => vec![*q],
            Op::Cnot(a, b) | Op::Cz(a, b) | Op::Rzz(a, b, _) => vec![*a, *b],
            Op::PauliRot(p, _) => (0..p.num_qubits())
                .filter(|&q| p.op(q) != crate::pauli::Pauli::I)
                .collect(),
        }
    }

    /// `true` for entangling (multi-qubit) operations.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Op::Cnot(..) | Op::Cz(..) | Op::Rzz(..))
            || matches!(self, Op::PauliRot(p, _) if p.weight() >= 2)
    }
}

/// Hardware-level gate volume of a circuit, used by noise models.
///
/// `Rzz` decomposes to 2 CNOT + 1 RZ on hardware; `PauliRot` of weight `w`
/// decomposes to `2(w-1)` CNOTs plus basis-change single-qubit gates. The
/// counts below reflect that decomposition so depolarizing fidelity
/// estimates match what a transpiled circuit would suffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Number of physical single-qubit gates.
    pub one_qubit: usize,
    /// Number of physical two-qubit gates.
    pub two_qubit: usize,
}

impl GateCounts {
    /// Total physical gate count.
    pub fn total(&self) -> usize {
        self.one_qubit + self.two_qubit
    }

    /// Scales both counts by an integer noise-amplification factor (used by
    /// zero-noise extrapolation gate folding).
    pub fn scaled(&self, factor: usize) -> GateCounts {
        GateCounts {
            one_qubit: self.one_qubit * factor,
            two_qubit: self.two_qubit * factor,
        }
    }
}

/// A parameterized quantum circuit.
///
/// # Examples
///
/// ```
/// use oscar_qsim::circuit::{Circuit, Op, Param};
///
/// let mut c = Circuit::new(2, 1);
/// c.push(Op::H(0));
/// c.push(Op::Cnot(0, 1));
/// c.push(Op::Rz(1, Param::Var(0)));
/// let psi = c.run(&[0.3]);
/// assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    n: usize,
    num_params: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit on `n` qubits expecting `num_params`
    /// parameters.
    pub fn new(n: usize, num_params: usize) -> Self {
        Circuit {
            n,
            num_params,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Expected length of the parameter vector.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The operation list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the op touches a qubit `>= n` or references a parameter
    /// `>= num_params`.
    pub fn push(&mut self, op: Op) {
        for q in op.qubits() {
            assert!(q < self.n, "op touches qubit {q} outside register");
        }
        let param = match &op {
            Op::Rx(_, p) | Op::Ry(_, p) | Op::Rz(_, p) | Op::Rzz(_, _, p) | Op::PauliRot(_, p) => {
                p.var_index()
            }
            _ => None,
        };
        if let Some(i) = param {
            assert!(i < self.num_params, "op references parameter {i}");
        }
        self.ops.push(op);
    }

    /// Executes the circuit from `|0...0>` with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != num_params`.
    pub fn run(&self, params: &[f64]) -> StateVector {
        let mut psi = StateVector::zero_state(self.n);
        self.apply(&mut psi, params);
        psi
    }

    /// Applies the circuit to an existing state.
    pub fn apply(&self, psi: &mut StateVector, params: &[f64]) {
        assert_eq!(params.len(), self.num_params, "parameter count mismatch");
        assert_eq!(psi.num_qubits(), self.n, "register size mismatch");
        for op in &self.ops {
            Self::apply_op(psi, op, params);
        }
    }

    /// Applies a single op (shared with the noisy executor).
    pub(crate) fn apply_op(psi: &mut StateVector, op: &Op, params: &[f64]) {
        match op {
            Op::H(q) => psi.h(*q),
            Op::X(q) => psi.x(*q),
            Op::Y(q) => psi.y(*q),
            Op::Z(q) => psi.z(*q),
            Op::Rx(q, p) => psi.rx(*q, p.resolve(params)),
            Op::Ry(q, p) => psi.ry(*q, p.resolve(params)),
            Op::Rz(q, p) => psi.rz(*q, p.resolve(params)),
            Op::Cnot(c, t) => psi.cnot(*c, *t),
            Op::Cz(a, b) => psi.cz(*a, *b),
            Op::Rzz(a, b, p) => psi.rzz(*a, *b, p.resolve(params)),
            Op::PauliRot(string, p) => psi.apply_pauli_rotation(string, p.resolve(params)),
        }
    }

    /// Physical gate counts after hardware decomposition (see
    /// [`GateCounts`]).
    pub fn gate_counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for op in &self.ops {
            match op {
                Op::H(_) | Op::X(_) | Op::Y(_) | Op::Z(_) => counts.one_qubit += 1,
                Op::Rx(..) | Op::Ry(..) | Op::Rz(..) => counts.one_qubit += 1,
                Op::Cnot(..) | Op::Cz(..) => counts.two_qubit += 1,
                Op::Rzz(..) => {
                    counts.two_qubit += 2;
                    counts.one_qubit += 1;
                }
                Op::PauliRot(p, _) => {
                    let w = p.weight() as usize;
                    if w == 0 {
                        continue;
                    }
                    if w == 1 {
                        counts.one_qubit += 1;
                    } else {
                        counts.two_qubit += 2 * (w - 1);
                        // basis changes on X/Y factors (two each: in and out)
                        // plus the central RZ.
                        counts.one_qubit += 1 + 2 * w;
                    }
                }
            }
        }
        counts
    }

    /// Circuit depth counted as number of ops (a simple upper bound; the
    /// simulator does not schedule parallel layers).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns the circuit with every op repeated `2k+1` times in the
    /// global-folding pattern `U (U† U)^k` used by zero-noise extrapolation.
    ///
    /// For a noise-scaling factor `c = 2k+1`, the folded circuit is
    /// logically identical but executes `c`× the gates. Only odd factors are
    /// supported, matching the paper's `{1, 2, 3}` scalings where factor 2
    /// is realized by folding a random half of the gates; we implement
    /// factor 2 as folding the first half of the ops.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn folded(&self, factor: usize) -> Circuit {
        assert!(factor >= 1, "folding factor must be >= 1");
        let mut out = Circuit::new(self.n, self.num_params);
        if factor % 2 == 1 {
            let k = (factor - 1) / 2;
            for op in &self.ops {
                out.ops.push(op.clone());
                for _ in 0..k {
                    out.ops.push(Self::inverse_op(op));
                    out.ops.push(op.clone());
                }
            }
        } else {
            // Even factor: fold the first half of the ops once more than the
            // odd base, giving an average gate multiplier of `factor`.
            let k = factor / 2;
            let half = self.ops.len() / 2;
            for (i, op) in self.ops.iter().enumerate() {
                out.ops.push(op.clone());
                let folds = if i < half { k } else { k - 1 };
                for _ in 0..folds {
                    out.ops.push(Self::inverse_op(op));
                    out.ops.push(op.clone());
                }
            }
        }
        out
    }

    fn inverse_op(op: &Op) -> Op {
        let neg = |p: &Param| match *p {
            Param::Fixed(v) => Param::Fixed(-v),
            Param::Var(i) => Param::Scaled(i, -1.0),
            Param::Scaled(i, k) => Param::Scaled(i, -k),
        };
        match op {
            Op::H(q) => Op::H(*q),
            Op::X(q) => Op::X(*q),
            Op::Y(q) => Op::Y(*q),
            Op::Z(q) => Op::Z(*q),
            Op::Rx(q, p) => Op::Rx(*q, neg(p)),
            Op::Ry(q, p) => Op::Ry(*q, neg(p)),
            Op::Rz(q, p) => Op::Rz(*q, neg(p)),
            Op::Cnot(c, t) => Op::Cnot(*c, *t),
            Op::Cz(a, b) => Op::Cz(*a, *b),
            Op::Rzz(a, b, p) => Op::Rzz(*a, *b, neg(p)),
            Op::PauliRot(s, p) => Op::PauliRot(s.clone(), neg(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_ops_in_order() {
        let mut c = Circuit::new(1, 0);
        c.push(Op::X(0));
        c.push(Op::H(0));
        let psi = c.run(&[]);
        // |1> -> H -> (|0> - |1>)/sqrt(2)
        let amps = psi.amplitudes();
        assert!((amps[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((amps[1].re + std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn param_resolution() {
        assert_eq!(Param::Fixed(2.0).resolve(&[]), 2.0);
        assert_eq!(Param::Var(1).resolve(&[5.0, 7.0]), 7.0);
        assert_eq!(Param::Scaled(0, 2.0).resolve(&[3.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "op references parameter")]
    fn rejects_out_of_range_parameter() {
        let mut c = Circuit::new(1, 1);
        c.push(Op::Rx(0, Param::Var(3)));
    }

    #[test]
    #[should_panic(expected = "outside register")]
    fn rejects_out_of_range_qubit() {
        let mut c = Circuit::new(2, 0);
        c.push(Op::H(5));
    }

    #[test]
    fn gate_counts_decompose_rzz() {
        let mut c = Circuit::new(3, 1);
        c.push(Op::H(0));
        c.push(Op::Rzz(0, 1, Param::Var(0)));
        c.push(Op::Cnot(1, 2));
        let g = c.gate_counts();
        assert_eq!(g.one_qubit, 2); // H + inner RZ of RZZ
        assert_eq!(g.two_qubit, 3); // 2 CNOTs from RZZ + explicit CNOT
        assert_eq!(g.total(), 5);
    }

    #[test]
    fn folded_identity_preserves_state() {
        let mut c = Circuit::new(2, 2);
        c.push(Op::H(0));
        c.push(Op::Rx(1, Param::Var(0)));
        c.push(Op::Rzz(0, 1, Param::Var(1)));
        let params = [0.7, -0.4];
        let base = c.run(&params);
        for factor in [1usize, 2, 3, 5] {
            let folded = c.folded(factor);
            let psi = folded.run(&params);
            for (a, b) in base.amplitudes().iter().zip(psi.amplitudes()) {
                assert!((*a - *b).norm() < 1e-9, "factor {factor} broke identity");
            }
        }
    }

    #[test]
    fn folded_scales_gate_count() {
        let mut c = Circuit::new(2, 0);
        for _ in 0..10 {
            c.push(Op::Cnot(0, 1));
        }
        let base = c.gate_counts().two_qubit as f64;
        for factor in [1usize, 2, 3] {
            let folded = c.folded(factor).gate_counts().two_qubit as f64;
            let ratio = folded / base;
            assert!(
                (ratio - factor as f64).abs() <= 0.11,
                "factor {factor} got ratio {ratio}"
            );
        }
    }

    #[test]
    fn pauli_rot_gate_counts() {
        use crate::pauli::PauliString;
        let mut c = Circuit::new(3, 1);
        c.push(Op::PauliRot(
            PauliString::parse("XYZ", 1.0).unwrap(),
            Param::Var(0),
        ));
        let g = c.gate_counts();
        assert_eq!(g.two_qubit, 4); // 2*(3-1)
        assert_eq!(g.one_qubit, 7); // 1 + 2*3
    }

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(2, 0);
        assert!(c.is_empty());
        let psi = c.run(&[]);
        assert!((psi.probabilities()[0] - 1.0).abs() < 1e-12);
    }
}
