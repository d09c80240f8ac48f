//! Pauli-string algebra and Pauli-sum observables (qubit Hamiltonians).
//!
//! A [`PauliString`] is a tensor product of single-qubit Pauli operators with
//! a real coefficient; a [`PauliSum`] is a linear combination of strings and
//! serves as the observable (Hamiltonian) type for VQE-style problems.

use crate::complex::C64;
use std::fmt;

/// Single-qubit Pauli operator label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
}

impl Pauli {
    /// Parses a single character (`I`, `X`, `Y`, `Z`, case-insensitive).
    pub fn from_char(c: char) -> Option<Pauli> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }

    /// The character label of this operator.
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

/// A weighted tensor product of Pauli operators on `n` qubits.
///
/// Internally stored as bit masks: qubit `q` carries an X component when bit
/// `q` of `x_mask` is set and a Z component when bit `q` of `z_mask` is set
/// (Y = both). This makes applying the string to a computational basis state
/// an O(1)-per-amplitude operation.
///
/// # Examples
///
/// ```
/// use oscar_qsim::pauli::PauliString;
///
/// let zz = PauliString::parse("ZZ", 1.0).unwrap();
/// assert_eq!(zz.num_qubits(), 2);
/// assert_eq!(zz.to_string(), "1*ZZ");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliString {
    n: usize,
    x_mask: u64,
    z_mask: u64,
    coeff: f64,
}

impl PauliString {
    /// Builds a Pauli string from per-qubit labels.
    ///
    /// `ops[q]` is the operator on qubit `q` (qubit 0 = least significant
    /// bit of the basis index).
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() > 64`.
    pub fn new(ops: &[Pauli], coeff: f64) -> Self {
        assert!(ops.len() <= 64, "at most 64 qubits are supported");
        let mut x_mask = 0u64;
        let mut z_mask = 0u64;
        for (q, &p) in ops.iter().enumerate() {
            match p {
                Pauli::I => {}
                Pauli::X => x_mask |= 1 << q,
                Pauli::Y => {
                    x_mask |= 1 << q;
                    z_mask |= 1 << q;
                }
                Pauli::Z => z_mask |= 1 << q,
            }
        }
        PauliString {
            n: ops.len(),
            x_mask,
            z_mask,
            coeff,
        }
    }

    /// Parses a label such as `"XYZI"`. The **first** character acts on
    /// qubit 0. Returns `None` on any unknown character.
    pub fn parse(label: &str, coeff: f64) -> Option<Self> {
        let ops: Option<Vec<Pauli>> = label.chars().map(Pauli::from_char).collect();
        Some(PauliString::new(&ops?, coeff))
    }

    /// Builds a single-qubit Pauli embedded in an `n`-qubit register.
    pub fn single(n: usize, qubit: usize, p: Pauli, coeff: f64) -> Self {
        assert!(qubit < n, "qubit index out of range");
        let mut ops = vec![Pauli::I; n];
        ops[qubit] = p;
        PauliString::new(&ops, coeff)
    }

    /// Builds `coeff * Z_i Z_j` on an `n`-qubit register.
    pub fn zz(n: usize, i: usize, j: usize, coeff: f64) -> Self {
        assert!(i < n && j < n && i != j, "invalid ZZ qubit pair");
        let mut ops = vec![Pauli::I; n];
        ops[i] = Pauli::Z;
        ops[j] = Pauli::Z;
        PauliString::new(&ops, coeff)
    }

    /// Number of qubits this string is defined on.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The real coefficient.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The X-component bit mask (Y contributes to both masks).
    pub fn x_mask(&self) -> u64 {
        self.x_mask
    }

    /// The Z-component bit mask (Y contributes to both masks).
    pub fn z_mask(&self) -> u64 {
        self.z_mask
    }

    /// `true` when the string is diagonal in the computational basis
    /// (contains no X or Y factors).
    pub fn is_diagonal(&self) -> bool {
        self.x_mask == 0
    }

    /// The operator on qubit `q`.
    pub fn op(&self, q: usize) -> Pauli {
        let x = (self.x_mask >> q) & 1 == 1;
        let z = (self.z_mask >> q) & 1 == 1;
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Number of non-identity factors.
    pub fn weight(&self) -> u32 {
        (self.x_mask | self.z_mask).count_ones()
    }

    /// Applies the (unit-coefficient) string to basis state `b`, returning
    /// the image basis index and the accumulated phase:
    /// `P |b> = phase * |b ^ x_mask>`.
    ///
    /// The phase follows from `Z|b> = (-1)^b |b>`, `X|b> = |1-b>`,
    /// `Y|0> = i|1>`, `Y|1> = -i|0>`.
    #[inline]
    pub fn apply_basis(&self, b: u64) -> (u64, C64) {
        let target = b ^ self.x_mask;
        // Z components (including the Z half of Y) contribute (-1)^{b_q}.
        let z_sign_bits = (self.z_mask & b).count_ones();
        // Each Y contributes an extra factor: Y = i X Z, so a global i per Y.
        let y_mask = self.x_mask & self.z_mask;
        let num_y = y_mask.count_ones();
        let mut phase = match num_y % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => C64::new(-1.0, 0.0),
            _ => C64::NEG_I,
        };
        if z_sign_bits % 2 == 1 {
            phase = -phase;
        }
        (target, phase)
    }

    /// Evaluates the string (including coefficient) on a diagonal-only basis
    /// state, i.e. assumes [`Self::is_diagonal`] and returns the eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the string is not diagonal.
    #[inline]
    pub fn eval_diagonal(&self, b: u64) -> f64 {
        debug_assert!(self.is_diagonal(), "eval_diagonal on non-diagonal string");
        if (self.z_mask & b).count_ones() % 2 == 1 {
            -self.coeff
        } else {
            self.coeff
        }
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}*", self.coeff)?;
        for q in 0..self.n {
            write!(f, "{}", self.op(q).to_char())?;
        }
        Ok(())
    }
}

/// A real-weighted sum of Pauli strings: a Hermitian qubit observable.
///
/// # Examples
///
/// ```
/// use oscar_qsim::pauli::{PauliString, PauliSum};
///
/// let h = PauliSum::from_strings(vec![
///     PauliString::parse("ZI", 0.5).unwrap(),
///     PauliString::parse("IZ", -0.5).unwrap(),
/// ]);
/// assert_eq!(h.num_qubits(), 2);
/// assert_eq!(h.terms().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliSum {
    n: usize,
    terms: Vec<PauliString>,
    constant: f64,
}

impl PauliSum {
    /// Creates an empty observable on `n` qubits (the zero operator).
    pub fn new(n: usize) -> Self {
        PauliSum {
            n,
            terms: Vec::new(),
            constant: 0.0,
        }
    }

    /// Builds an observable from a list of strings.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on differing qubit counts or the list is
    /// empty.
    pub fn from_strings(terms: Vec<PauliString>) -> Self {
        assert!(!terms.is_empty(), "PauliSum::from_strings needs terms");
        let n = terms[0].num_qubits();
        assert!(
            terms.iter().all(|t| t.num_qubits() == n),
            "all terms must act on the same register size"
        );
        let mut sum = PauliSum::new(n);
        for t in terms {
            sum.push(t);
        }
        sum
    }

    /// Adds a term; identity strings fold into the scalar constant.
    pub fn push(&mut self, term: PauliString) {
        assert_eq!(term.num_qubits(), self.n, "term register size mismatch");
        if term.weight() == 0 {
            self.constant += term.coeff();
        } else {
            self.terms.push(term);
        }
    }

    /// Adds a scalar offset (an identity term).
    pub fn add_constant(&mut self, c: f64) {
        self.constant += c;
    }

    /// The scalar (identity) part.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The non-identity terms.
    pub fn terms(&self) -> &[PauliString] {
        &self.terms
    }

    /// `true` when every term is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        self.terms.iter().all(PauliString::is_diagonal)
    }

    /// Evaluates a fully diagonal observable on basis state `b`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any term is non-diagonal.
    pub fn eval_diagonal(&self, b: u64) -> f64 {
        self.constant + self.terms.iter().map(|t| t.eval_diagonal(b)).sum::<f64>()
    }

    /// Materializes the diagonal of a diagonal observable as a dense vector
    /// of length `2^n`.
    ///
    /// # Panics
    ///
    /// Panics if the observable is not diagonal or `n > 30`.
    pub fn diagonal(&self) -> Vec<f64> {
        assert!(self.is_diagonal(), "observable has off-diagonal terms");
        assert!(
            self.n <= 30,
            "diagonal materialization limited to 30 qubits"
        );
        let dim = 1usize << self.n;
        let mut d = vec![self.constant; dim];
        for t in &self.terms {
            let zm = t.z_mask();
            let c = t.coeff();
            for (b, v) in d.iter_mut().enumerate() {
                if (zm & b as u64).count_ones() % 2 == 1 {
                    *v -= c;
                } else {
                    *v += c;
                }
            }
        }
        d
    }

    /// Sum of absolute coefficients (an upper bound on the spectral norm).
    pub fn one_norm(&self) -> f64 {
        self.constant.abs() + self.terms.iter().map(|t| t.coeff().abs()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let p = PauliString::parse("XYZI", 2.0).unwrap();
        assert_eq!(p.op(0), Pauli::X);
        assert_eq!(p.op(1), Pauli::Y);
        assert_eq!(p.op(2), Pauli::Z);
        assert_eq!(p.op(3), Pauli::I);
        assert_eq!(p.to_string(), "2*XYZI");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PauliString::parse("XQ", 1.0).is_none());
    }

    #[test]
    fn weight_counts_non_identity() {
        let p = PauliString::parse("XIYZ", 1.0).unwrap();
        assert_eq!(p.weight(), 3);
    }

    #[test]
    fn z_phase_on_basis() {
        let z = PauliString::parse("Z", 1.0).unwrap();
        let (b0, ph0) = z.apply_basis(0);
        let (b1, ph1) = z.apply_basis(1);
        assert_eq!((b0, ph0), (0, C64::ONE));
        assert_eq!((b1, ph1), (1, -C64::ONE));
    }

    #[test]
    fn x_flips_basis() {
        let x = PauliString::parse("X", 1.0).unwrap();
        let (b, ph) = x.apply_basis(0);
        assert_eq!((b, ph), (1, C64::ONE));
    }

    #[test]
    fn y_phases_match_matrix() {
        // Y|0> = i|1>, Y|1> = -i|0>
        let y = PauliString::parse("Y", 1.0).unwrap();
        let (b0, ph0) = y.apply_basis(0);
        assert_eq!((b0, ph0), (1, C64::I));
        let (b1, ph1) = y.apply_basis(1);
        assert_eq!((b1, ph1), (0, C64::NEG_I));
    }

    #[test]
    fn yy_on_00_gives_minus_11() {
        // (Y⊗Y)|00> = (i|1>)⊗(i|1>) = -|11>
        let yy = PauliString::parse("YY", 1.0).unwrap();
        let (b, ph) = yy.apply_basis(0b00);
        assert_eq!(b, 0b11);
        assert_eq!(ph, -C64::ONE);
    }

    #[test]
    fn zz_eval_diagonal() {
        let zz = PauliString::zz(2, 0, 1, 1.5);
        assert_eq!(zz.eval_diagonal(0b00), 1.5);
        assert_eq!(zz.eval_diagonal(0b01), -1.5);
        assert_eq!(zz.eval_diagonal(0b10), -1.5);
        assert_eq!(zz.eval_diagonal(0b11), 1.5);
    }

    #[test]
    fn sum_diagonal_materialization() {
        let mut h = PauliSum::new(2);
        h.push(PauliString::zz(2, 0, 1, 1.0));
        h.add_constant(-1.0);
        let d = h.diagonal();
        assert_eq!(d, vec![0.0, -2.0, -2.0, 0.0]);
    }

    #[test]
    fn identity_folds_into_constant() {
        let mut h = PauliSum::new(2);
        h.push(PauliString::parse("II", 3.0).unwrap());
        assert_eq!(h.constant(), 3.0);
        assert!(h.terms().is_empty());
    }

    #[test]
    fn one_norm_sums_abs() {
        let h = PauliSum::from_strings(vec![
            PauliString::parse("XI", -2.0).unwrap(),
            PauliString::parse("IZ", 0.5).unwrap(),
        ]);
        assert_eq!(h.one_norm(), 2.5);
    }

    #[test]
    fn single_embeds_correctly() {
        let p = PauliString::single(3, 1, Pauli::Y, 1.0);
        assert_eq!(p.op(0), Pauli::I);
        assert_eq!(p.op(1), Pauli::Y);
        assert_eq!(p.op(2), Pauli::I);
    }
}
