//! Dense state-vector representation of an `n`-qubit register.
//!
//! Qubit `q` corresponds to bit `q` of the basis index (qubit 0 is the least
//! significant bit). All gate applications are in-place and O(2^n).
//!
//! Registers with at least [`PAR_MIN_AMPS`] amplitudes split the
//! diagonal and single-qubit gate kernels across worker threads
//! (`oscar-par`); the arithmetic per amplitude is identical to the
//! serial path, so results are bit-exact regardless of thread count.

use crate::complex::C64;
use crate::pauli::{PauliString, PauliSum};
use rand::Rng;

/// Maximum number of qubits the dense simulator accepts.
///
/// 2^28 amplitudes = 4 GiB of `C64`; anything beyond is a configuration bug.
pub const MAX_QUBITS: usize = 28;

/// Registers with at least this many amplitudes (2^15 ⇒ 15+ qubits) run
/// the chunked parallel gate kernels; smaller ones stay serial, where
/// thread startup would dominate.
pub const PAR_MIN_AMPS: usize = 1 << 15;

/// Worker-chunk granule for embarrassingly parallel per-amplitude
/// kernels (diagonal gates): big enough to amortize dispatch, small
/// enough to balance load.
const AMP_CHUNK: usize = 1 << 12;

/// Applies `f(global_index, amplitude)` to every amplitude, splitting
/// across workers for large registers.
pub(crate) fn for_each_amp_indexed(amps: &mut [C64], f: impl Fn(usize, &mut C64) + Sync) {
    if amps.len() >= PAR_MIN_AMPS && !oscar_par::in_parallel_region() {
        oscar_par::for_each_chunk_mut(amps, AMP_CHUNK, |offset, chunk| {
            for (k, a) in chunk.iter_mut().enumerate() {
                f(offset + k, a);
            }
        });
    } else {
        for (i, a) in amps.iter_mut().enumerate() {
            f(i, a);
        }
    }
}

/// Serial butterfly pass for a single-qubit unitary over contiguous
/// blocks of `2 * stride` amplitudes (each block pairs `i` with
/// `i + stride`).
fn single_qubit_blocks(amps: &mut [C64], stride: usize, u: [[C64; 2]; 2]) {
    let mut base = 0usize;
    while base < amps.len() {
        for i in base..base + stride {
            let a0 = amps[i];
            let a1 = amps[i + stride];
            amps[i] = u[0][0] * a0 + u[0][1] * a1;
            amps[i + stride] = u[1][0] * a0 + u[1][1] * a1;
        }
        base += stride << 1;
    }
}

/// A pure quantum state over `n` qubits stored as `2^n` complex amplitudes.
///
/// # Examples
///
/// ```
/// use oscar_qsim::state::StateVector;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.h(0);
/// psi.cnot(0, 1);
/// let p = psi.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_QUBITS`.
    pub fn zero_state(n: usize) -> Self {
        assert!(n > 0 && n <= MAX_QUBITS, "qubit count out of range");
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        StateVector { n, amps }
    }

    /// Creates the uniform superposition `H^{⊗n} |0...0>`.
    pub fn plus_state(n: usize) -> Self {
        assert!(n > 0 && n <= MAX_QUBITS, "qubit count out of range");
        let dim = 1usize << n;
        let a = C64::real(1.0 / (dim as f64).sqrt());
        StateVector {
            n,
            amps: vec![a; dim],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Read-only view of the amplitudes.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The squared-modulus probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Total norm squared (should remain 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies an arbitrary single-qubit unitary `[[u00,u01],[u10,u11]]`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    pub fn apply_single(&mut self, q: usize, u: [[C64; 2]; 2]) {
        assert!(q < self.n, "qubit index out of range");
        let stride = 1usize << q;
        let dim = self.amps.len();
        if dim >= PAR_MIN_AMPS && !oscar_par::in_parallel_region() {
            let block = stride << 1;
            if block <= dim / 2 {
                // Many independent butterfly blocks: chunk on block
                // boundaries so each worker owns whole blocks.
                oscar_par::for_each_chunk_mut(&mut self.amps, block, |_, chunk| {
                    single_qubit_blocks(chunk, stride, u);
                });
            } else {
                // q is the top qubit: one block spanning the register.
                // Its halves pair element-wise, so zip them in chunks.
                let (lo, hi) = self.amps.split_at_mut(stride);
                oscar_par::for_each_zip_chunks_mut(lo, hi, AMP_CHUNK, |_, la, ha| {
                    for (a0, a1) in la.iter_mut().zip(ha.iter_mut()) {
                        let x0 = *a0;
                        let x1 = *a1;
                        *a0 = u[0][0] * x0 + u[0][1] * x1;
                        *a1 = u[1][0] * x0 + u[1][1] * x1;
                    }
                });
            }
            return;
        }
        single_qubit_blocks(&mut self.amps, stride, u);
    }

    /// Hadamard gate.
    pub fn h(&mut self, q: usize) {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        self.apply_single(q, [[s, s], [s, -s]]);
    }

    /// Pauli-X gate.
    pub fn x(&mut self, q: usize) {
        self.apply_single(q, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
    }

    /// Pauli-Y gate.
    pub fn y(&mut self, q: usize) {
        self.apply_single(q, [[C64::ZERO, C64::NEG_I], [C64::I, C64::ZERO]]);
    }

    /// Pauli-Z gate.
    pub fn z(&mut self, q: usize) {
        self.apply_single(q, [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]);
    }

    /// Phase gate S = diag(1, i).
    pub fn s(&mut self, q: usize) {
        self.apply_single(q, [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]);
    }

    /// T gate = diag(1, e^{iπ/4}).
    pub fn t(&mut self, q: usize) {
        self.apply_single(
            q,
            [
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
            ],
        );
    }

    /// SWAP gate exchanging two qubits.
    ///
    /// # Panics
    ///
    /// Panics if indices coincide or are out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let abit = 1usize << a;
        let bbit = 1usize << b;
        for i in 0..self.amps.len() {
            // Swap each |...0_a...1_b...> with |...1_a...0_b...> once.
            if i & abit != 0 && i & bbit == 0 {
                self.amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    /// Rotation about X: `RX(theta) = exp(-i theta X / 2)`.
    pub fn rx(&mut self, q: usize, theta: f64) {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::new(0.0, -(theta / 2.0).sin());
        self.apply_single(q, [[c, s], [s, c]]);
    }

    /// Rotation about Y: `RY(theta) = exp(-i theta Y / 2)`.
    pub fn ry(&mut self, q: usize, theta: f64) {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::real((theta / 2.0).sin());
        self.apply_single(q, [[c, -s], [s, c]]);
    }

    /// Rotation about Z: `RZ(theta) = exp(-i theta Z / 2)` (diagonal, fast).
    pub fn rz(&mut self, q: usize, theta: f64) {
        assert!(q < self.n, "qubit index out of range");
        let p0 = C64::cis(-theta / 2.0);
        let p1 = C64::cis(theta / 2.0);
        let bit = 1usize << q;
        for_each_amp_indexed(&mut self.amps, |i, a| {
            *a = if i & bit == 0 { p0 * *a } else { p1 * *a };
        });
    }

    /// Controlled-NOT with `control` and `target` qubits.
    ///
    /// # Panics
    ///
    /// Panics if indices coincide or are out of range.
    pub fn cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        for i in 0..self.amps.len() {
            if i & cbit != 0 && i & tbit == 0 {
                self.amps.swap(i, i | tbit);
            }
        }
    }

    /// Controlled-Z (symmetric in its arguments).
    pub fn cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let mask = (1usize << a) | (1usize << b);
        for_each_amp_indexed(&mut self.amps, |i, amp| {
            if i & mask == mask {
                *amp = -*amp;
            }
        });
    }

    /// Two-qubit ZZ rotation `exp(-i theta Z_a Z_b / 2)` (diagonal, fast).
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) {
        assert!(a < self.n && b < self.n && a != b);
        let abit = 1usize << a;
        let bbit = 1usize << b;
        let ppos = C64::cis(-theta / 2.0); // eigenvalue +1 subspace
        let pneg = C64::cis(theta / 2.0);
        for_each_amp_indexed(&mut self.amps, |i, amp| {
            let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
            *amp = if parity == 0 {
                ppos * *amp
            } else {
                pneg * *amp
            };
        });
    }

    /// Multiplies each amplitude by `exp(-i * gamma * diag[b])`.
    ///
    /// This is the QAOA phase-separation operator for a diagonal cost
    /// Hamiltonian whose diagonal is `diag`.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != 2^n`.
    pub fn apply_diagonal_phase(&mut self, diag: &[f64], gamma: f64) {
        assert_eq!(diag.len(), self.amps.len(), "diagonal length mismatch");
        for_each_amp_indexed(&mut self.amps, |i, a| {
            *a *= C64::cis(-gamma * diag[i]);
        });
    }

    /// Applies `exp(-i theta/2 * P)` for a Pauli string `P` (coefficient
    /// folded into `theta` by the caller; the string's own coefficient is
    /// ignored).
    ///
    /// Uses `exp(-i t P) = cos(t) I - i sin(t) P` with the involution
    /// `P^2 = I`.
    pub fn apply_pauli_rotation(&mut self, p: &PauliString, theta: f64) {
        assert_eq!(p.num_qubits(), self.n, "register size mismatch");
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        let x_mask = p.x_mask() as usize;
        if x_mask == 0 {
            // Diagonal string: each amplitude gets phase e^{-i s_b theta/2}.
            for (b, a) in self.amps.iter_mut().enumerate() {
                let (_, ph) = p.apply_basis(b as u64);
                // ph is ±1 for diagonal strings.
                let sign = ph.re;
                *a *= C64::new(c, -s * sign);
            }
            return;
        }
        for b in 0..self.amps.len() {
            let partner = b ^ x_mask;
            if partner < b {
                continue; // handle each pair once
            }
            let (tb, ph_b) = p.apply_basis(b as u64);
            debug_assert_eq!(tb as usize, partner);
            let a_b = self.amps[b];
            let a_p = self.amps[partner];
            // P|b> = ph_b |partner>  =>  <partner|P|b> = ph_b.
            // Hermiticity gives <b|P|partner> = conj(ph_b).
            let m_i_s = C64::new(0.0, -s);
            self.amps[b] = a_b.scale(c) + m_i_s * ph_b.conj() * a_p;
            self.amps[partner] = a_p.scale(c) + m_i_s * ph_b * a_b;
        }
    }

    /// Applies a bare Pauli string as a unitary (used for noise injection).
    pub fn apply_pauli(&mut self, p: &PauliString) {
        assert_eq!(p.num_qubits(), self.n, "register size mismatch");
        let x_mask = p.x_mask() as usize;
        if x_mask == 0 {
            for (b, a) in self.amps.iter_mut().enumerate() {
                let (_, ph) = p.apply_basis(b as u64);
                *a *= ph;
            }
            return;
        }
        for b in 0..self.amps.len() {
            let partner = b ^ x_mask;
            if partner < b {
                continue;
            }
            let (_, ph_b) = p.apply_basis(b as u64);
            let a_b = self.amps[b];
            let a_p = self.amps[partner];
            self.amps[b] = ph_b.conj() * a_p;
            self.amps[partner] = ph_b * a_b;
        }
    }

    /// Expectation value `<psi| O |psi>` of a Hermitian Pauli-sum observable.
    pub fn expectation(&self, obs: &PauliSum) -> f64 {
        assert_eq!(obs.num_qubits(), self.n, "observable register mismatch");
        let mut total = obs.constant();
        for term in obs.terms() {
            let mut acc = C64::ZERO;
            let x_mask = term.x_mask() as usize;
            for b in 0..self.amps.len() {
                let (tb, ph) = term.apply_basis(b as u64);
                debug_assert_eq!(tb as usize, b ^ x_mask);
                // <psi|P|b> amp(b) contributes conj(amp(target)) * ph * amp(b)
                acc += self.amps[b ^ x_mask].conj() * ph * self.amps[b];
            }
            total += term.coeff() * acc.re;
        }
        total
    }

    /// Expectation of a dense diagonal observable.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != 2^n`.
    pub fn expectation_diagonal(&self, diag: &[f64]) -> f64 {
        assert_eq!(diag.len(), self.amps.len(), "diagonal length mismatch");
        self.amps
            .iter()
            .zip(diag.iter())
            .map(|(a, &d)| a.norm_sqr() * d)
            .sum()
    }

    /// Samples `shots` basis-state measurement outcomes.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<u64> {
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        (0..shots)
            .map(|_| {
                let u: f64 = rng.gen::<f64>() * total;
                match cdf.binary_search_by(|x| x.total_cmp(&u)) {
                    Ok(i) | Err(i) => (i.min(cdf.len() - 1)) as u64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::Pauli;

    const EPS: f64 = 1e-10;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn zero_state_is_basis_zero() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.dim(), 8);
        assert_close(psi.probabilities()[0], 1.0);
    }

    #[test]
    fn plus_state_is_uniform() {
        let psi = StateVector::plus_state(4);
        for p in psi.probabilities() {
            assert_close(p, 1.0 / 16.0);
        }
    }

    #[test]
    fn h_twice_is_identity() {
        let mut psi = StateVector::zero_state(2);
        psi.h(1);
        psi.h(1);
        assert_close(psi.probabilities()[0], 1.0);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut psi = StateVector::zero_state(2);
        psi.h(0);
        psi.cnot(0, 1);
        let p = psi.probabilities();
        assert_close(p[0b00], 0.5);
        assert_close(p[0b11], 0.5);
        assert_close(p[0b01], 0.0);
    }

    #[test]
    fn x_flips_correct_qubit() {
        let mut psi = StateVector::zero_state(3);
        psi.x(1);
        assert_close(psi.probabilities()[0b010], 1.0);
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = StateVector::zero_state(1);
        a.rx(0, std::f64::consts::PI);
        let mut b = StateVector::zero_state(1);
        b.x(0);
        // RX(pi) = -i X, so probabilities match.
        for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
            assert_close(*pa, pb);
        }
    }

    #[test]
    fn rz_phases_do_not_change_probabilities() {
        let mut psi = StateVector::plus_state(2);
        psi.rz(0, 0.7);
        for p in psi.probabilities() {
            assert_close(p, 0.25);
        }
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut psi = StateVector::plus_state(4);
        psi.rx(0, 0.3);
        psi.ry(1, 1.2);
        psi.rz(2, -0.8);
        psi.cnot(0, 3);
        psi.cz(1, 2);
        psi.rzz(0, 2, 0.9);
        assert_close(psi.norm_sqr(), 1.0);
    }

    #[test]
    fn cz_symmetric() {
        let mut a = StateVector::plus_state(2);
        let mut b = StateVector::plus_state(2);
        a.cz(0, 1);
        b.cz(1, 0);
        assert_eq!(a.amplitudes(), b.amplitudes());
    }

    #[test]
    fn rzz_matches_cnot_rz_cnot() {
        let theta = 0.77;
        let mut a = StateVector::plus_state(2);
        a.ry(0, 0.4);
        a.rzz(0, 1, theta);
        let mut b = StateVector::plus_state(2);
        b.ry(0, 0.4);
        b.cnot(0, 1);
        b.rz(1, theta);
        b.cnot(0, 1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    fn pauli_rotation_x_matches_rx() {
        let p = PauliString::single(2, 0, Pauli::X, 1.0);
        let theta = 1.1;
        let mut a = StateVector::plus_state(2);
        a.ry(1, 0.3);
        let mut b = a.clone();
        a.apply_pauli_rotation(&p, theta);
        b.rx(0, theta);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    fn pauli_rotation_zz_matches_rzz() {
        let p = PauliString::zz(3, 0, 2, 1.0);
        let theta = -0.6;
        let mut a = StateVector::plus_state(3);
        let mut b = a.clone();
        a.apply_pauli_rotation(&p, theta);
        b.rzz(0, 2, theta);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    fn pauli_rotation_preserves_norm_xy_strings() {
        let p = PauliString::parse("XYZY", 1.0).unwrap();
        let mut psi = StateVector::plus_state(4);
        psi.apply_pauli_rotation(&p, 0.9);
        assert_close(psi.norm_sqr(), 1.0);
    }

    #[test]
    fn expectation_z_on_zero_state() {
        let psi = StateVector::zero_state(1);
        let obs = PauliSum::from_strings(vec![PauliString::parse("Z", 1.0).unwrap()]);
        assert_close(psi.expectation(&obs), 1.0);
    }

    #[test]
    fn expectation_x_on_plus_state() {
        let mut psi = StateVector::zero_state(1);
        psi.h(0);
        let obs = PauliSum::from_strings(vec![PauliString::parse("X", 2.0).unwrap()]);
        assert_close(psi.expectation(&obs), 2.0);
    }

    #[test]
    fn expectation_matches_diagonal_path() {
        let mut psi = StateVector::plus_state(3);
        psi.rzz(0, 1, 0.4);
        psi.rx(2, 0.9);
        let mut h = PauliSum::new(3);
        h.push(PauliString::zz(3, 0, 1, 0.7));
        h.push(PauliString::single(3, 2, Pauli::Z, -0.3));
        h.add_constant(0.5);
        let via_pauli = psi.expectation(&h);
        let via_diag = psi.expectation_diagonal(&h.diagonal());
        assert_close(via_pauli, via_diag);
    }

    #[test]
    fn apply_pauli_x_equals_gate_x() {
        let mut a = StateVector::plus_state(2);
        a.ry(0, 0.3);
        let mut b = a.clone();
        a.apply_pauli(&PauliString::single(2, 1, Pauli::X, 1.0));
        b.x(1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    fn apply_pauli_y_equals_gate_y() {
        let mut a = StateVector::plus_state(2);
        a.rz(0, 0.3);
        let mut b = a.clone();
        a.apply_pauli(&PauliString::single(2, 0, Pauli::Y, 1.0));
        b.y(0);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    #[should_panic(expected = "qubit count out of range")]
    fn rejects_zero_qubits() {
        let _ = StateVector::zero_state(0);
    }

    #[test]
    fn t_squared_is_s() {
        let mut a = StateVector::plus_state(1);
        a.t(0);
        a.t(0);
        let mut b = StateVector::plus_state(1);
        b.s(0);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut psi = StateVector::zero_state(3);
        psi.x(0); // |001>
        psi.swap(0, 2);
        assert_close(psi.probabilities()[0b100], 1.0);
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut a = StateVector::plus_state(2);
        a.ry(0, 0.4);
        a.rz(1, 0.9);
        let mut b = a.clone();
        a.swap(0, 1);
        b.cnot(0, 1);
        b.cnot(1, 0);
        b.cnot(0, 1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < EPS);
        }
    }
}
