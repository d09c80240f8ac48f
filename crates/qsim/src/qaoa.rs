//! Fast QAOA evaluator for diagonal cost Hamiltonians.
//!
//! Generating a ground-truth landscape requires 5,000–32,000 circuit
//! evaluations per problem instance (paper Table 1). The generic gate-by-gate
//! path would dominate the harness runtime, so this module exploits QAOA's
//! structure: the phase operator `e^{-i γ C}` is a diagonal multiply using a
//! precomputed cost diagonal, and the mixer `e^{-i β Σ X_q}` is `n`
//! single-qubit RX butterflies. Per landscape point the cost is
//! `O(p · n · 2^n)` with no allocation beyond one state vector and one
//! phase table.
//!
//! The phase step costs one `sincos` per distinct cost *level*, not per
//! amplitude: a cost diagonal takes few distinct values (the 1024
//! entries of a 10-qubit 3-regular MaxCut diagonal are cut sizes of 15
//! edges, so at most 16 values), so
//! [`QaoaEvaluator::new`] tabulates the levels and each amplitude's
//! level index once, and every layer evaluates `e^{-i γ d}` per level
//! and multiplies each amplitude by its level's entry. The phases are
//! the same `f64` computation on the same inputs as a per-amplitude
//! `cis`, so results are bit-identical; when every level is distinct
//! the table costs one extra indexed load per amplitude.

use crate::complex::C64;
use crate::state::{for_each_amp_indexed, MAX_QUBITS, PAR_MIN_AMPS};
use std::collections::HashMap;

/// Precomputed QAOA evaluator for a fixed diagonal cost function.
///
/// # Examples
///
/// ```
/// use oscar_qsim::qaoa::QaoaEvaluator;
///
/// // Two-qubit "MaxCut" on a single edge, cost(b) = -[bit0 != bit1].
/// let diag = vec![0.0, -1.0, -1.0, 0.0];
/// let eval = QaoaEvaluator::new(2, diag);
/// let e = eval.expectation(&[-std::f64::consts::FRAC_PI_8], &[std::f64::consts::FRAC_PI_2]);
/// assert!(e < -0.9, "optimal p=1 angles should nearly solve one edge, got {e}");
/// ```
#[derive(Clone, Debug)]
pub struct QaoaEvaluator {
    n: usize,
    diag: Vec<f64>,
    diag_mean: f64,
    /// The distinct values of `diag` (by bit pattern), in order of
    /// first appearance.
    levels: Vec<f64>,
    /// `levels[level_of[b]] == diag[b]` bit for bit.
    level_of: Vec<u32>,
}

impl QaoaEvaluator {
    /// Builds an evaluator for an `n`-qubit problem with cost diagonal
    /// `diag` (length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != 2^n` or `n` exceeds [`MAX_QUBITS`].
    pub fn new(n: usize, diag: Vec<f64>) -> Self {
        assert!(n > 0 && n <= MAX_QUBITS, "qubit count out of range");
        assert_eq!(diag.len(), 1usize << n, "diagonal length mismatch");
        let diag_mean = diag.iter().sum::<f64>() / diag.len() as f64;
        let mut index: HashMap<u64, u32> = HashMap::new();
        let mut levels = Vec::new();
        let level_of = diag
            .iter()
            .map(|&d| {
                *index.entry(d.to_bits()).or_insert_with(|| {
                    levels.push(d);
                    // At most 2^MAX_QUBITS levels, well inside u32.
                    (levels.len() - 1) as u32
                })
            })
            .collect();
        QaoaEvaluator {
            n,
            diag,
            diag_mean,
            levels,
            level_of,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The cost diagonal.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Mean of the cost diagonal — the expectation under the maximally
    /// mixed state, which is the fixed point of depolarizing noise.
    pub fn diagonal_mean(&self) -> f64 {
        self.diag_mean
    }

    /// Minimum cost value (the optimum for minimization problems).
    pub fn min_cost(&self) -> f64 {
        self.diag.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Evaluates `<C>` for depth `p = betas.len() = gammas.len()`.
    ///
    /// The circuit convention matches the paper (Farhi et al. QAOA): start
    /// in `|+>^n`, then for each layer apply `e^{-i γ_l C}` followed by
    /// `Π_q RX(2 β_l)` on every qubit.
    ///
    /// # Panics
    ///
    /// Panics if `betas.len() != gammas.len()` or either is empty.
    pub fn expectation(&self, betas: &[f64], gammas: &[f64]) -> f64 {
        self.moments(betas, gammas).0
    }

    /// Evaluates `(<C>, Var[C])`; the variance feeds the shot-noise model.
    pub fn moments(&self, betas: &[f64], gammas: &[f64]) -> (f64, f64) {
        assert_eq!(betas.len(), gammas.len(), "beta/gamma length mismatch");
        assert!(!betas.is_empty(), "QAOA depth must be at least 1");
        let amps = self.final_state(betas, gammas);
        let mut e = 0.0;
        let mut e2 = 0.0;
        for (a, &d) in amps.iter().zip(self.diag.iter()) {
            let p = a.norm_sqr();
            e += p * d;
            e2 += p * d * d;
        }
        (e, (e2 - e * e).max(0.0))
    }

    /// The final QAOA state's probability distribution (for sampling-based
    /// workflows and tests).
    pub fn probabilities(&self, betas: &[f64], gammas: &[f64]) -> Vec<f64> {
        let amps = self.final_state(betas, gammas);
        amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The state after `p` QAOA layers on `|+>^n`.
    fn final_state(&self, betas: &[f64], gammas: &[f64]) -> Vec<C64> {
        assert_eq!(betas.len(), gammas.len(), "beta/gamma length mismatch");
        let dim = 1usize << self.n;
        let mut amps = vec![C64::real(1.0 / (dim as f64).sqrt()); dim];
        let mut phases = Vec::with_capacity(self.levels.len());
        for (&beta, &gamma) in betas.iter().zip(gammas.iter()) {
            phases.clear();
            phases.extend(self.levels.iter().map(|&d| C64::cis(-gamma * d)));
            apply_phase(&mut amps, &phases, &self.level_of);
            apply_mixer(&mut amps, self.n, beta);
        }
        amps
    }
}

/// Applies `amps[b] *= phases[level_of[b]]` in place (the tabulated
/// `e^{-i γ diag[b]}`), chunked across workers for large registers.
#[inline]
fn apply_phase(amps: &mut [C64], phases: &[C64], level_of: &[u32]) {
    for_each_amp_indexed(amps, |i, a| {
        *a *= phases[level_of[i] as usize];
    });
}

/// `[c, -i s; -i s, c]` butterflies over blocks of `2 * stride`.
#[inline]
fn mixer_blocks(amps: &mut [C64], stride: usize, c: f64, s: f64) {
    let mut base = 0usize;
    while base < amps.len() {
        for i in base..base + stride {
            let a0 = amps[i];
            let a1 = amps[i + stride];
            amps[i] = C64::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re);
            amps[i + stride] = C64::new(c * a1.re + s * a0.im, c * a1.im - s * a0.re);
        }
        base += stride << 1;
    }
}

/// Applies `RX(2β)` on every qubit: `e^{-i β X_q}` has matrix
/// `[[cos β, -i sin β], [-i sin β, cos β]]`. Each qubit pass splits
/// across workers on large registers (block-aligned chunks for low
/// qubits, zipped register halves for the top one).
#[inline]
fn apply_mixer(amps: &mut [C64], n: usize, beta: f64) {
    let c = beta.cos();
    let s = beta.sin();
    let dim = amps.len();
    let parallel = dim >= PAR_MIN_AMPS && !oscar_par::in_parallel_region();
    for q in 0..n {
        let stride = 1usize << q;
        if !parallel {
            mixer_blocks(amps, stride, c, s);
            continue;
        }
        let block = stride << 1;
        if block <= dim / 2 {
            oscar_par::for_each_chunk_mut(amps, block, |_, chunk| {
                mixer_blocks(chunk, stride, c, s);
            });
        } else {
            let (lo, hi) = amps.split_at_mut(stride);
            oscar_par::for_each_zip_chunks_mut(lo, hi, 1 << 12, |_, la, ha| {
                for (p0, p1) in la.iter_mut().zip(ha.iter_mut()) {
                    let a0 = *p0;
                    let a1 = *p1;
                    *p0 = C64::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re);
                    *p1 = C64::new(c * a1.re + s * a0.im, c * a1.im - s * a0.re);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Op};

    fn single_edge_diag() -> Vec<f64> {
        // cost(b) = -[bit0 != bit1] (minimize = maximize cut)
        vec![0.0, -1.0, -1.0, 0.0]
    }

    /// Reference: build the same QAOA circuit with generic gates and
    /// compare expectations.
    fn reference_expectation(n: usize, diag: &[f64], betas: &[f64], gammas: &[f64]) -> f64 {
        let p = betas.len();
        let mut params = Vec::new();
        params.extend_from_slice(gammas);
        params.extend_from_slice(betas);
        let mut c = Circuit::new(n, 2 * p);
        for q in 0..n {
            c.push(Op::H(q));
        }
        let mut psi = c.run(&params);
        for l in 0..p {
            psi.apply_diagonal_phase(diag, gammas[l]);
            for q in 0..n {
                psi.rx(q, 2.0 * betas[l]);
            }
        }
        psi.expectation_diagonal(diag)
    }

    #[test]
    fn matches_generic_simulator_p1() {
        let diag = single_edge_diag();
        let eval = QaoaEvaluator::new(2, diag.clone());
        for (b, g) in [(0.1, 0.2), (0.5, -0.3), (-0.7, 1.2)] {
            let fast = eval.expectation(&[b], &[g]);
            let slow = reference_expectation(2, &diag, &[b], &[g]);
            assert!((fast - slow).abs() < 1e-10, "({b},{g}): {fast} vs {slow}");
        }
    }

    #[test]
    fn matches_generic_simulator_p2_larger() {
        // Triangle graph on 3 qubits.
        let n = 3;
        let mut diag = vec![0.0; 8];
        let edges = [(0usize, 1usize), (1, 2), (0, 2)];
        for (b, d) in diag.iter_mut().enumerate() {
            for &(i, j) in &edges {
                if ((b >> i) ^ (b >> j)) & 1 == 1 {
                    *d -= 1.0;
                }
            }
        }
        let eval = QaoaEvaluator::new(n, diag.clone());
        let betas = [0.3, -0.2];
        let gammas = [0.8, 0.4];
        let fast = eval.expectation(&betas, &gammas);
        let slow = reference_expectation(n, &diag, &betas, &gammas);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn zero_angles_give_mixed_expectation() {
        let diag = single_edge_diag();
        let eval = QaoaEvaluator::new(2, diag);
        let e = eval.expectation(&[0.0], &[0.0]);
        assert!((e - eval.diagonal_mean()).abs() < 1e-12);
    }

    #[test]
    fn optimal_single_edge_angles() {
        // For a single edge with cost values {0, -1}, the landscape is
        // E(β,γ) = -1/2 + sin(4β) sin(γ) / 2, so (β, γ) = (-π/8, π/2)
        // reaches the optimum -1 exactly.
        let eval = QaoaEvaluator::new(2, single_edge_diag());
        let e = eval.expectation(
            &[-std::f64::consts::FRAC_PI_8],
            &[std::f64::consts::FRAC_PI_2],
        );
        assert!((e - (-1.0)).abs() < 1e-10, "expected -1, got {e}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let eval = QaoaEvaluator::new(2, single_edge_diag());
        let p = eval.probabilities(&[0.4], &[0.7]);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn variance_zero_at_delta_distribution() {
        // At β=0 the mixer is identity and phases don't change
        // probabilities: the distribution stays uniform, so Var matches the
        // diagonal's variance under the uniform measure.
        let diag = single_edge_diag();
        let eval = QaoaEvaluator::new(2, diag.clone());
        let (_, var) = eval.moments(&[0.0], &[0.3]);
        let mean: f64 = diag.iter().sum::<f64>() / 4.0;
        let expect_var: f64 = diag.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / 4.0;
        assert!((var - expect_var).abs() < 1e-12);
    }

    #[test]
    fn min_cost_is_the_smallest_diagonal_entry() {
        let eval = QaoaEvaluator::new(2, single_edge_diag());
        assert_eq!(eval.min_cost(), -1.0);
    }

    #[test]
    #[should_panic(expected = "diagonal length mismatch")]
    fn rejects_bad_diagonal_length() {
        let _ = QaoaEvaluator::new(2, vec![0.0; 3]);
    }

    /// The phase step without the level table: one `cis` per
    /// amplitude, then the same mixer and moment sums as
    /// [`QaoaEvaluator::moments`].
    fn moments_per_amplitude(n: usize, diag: &[f64], betas: &[f64], gammas: &[f64]) -> (f64, f64) {
        let dim = 1usize << n;
        let mut amps = vec![C64::real(1.0 / (dim as f64).sqrt()); dim];
        for (&beta, &gamma) in betas.iter().zip(gammas) {
            for (a, &d) in amps.iter_mut().zip(diag) {
                *a *= C64::cis(-gamma * d);
            }
            apply_mixer(&mut amps, n, beta);
        }
        let mut e = 0.0;
        let mut e2 = 0.0;
        for (a, &d) in amps.iter().zip(diag) {
            let p = a.norm_sqr();
            e += p * d;
            e2 += p * d * d;
        }
        (e, (e2 - e * e).max(0.0))
    }

    /// `Σ_{(i,j,w)} w z_i z_j + Σ_i h_i z_i` over every basis state.
    fn ising_diag(n: usize, couplings: &[(usize, usize, f64)], fields: &[f64]) -> Vec<f64> {
        let z = |b: usize, q: usize| if (b >> q) & 1 == 1 { -1.0 } else { 1.0 };
        (0..1usize << n)
            .map(|b| {
                let pair: f64 = couplings
                    .iter()
                    .map(|&(i, j, w)| w * z(b, i) * z(b, j))
                    .sum();
                let field: f64 = fields.iter().enumerate().map(|(q, h)| h * z(b, q)).sum();
                pair + field
            })
            .collect()
    }

    /// Unit-weight MaxCut on a ring with chords `(i, i + n/2)`.
    fn maxcut_diag(n: usize) -> Vec<f64> {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((0..n / 2).map(|i| (i, i + n / 2)));
        (0..1usize << n)
            .map(|b| {
                let cut = edges
                    .iter()
                    .filter(|&&(i, j)| ((b >> i) ^ (b >> j)) & 1 == 1);
                -(cut.count() as f64)
            })
            .collect()
    }

    fn assert_table_matches_reference(n: usize, diag: Vec<f64>) {
        let eval = QaoaEvaluator::new(n, diag.clone());
        let angles: [(&[f64], &[f64]); 4] = [
            (&[0.3], &[0.7]),
            (&[-0.61], &[-1.3]),
            (&[0.0], &[0.0]),
            (&[0.2, -0.45], &[0.9, 0.35]),
        ];
        for (betas, gammas) in angles {
            let (e, var) = eval.moments(betas, gammas);
            let (e_ref, var_ref) = moments_per_amplitude(n, &diag, betas, gammas);
            assert_eq!(e.to_bits(), e_ref.to_bits(), "n={n} {betas:?} {gammas:?}");
            assert_eq!(
                var.to_bits(),
                var_ref.to_bits(),
                "n={n} {betas:?} {gammas:?}"
            );
        }
    }

    #[test]
    fn level_table_is_bit_identical_on_unit_maxcut() {
        let diag = maxcut_diag(10);
        let eval = QaoaEvaluator::new(10, diag.clone());
        // Cuts of a 15-edge graph: at most 16 levels for 1024 amplitudes.
        assert!(eval.levels.len() <= 16, "{} levels", eval.levels.len());
        assert_table_matches_reference(10, diag);
    }

    #[test]
    fn level_table_is_bit_identical_on_sk() {
        let n = 8;
        let couplings: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, if (i * 7 + j * 3) % 5 < 2 { -1.0 } else { 1.0 }))
            .collect();
        let diag = ising_diag(n, &couplings, &[]);
        assert!(QaoaEvaluator::new(n, diag.clone()).levels.len() < 1 << n);
        assert_table_matches_reference(n, diag);
    }

    #[test]
    fn level_table_is_bit_identical_when_every_level_is_distinct() {
        let n = 8;
        let couplings: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| {
                (
                    i,
                    (i + 1) % n,
                    1.0 / (1.0 + i as f64 * std::f64::consts::SQRT_2),
                )
            })
            .collect();
        let fields: Vec<f64> = (0..n).map(|q| 0.1 * (1u32 << q) as f64 + 0.013).collect();
        let diag = ising_diag(n, &couplings, &fields);
        assert_eq!(QaoaEvaluator::new(n, diag.clone()).levels.len(), 1 << n);
        assert_table_matches_reference(n, diag);
    }

    #[test]
    fn level_table_is_bit_identical_on_the_parallel_path() {
        // 2^15 amplitudes reach PAR_MIN_AMPS: the phase step splits
        // across workers.
        let n = 15;
        let diag = maxcut_diag(n);
        let eval = QaoaEvaluator::new(n, diag.clone());
        let (e, var) = eval.moments(&[0.3], &[0.7]);
        let (e_ref, var_ref) = moments_per_amplitude(n, &diag, &[0.3], &[0.7]);
        assert_eq!(
            (e.to_bits(), var.to_bits()),
            (e_ref.to_bits(), var_ref.to_bits())
        );
    }

    #[test]
    fn landscape_periodicity_in_beta() {
        // RX(2β) has period π in β (up to global phase), so the landscape is
        // π-periodic in β.
        let eval = QaoaEvaluator::new(2, single_edge_diag());
        let e1 = eval.expectation(&[0.3], &[0.5]);
        let e2 = eval.expectation(&[0.3 + std::f64::consts::PI], &[0.5]);
        assert!((e1 - e2).abs() < 1e-10);
    }
}
