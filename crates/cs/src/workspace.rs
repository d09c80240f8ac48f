//! Reusable scratch buffers for the solver stack.
//!
//! Every FISTA iteration applies the measurement operator (transform
//! passes + sampling) and its adjoint, each needing full-grid
//! and measurement-sized temporaries. The seed implementation allocated
//! ~5 fresh `Vec`s per iteration; a [`Workspace`] owns all of them, as
//! well as the support refit's atom columns, normal equations and
//! Cholesky factor, so [`crate::fista::fista_with`] performs **no heap
//! allocation in steady state** — verified by the
//! allocation-counting test in `crates/cs/tests/alloc.rs`. (With more
//! than one `oscar-par` worker, the scoped thread spawns inside large
//! parallel transforms do allocate; see the `oscar-par` crate docs.)
//!
//! A workspace is keyed by buffer sizes only, so one instance can be
//! reused across solves, operators of any shape, and sampling patterns;
//! [`Workspace::ensure`] regrows buffers on first use with a new
//! problem shape and is a no-op afterwards.

use crate::dct::{Dct1d, DctNd, DctNdScratch};
use crate::measure::SensingOperator;

/// Scratch for one forward or adjoint application of a sensing
/// operator: two tensor-sized buffers plus the transform's internal
/// scratch, keyed by the transform it was sized for.
#[derive(Debug)]
pub struct OperatorScratch {
    /// Tensor-sized buffer (`signal_len` entries): `Ψ s` or the
    /// scattered residual for a full transform; for a sample-point
    /// apply, the transformed leading slabs or the accumulator, stored
    /// transposed.
    pub(crate) grid: Vec<f64>,
    /// Tensor-sized buffer the sample-point forward transforms the
    /// leading slabs in before transposing them into `grid`.
    pub(crate) tmp: Vec<f64>,
    /// Separable-transform scratch sized for the operator's tensor.
    pub(crate) transform: DctNdScratch,
    /// Shape and per-axis kernel ids the scratch was sized for: the
    /// dense kernel and each FFT decomposition (radix-2 / mixed-radix /
    /// Bluestein) of one length need differently shaped scratch.
    shape: Vec<usize>,
    kernels: Vec<u8>,
}

impl OperatorScratch {
    /// Builds scratch sized for `dct`'s tensor.
    pub(crate) fn new(dct: &DctNd) -> Self {
        OperatorScratch {
            grid: vec![0.0; dct.len()],
            tmp: vec![0.0; dct.len()],
            transform: dct.make_scratch(),
            shape: dct.shape().to_vec(),
            kernels: dct.axes().iter().map(Dct1d::kernel_id).collect(),
        }
    }

    /// Rebuilds for a different transform (shape or kernels) if needed.
    pub(crate) fn ensure(&mut self, dct: &DctNd) {
        let fits = self.shape == dct.shape()
            && self
                .kernels
                .iter()
                .copied()
                .eq(dct.axes().iter().map(Dct1d::kernel_id));
        if !fits {
            *self = OperatorScratch::new(dct);
        }
    }
}

/// All scratch state a sparse-recovery solve needs. See the module docs.
#[derive(Debug)]
pub struct Workspace {
    /// Operator-apply scratch.
    pub(crate) op: OperatorScratch,
    /// Current iterate (signal length `n`).
    pub(crate) s: Vec<f64>,
    /// Momentum point; after the loop, the refit's unit vector `e_j` —
    /// `n`.
    pub(crate) z: Vec<f64>,
    /// Next iterate under construction — `n`.
    pub(crate) s_next: Vec<f64>,
    /// Gradient / correlation buffer — `n`.
    pub(crate) grad: Vec<f64>,
    /// Recovered support indices `S` (refit).
    pub(crate) support: Vec<usize>,
    /// Operator output `A s` (measurement length `m`).
    pub(crate) az: Vec<f64>,
    /// Residual `A s - y` — `m`.
    pub(crate) resid: Vec<f64>,
    /// Refit: the support's atom columns `A e_j`, flattened `|S| * m`.
    pub(crate) atoms: Vec<f64>,
    /// Refit: Gram matrix `ΦᵀΦ` of the atom columns, `|S| * |S|`.
    pub(crate) gram: Vec<f64>,
    /// Refit: Cholesky factor of the Gram matrix, `|S| * |S|`.
    pub(crate) chol: Vec<f64>,
    /// Refit: right-hand side `Φᵀy`, `|S|`.
    pub(crate) rhs: Vec<f64>,
    /// Refit: least-squares solution on the support, `|S|`.
    pub(crate) coef: Vec<f64>,
}

impl Workspace {
    /// Builds a workspace sized for `op`.
    pub fn for_operator<O: SensingOperator + ?Sized>(op: &O) -> Self {
        let n = op.signal_len();
        let m = op.measurement_len();
        Workspace {
            op: op.make_scratch(),
            s: vec![0.0; n],
            z: vec![0.0; n],
            s_next: vec![0.0; n],
            grad: vec![0.0; n],
            support: Vec::new(),
            az: vec![0.0; m],
            resid: vec![0.0; m],
            atoms: Vec::new(),
            gram: Vec::new(),
            chol: Vec::new(),
            rhs: Vec::new(),
            coef: Vec::new(),
        }
    }

    /// Regrows buffers for `op`'s dimensions; a no-op when they already
    /// fit (the steady-state case).
    pub fn ensure<O: SensingOperator + ?Sized>(&mut self, op: &O) {
        let n = op.signal_len();
        let m = op.measurement_len();
        op.ensure_scratch(&mut self.op);
        if self.s.len() != n {
            for v in [&mut self.s, &mut self.z, &mut self.s_next, &mut self.grad] {
                v.resize(n, 0.0);
            }
        }
        if self.az.len() != m {
            self.az.resize(m, 0.0);
            self.resid.resize(m, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::Dct2d;
    use crate::measure::{MeasurementOperator, SamplePattern};

    #[test]
    fn workspace_sizes_match_operator() {
        let dct = Dct2d::new(6, 9);
        let pattern = SamplePattern::from_indices(6, 9, vec![0, 5, 17, 53]);
        let op = MeasurementOperator::new(&dct, &pattern);
        let ws = Workspace::for_operator(&op);
        assert_eq!(ws.s.len(), 54);
        assert_eq!(ws.az.len(), 4);
    }

    #[test]
    fn ensure_adapts_across_kernel_kinds() {
        use crate::fista::{fista_with, FistaConfig};
        use crate::measure::SamplePattern;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Same grid shape, different kernels: a workspace warmed on the
        // dense operator must rebuild its transform scratch for the FFT
        // operator instead of tripping the plan-size assertions.
        let dense = DctNd::from_axes(vec![Dct1d::new_dense(40), Dct1d::new_dense(40)]);
        let fast = DctNd::from_axes(vec![Dct1d::new_fast(40), Dct1d::new_fast(40)]);
        let mut rng = StdRng::seed_from_u64(3);
        let pattern = SamplePattern::random(40, 40, 0.3, &mut rng);
        let mut coeffs = vec![0.0; 1600];
        coeffs[7] = 2.0;
        let full = dense.inverse(&coeffs);
        let y = pattern.gather(&full);
        let cfg = FistaConfig {
            max_iter: 50,
            ..FistaConfig::default()
        };

        let op_dense = MeasurementOperator::new(&dense, &pattern);
        let op_fast = MeasurementOperator::new(&fast, &pattern);
        let mut ws = Workspace::for_operator(&op_dense);
        let a = fista_with(&op_dense, &y, &cfg, &mut ws);
        let b = fista_with(&op_fast, &y, &cfg, &mut ws);
        let c = fista_with(&op_dense, &y, &cfg, &mut ws);
        for ((x, y2), z) in a
            .coefficients
            .iter()
            .zip(&b.coefficients)
            .zip(&c.coefficients)
        {
            assert!((x - y2).abs() < 1e-9 && (x - z).abs() < 1e-12);
        }

        // Same grid, same "fast" flag, different DFT decomposition:
        // the kernel id in the key must force a scratch rebuild when a
        // mixed-radix-warmed workspace meets a Bluestein operator.
        let blue = DctNd::from_axes(vec![Dct1d::new_bluestein(40), Dct1d::new_bluestein(40)]);
        let op_blue = MeasurementOperator::new(&blue, &pattern);
        let d = fista_with(&op_blue, &y, &cfg, &mut ws);
        for (x, w) in b.coefficients.iter().zip(&d.coefficients) {
            assert!((x - w).abs() < 1e-9);
        }
    }

    #[test]
    fn ensure_adapts_to_new_operator() {
        let dct_a = Dct2d::new(4, 4);
        let pat_a = SamplePattern::from_indices(4, 4, vec![1, 2]);
        let op_a = MeasurementOperator::new(&dct_a, &pat_a);
        let mut ws = Workspace::for_operator(&op_a);

        let dct_b = Dct2d::new(8, 10);
        let pat_b = SamplePattern::from_indices(8, 10, vec![0, 9, 40, 41, 66]);
        let op_b = MeasurementOperator::new(&dct_b, &pat_b);
        ws.ensure(&op_b);
        assert_eq!(ws.s.len(), 80);
        assert_eq!(ws.az.len(), 5);
        assert_eq!(ws.op.grid.len(), 80);
    }

    #[test]
    fn ensure_adapts_between_ranks() {
        use crate::measure::{MeasurementOperatorNd, NdSamplePattern};

        let dct2 = Dct2d::new(4, 6);
        let pat2 = SamplePattern::from_indices(4, 6, vec![0, 7, 20]);
        let op2 = MeasurementOperator::new(&dct2, &pat2);
        let mut ws = Workspace::for_operator(&op2);

        let dctn = DctNd::new(&[3, 4, 5]);
        let patn = NdSamplePattern::from_indices(&[3, 4, 5], vec![0, 11, 59]);
        let opn = MeasurementOperatorNd::new(&dctn, &patn);
        ws.ensure(&opn);
        assert_eq!(ws.s.len(), 60);
        assert_eq!(ws.op.grid.len(), 60);

        ws.ensure(&op2);
        assert_eq!(ws.op.grid.len(), 24);
    }
}
