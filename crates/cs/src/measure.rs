//! The compressed-sensing measurement operator `A = C Ψ`.
//!
//! `Ψ` is the inverse separable DCT (so the unknown is the coefficient
//! vector `s` with landscape `x = Ψ s`), and `C` selects the `m` sampled
//! grid points. Because `Ψ` is orthonormal and `C` a row selector,
//! `||A||_2 <= 1`, which lets the FISTA solver use a unit step size with
//! no line search.
//!
//! One operator, [`MeasurementOperatorNd`], couples a [`DctNd`] with an
//! [`NdSamplePattern`] at every rank: the paper's p = 1 grids (rank 2),
//! p >= 2 QAOA tensors and VQE parameter scans. [`SamplePattern`] and
//! [`MeasurementOperator`] are its rank-2 names. The solvers are generic
//! over the [`SensingOperator`] contract it implements.
//!
//! # Cost model
//!
//! View the tensor as `[rows][rest]` around its leading axis, of length
//! `rows`, with `D` that axis's `rows x rows` orthonormal DCT matrix and
//! `T` the coefficient tensor after the inverse transform of every other
//! axis, so that `x[r][c] = Σ_k D[k][r]·T[k][c]`. With `kmax` one past
//! the last leading-axis slab holding a nonzero coefficient:
//!
//! * `A s` transforms the other axes of slabs `0..kmax` only, then
//!   evaluates each sample in `kmax` multiply-adds;
//! * `Aᵀ y` accumulates `U[k][c_i] += y_i·D[k][r_i]` (`m·rows`
//!   multiply-adds), then runs the forward transform of the other axes
//!   over `U`.
//!
//! Neither runs a leading-axis pass, which costs about `n·rows`
//! multiply-adds on the dense kernel and `AXIS0_FFT_COST·n·log2(rows)`
//! on an FFT kernel. An apply whose `m·k` (`k = kmax` forward,
//! `k = rows` adjoint) exceeds that runs the full transform plus a
//! gather or scatter instead. Every tensor shape takes the sample-point
//! apply where that rule favours it, so which path runs depends on the
//! leading axis's length and kernel and on `m`, not on the rank:
//!
//! * on the paper's 50x100 grid at 10% sampling both applies always
//!   take the sample points. FISTA's sparse iterates keep `kmax` small
//!   (8–12 of 50 rows once the support settles), so there the forward
//!   costs about a fifth and the adjoint about 60% of a full transform;
//! * the VQE scans (LiH's 3⁸, H2's 10³) and the depth-2 QAOA tensors
//!   have a short dense leading axis, so both applies take the sample
//!   points at their default sampling fractions;
//! * on large, densely sampled grids (144x225 at 30%, say) every
//!   adjoint and the forwards of dense early iterates keep the
//!   full-transform cost.
//!
//! The table, `D` transposed, comes from `plan_cache::synthesis_matrix`,
//! shared by every operator with the same leading-axis length.

use crate::dct::{transpose, DctNd};
use crate::workspace::OperatorScratch;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Multiply-adds per grid element that one leading-axis pass of an FFT
/// kernel is worth, per factor of two in its length, as the sample-point
/// sums count them. Fit to where the two paths cross on 32x40, 50x100,
/// 100x50, 128x128 and 144x225 (single thread, x86-64); set low so that a
/// sample-point apply is taken only where it is clearly the cheaper.
const AXIS0_FFT_COST: f64 = 3.0;

/// The abstract sensing operator `A = C Ψ` the sparse solvers run
/// against: an orthonormal synthesis transform composed with a row
/// selector, applied through reusable [`OperatorScratch`].
///
/// Implementations must keep `||A||_2 <= 1` (orthonormal `Ψ`, selector
/// `C`) — the solvers rely on it for their fixed unit step size.
pub trait SensingOperator {
    /// Signal dimension `n` (full grid element count).
    fn signal_len(&self) -> usize;
    /// Measurement dimension `m` (sampled point count).
    fn measurement_len(&self) -> usize;
    /// Allocates scratch sized for this operator's transform.
    fn make_scratch(&self) -> OperatorScratch;
    /// Rebuilds `scratch` for this operator's transform if it was sized
    /// for another one; a no-op when it already fits.
    fn ensure_scratch(&self, scratch: &mut OperatorScratch);
    /// Zero-allocation `A s`: writes the `m` sampled values into `out`.
    fn forward_into(&self, s: &[f64], out: &mut [f64], scratch: &mut OperatorScratch);
    /// Zero-allocation `A^T y`: writes the `n` coefficient-domain
    /// values into `out`.
    fn adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut OperatorScratch);
}

/// A random uniform sampling pattern over a row-major tensor of any
/// rank: sorted, distinct flat indices.
///
/// # Examples
///
/// ```
/// use oscar_cs::measure::NdSamplePattern;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pat = NdSamplePattern::random(&[5, 4, 5], 0.25, &mut rng);
/// assert_eq!(pat.indices().len(), 25);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NdSamplePattern {
    dims: Vec<usize>,
    indices: Vec<usize>,
}

impl NdSamplePattern {
    /// Samples `ceil(fraction * total)` distinct tensor points uniformly
    /// at random (without replacement).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`, and unless `dims` is non-empty
    /// with every extent positive.
    pub fn random<R: Rng + ?Sized>(dims: &[usize], fraction: f64, rng: &mut R) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        let total = checked_total(dims);
        let m = ((fraction * total as f64).ceil() as usize).clamp(1, total);
        let mut all: Vec<usize> = (0..total).collect();
        all.shuffle(rng);
        let mut indices = all[..m].to_vec();
        indices.sort_unstable();
        NdSamplePattern {
            dims: dims.to_vec(),
            indices,
        }
    }

    /// Builds a pattern from explicit flat indices (deduplicated,
    /// sorted).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or the list is empty.
    pub fn from_indices(dims: &[usize], mut indices: Vec<usize>) -> Self {
        let total = checked_total(dims);
        assert!(!indices.is_empty(), "pattern needs at least one index");
        indices.sort_unstable();
        indices.dedup();
        assert!(*indices.last().unwrap() < total, "index out of grid range");
        NdSamplePattern {
            dims: dims.to_vec(),
            indices,
        }
    }

    /// Per-axis extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The sampled flat indices (sorted, distinct).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of samples `m`.
    pub fn num_samples(&self) -> usize {
        self.indices.len()
    }

    /// Achieved sampling fraction `m / total`.
    pub fn fraction(&self) -> f64 {
        self.indices.len() as f64 / self.dims.iter().product::<usize>() as f64
    }

    /// Extracts the sampled values from a full row-major tensor.
    ///
    /// # Panics
    ///
    /// Panics if `full.len()` does not match the tensor element count.
    pub fn gather(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(
            full.len(),
            self.dims.iter().product::<usize>(),
            "grid size mismatch"
        );
        self.indices.iter().map(|&i| full[i]).collect()
    }
}

fn checked_total(dims: &[usize]) -> usize {
    assert!(!dims.is_empty(), "pattern needs at least one axis");
    assert!(dims.iter().all(|&d| d > 0), "axis extents must be positive");
    dims.iter().product()
}

/// An [`NdSamplePattern`] over a `rows x cols` grid, under the rank-2
/// name the paper binaries use. It holds no logic of its own: the
/// constructors forward to the N-D ones (drawing the same indices for
/// the same RNG state), and everything else derefs.
///
/// # Examples
///
/// ```
/// use oscar_cs::measure::SamplePattern;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pat = SamplePattern::random(10, 10, 0.25, &mut rng);
/// assert_eq!(pat.indices().len(), 25);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplePattern(NdSamplePattern);

impl SamplePattern {
    /// `NdSamplePattern::random(&[rows, cols], fraction, rng)`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, fraction: f64, rng: &mut R) -> Self {
        SamplePattern(NdSamplePattern::random(&[rows, cols], fraction, rng))
    }

    /// `NdSamplePattern::from_indices(&[rows, cols], indices)`.
    pub fn from_indices(rows: usize, cols: usize, indices: Vec<usize>) -> Self {
        SamplePattern(NdSamplePattern::from_indices(&[rows, cols], indices))
    }
}

impl std::ops::Deref for SamplePattern {
    type Target = NdSamplePattern;

    fn deref(&self) -> &NdSamplePattern {
        &self.0
    }
}

/// The forward/adjoint measurement operator: a [`DctNd`] synthesis
/// basis sampled at an [`NdSamplePattern`]'s flat indices.
///
/// Evaluates the sampled points directly instead of synthesizing the
/// whole tensor where that is cheaper (see the module's cost model); the
/// result equals [`DctNd::inverse_into`] + gather and scatter +
/// [`DctNd::forward_into`] up to rounding.
#[derive(Clone, Debug)]
pub struct MeasurementOperatorNd<'a> {
    dct: &'a DctNd,
    pattern: &'a NdSamplePattern,
    /// Leading-axis synthesis table, `table[r*rows + k] = D[k][r]`.
    table: Arc<[f64]>,
    /// `(leading index, offset in the slab)` of each sample, in pattern
    /// order.
    coords: Vec<(usize, usize)>,
    /// Most leading-axis slabs a sample-point apply handles: `m` times
    /// this is the leading-axis pass's cost. Applies over more slabs run
    /// the full transform.
    sample_rows: usize,
}

/// The operator under the rank-2 name the paper binaries use.
pub type MeasurementOperator<'a> = MeasurementOperatorNd<'a>;

impl<'a> MeasurementOperatorNd<'a> {
    /// Couples a transform with a sampling pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern dims do not match the transform shape.
    pub fn new(dct: &'a DctNd, pattern: &'a NdSamplePattern) -> Self {
        assert_eq!(dct.shape(), pattern.dims(), "tensor shape mismatch");
        let rows = dct.shape()[0];
        let rest = dct.len() / rows;
        let axis0_cost = if dct.axes()[0].is_fast() {
            AXIS0_FFT_COST * (rows as f64).log2()
        } else {
            rows as f64
        } * dct.len() as f64;
        MeasurementOperatorNd {
            dct,
            pattern,
            table: crate::plan_cache::synthesis_matrix(rows),
            coords: pattern
                .indices()
                .iter()
                .map(|&i| (i / rest, i % rest))
                .collect(),
            sample_rows: (axis0_cost / pattern.num_samples() as f64) as usize,
        }
    }
}

impl SensingOperator for MeasurementOperatorNd<'_> {
    fn signal_len(&self) -> usize {
        self.dct.len()
    }

    fn measurement_len(&self) -> usize {
        self.pattern.num_samples()
    }

    fn make_scratch(&self) -> OperatorScratch {
        OperatorScratch::new(self.dct)
    }

    fn ensure_scratch(&self, scratch: &mut OperatorScratch) {
        scratch.ensure(self.dct);
    }

    /// Transforms the other axes of leading-axis slabs `0..kmax` only
    /// (`kmax` is one past the last slab holding a nonzero), then
    /// evaluates each sample `(r, c)` as `Σ_{k<kmax} D[k][r]·T[k][c]`;
    /// when `kmax` slabs cost more than the leading-axis pass,
    /// synthesizes the tensor and gathers instead.
    fn forward_into(&self, s: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(s.len(), self.dct.len(), "signal length mismatch");
        assert_eq!(
            out.len(),
            self.pattern.num_samples(),
            "output length mismatch"
        );
        let OperatorScratch {
            grid,
            tmp,
            transform,
            ..
        } = scratch;
        let rows = self.dct.shape()[0];
        let rest = s.len() / rows;
        let kmax = s
            .chunks_exact(rest)
            .rposition(|slab| slab.iter().any(|&v| v != 0.0))
            .map_or(0, |k| k + 1);
        if kmax > self.sample_rows {
            self.dct.inverse_into(s, grid, transform);
            for (o, &idx) in out.iter_mut().zip(self.pattern.indices()) {
                *o = grid[idx];
            }
            return;
        }
        let t = &mut tmp[..kmax * rest];
        t.copy_from_slice(&s[..kmax * rest]);
        self.dct.apply_trailing(t, transform, false);
        // `T` transposed, so that each sample's sum reads one contiguous
        // run.
        let t_t = &mut grid[..kmax * rest];
        transpose(t, t_t, kmax, rest);
        for (o, &(r, c)) in out.iter_mut().zip(&self.coords) {
            let d = &self.table[r * rows..r * rows + kmax];
            *o = d
                .iter()
                .zip(&t_t[c * kmax..(c + 1) * kmax])
                .fold(0.0, |acc, (w, v)| acc + w * v);
        }
    }

    /// Accumulates `U[k][c_i] += y_i·D[k][r_i]` over the samples, then
    /// runs the forward transform of the other axes over `U`;
    /// when all `rows` slabs cost more than the leading-axis pass,
    /// scatters and analyzes the tensor instead.
    fn adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(
            y.len(),
            self.pattern.num_samples(),
            "measurement length mismatch"
        );
        assert_eq!(out.len(), self.dct.len(), "output length mismatch");
        let OperatorScratch {
            grid, transform, ..
        } = scratch;
        let rows = self.dct.shape()[0];
        if rows > self.sample_rows {
            grid.fill(0.0);
            for (&idx, &v) in self.pattern.indices().iter().zip(y) {
                grid[idx] = v;
            }
            self.dct.forward_into(grid, out, transform);
            return;
        }
        // `U` transposed, so that each sample adds one contiguous run.
        let u_t = grid;
        u_t.fill(0.0);
        for (&(r, c), &v) in self.coords.iter().zip(y) {
            let d = &self.table[r * rows..(r + 1) * rows];
            for (u, &w) in u_t[c * rows..(c + 1) * rows].iter_mut().zip(d) {
                *u += v * w;
            }
        }
        transpose(u_t, out, out.len() / rows, rows);
        self.dct.apply_trailing(out, transform, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::Dct2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_pattern_has_distinct_sorted_indices() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = SamplePattern::random(20, 30, 0.1, &mut rng);
        assert_eq!(p.num_samples(), 60);
        for w in p.indices().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn fraction_matches_request() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = SamplePattern::random(10, 10, 0.37, &mut rng);
        assert_eq!(p.num_samples(), 37);
        assert!((p.fraction() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn gather_selects_values() {
        let p = SamplePattern::from_indices(2, 3, vec![5, 0, 2]);
        let full = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        assert_eq!(p.gather(&full), vec![10.0, 12.0, 15.0]);
    }

    fn forward(op: &MeasurementOperator, s: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; op.measurement_len()];
        op.forward_into(s, &mut out, &mut op.make_scratch());
        out
    }

    fn adjoint(op: &MeasurementOperator, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; op.signal_len()];
        op.adjoint_into(y, &mut out, &mut op.make_scratch());
        out
    }

    #[test]
    fn adjoint_is_transpose_of_forward() {
        // <A s, y> == <s, A^T y> for random vectors.
        let dct = Dct2d::new(6, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let pattern = SamplePattern::random(6, 5, 0.4, &mut rng);
        let op = MeasurementOperator::new(&dct, &pattern);
        use rand::Rng;
        let s: Vec<f64> = (0..30).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..op.measurement_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let lhs: f64 = forward(&op, &s).iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = adjoint(&op, &y).iter().zip(&s).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn operator_norm_at_most_one() {
        // Power iteration estimate of ||A^T A||.
        let dct = Dct2d::new(8, 8);
        let mut rng = StdRng::seed_from_u64(12);
        let pattern = SamplePattern::random(8, 8, 0.3, &mut rng);
        let op = MeasurementOperator::new(&dct, &pattern);
        use rand::Rng;
        let mut v: Vec<f64> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut lambda = 0.0;
        for _ in 0..50 {
            let w = adjoint(&op, &forward(&op, &v));
            lambda = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if lambda == 0.0 {
                break;
            }
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / lambda;
            }
        }
        assert!(lambda <= 1.0 + 1e-9, "operator norm {lambda} > 1");
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1]")]
    fn rejects_zero_fraction() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = SamplePattern::random(4, 4, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "index out of grid range")]
    fn rejects_out_of_range_index() {
        let _ = SamplePattern::from_indices(2, 2, vec![4]);
    }

    #[test]
    #[should_panic(expected = "pattern needs at least one index")]
    fn from_indices_rejects_empty_list() {
        let _ = SamplePattern::from_indices(3, 3, vec![]);
    }

    #[test]
    #[should_panic(expected = "index out of grid range")]
    fn from_indices_rejects_out_of_range_among_valid() {
        // One bad index hiding in an otherwise valid, unsorted list
        // still panics (the check runs after sort, on the maximum).
        let _ = SamplePattern::from_indices(3, 4, vec![0, 7, 12, 3]);
    }

    #[test]
    fn from_indices_dedups_and_sorts_duplicate_heavy_input() {
        // Heavily duplicated, reverse-ordered input collapses to the
        // sorted distinct index set; m and the fraction follow suit.
        let p = SamplePattern::from_indices(2, 3, vec![5, 5, 5, 2, 2, 0, 5, 0, 2, 5]);
        assert_eq!(p.indices(), &[0, 2, 5]);
        assert_eq!(p.num_samples(), 3);
        assert!((p.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_indices_boundary_index_is_accepted() {
        // rows*cols - 1 is the last valid flat index.
        let p = SamplePattern::from_indices(2, 3, vec![5]);
        assert_eq!(p.indices(), &[5]);
    }
}
