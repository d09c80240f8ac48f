//! The compressed-sensing measurement operator `A = C Ψ`.
//!
//! `Ψ` is the inverse separable DCT (so the unknown is the coefficient
//! vector `s` with landscape `x = Ψ s`), and `C` selects the `m` sampled
//! grid points. Because `Ψ` is orthonormal and `C` a row selector,
//! `||A||_2 <= 1`, which lets the FISTA solver use a unit step size with
//! no line search.
//!
//! Two concrete operators share the [`SensingOperator`] contract the
//! solvers are generic over: [`MeasurementOperator`] couples a
//! [`Dct2d`] with a [`SamplePattern`] (the paper's p = 1 grids), and
//! [`MeasurementOperatorNd`] couples a [`DctNd`] with an
//! [`NdSamplePattern`] (p >= 2 QAOA tensors and VQE parameter scans).
//!
//! # Cost model
//!
//! The N-D operator synthesizes (or analyzes) the whole tensor and
//! gathers (or scatters) the `m` samples: two full transforms per FISTA
//! iteration, whatever `m` is.
//!
//! The 2-D operator evaluates only the sampled points where that is
//! cheaper. With `x[r][c] = Σ_k D[k][r]·T[k][c]`, where `D` is the
//! `rows x rows` orthonormal DCT matrix of axis 0 and `T` the
//! coefficient rows after the axis-1 inverse, and with `kmax` one past
//! the last nonzero coefficient row:
//!
//! * `A s` runs the axis-1 pass on rows `0..kmax` only, then `m·kmax`
//!   multiply-adds (against `T` stored transposed, so each sum reads
//!   two contiguous runs);
//! * `Aᵀ y` accumulates `U[k][c_i] += y_i·D[k][r_i]` (`m·rows`
//!   multiply-adds, into `U` stored transposed so each sample adds one
//!   contiguous table row), then runs the axis-1 forward pass over `U`.
//!
//! Neither runs an axis-0 pass, which costs about `n·rows`
//! multiply-adds on the dense kernel and `AXIS0_FFT_COST·n·log2(rows)`
//! on an FFT kernel. An apply whose `m·k` (`k = kmax` forward,
//! `k = rows` adjoint) exceeds that runs the full transform plus a
//! gather or scatter instead. On large, densely sampled grids (144x225
//! at 30%, say) every adjoint and the forwards of dense early iterates
//! therefore keep the full-transform cost. FISTA's sparse iterates
//! keep `kmax` small (8–12 of 50 rows on the paper's 50x100 grid once
//! the support settles), so at 10% sampling there the forward costs
//! about a fifth and the adjoint about 60% of a full transform. The
//! table, `D` transposed, comes from `plan_cache::synthesis_matrix`,
//! shared by every operator of the same row count.

use crate::dct::{Dct2d, DctNd};
use crate::workspace::{OperatorScratch, TransformScratch};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Multiply-adds per grid element that one axis-0 pass of an FFT
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

/// A random uniform sampling pattern over a `rows x cols` grid.
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
pub struct SamplePattern {
    rows: usize,
    cols: usize,
    indices: Vec<usize>,
}

impl SamplePattern {
    /// Samples `ceil(fraction * rows * cols)` distinct grid points uniformly
    /// at random (without replacement).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, fraction: f64, rng: &mut R) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        let total = rows * cols;
        let m = ((fraction * total as f64).ceil() as usize).clamp(1, total);
        Self::random_count(rows, cols, m, rng)
    }

    /// Samples exactly `m` distinct grid points uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m <= rows * cols`.
    pub fn random_count<R: Rng + ?Sized>(rows: usize, cols: usize, m: usize, rng: &mut R) -> Self {
        let total = rows * cols;
        assert!(m > 0 && m <= total, "sample count out of range");
        let mut all: Vec<usize> = (0..total).collect();
        all.shuffle(rng);
        let mut indices = all[..m].to_vec();
        indices.sort_unstable();
        SamplePattern {
            rows,
            cols,
            indices,
        }
    }

    /// Builds a pattern from explicit flat indices (deduplicated, sorted).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or the list is empty.
    pub fn from_indices(rows: usize, cols: usize, mut indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "pattern needs at least one index");
        indices.sort_unstable();
        indices.dedup();
        assert!(
            *indices.last().unwrap() < rows * cols,
            "index out of grid range"
        );
        SamplePattern {
            rows,
            cols,
            indices,
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The sampled flat indices (sorted, distinct).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of samples `m`.
    pub fn num_samples(&self) -> usize {
        self.indices.len()
    }

    /// Achieved sampling fraction `m / (rows * cols)`.
    pub fn fraction(&self) -> f64 {
        self.indices.len() as f64 / (self.rows * self.cols) as f64
    }

    /// (row, col) coordinates of each sample.
    pub fn coords(&self) -> Vec<(usize, usize)> {
        self.indices
            .iter()
            .map(|&i| (i / self.cols, i % self.cols))
            .collect()
    }

    /// Extracts the sampled values from a full row-major landscape.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != rows * cols`.
    pub fn gather(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(full.len(), self.rows * self.cols, "grid size mismatch");
        self.indices.iter().map(|&i| full[i]).collect()
    }

    /// Restricts the pattern to its first `m` indices (in index order),
    /// used by eager reconstruction when late samples are dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m <= num_samples()`.
    pub fn truncated(&self, m: usize) -> SamplePattern {
        assert!(m > 0 && m <= self.indices.len(), "truncation out of range");
        SamplePattern {
            rows: self.rows,
            cols: self.cols,
            indices: self.indices[..m].to_vec(),
        }
    }
}

/// The forward/adjoint measurement operator used by the sparse solvers.
///
/// Evaluates the sampled points directly instead of synthesizing the
/// whole grid where that is cheaper (see the module's cost model); the
/// result equals [`Dct2d::inverse_into`] + gather and scatter +
/// [`Dct2d::forward_into`] up to rounding.
#[derive(Clone, Debug)]
pub struct MeasurementOperator<'a> {
    dct: &'a Dct2d,
    pattern: &'a SamplePattern,
    /// Axis-0 synthesis table, `table[r*rows + k] = D[k][r]`.
    table: Arc<[f64]>,
    /// `(row, col)` of each sample, in pattern order.
    coords: Vec<(usize, usize)>,
    /// Most coefficient rows a sample-point apply handles: `m` times
    /// this is the axis-0 pass's cost. Applies over more rows run the
    /// full transform.
    sample_rows: usize,
}

impl<'a> MeasurementOperator<'a> {
    /// Couples a transform with a sampling pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern grid does not match the transform grid.
    pub fn new(dct: &'a Dct2d, pattern: &'a SamplePattern) -> Self {
        assert_eq!(dct.rows(), pattern.rows(), "grid rows mismatch");
        assert_eq!(dct.cols(), pattern.cols(), "grid cols mismatch");
        let rows = dct.rows() as f64;
        // Column kernel id 0 is the dense matrix kernel.
        let axis0_cost = if dct.kernel_kinds().1 == 0 {
            rows
        } else {
            AXIS0_FFT_COST * rows.log2()
        } * dct.len() as f64;
        MeasurementOperator {
            dct,
            pattern,
            table: crate::plan_cache::synthesis_matrix(dct.rows()),
            coords: pattern.coords(),
            sample_rows: (axis0_cost / pattern.num_samples().max(1) as f64) as usize,
        }
    }

    /// Whether some apply runs the full transform, so its scratch needs
    /// the column pass's buffers.
    fn uses_full_transform(&self) -> bool {
        self.sample_rows < self.dct.rows()
    }

    /// Signal dimension `n = rows * cols`.
    pub fn signal_len(&self) -> usize {
        self.dct.len()
    }

    /// Measurement dimension `m`.
    pub fn measurement_len(&self) -> usize {
        self.pattern.num_samples()
    }

    /// The sparsifying transform this operator couples to.
    pub fn dct(&self) -> &Dct2d {
        self.dct
    }

    /// The sampling pattern this operator couples to.
    pub fn pattern(&self) -> &SamplePattern {
        self.pattern
    }

    /// Applies `A s = C Ψ s`: coefficients -> sampled landscape values.
    ///
    /// Convenience wrapper allocating transient scratch; the solver hot
    /// loop uses [`Self::forward_into`].
    pub fn forward(&self, s: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.measurement_len()];
        let mut scratch = self.make_scratch();
        self.forward_into(s, &mut out, &mut scratch);
        out
    }

    /// Zero-allocation `A s`: writes the `m` sampled values into `out`.
    ///
    /// Runs the axis-1 inverse on coefficient rows `0..kmax` only (`kmax`
    /// is one past the last row holding a nonzero), then evaluates each
    /// sample `(r, c)` as `Σ_{k<kmax} D[k][r]·T[k][c]`; when `kmax`
    /// rows cost more than the axis-0 pass, synthesizes the grid and
    /// gathers instead.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch sized for another grid.
    pub fn forward_into(&self, s: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(s.len(), self.dct.len(), "signal length mismatch");
        assert_eq!(
            out.len(),
            self.pattern.num_samples(),
            "output length mismatch"
        );
        let TransformScratch::D2(dct_scratch) = &mut scratch.transform else {
            panic!("scratch sized for another transform kind");
        };
        let (rows, cols) = (self.dct.rows(), self.dct.cols());
        let kmax = s
            .chunks_exact(cols)
            .rposition(|row| row.iter().any(|&v| v != 0.0))
            .map_or(0, |k| k + 1);
        if kmax > self.sample_rows {
            self.dct.inverse_into(s, &mut scratch.grid, dct_scratch);
            for (o, &idx) in out.iter_mut().zip(self.pattern.indices()) {
                *o = scratch.grid[idx];
            }
            return;
        }
        if kmax == 0 {
            out.fill(0.0);
            return;
        }
        let t_t = &mut scratch.grid[..kmax * cols];
        self.dct
            .row_pass_into_transposed(&s[..kmax * cols], t_t, dct_scratch, false);
        for (o, &(r, c)) in out.iter_mut().zip(&self.coords) {
            let d = &self.table[r * rows..r * rows + kmax];
            *o = d
                .iter()
                .zip(&t_t[c * kmax..(c + 1) * kmax])
                .fold(0.0, |acc, (w, v)| acc + w * v);
        }
    }

    /// Applies the adjoint `A^T y = Ψ^T C^T y`: residuals -> coefficient
    /// gradient (transient-scratch wrapper over [`Self::adjoint_into`]).
    pub fn adjoint(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.signal_len()];
        let mut scratch = self.make_scratch();
        self.adjoint_into(y, &mut out, &mut scratch);
        out
    }

    /// Zero-allocation `A^T y`: writes the `n` coefficient-domain values
    /// into `out`.
    ///
    /// Accumulates `U[k][c_i] += y_i·D[k][r_i]` over the samples (into
    /// `U` stored transposed), then runs the axis-1 forward pass over
    /// `U`; when `rows` rows cost more than the axis-0 pass, scatters
    /// and analyzes the grid instead.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch sized for another grid.
    pub fn adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(
            y.len(),
            self.pattern.num_samples(),
            "measurement length mismatch"
        );
        assert_eq!(out.len(), self.dct.len(), "output length mismatch");
        let TransformScratch::D2(dct_scratch) = &mut scratch.transform else {
            panic!("scratch sized for another transform kind");
        };
        let rows = self.dct.rows();
        if rows > self.sample_rows {
            scratch.grid.fill(0.0);
            for (&idx, &v) in self.pattern.indices().iter().zip(y) {
                scratch.grid[idx] = v;
            }
            self.dct.forward_into(&scratch.grid, out, dct_scratch);
            return;
        }
        let u_t = &mut scratch.grid;
        u_t.fill(0.0);
        for (&(r, c), &v) in self.coords.iter().zip(y) {
            let d = &self.table[r * rows..(r + 1) * rows];
            for (u, &w) in u_t[c * rows..(c + 1) * rows].iter_mut().zip(d) {
                *u += v * w;
            }
        }
        self.dct
            .row_pass_from_transposed(u_t, out, dct_scratch, true);
    }
}

impl SensingOperator for MeasurementOperator<'_> {
    fn signal_len(&self) -> usize {
        MeasurementOperator::signal_len(self)
    }

    fn measurement_len(&self) -> usize {
        MeasurementOperator::measurement_len(self)
    }

    fn make_scratch(&self) -> OperatorScratch {
        OperatorScratch::new_2d(self.dct, self.uses_full_transform())
    }

    fn ensure_scratch(&self, scratch: &mut OperatorScratch) {
        scratch.ensure(self.dct, self.uses_full_transform());
    }

    fn forward_into(&self, s: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        MeasurementOperator::forward_into(self, s, out, scratch);
    }

    fn adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        MeasurementOperator::adjoint_into(self, y, out, scratch);
    }
}

/// A random uniform sampling pattern over a row-major N-D tensor.
///
/// Flat indices follow the same discipline as [`SamplePattern`]
/// (distinct, sorted ascending); in fact, for the same element count,
/// sampling fraction, and RNG state the two draw the **same** flat
/// index set, so 2-D results are unaffected by which pattern type
/// gathers them.
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
    /// Panics unless `0 < fraction <= 1`, and unless every extent in
    /// `dims` is positive.
    pub fn random<R: Rng + ?Sized>(dims: &[usize], fraction: f64, rng: &mut R) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        let total = checked_total(dims);
        let m = ((fraction * total as f64).ceil() as usize).clamp(1, total);
        Self::random_count(dims, m, rng)
    }

    /// Samples exactly `m` distinct tensor points uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m <= dims product`.
    pub fn random_count<R: Rng + ?Sized>(dims: &[usize], m: usize, rng: &mut R) -> Self {
        let total = checked_total(dims);
        assert!(m > 0 && m <= total, "sample count out of range");
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

/// The N-D forward/adjoint measurement operator: a [`DctNd`] synthesis
/// basis sampled at an [`NdSamplePattern`]'s flat indices.
#[derive(Clone, Debug)]
pub struct MeasurementOperatorNd<'a> {
    dct: &'a DctNd,
    pattern: &'a NdSamplePattern,
}

impl<'a> MeasurementOperatorNd<'a> {
    /// Couples a transform with a sampling pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern dims do not match the transform shape.
    pub fn new(dct: &'a DctNd, pattern: &'a NdSamplePattern) -> Self {
        assert_eq!(dct.shape(), pattern.dims(), "tensor shape mismatch");
        MeasurementOperatorNd { dct, pattern }
    }

    /// The sparsifying transform this operator couples to.
    pub fn dct(&self) -> &DctNd {
        self.dct
    }

    /// The sampling pattern this operator couples to.
    pub fn pattern(&self) -> &NdSamplePattern {
        self.pattern
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
        OperatorScratch::new_nd(self.dct)
    }

    fn ensure_scratch(&self, scratch: &mut OperatorScratch) {
        scratch.ensure_nd(self.dct);
    }

    fn forward_into(&self, s: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(s.len(), self.dct.len(), "signal length mismatch");
        assert_eq!(
            out.len(),
            self.pattern.num_samples(),
            "output length mismatch"
        );
        let TransformScratch::Nd(nd_scratch) = &mut scratch.transform else {
            panic!("scratch sized for another transform kind");
        };
        self.dct.inverse_into(s, &mut scratch.grid, nd_scratch);
        for (o, &idx) in out.iter_mut().zip(self.pattern.indices().iter()) {
            *o = scratch.grid[idx];
        }
    }

    fn adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut OperatorScratch) {
        assert_eq!(
            y.len(),
            self.pattern.num_samples(),
            "measurement length mismatch"
        );
        assert_eq!(out.len(), self.dct.len(), "output length mismatch");
        let TransformScratch::Nd(nd_scratch) = &mut scratch.transform else {
            panic!("scratch sized for another transform kind");
        };
        scratch.grid.fill(0.0);
        for (&idx, &v) in self.pattern.indices().iter().zip(y.iter()) {
            scratch.grid[idx] = v;
        }
        self.dct.forward_into(&scratch.grid, out, nd_scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn coords_invert_flat_indices() {
        let p = SamplePattern::from_indices(3, 4, vec![0, 5, 11]);
        assert_eq!(p.coords(), vec![(0, 0), (1, 1), (2, 3)]);
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
        let lhs: f64 = op.forward(&s).iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = op.adjoint(&y).iter().zip(&s).map(|(a, b)| a * b).sum();
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
            let w = op.adjoint(&op.forward(&v));
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
    fn truncated_keeps_prefix() {
        let p = SamplePattern::from_indices(2, 4, vec![1, 3, 6, 7]);
        let t = p.truncated(2);
        assert_eq!(t.indices(), &[1, 3]);
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
        assert_eq!(p.coords(), vec![(1, 2)]);
    }
}
