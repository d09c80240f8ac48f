//! Landscapes: cost values over an N-D parameter tensor.
//!
//! [`NdLandscape`] is the one landscape type: generation, values,
//! argmin, min/max and IQR live there. [`Landscape`] is its rank-2 view
//! under the paper's `(β, γ)` grid names, and [`ShapedLandscape`] is the
//! job pipeline's landscape of either shape; both dereference to the
//! [`NdLandscape`] they hold and add no logic of their own.

use crate::grid::{Grid2d, Shape, TensorShape};
use oscar_qsim::qaoa::QaoaEvaluator;
use std::ops::Deref;

/// A cost landscape over a [`TensorShape`] (row-major values, last axis
/// contiguous): p = 1 grids, p >= 2 QAOA tensors and VQE parameter
/// scans alike.
///
/// # Examples
///
/// ```
/// use oscar_core::grid::{Axis, TensorShape};
/// use oscar_core::landscape::NdLandscape;
///
/// let shape = TensorShape::new(vec![
///     Axis::new(-1.0, 1.0, 3),
///     Axis::new(-1.0, 1.0, 3),
///     Axis::new(-1.0, 1.0, 3),
/// ]);
/// let l = NdLandscape::generate(shape, |p| p.iter().map(|x| x * x).sum());
/// assert_eq!(l.values().len(), 27);
/// assert_eq!(l.argmin().1, vec![0.0, 0.0, 0.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NdLandscape {
    shape: TensorShape,
    values: Vec<f64>,
}

impl NdLandscape {
    /// Wraps existing row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shape.len()`.
    pub fn from_values(shape: TensorShape, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), shape.len(), "value count must match shape");
        NdLandscape { shape, values }
    }

    /// Evaluates `f(params)` at every tensor point, serially in
    /// row-major order (the "grid search").
    pub fn generate(shape: TensorShape, mut f: impl FnMut(&[f64]) -> f64) -> Self {
        let mut point = vec![0.0; shape.rank()];
        let values = (0..shape.len())
            .map(|i| {
                shape.point_into(i, &mut point);
                f(&point)
            })
            .collect();
        NdLandscape { shape, values }
    }

    /// Parallel generation (last-axis-aligned chunks across worker
    /// threads) where the closure also receives the flat row-major point
    /// index: the hook for per-point seeded noise, since a counter-based
    /// draw keyed by the index makes the result independent of chunk
    /// scheduling. Results are identical to a serial index loop for any
    /// pure `f`.
    pub fn generate_indexed_par(
        shape: TensorShape,
        f: impl Fn(usize, &[f64]) -> f64 + Sync,
    ) -> Self {
        let granule = shape.axes()[shape.rank() - 1].n;
        let mut values = vec![0.0; shape.len()];
        oscar_par::for_each_chunk_mut(&mut values, granule, |offset, chunk| {
            let mut point = vec![0.0; shape.rank()];
            for (k, v) in chunk.iter_mut().enumerate() {
                shape.point_into(offset + k, &mut point);
                *v = f(offset + k, &point);
            }
        });
        NdLandscape { shape, values }
    }

    /// The shape.
    pub fn shape(&self) -> &TensorShape {
        &self.shape
    }

    /// Row-major values (last axis contiguous).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The row-major values, consuming the landscape.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The value at per-axis indices `index`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one in-range index per axis.
    pub fn at(&self, index: &[usize]) -> f64 {
        assert_eq!(index.len(), self.shape.rank(), "one index per axis");
        let flat = index
            .iter()
            .zip(self.shape.axes())
            .fold(0, |flat, (&i, axis)| {
                assert!(i < axis.n, "index out of range");
                flat * axis.n + i
            });
        self.values[flat]
    }

    /// The minimum value and its parameter-vector location.
    pub fn argmin(&self) -> (f64, Vec<f64>) {
        let (idx, &val) = self
            .values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("landscape is non-empty");
        (val, self.shape.point(idx))
    }

    /// The maximum value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The minimum value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Interquartile range `Q3 - Q1` of the values — the normalizer of the
    /// paper's NRMSE metric (Eq. 1).
    pub fn iqr(&self) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25)
    }
}

/// A cost landscape over a [`Grid2d`] (row-major values, rows = β): the
/// rank-2 [`NdLandscape`] it dereferences to, under the grid's
/// `(β, γ)` names.
///
/// # Examples
///
/// ```
/// use oscar_core::grid::Grid2d;
/// use oscar_core::landscape::Landscape;
///
/// let grid = Grid2d::small_p1(6, 8);
/// let flat = Landscape::generate(grid, |beta, gamma| beta + gamma);
/// assert_eq!(flat.values().len(), 48);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Landscape(NdLandscape);

impl Landscape {
    /// Wraps existing row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != grid.len()`.
    pub fn from_values(grid: Grid2d, values: Vec<f64>) -> Self {
        Landscape(NdLandscape::from_values(grid.into(), values))
    }

    /// [`NdLandscape::generate`] over the grid, as `f(beta, gamma)`.
    pub fn generate(grid: Grid2d, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        Landscape(NdLandscape::generate(grid.into(), |p| f(p[0], p[1])))
    }

    /// [`NdLandscape::generate_indexed_par`] over the grid, as
    /// `f(index, beta, gamma)`.
    pub fn generate_indexed_par(grid: Grid2d, f: impl Fn(usize, f64, f64) -> f64 + Sync) -> Self {
        Landscape(NdLandscape::generate_indexed_par(grid.into(), |i, p| {
            f(i, p[0], p[1])
        }))
    }

    /// Generates the exact p=1 QAOA landscape using the fast evaluator.
    ///
    /// Grid points are independent circuit evaluations, so they run in
    /// parallel across worker threads ([`Self::generate_indexed_par`]);
    /// inside a worker the evaluator's own gate-level parallelism stands
    /// down automatically (`oscar-par` regions do not nest).
    pub fn from_qaoa(grid: Grid2d, eval: &QaoaEvaluator) -> Self {
        Landscape::generate_indexed_par(grid, |_, beta, gamma| eval.expectation(&[beta], &[gamma]))
    }

    /// The grid: the view's two axes under their β and γ names.
    pub fn grid(&self) -> Grid2d {
        let axes = self.0.shape().axes();
        Grid2d::new(axes[0], axes[1])
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.0.at(&[row, col])
    }

    /// The minimum value and its `(beta, gamma)` location.
    pub fn argmin(&self) -> (f64, (f64, f64)) {
        let (val, at) = self.0.argmin();
        (val, (at[0], at[1]))
    }

    /// Views a rank-2 landscape under the grid names.
    ///
    /// # Panics
    ///
    /// Panics if `landscape` is not rank 2.
    pub(crate) fn from_nd(landscape: NdLandscape) -> Self {
        assert_eq!(landscape.shape().rank(), 2, "a grid landscape is rank 2");
        Landscape(landscape)
    }
}

impl Deref for Landscape {
    type Target = NdLandscape;

    fn deref(&self) -> &NdLandscape {
        &self.0
    }
}

/// A landscape of either shape, as produced by the shape-generic job
/// pipeline. Both variants hold an [`NdLandscape`], which this
/// dereferences to; the variant records only which [`Shape`] the
/// landscape came from.
#[derive(Clone, Debug, PartialEq)]
pub enum ShapedLandscape {
    /// A [`Landscape`] over a [`Grid2d`].
    Grid2d(Landscape),
    /// An [`NdLandscape`] over a [`TensorShape`].
    Tensor(NdLandscape),
}

impl ShapedLandscape {
    /// Wraps row-major `values` over `shape`, in the matching variant.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shape.len()`.
    pub fn from_values(shape: &Shape, values: Vec<f64>) -> Self {
        let landscape = NdLandscape::from_values(shape.to_tensor(), values);
        match shape {
            Shape::Grid2d(_) => ShapedLandscape::Grid2d(Landscape::from_nd(landscape)),
            Shape::Tensor(_) => ShapedLandscape::Tensor(landscape),
        }
    }

    /// The underlying 2-D landscape, if this is the grid variant.
    pub fn as_grid2d(&self) -> Option<&Landscape> {
        match self {
            ShapedLandscape::Grid2d(l) => Some(l),
            ShapedLandscape::Tensor(_) => None,
        }
    }

    /// The underlying N-D landscape, if this is the tensor variant.
    pub fn as_tensor(&self) -> Option<&NdLandscape> {
        match self {
            ShapedLandscape::Grid2d(_) => None,
            ShapedLandscape::Tensor(l) => Some(l),
        }
    }
}

impl Deref for ShapedLandscape {
    type Target = NdLandscape;

    fn deref(&self) -> &NdLandscape {
        match self {
            ShapedLandscape::Grid2d(l) => l,
            ShapedLandscape::Tensor(l) => l,
        }
    }
}

impl From<Landscape> for ShapedLandscape {
    fn from(l: Landscape) -> Self {
        ShapedLandscape::Grid2d(l)
    }
}

impl From<NdLandscape> for ShapedLandscape {
    fn from(l: NdLandscape) -> Self {
        ShapedLandscape::Tensor(l)
    }
}

/// Linear-interpolated quantile of pre-sorted data.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;

    #[test]
    fn generate_orders_row_major() {
        let grid = Grid2d::small_p1(3, 4);
        let l = Landscape::generate(grid, |b, g| b * 1000.0 + g);
        // Row-major: first row sweeps gamma at fixed (lowest) beta.
        assert!(l.at(0, 0) < l.at(0, 3));
        assert!(l.at(0, 0) < l.at(1, 0));
    }

    #[test]
    fn argmin_finds_minimum() {
        let grid = Grid2d::small_p1(11, 11);
        let l = Landscape::generate(grid, |b, g| (b - grid.beta.value(3)).powi(2) + g.powi(2));
        let (val, (b, g)) = l.argmin();
        assert!(val < 1e-12);
        assert!((b - grid.beta.value(3)).abs() < 1e-12);
        assert!(g.abs() < 1e-9);
    }

    #[test]
    fn iqr_of_uniform_ramp() {
        let grid = Grid2d::small_p1(2, 101);
        // values 0..=100 twice: IQR = 50.
        let mut c = -1.0;
        let l = Landscape::generate(grid, |_, _| {
            c += 1.0;
            c % 101.0
        });
        assert!((l.iqr() - 50.0).abs() < 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        let data = vec![0.0, 1.0, 2.0, 3.0];
        assert!((quantile_sorted(&data, 0.5) - 1.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&data, 0.0), 0.0);
        assert_eq!(quantile_sorted(&data, 1.0), 3.0);
    }

    #[test]
    fn from_qaoa_matches_direct_eval() {
        use oscar_qsim::qaoa::QaoaEvaluator;
        let eval = QaoaEvaluator::new(2, vec![0.0, -1.0, -1.0, 0.0]);
        let grid = Grid2d::small_p1(4, 4);
        let l = Landscape::from_qaoa(grid, &eval);
        let (b, g) = grid.point(5);
        assert!((l.values()[5] - eval.expectation(&[b], &[g])).abs() < 1e-12);
    }

    #[test]
    fn generate_indexed_par_passes_flat_indices() {
        let grid = Grid2d::small_p1(5, 7);
        let l = Landscape::generate_indexed_par(grid, |i, _, _| i as f64);
        let expect: Vec<f64> = (0..grid.len()).map(|i| i as f64).collect();
        assert_eq!(l.values(), &expect[..]);
    }

    #[test]
    #[should_panic(expected = "value count must match")]
    fn rejects_wrong_length() {
        let _ = Landscape::from_values(Grid2d::small_p1(3, 3), vec![0.0; 5]);
    }

    #[test]
    fn nd_generate_indexed_par_matches_serial_generate() {
        use crate::grid::Axis;
        let shape = TensorShape::new(vec![
            Axis::new(-1.0, 1.0, 3),
            Axis::new(0.0, 2.0, 4),
            Axis::new(-0.5, 0.5, 5),
        ]);
        let f = |p: &[f64]| p[0] * 7.0 + p[1] * p[1] - p[2];
        let serial = NdLandscape::generate(shape.clone(), f);
        let par = NdLandscape::generate_indexed_par(shape, |_, p| f(p));
        assert_eq!(serial.values(), par.values());
    }

    #[test]
    fn nd_argmin_reports_parameter_vector() {
        use crate::grid::Axis;
        let shape = TensorShape::new(vec![
            Axis::new(-1.0, 1.0, 5),
            Axis::new(-1.0, 1.0, 5),
            Axis::new(-1.0, 1.0, 5),
            Axis::new(-1.0, 1.0, 5),
        ]);
        let l = NdLandscape::generate(shape, |p| {
            (p[0] - 0.5).powi(2) + p[1].powi(2) + (p[2] + 0.5).powi(2) + p[3].powi(2)
        });
        let (val, at) = l.argmin();
        assert!(val < 1e-12);
        assert_eq!(at, vec![0.5, 0.0, -0.5, 0.0]);
    }

    #[test]
    fn shaped_landscape_unifies_both_variants() {
        use crate::grid::Axis;
        let g = Landscape::generate(Grid2d::small_p1(3, 4), |b, g| b + g);
        let shaped: ShapedLandscape = g.clone().into();
        assert_eq!(shaped.shape().dims(), vec![3, 4]);
        assert_eq!(shaped.values(), g.values());
        let (v, at) = shaped.argmin();
        let (gv, (b, gm)) = g.argmin();
        assert_eq!((v, at), (gv, vec![b, gm]));

        let t = NdLandscape::generate(TensorShape::new(vec![Axis::new(0.0, 1.0, 2); 3]), |p| {
            p.iter().sum()
        });
        let shaped: ShapedLandscape = t.clone().into();
        assert_eq!(shaped.shape().dims(), vec![2, 2, 2]);
        assert!(shaped.as_tensor().is_some() && shaped.as_grid2d().is_none());
    }

    #[test]
    fn from_values_keeps_the_shape_variant() {
        let grid = Grid2d::small_p1(3, 4);
        let values: Vec<f64> = (0..12).map(f64::from).collect();
        let shaped = ShapedLandscape::from_values(&Shape::Grid2d(grid), values.clone());
        assert_eq!(
            shaped.as_grid2d(),
            Some(&Landscape::from_values(grid, values.clone()))
        );
        let rank2 = Shape::Tensor(grid.into());
        let shaped = ShapedLandscape::from_values(&rank2, values.clone());
        assert_eq!(
            shaped.as_tensor(),
            Some(&NdLandscape::from_values(grid.into(), values))
        );
    }

    #[test]
    fn grid_view_matches_its_rank2_landscape() {
        let grid = Grid2d::small_p1(5, 7);
        let f = |b: f64, g: f64| (b - 0.1).powi(2) + (g + 0.3).powi(2);
        let l = Landscape::generate(grid, f);
        let nd = NdLandscape::generate(grid.into(), |p| f(p[0], p[1]));
        assert_eq!(*l, nd);
        assert_eq!(l.grid(), grid);
        assert_eq!(l.at(2, 3), nd.at(&[2, 3]));
        assert_eq!(l.at(2, 3), l.values()[2 * 7 + 3]);
        let (v, (b, g)) = l.argmin();
        assert_eq!((v, vec![b, g]), nd.argmin());
        assert_eq!(
            *Landscape::generate_indexed_par(grid, |_, b, g| f(b, g)),
            nd
        );
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn at_rejects_out_of_range_index() {
        let l = Landscape::generate(Grid2d::small_p1(3, 4), |b, g| b + g);
        let _ = l.at(0, 4);
    }
}
