//! Rectangular bivariate spline interpolation (paper §7).
//!
//! Optimizers need a continuous objective, but reconstructions live on a
//! discrete grid. The paper fills the gaps with SciPy's
//! `RectBivariateSpline`; we implement the same class of interpolant —
//! natural cubic splines applied separably (spline along γ in each row,
//! then a spline across the row results along β). Queries cost
//! `O(rows + log cols)` after an `O(rows · cols)` setup per γ-column pass.

use crate::grid::{Grid2d, TensorShape};
use crate::landscape::{Landscape, NdLandscape};

/// A 1-D natural cubic spline through `(xs[i], ys[i])`.
#[derive(Clone, Debug)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots (natural boundary: zero at ends).
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 points or `xs` is not strictly increasing.
    pub fn fit(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot count mismatch");
        assert!(xs.len() >= 2, "need at least two knots");
        assert!(
            xs.windows(2).all(|w| w[0] < w[1]),
            "knots must be strictly increasing"
        );
        let n = xs.len();
        let mut m = vec![0.0; n];
        if n > 2 {
            // Tridiagonal system (Thomas algorithm) for interior second
            // derivatives with natural boundary conditions.
            let mut a = vec![0.0; n]; // sub-diagonal
            let mut b = vec![0.0; n]; // diagonal
            let mut c = vec![0.0; n]; // super-diagonal
            let mut d = vec![0.0; n]; // rhs
            for i in 1..n - 1 {
                let h0 = xs[i] - xs[i - 1];
                let h1 = xs[i + 1] - xs[i];
                a[i] = h0;
                b[i] = 2.0 * (h0 + h1);
                c[i] = h1;
                d[i] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0);
            }
            // Forward sweep on interior rows 1..n-1.
            for i in 2..n - 1 {
                let w = a[i] / b[i - 1];
                b[i] -= w * c[i - 1];
                d[i] -= w * d[i - 1];
            }
            // Back substitution.
            m[n - 2] = d[n - 2] / b[n - 2];
            for i in (1..n - 2).rev() {
                m[i] = (d[i] - c[i] * m[i + 1]) / b[i];
            }
        }
        CubicSpline { xs, ys, m }
    }

    /// Evaluates the spline at `x` (clamped extrapolation beyond the
    /// knots: continues the boundary cubic).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        // Find the segment by binary search.
        let i = match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) => (i - 1).min(n - 2),
        };
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let a = 1.0 - t;
        // Standard cubic-spline segment formula.
        a * self.ys[i]
            + t * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (t * t * t - t) * self.m[i + 1]) * h * h / 6.0
    }
}

/// A bivariate spline over a [`Landscape`] grid.
///
/// # Examples
///
/// ```
/// use oscar_core::grid::Grid2d;
/// use oscar_core::interpolate::BivariateSpline;
/// use oscar_core::landscape::Landscape;
///
/// let grid = Grid2d::small_p1(12, 16);
/// let l = Landscape::generate(grid, |b, g| b + 2.0 * g);
/// let spline = BivariateSpline::fit(&l);
/// // A plane is reproduced exactly.
/// assert!((spline.eval(0.1, -0.2) - (0.1 - 0.4)).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct BivariateSpline {
    grid: Grid2d,
    /// One spline per grid row (along the γ axis).
    row_splines: Vec<CubicSpline>,
    beta_values: Vec<f64>,
}

impl BivariateSpline {
    /// Fits the interpolant to a landscape.
    pub fn fit(landscape: &Landscape) -> Self {
        let grid = landscape.grid();
        let gamma_values = grid.gamma.values();
        let row_splines = (0..grid.rows())
            .map(|r| {
                let row: Vec<f64> = (0..grid.cols()).map(|c| landscape.at(r, c)).collect();
                CubicSpline::fit(gamma_values.clone(), row)
            })
            .collect();
        BivariateSpline {
            grid,
            row_splines,
            beta_values: grid.beta.values(),
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    /// Evaluates at `(beta, gamma)`: γ-splines per row, then a β-spline
    /// across the row results.
    pub fn eval(&self, beta: f64, gamma: f64) -> f64 {
        let col: Vec<f64> = self.row_splines.iter().map(|s| s.eval(gamma)).collect();
        CubicSpline::fit(self.beta_values.clone(), col).eval(beta)
    }

    /// Evaluates with the query point clamped into the grid box.
    ///
    /// Cubic splines extrapolate as cubics and can diverge arbitrarily
    /// outside the fitted box, which would let an optimizer walk off to
    /// spurious minima. Optimizer objectives should use this method (the
    /// reconstructed landscape only carries information inside the grid).
    pub fn eval_clamped(&self, beta: f64, gamma: f64) -> f64 {
        let b = beta.clamp(self.grid.beta.lo, self.grid.beta.hi);
        let g = gamma.clamp(self.grid.gamma.lo, self.grid.gamma.hi);
        self.eval(b, g)
    }
}

/// A clamped multilinear interpolant over an [`NdLandscape`] — the N-D
/// counterpart of [`BivariateSpline::eval_clamped`] used by descent on
/// tensor-shaped reconstructions. Queries cost `O(N · 2^N)` for rank
/// `N` (the weighted sum over the enclosing cell's corners).
///
/// # Examples
///
/// ```
/// use oscar_core::grid::{Axis, TensorShape};
/// use oscar_core::interpolate::MultilinearInterp;
/// use oscar_core::landscape::NdLandscape;
///
/// let shape = TensorShape::new(vec![Axis::new(0.0, 1.0, 3); 3]);
/// let l = NdLandscape::generate(shape, |p| p[0] + 2.0 * p[1] - p[2]);
/// let interp = MultilinearInterp::fit(&l);
/// // Multilinear functions are reproduced exactly.
/// assert!((interp.eval_clamped(&[0.3, 0.7, 0.1]) - (0.3 + 1.4 - 0.1)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct MultilinearInterp {
    landscape: NdLandscape,
    /// Row-major strides per axis (last axis contiguous).
    strides: Vec<usize>,
}

impl MultilinearInterp {
    /// Fits the interpolant to a tensor landscape (clones the values).
    pub fn fit(landscape: &NdLandscape) -> Self {
        let dims = landscape.shape().dims();
        let mut strides = vec![1usize; dims.len()];
        for k in (0..dims.len().saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * dims[k + 1];
        }
        MultilinearInterp {
            landscape: landscape.clone(),
            strides,
        }
    }

    /// The underlying shape.
    pub fn shape(&self) -> &TensorShape {
        self.landscape.shape()
    }

    /// Evaluates at `params` with each coordinate clamped into its axis
    /// range (the reconstruction carries no information outside the
    /// scanned box, so optimizers must not walk off it).
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the tensor rank.
    pub fn eval_clamped(&self, params: &[f64]) -> f64 {
        let axes = self.landscape.shape().axes();
        assert_eq!(params.len(), axes.len(), "parameter count mismatch");
        // Per-axis cell index and in-cell fraction.
        let mut cell = Vec::with_capacity(axes.len());
        for (axis, &x) in axes.iter().zip(params.iter()) {
            let clamped = x.clamp(axis.lo, axis.hi);
            let pos = (clamped - axis.lo) / axis.step();
            let lo = (pos.floor() as usize).min(axis.n - 2);
            cell.push((lo, pos - lo as f64));
        }
        // Weighted sum over the 2^N corners of the enclosing cell.
        let corners = 1usize << axes.len();
        let mut acc = 0.0;
        for mask in 0..corners {
            let mut w = 1.0;
            let mut idx = 0usize;
            for (k, &(lo, t)) in cell.iter().enumerate() {
                let hi_side = (mask >> k) & 1 == 1;
                w *= if hi_side { t } else { 1.0 - t };
                idx += (lo + usize::from(hi_side)) * self.strides[k];
            }
            if w != 0.0 {
                acc += w * self.landscape.values()[idx];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_passes_through_knots() {
        let xs = vec![0.0, 1.0, 2.5, 4.0];
        let ys = vec![1.0, -1.0, 0.5, 2.0];
        let s = CubicSpline::fit(xs.clone(), ys.clone());
        for (x, y) in xs.iter().zip(&ys) {
            assert!((s.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn spline_reproduces_line_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 3.0).collect();
        let s = CubicSpline::fit(xs, ys);
        for k in 0..50 {
            let x = k as f64 * 0.18;
            assert!((s.eval(x) - (2.0 * x - 3.0)).abs() < 1e-10, "at {x}");
        }
    }

    #[test]
    fn spline_approximates_sine_well() {
        let n = 30;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64 * 6.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let s = CubicSpline::fit(xs, ys);
        for k in 0..100 {
            let x = k as f64 * 0.06;
            assert!((s.eval(x) - x.sin()).abs() < 1e-3, "at {x}");
        }
    }

    #[test]
    fn two_knot_spline_is_linear() {
        let s = CubicSpline::fit(vec![0.0, 2.0], vec![0.0, 4.0]);
        assert!((s.eval(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bivariate_passes_through_grid_points() {
        let grid = Grid2d::small_p1(8, 10);
        let l = Landscape::generate(grid, |b, g| (3.0 * b).sin() * (2.0 * g).cos());
        let spline = BivariateSpline::fit(&l);
        for r in (0..grid.rows()).step_by(2) {
            for c in (0..grid.cols()).step_by(3) {
                let (b, g) = (grid.beta.value(r), grid.gamma.value(c));
                assert!(
                    (spline.eval(b, g) - l.at(r, c)).abs() < 1e-10,
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn bivariate_interpolates_smooth_function() {
        let grid = Grid2d::small_p1(20, 25);
        let f = |b: f64, g: f64| (2.0 * b).cos() * (1.5 * g).sin();
        let l = Landscape::generate(grid, f);
        let spline = BivariateSpline::fit(&l);
        // Off-grid points should be close for a smooth function.
        for k in 0..20 {
            let b = -0.7 + k as f64 * 0.07;
            let g = -1.4 + k as f64 * 0.14;
            assert!(
                (spline.eval(b, g) - f(b, g)).abs() < 5e-3,
                "at ({b},{g}): {} vs {}",
                spline.eval(b, g),
                f(b, g)
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_knots() {
        let _ = CubicSpline::fit(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn multilinear_passes_through_tensor_points() {
        use crate::grid::Axis;
        let shape = TensorShape::new(vec![
            Axis::new(-1.0, 1.0, 4),
            Axis::new(0.0, 2.0, 3),
            Axis::new(-0.5, 0.5, 5),
        ]);
        let l = NdLandscape::generate(shape.clone(), |p| (p[0] * 2.0).sin() + p[1] * p[2]);
        let interp = MultilinearInterp::fit(&l);
        for i in (0..shape.len()).step_by(7) {
            let p = shape.point(i);
            assert!(
                (interp.eval_clamped(&p) - l.values()[i]).abs() < 1e-12,
                "mismatch at flat index {i}"
            );
        }
    }

    #[test]
    fn multilinear_clamps_out_of_box_queries() {
        use crate::grid::Axis;
        let shape = TensorShape::new(vec![Axis::new(0.0, 1.0, 3); 2]);
        let l = NdLandscape::generate(shape, |p| p[0] + p[1]);
        let interp = MultilinearInterp::fit(&l);
        assert!((interp.eval_clamped(&[5.0, -3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multilinear_matches_bilinear_on_2d_tensor() {
        use crate::grid::Axis;
        let shape = TensorShape::new(vec![Axis::new(0.0, 1.0, 5), Axis::new(0.0, 1.0, 5)]);
        let l = NdLandscape::generate(shape, |p| p[0] * p[1]);
        let interp = MultilinearInterp::fit(&l);
        // x*y is bilinear inside each cell, so interpolation is exact at
        // cell-aligned fractions.
        assert!((interp.eval_clamped(&[0.375, 0.625]) - 0.375 * 0.625).abs() < 1e-3);
    }
}
