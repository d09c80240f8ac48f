//! Parameter-space grids for landscape generation (paper Table 1).

/// One axis of a parameter grid: `n` equidistant points spanning
/// `[lo, hi]` inclusive.
///
/// # Examples
///
/// ```
/// use oscar_core::grid::Axis;
///
/// let axis = Axis::new(0.0, 1.0, 5);
/// assert_eq!(axis.values(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Axis {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Number of grid points (>= 2).
    pub n: usize,
}

impl Axis {
    /// Creates an axis.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n < 2`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "axis bounds must satisfy lo < hi");
        assert!(n >= 2, "axis needs at least two points");
        Axis { lo, hi, n }
    }

    /// The `i`-th grid value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn value(&self, i: usize) -> f64 {
        assert!(i < self.n, "axis index out of range");
        self.lo + (self.hi - self.lo) * i as f64 / (self.n - 1) as f64
    }

    /// All grid values in order.
    pub fn values(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.value(i)).collect()
    }

    /// Grid spacing.
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.n - 1) as f64
    }
}

/// A 2-D parameter grid: rows sweep the β (mixer) axis, columns the γ
/// (phase) axis. Landscapes over the grid are stored row-major.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid2d {
    /// The row (β) axis.
    pub beta: Axis,
    /// The column (γ) axis.
    pub gamma: Axis,
}

impl Grid2d {
    /// Creates a grid from two axes.
    pub fn new(beta: Axis, gamma: Axis) -> Self {
        Grid2d { beta, gamma }
    }

    /// The paper's p=1 grid (Table 1): β ∈ [−π/4, π/4] with 50 points,
    /// γ ∈ [−π/2, π/2] with 100 points — 5,000 circuits for a full grid
    /// search.
    pub fn standard_p1() -> Self {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        Grid2d {
            beta: Axis::new(-FRAC_PI_4, FRAC_PI_4, 50),
            gamma: Axis::new(-FRAC_PI_2, FRAC_PI_2, 100),
        }
    }

    /// A reduced p=1 grid for quick tests and examples (same ranges,
    /// fewer points).
    pub fn small_p1(nb: usize, ng: usize) -> Self {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        Grid2d {
            beta: Axis::new(-FRAC_PI_4, FRAC_PI_4, nb),
            gamma: Axis::new(-FRAC_PI_2, FRAC_PI_2, ng),
        }
    }

    /// Number of rows (β points).
    pub fn rows(&self) -> usize {
        self.beta.n
    }

    /// Number of columns (γ points).
    pub fn cols(&self) -> usize {
        self.gamma.n
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.rows() * self.cols()
    }

    /// `true` for the (impossible) empty grid; present for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(β, γ)` values at flat row-major index `i`.
    pub fn point(&self, i: usize) -> (f64, f64) {
        let r = i / self.cols();
        let c = i % self.cols();
        (self.beta.value(r), self.gamma.value(c))
    }
}

/// The paper's p=2 grid (Table 1): β ∈ [−π/8, π/8] with 12 points per β
/// axis and γ ∈ [−π/4, π/4] with 15 points per γ axis (12² × 15² ≈ 32k
/// circuits). The 4-D landscape is reshaped to 2-D
/// (see [`crate::reshape`]) before reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid4d {
    /// Axis for each of the two β parameters.
    pub beta: Axis,
    /// Axis for each of the two γ parameters.
    pub gamma: Axis,
}

impl Grid4d {
    /// The paper's p=2 configuration.
    pub fn standard_p2() -> Self {
        use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};
        Grid4d {
            beta: Axis::new(-FRAC_PI_8, FRAC_PI_8, 12),
            gamma: Axis::new(-FRAC_PI_4, FRAC_PI_4, 15),
        }
    }

    /// A reduced p=2 configuration for quick runs.
    pub fn small_p2(nb: usize, ng: usize) -> Self {
        use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};
        Grid4d {
            beta: Axis::new(-FRAC_PI_8, FRAC_PI_8, nb),
            gamma: Axis::new(-FRAC_PI_4, FRAC_PI_4, ng),
        }
    }

    /// Total number of 4-D grid points `nb² × ng²`.
    pub fn len(&self) -> usize {
        self.beta.n * self.beta.n * self.gamma.n * self.gamma.n
    }

    /// `true` for the (impossible) empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(β1, β2, γ1, γ2)` tuple at 4-D index `(b1, b2, g1, g2)`.
    pub fn point(&self, b1: usize, b2: usize, g1: usize, g2: usize) -> (f64, f64, f64, f64) {
        (
            self.beta.value(b1),
            self.beta.value(b2),
            self.gamma.value(g1),
            self.gamma.value(g2),
        )
    }

    /// The shape of the reshaped 2-D landscape: `(nb², ng²)`.
    pub fn reshaped_dims(&self) -> (usize, usize) {
        (self.beta.n * self.beta.n, self.gamma.n * self.gamma.n)
    }
}

/// A general N-D parameter grid: one [`Axis`] per circuit parameter,
/// landscapes stored row-major with the **last** axis contiguous.
///
/// For depth-`p` QAOA the convention is `[β1..βp, γ1..γp]` (mixer axes
/// first, matching [`Grid2d`]'s rows-sweep-β layout at p = 1); VQE
/// parameter scans use one axis per ansatz parameter.
///
/// # Examples
///
/// ```
/// use oscar_core::grid::{Axis, TensorShape};
///
/// let shape = TensorShape::new(vec![
///     Axis::new(-1.0, 1.0, 3),
///     Axis::new(0.0, 2.0, 5),
/// ]);
/// assert_eq!(shape.dims(), vec![3, 5]);
/// assert_eq!(shape.len(), 15);
/// assert_eq!(shape.point(14), vec![1.0, 2.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TensorShape {
    axes: Vec<Axis>,
}

impl TensorShape {
    /// Creates a shape from per-parameter axes.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is empty.
    pub fn new(axes: Vec<Axis>) -> Self {
        assert!(!axes.is_empty(), "shape needs at least one axis");
        TensorShape { axes }
    }

    /// The per-parameter axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of parameters (tensor rank).
    pub fn rank(&self) -> usize {
        self.axes.len()
    }

    /// Per-axis point counts.
    pub fn dims(&self) -> Vec<usize> {
        self.axes.iter().map(|a| a.n).collect()
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.n).product()
    }

    /// `true` for the (impossible) empty shape; present for API
    /// symmetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parameter values at flat row-major index `i` (last axis
    /// contiguous).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.axes.len()];
        self.point_into(i, &mut out);
        out
    }

    /// [`Self::point`] written into `out` (one slot per axis), so a
    /// sweep over many points allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `out.len() != rank()`.
    pub fn point_into(&self, i: usize, out: &mut [f64]) {
        assert!(i < self.len(), "flat index out of range");
        assert_eq!(out.len(), self.axes.len(), "one coordinate per axis");
        let mut rem = i;
        for (k, axis) in self.axes.iter().enumerate().rev() {
            out[k] = axis.value(rem % axis.n);
            rem /= axis.n;
        }
    }
}

impl From<Grid2d> for TensorShape {
    /// The grid as a rank-2 tensor: axis 0 is β (rows), axis 1 is γ.
    fn from(grid: Grid2d) -> Self {
        TensorShape::new(vec![grid.beta, grid.gamma])
    }
}

/// The landscape shape a job sweeps: the classic 2-D `(β, γ)` grid or a
/// general N-D tensor (p >= 2 QAOA, VQE parameter scans).
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// The paper's p = 1 layout: rows sweep β, columns sweep γ.
    Grid2d(Grid2d),
    /// One axis per circuit parameter, row-major, last axis contiguous.
    Tensor(TensorShape),
}

impl Shape {
    /// The QAOA depth-`p` shape with `nb` points per β axis and `ng`
    /// per γ axis: β ∈ [−π/(4p), π/(4p)], γ ∈ [−π/(2p), π/(2p)] (the
    /// paper's Table 1 ranges, which reduce to the p = 1 and p = 2
    /// grids at those depths). `p == 1` yields the native 2-D shape.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn qaoa(p: usize, nb: usize, ng: usize) -> Self {
        Self::qaoa_with_counts(p, &vec![nb; p], &vec![ng; p])
    }

    /// As [`Shape::qaoa`] with explicit per-axis counts: `nb[i]` points
    /// on the i-th β axis, `ng[i]` on the i-th γ axis.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or the count slices are not length `p`.
    pub fn qaoa_with_counts(p: usize, nb: &[usize], ng: &[usize]) -> Self {
        use std::f64::consts::PI;
        assert!(p > 0, "QAOA depth must be positive");
        assert!(
            nb.len() == p && ng.len() == p,
            "need one point count per β and γ axis"
        );
        let b_hi = PI / (4.0 * p as f64);
        let g_hi = PI / (2.0 * p as f64);
        if p == 1 {
            return Shape::Grid2d(Grid2d::new(
                Axis::new(-b_hi, b_hi, nb[0]),
                Axis::new(-g_hi, g_hi, ng[0]),
            ));
        }
        let mut axes = Vec::with_capacity(2 * p);
        for &n in nb {
            axes.push(Axis::new(-b_hi, b_hi, n));
        }
        for &n in ng {
            axes.push(Axis::new(-g_hi, g_hi, n));
        }
        Shape::Tensor(TensorShape::new(axes))
    }

    /// A VQE parameter-scan shape: `counts[i]` points on the i-th
    /// ansatz parameter, each spanning θ ∈ [−π/2, π/2].
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn vqe_scan(counts: &[usize]) -> Self {
        use std::f64::consts::FRAC_PI_2;
        Shape::Tensor(TensorShape::new(
            counts
                .iter()
                .map(|&n| Axis::new(-FRAC_PI_2, FRAC_PI_2, n))
                .collect(),
        ))
    }

    /// The shape's axes as a tensor (a grid is its rank-2 tensor).
    pub fn to_tensor(&self) -> TensorShape {
        match self {
            Shape::Grid2d(g) => (*g).into(),
            Shape::Tensor(t) => t.clone(),
        }
    }

    /// Number of parameters the shape sweeps (2 for a grid).
    pub fn rank(&self) -> usize {
        match self {
            Shape::Grid2d(_) => 2,
            Shape::Tensor(t) => t.rank(),
        }
    }

    /// Per-axis point counts.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            Shape::Grid2d(g) => vec![g.rows(), g.cols()],
            Shape::Tensor(t) => t.dims(),
        }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        match self {
            Shape::Grid2d(g) => g.len(),
            Shape::Tensor(t) => t.len(),
        }
    }

    /// `true` for the (impossible) empty shape.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parameter values at flat row-major index `i`.
    pub fn point(&self, i: usize) -> Vec<f64> {
        match self {
            Shape::Grid2d(g) => {
                let (b, gm) = g.point(i);
                vec![b, gm]
            }
            Shape::Tensor(t) => t.point(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_endpoints_inclusive() {
        let a = Axis::new(-1.0, 1.0, 3);
        assert_eq!(a.values(), vec![-1.0, 0.0, 1.0]);
        assert_eq!(a.step(), 1.0);
    }

    #[test]
    fn standard_p1_matches_table1() {
        let g = Grid2d::standard_p1();
        assert_eq!(g.rows(), 50);
        assert_eq!(g.cols(), 100);
        assert_eq!(g.len(), 5000);
        assert!((g.beta.lo + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((g.gamma.hi - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn standard_p2_matches_table1() {
        let g = Grid4d::standard_p2();
        assert_eq!(g.len(), 12 * 12 * 15 * 15);
        assert_eq!(g.reshaped_dims(), (144, 225));
    }

    #[test]
    fn point_roundtrip() {
        let g = Grid2d::small_p1(5, 7);
        let (b, gm) = g.point(0);
        assert!((b - g.beta.lo).abs() < 1e-12);
        assert!((gm - g.gamma.lo).abs() < 1e-12);
        let (b, gm) = g.point(g.len() - 1);
        assert!((b - g.beta.hi).abs() < 1e-12);
        assert!((gm - g.gamma.hi).abs() < 1e-12);
    }

    #[test]
    fn tensor_shape_point_is_row_major_last_axis_contiguous() {
        let t = TensorShape::new(vec![Axis::new(0.0, 1.0, 2), Axis::new(0.0, 3.0, 4)]);
        assert_eq!(t.point(0), vec![0.0, 0.0]);
        assert_eq!(t.point(1), vec![0.0, 1.0]);
        assert_eq!(t.point(4), vec![1.0, 0.0]);
        assert_eq!(t.point(7), vec![1.0, 3.0]);
    }

    #[test]
    fn qaoa_shape_depth_one_is_the_2d_grid() {
        let s = Shape::qaoa(1, 50, 100);
        match s {
            Shape::Grid2d(g) => {
                let std = Grid2d::standard_p1();
                assert_eq!(g.beta, std.beta);
                assert_eq!(g.gamma, std.gamma);
            }
            Shape::Tensor(_) => panic!("p=1 must produce the native grid"),
        }
    }

    #[test]
    fn qaoa_shape_depth_two_matches_paper_ranges() {
        let s = Shape::qaoa(2, 12, 15);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.dims(), vec![12, 12, 15, 15]);
        assert_eq!(s.len(), Grid4d::standard_p2().len());
        match &s {
            Shape::Tensor(t) => {
                let std = Grid4d::standard_p2();
                assert!((t.axes()[0].lo - std.beta.lo).abs() < 1e-15);
                assert!((t.axes()[2].hi - std.gamma.hi).abs() < 1e-15);
            }
            Shape::Grid2d(_) => panic!("p=2 must produce a tensor"),
        }
    }

    #[test]
    fn shape_point_matches_grid_point() {
        let g = Grid2d::small_p1(5, 7);
        let s = Shape::Grid2d(g);
        for i in [0, 6, 17, 34] {
            let (b, gm) = g.point(i);
            assert_eq!(s.point(i), vec![b, gm]);
        }
    }

    #[test]
    #[should_panic(expected = "flat index out of range")]
    fn tensor_shape_rejects_out_of_range_index() {
        let t = TensorShape::new(vec![Axis::new(0.0, 1.0, 2), Axis::new(0.0, 1.0, 2)]);
        let _ = t.point(4);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn axis_rejects_inverted_bounds() {
        let _ = Axis::new(1.0, 0.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn axis_rejects_single_point() {
        let _ = Axis::new(0.0, 1.0, 1);
    }
}
