//! Orthonormal Discrete Cosine Transforms (DCT-II and its inverse DCT-III).
//!
//! VQA landscapes are sparse in the DCT basis (paper Table 4); compressed
//! sensing recovers them from few samples by l1-minimizing DCT coefficients.
//! Two interchangeable 1-D kernels sit behind every transform here:
//!
//! * a precomputed dense matrix, O(n²) per apply — fastest for tiny `n`
//!   and kept as the reference oracle the FFT path is property-tested
//!   against;
//! * an FFT-based kernel ([`crate::fft::DctPlan`]), O(n log n) per
//!   apply — the default for `n >= FAST_DCT_THRESHOLD`, which covers
//!   every production grid side (the paper's grids are 50×100 and
//!   144×225).
//!
//! The 2-D and N-D transforms are separable products of 1-D passes. All
//! transforms expose `_into_with` variants taking caller-owned scratch,
//! so the solver hot loop ([`crate::fista`]) runs with zero heap
//! allocation in steady state, and the 2-D passes run data-parallel
//! across rows (via `oscar-par`) on grids large enough to pay for it.
//!
//! [`DctNd`] applies each dense axis as one strided batched pass over
//! the whole tensor rather than one 1-D call per line: the short axes of
//! the N-D workloads (LiH's 3⁸, H2's 10³) would otherwise spend most of
//! a transform in per-line call overhead. The pass performs the dense
//! kernel's arithmetic in the dense kernel's order, so its output is
//! bit-identical to transforming line by line.

use crate::fft::{DctPlan, FftScratch, FftStrategy};
use std::sync::Arc;

/// Transform sides at or above this length default to the FFT kernel.
///
/// Below it the dense matrix kernel wins on constant factors (and the
/// matrix is tiny); at or above it the O(n log n) path wins — see
/// `benches/cs_kernels.rs`.
pub const FAST_DCT_THRESHOLD: usize = 32;

/// Grids with at least this many elements split their separable passes
/// across worker threads.
const PAR_MIN_ELEMS: usize = 1 << 14;

/// Weight of sample `i` in coefficient `k` of the orthonormal length-`n`
/// DCT-II.
fn dct_weight(n: usize, k: usize, i: usize) -> f64 {
    let scale = if k == 0 {
        (1.0 / n as f64).sqrt()
    } else {
        (2.0 / n as f64).sqrt()
    };
    scale * (std::f64::consts::PI * (i as f64 + 0.5) * k as f64 / n as f64).cos()
}

/// Builds the row-major `n x n` synthesis matrix of the orthonormal
/// DCT: `m[i*n + k]` is the weight of coefficient `k` in sample `i`,
/// so row `i` is the transpose of the dense kernel's column `i`. Callers
/// go through [`crate::plan_cache::synthesis_matrix`], which builds each
/// length once.
///
/// # Panics
///
/// Panics if `n == 0`.
pub(crate) fn synthesis_matrix(n: usize) -> Vec<f64> {
    assert!(n > 0, "transform length must be positive");
    let mut mat = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            mat[i * n + k] = dct_weight(n, k, i);
        }
    }
    mat
}

/// Apply-time scratch for one [`Dct1d`]. Empty for the dense kernel.
#[derive(Clone, Debug, Default)]
pub struct Dct1dScratch(FftScratch);

#[derive(Clone, Debug)]
enum Kernel {
    /// Row-major `n x n` orthonormal DCT-II matrix: `mat[k*n + i]` is the
    /// weight of sample `i` in coefficient `k`.
    Dense(Vec<f64>),
    /// FFT-backed O(n log n) plan, shared per size through
    /// [`crate::plan_cache`] so concurrent transforms of the same length
    /// reuse one set of twiddles/chirps.
    Fast(Arc<DctPlan>),
}

/// A 1-D orthonormal DCT of size `n`.
///
/// Forward is DCT-II with orthonormal scaling; inverse is its transpose
/// (DCT-III), so `inverse(forward(x)) == x` to machine precision.
///
/// # Examples
///
/// ```
/// use oscar_cs::dct::Dct1d;
///
/// let dct = Dct1d::new(8);
/// let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
/// let s = dct.forward(&x);
/// let y = dct.inverse(&s);
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Dct1d {
    n: usize,
    kernel: Kernel,
}

// Emptiness is unrepresentable (lengths are validated positive at
// construction), so a `len`-only API is deliberate.
#[allow(clippy::len_without_is_empty)]
impl Dct1d {
    /// Builds the transform for length `n`, choosing the FFT kernel for
    /// `n >= FAST_DCT_THRESHOLD` and the dense kernel below it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        if n >= FAST_DCT_THRESHOLD {
            Self::new_fast(n)
        } else {
            Self::new_dense(n)
        }
    }

    /// Builds the dense O(n²) kernel regardless of size — the test
    /// oracle, and the baseline in `benches/speedup.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_dense(n: usize) -> Self {
        assert!(n > 0, "transform length must be positive");
        let mut mat = vec![0.0; n * n];
        for k in 0..n {
            for i in 0..n {
                mat[k * n + i] = dct_weight(n, k, i);
            }
        }
        Dct1d {
            n,
            kernel: Kernel::Dense(mat),
        }
    }

    /// Builds the FFT-backed O(n log n) kernel regardless of size. The
    /// plan comes from the process-wide [`crate::plan_cache`], so
    /// repeated constructions at one size share twiddles and chirps
    /// instead of replanning; the cached plan uses the cheapest DFT
    /// decomposition for `n` (mixed-radix for any size with a prime
    /// factor `<= 31`; see [`FftStrategy`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_fast(n: usize) -> Self {
        assert!(n > 0, "transform length must be positive");
        Dct1d {
            n,
            kernel: Kernel::Fast(crate::plan_cache::plan(n)),
        }
    }

    /// Builds an FFT kernel forced onto the whole-length Bluestein
    /// decomposition — the pre-mixed-radix baseline for benchmarks and
    /// oracle tests. Not cached: the plan cache holds the cheapest
    /// decomposition per size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_bluestein(n: usize) -> Self {
        assert!(n > 0, "transform length must be positive");
        Dct1d {
            n,
            kernel: Kernel::Fast(Arc::new(DctPlan::new_bluestein(n))),
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when this instance uses the FFT kernel.
    pub fn is_fast(&self) -> bool {
        matches!(self.kernel, Kernel::Fast(_))
    }

    /// The DFT decomposition behind the FFT kernel (`None` for the
    /// dense matrix kernel).
    pub fn strategy(&self) -> Option<FftStrategy> {
        self.fast_plan().map(DctPlan::strategy)
    }

    /// Scratch-compatibility id: dense and each FFT decomposition need
    /// differently shaped scratch, so the kernel identity participates
    /// in workspace keys.
    pub(crate) fn kernel_id(&self) -> u8 {
        match self.strategy() {
            None => 0,
            Some(FftStrategy::Radix2) => 1,
            Some(FftStrategy::MixedRadix) => 2,
            Some(FftStrategy::Bluestein) => 3,
        }
    }

    /// The FFT plan, when this instance uses the FFT kernel (for the
    /// pair-packed batched pass).
    fn fast_plan(&self) -> Option<&DctPlan> {
        match &self.kernel {
            Kernel::Dense(_) => None,
            Kernel::Fast(plan) => Some(plan),
        }
    }

    /// Allocates apply-time scratch for this transform (empty for the
    /// dense kernel). Reusable across any number of applies.
    pub fn make_scratch(&self) -> Dct1dScratch {
        match &self.kernel {
            Kernel::Dense(_) => Dct1dScratch::default(),
            Kernel::Fast(plan) => Dct1dScratch(plan.scratch()),
        }
    }

    /// Forward DCT-II: space domain -> frequency coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.forward_into(x, &mut out);
        out
    }

    /// Forward transform into a caller-provided buffer.
    ///
    /// Convenience wrapper allocating transient scratch for the FFT
    /// kernel; hot paths should hold a [`Dct1dScratch`] and call
    /// [`Self::forward_into_with`].
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        let mut scratch = self.make_scratch();
        self.forward_into_with(x, out, &mut scratch);
    }

    /// Zero-allocation forward transform.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `scratch` came from a different
    /// plan size.
    pub fn forward_into_with(&self, x: &[f64], out: &mut [f64], scratch: &mut Dct1dScratch) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        match &self.kernel {
            Kernel::Dense(mat) => {
                for k in 0..self.n {
                    let row = &mat[k * self.n..(k + 1) * self.n];
                    out[k] = row.iter().zip(x.iter()).map(|(m, v)| m * v).sum();
                }
            }
            Kernel::Fast(plan) => plan.forward_into(x, out, &mut scratch.0),
        }
    }

    /// Inverse transform (DCT-III, the transpose of the orthonormal
    /// DCT-II).
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != n`.
    pub fn inverse(&self, s: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.inverse_into(s, &mut out);
        out
    }

    /// Inverse transform into a caller-provided buffer (transient
    /// scratch; see [`Self::inverse_into_with`] for the hot-path form).
    pub fn inverse_into(&self, s: &[f64], out: &mut [f64]) {
        let mut scratch = self.make_scratch();
        self.inverse_into_with(s, out, &mut scratch);
    }

    /// Zero-allocation inverse transform.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `scratch` came from a different
    /// plan size.
    pub fn inverse_into_with(&self, s: &[f64], out: &mut [f64], scratch: &mut Dct1dScratch) {
        assert_eq!(s.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        match &self.kernel {
            Kernel::Dense(mat) => {
                out.fill(0.0);
                // x = M^T s: accumulate row-by-row for cache-friendly access.
                for k in 0..self.n {
                    let c = s[k];
                    if c == 0.0 {
                        continue;
                    }
                    let row = &mat[k * self.n..(k + 1) * self.n];
                    for (o, m) in out.iter_mut().zip(row.iter()) {
                        *o += c * m;
                    }
                }
            }
            Kernel::Fast(plan) => plan.inverse_into(s, out, &mut scratch.0),
        }
    }
}

/// Apply-time scratch for a [`Dct2d`]: two full-grid buffers for the
/// separable passes plus per-worker 1-D scratch pools (the crate's row
/// passes alone use one buffer and the row pool). Allocate once with
/// [`Dct2d::make_scratch`] and reuse — every apply through it is
/// heap-allocation-free.
#[derive(Clone, Debug)]
pub struct Dct2dScratch {
    tmp: Vec<f64>,
    tmp2: Vec<f64>,
    row: Vec<Dct1dScratch>,
    col: Vec<Dct1dScratch>,
}

/// A separable 2-D orthonormal DCT on row-major `rows x cols` data.
///
/// # Examples
///
/// ```
/// use oscar_cs::dct::Dct2d;
///
/// let dct = Dct2d::new(4, 6);
/// let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
/// let s = dct.forward(&x);
/// let y = dct.inverse(&s);
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Dct2d {
    rows: usize,
    cols: usize,
    row_t: Dct1d,
    col_t: Dct1d,
}

// Emptiness is unrepresentable (lengths are validated positive at
// construction), so a `len`-only API is deliberate.
#[allow(clippy::len_without_is_empty)]
impl Dct2d {
    /// Builds the transform for a `rows x cols` grid (per-axis kernels
    /// chosen automatically; see [`FAST_DCT_THRESHOLD`]).
    pub fn new(rows: usize, cols: usize) -> Self {
        Dct2d {
            rows,
            cols,
            row_t: Dct1d::new(cols),
            col_t: Dct1d::new(rows),
        }
    }

    /// Builds the transform with dense kernels on both axes — the
    /// baseline configuration benchmarked against the default.
    pub fn new_dense(rows: usize, cols: usize) -> Self {
        Dct2d {
            rows,
            cols,
            row_t: Dct1d::new_dense(cols),
            col_t: Dct1d::new_dense(rows),
        }
    }

    /// Builds the transform with FFT kernels on both axes.
    pub fn new_fast(rows: usize, cols: usize) -> Self {
        Dct2d {
            rows,
            cols,
            row_t: Dct1d::new_fast(cols),
            col_t: Dct1d::new_fast(rows),
        }
    }

    /// Builds the transform with whole-length Bluestein FFT kernels on
    /// both axes — the pre-mixed-radix baseline benchmarked against the
    /// default in `benches/fft_mixed_radix.rs`.
    pub fn new_bluestein(rows: usize, cols: usize) -> Self {
        Dct2d {
            rows,
            cols,
            row_t: Dct1d::new_bluestein(cols),
            col_t: Dct1d::new_bluestein(rows),
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

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when both axes use the FFT kernel.
    pub fn is_fast(&self) -> bool {
        self.row_t.is_fast() && self.col_t.is_fast()
    }

    /// Per-axis kernel identity `(row_id, col_id)` — part of the
    /// scratch-compatibility key (the dense kernel and each FFT
    /// decomposition of the same grid size need differently shaped
    /// scratch; see [`Dct1d::kernel_id`]).
    pub(crate) fn kernel_kinds(&self) -> (u8, u8) {
        (self.row_t.kernel_id(), self.col_t.kernel_id())
    }

    /// Applies the row kernel to every complete row of `src` (a prefix
    /// of the grid's rows, pair-packed on the FFT kernel and split
    /// across workers above `PAR_MIN_ELEMS`, as the first pass of a full
    /// apply is), and writes the result transposed into `dst_t`
    /// (`cols x k` for `k` source rows).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or are not a whole number of rows.
    pub(crate) fn row_pass_into_transposed(
        &self,
        src: &[f64],
        dst_t: &mut [f64],
        scratch: &mut Dct2dScratch,
        forward: bool,
    ) {
        assert_eq!(src.len(), dst_t.len(), "row pass length mismatch");
        assert_eq!(src.len() % self.cols, 0, "row pass needs whole rows");
        let tmp = &mut scratch.tmp[..src.len()];
        line_pass(&self.row_t, src, tmp, self.cols, &mut scratch.row, forward);
        transpose(tmp, dst_t, src.len() / self.cols, self.cols);
    }

    /// The row pass over the whole grid, read from `src_t`, the grid's
    /// transpose (`cols x rows`, row-major).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from a different grid.
    pub(crate) fn row_pass_from_transposed(
        &self,
        src_t: &[f64],
        dst: &mut [f64],
        scratch: &mut Dct2dScratch,
        forward: bool,
    ) {
        assert_eq!(src_t.len(), self.len(), "grid size mismatch");
        assert_eq!(dst.len(), self.len(), "output size mismatch");
        assert_eq!(scratch.tmp.len(), self.len(), "scratch grid mismatch");
        transpose(src_t, &mut scratch.tmp, self.cols, self.rows);
        line_pass(
            &self.row_t,
            &scratch.tmp,
            dst,
            self.cols,
            &mut scratch.row,
            forward,
        );
    }

    /// Allocates scratch for the row passes alone
    /// ([`Self::row_pass_into_transposed`],
    /// [`Self::row_pass_from_transposed`]): one grid buffer and the row
    /// pool, without the column pass's second buffer and pool. A full
    /// apply through it panics.
    pub(crate) fn make_row_scratch(&self) -> Dct2dScratch {
        Dct2dScratch {
            tmp: vec![0.0; self.len()],
            tmp2: Vec::new(),
            row: (0..self.workers())
                .map(|_| self.row_t.make_scratch())
                .collect(),
            col: Vec::new(),
        }
    }

    /// Worker count the passes split across on this grid.
    fn workers(&self) -> usize {
        if self.len() >= PAR_MIN_ELEMS {
            oscar_par::max_threads()
        } else {
            1
        }
    }

    /// Allocates reusable apply-time scratch for this grid.
    pub fn make_scratch(&self) -> Dct2dScratch {
        let workers = self.workers();
        Dct2dScratch {
            tmp: vec![0.0; self.len()],
            tmp2: vec![0.0; self.len()],
            row: (0..workers).map(|_| self.row_t.make_scratch()).collect(),
            col: (0..workers).map(|_| self.col_t.make_scratch()).collect(),
        }
    }

    /// Forward 2-D DCT of row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * cols`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        let mut scratch = self.make_scratch();
        self.forward_into(x, &mut out, &mut scratch);
        out
    }

    /// Inverse 2-D DCT of row-major coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != rows * cols`.
    pub fn inverse(&self, s: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        let mut scratch = self.make_scratch();
        self.inverse_into(s, &mut out, &mut scratch);
        out
    }

    /// Zero-allocation forward transform into `out`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from a different grid.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], scratch: &mut Dct2dScratch) {
        self.apply_into(x, out, scratch, true);
    }

    /// Zero-allocation inverse transform into `out`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from a different grid.
    pub fn inverse_into(&self, s: &[f64], out: &mut [f64], scratch: &mut Dct2dScratch) {
        self.apply_into(s, out, scratch, false);
    }

    /// Separable apply. Two strategies, identical arithmetic:
    ///
    /// * serial + both axes on the FFT kernel: a contiguous pair-packed
    ///   row pass, then a *strided* pair-packed column pass — no
    ///   transposes at all (the pack/unpack closures absorb the stride);
    /// * otherwise: a pass over rows, a transpose, a pass over the (now
    ///   contiguous) columns, and a transpose back, with each pass split
    ///   across worker threads on large grids.
    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut Dct2dScratch, forward: bool) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(x.len(), rows * cols, "grid size mismatch");
        assert_eq!(out.len(), rows * cols, "output size mismatch");
        assert_eq!(scratch.tmp.len(), rows * cols, "scratch grid mismatch");
        assert_eq!(
            scratch.tmp2.len(),
            rows * cols,
            "scratch holds row-pass buffers only"
        );
        let Dct2dScratch {
            tmp,
            tmp2,
            row,
            col,
        } = scratch;

        let parallel = rows * cols >= PAR_MIN_ELEMS && row.len() > 1;
        if !parallel {
            if let (Some(_), Some(col_plan)) = (self.row_t.fast_plan(), self.col_t.fast_plan()) {
                // Pass 1: contiguous pair-packed rows, x -> tmp.
                process_lines(&self.row_t, x, tmp, cols, &mut row[0], forward);
                // Pass 2: strided pair-packed columns, tmp -> out.
                strided_col_pass(col_plan, tmp, out, rows, cols, &mut col[0], forward);
                return;
            }
        }

        // Pass 1: transform every row of `x` into `tmp`.
        line_pass(&self.row_t, x, tmp, cols, row, forward);
        // Transpose rows x cols -> cols x rows so columns become rows.
        transpose(tmp, tmp2, rows, cols);
        // Pass 2: transform every (former) column, now contiguous.
        line_pass(&self.col_t, tmp2, tmp, rows, col, forward);
        // Transpose back into the caller's layout.
        transpose(tmp, out, cols, rows);
    }
}

/// Column pass without transposes: transforms every column of the
/// row-major `rows x cols` grid `src` into `dst`, packing two columns
/// per complex DFT with strided loads/stores. An odd final column packs
/// a zero line in the imaginary slot and discards it.
fn strided_col_pass(
    plan: &DctPlan,
    src: &[f64],
    dst: &mut [f64],
    rows: usize,
    cols: usize,
    scr: &mut Dct1dScratch,
    forward: bool,
) {
    debug_assert_eq!(plan.len(), rows, "column plan must match row count");
    debug_assert_eq!(src.len(), rows * cols);
    let mut c = 0;
    while c < cols {
        let pair = c + 1 < cols;
        let c2 = if pair { c + 1 } else { c };
        let load = |i: usize| {
            (
                src[i * cols + c],
                if pair { src[i * cols + c2] } else { 0.0 },
            )
        };
        let store = |k: usize, a: f64, b: f64| {
            dst[k * cols + c] = a;
            if pair {
                dst[k * cols + c2] = b;
            }
        };
        if forward {
            plan.forward_pair_with(&mut scr.0, load, store);
        } else {
            plan.inverse_pair_with(&mut scr.0, load, store);
        }
        c += 2;
    }
}

/// Applies `t` to every `line_len`-sized line of `src`, writing the
/// matching line of `dst`. Splits across workers when the grid is large
/// enough, handing each worker its own scratch from the pool. With the
/// FFT kernel, lines are processed two at a time through one complex
/// DFT ([`DctPlan::forward_pair_with`]), halving the dominant cost.
fn line_pass(
    t: &Dct1d,
    src: &[f64],
    dst: &mut [f64],
    line_len: usize,
    pool: &mut [Dct1dScratch],
    forward: bool,
) {
    let parallel = src.len() >= PAR_MIN_ELEMS && pool.len() > 1;
    if !parallel {
        process_lines(t, src, dst, line_len, &mut pool[0], forward);
        return;
    }
    // Granule of two lines so worker chunks never split a packed pair.
    oscar_par::for_each_chunk_mut_with(dst, 2 * line_len, pool, |offset, chunk, scr| {
        process_lines(
            t,
            &src[offset..offset + chunk.len()],
            chunk,
            line_len,
            scr,
            forward,
        );
    });
}

/// Serial core of [`line_pass`]: transforms the complete lines of `src`
/// into `dst` (equal lengths, whole number of lines).
fn process_lines(
    t: &Dct1d,
    src: &[f64],
    dst: &mut [f64],
    line_len: usize,
    scr: &mut Dct1dScratch,
    forward: bool,
) {
    debug_assert_eq!(src.len(), dst.len());
    let nlines = dst.len() / line_len;
    if let Some(plan) = t.fast_plan() {
        let mut i = 0;
        while i + 1 < nlines {
            let s1 = &src[i * line_len..(i + 1) * line_len];
            let s2 = &src[(i + 1) * line_len..(i + 2) * line_len];
            let pair = &mut dst[i * line_len..(i + 2) * line_len];
            // Transform of the zero line is zero — skip the DFT when a
            // whole pair is zero, which is common for the sparse
            // coefficient grids FISTA feeds through the inverse (the
            // dense kernel gets the same effect from its per-row
            // zero-coefficient skip).
            if s1.iter().chain(s2).all(|&v| v == 0.0) {
                pair.fill(0.0);
                i += 2;
                continue;
            }
            let (d1, d2) = pair.split_at_mut(line_len);
            if forward {
                plan.forward_pair_with(
                    &mut scr.0,
                    |j| (s1[j], s2[j]),
                    |k, a, b| {
                        d1[k] = a;
                        d2[k] = b;
                    },
                );
            } else {
                plan.inverse_pair_with(
                    &mut scr.0,
                    |k| (s1[k], s2[k]),
                    |j, a, b| {
                        d1[j] = a;
                        d2[j] = b;
                    },
                );
            }
            i += 2;
        }
        if i < nlines {
            let s = &src[i * line_len..(i + 1) * line_len];
            let d = &mut dst[i * line_len..(i + 1) * line_len];
            if s.iter().all(|&v| v == 0.0) {
                d.fill(0.0);
            } else if forward {
                t.forward_into_with(s, d, scr);
            } else {
                t.inverse_into_with(s, d, scr);
            }
        }
        return;
    }
    for (src_line, dst_line) in src
        .chunks_exact(line_len)
        .zip(dst.chunks_exact_mut(line_len))
    {
        if forward {
            t.forward_into_with(src_line, dst_line, scr);
        } else {
            t.inverse_into_with(src_line, dst_line, scr);
        }
    }
}

/// Cache-blocked out-of-place transpose of a row-major `rows x cols`
/// matrix into a `cols x rows` one.
fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    const BLOCK: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    let mut rb = 0;
    while rb < rows {
        let r_end = (rb + BLOCK).min(rows);
        let mut cb = 0;
        while cb < cols {
            let c_end = (cb + BLOCK).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            cb += BLOCK;
        }
        rb += BLOCK;
    }
}

/// Apply-time scratch for a [`DctNd`]: one inner-axis tile for the dense
/// axes plus line buffers and 1-D scratch for the FFT axes.
#[derive(Clone, Debug)]
pub struct DctNdScratch {
    tile: Vec<f64>,
    line_in: Vec<f64>,
    line_out: Vec<f64>,
    axis: Vec<Dct1dScratch>,
}

/// Widest run of the inner (faster-varying) axes a dense-axis pass
/// works on at once; its tile holds at most `len * DENSE_TILE` values.
const DENSE_TILE: usize = 128;

/// Columns a dense-axis pass accumulates at once, in registers. Axes
/// whose inner run is shorter go line by line.
const LANES: usize = 8;

/// A separable N-dimensional orthonormal DCT over a row-major tensor of
/// the given shape (last axis contiguous) — the transform behind
/// reshaped p >= 2 QAOA landscapes and the VQE scans, treated natively
/// instead of flattened to 2-D.
///
/// Axes are transformed last to first. With the tensor viewed as
/// `[outer][len][inner]` around axis `a`:
///
/// * a dense axis (`len < FAST_DCT_THRESHOLD`, which covers every
///   production tensor side) is one strided batched pass: each output
///   row `k` accumulates `Σ_j M[k][j]·x[j][·]` over contiguous `inner`
///   runs, a tile of at most `DENSE_TILE` columns at a time, so the
///   loops vectorize and no per-line call is made. When `inner` is
///   shorter than a register block (the contiguous last axis among
///   them) the pass walks the short lines one by one instead.
/// * an FFT axis gathers each line, transforms it with [`Dct1d`] and
///   scatters it back.
///
/// The dense pass is bit-identical to transforming every line with
/// [`Dct1d`]'s dense kernel: per output element it performs the same
/// products and adds them in the same `j` order from the same start
/// value (`Iterator::sum`'s for the forward, `+0.0` for the inverse).
/// The inverse does not skip zero coefficients as the 1-D kernel does,
/// which changes no bit: an accumulator starting at `+0.0` never becomes
/// `-0.0` by addition, so adding the `±0` product of a zero coefficient
/// and a finite weight leaves it unchanged.
///
/// # Examples
///
/// ```
/// use oscar_cs::dct::DctNd;
///
/// let dct = DctNd::new(&[3, 4, 5]);
/// let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.7).sin()).collect();
/// let y = dct.inverse(&dct.forward(&x));
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DctNd {
    shape: Vec<usize>,
    axes: Vec<Dct1d>,
}

// Emptiness is unrepresentable (lengths are validated positive at
// construction), so a `len`-only API is deliberate.
#[allow(clippy::len_without_is_empty)]
impl DctNd {
    /// Builds the transform for `shape` (kernels per axis chosen
    /// automatically).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any extent is zero.
    pub fn new(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "shape needs at least one axis");
        assert!(
            shape.iter().all(|&d| d > 0),
            "axis extents must be positive"
        );
        DctNd {
            shape: shape.to_vec(),
            axes: shape.iter().map(|&d| Dct1d::new(d)).collect(),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Per-axis kernel identities (same role as [`Dct2d::kernel_kinds`]:
    /// scratch layouts differ per kernel, so they key operator scratch).
    pub(crate) fn kernel_ids(&self) -> Vec<u8> {
        self.axes.iter().map(|t| t.kernel_id()).collect()
    }

    /// Total number of tensor elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Allocates reusable apply-time scratch.
    pub fn make_scratch(&self) -> DctNdScratch {
        let (mut tile, mut fft_side, mut inner) = (0, 0, 1);
        for (t, &len) in self.axes.iter().zip(&self.shape).rev() {
            if t.is_fast() {
                fft_side = fft_side.max(len);
            } else {
                tile = tile.max(len * inner.min(DENSE_TILE));
            }
            inner *= len;
        }
        DctNdScratch {
            tile: vec![0.0; tile],
            line_in: vec![0.0; fft_side],
            line_out: vec![0.0; fft_side],
            axis: self.axes.iter().map(|t| t.make_scratch()).collect(),
        }
    }

    /// Forward N-D DCT.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the shape's element count.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        let mut scratch = self.make_scratch();
        self.apply_in_place(&mut out, &mut scratch, true);
        out
    }

    /// Inverse N-D DCT.
    ///
    /// # Panics
    ///
    /// Panics if `s.len()` does not match the shape's element count.
    pub fn inverse(&self, s: &[f64]) -> Vec<f64> {
        let mut out = s.to_vec();
        let mut scratch = self.make_scratch();
        self.apply_in_place(&mut out, &mut scratch, false);
        out
    }

    /// Zero-allocation forward transform: copies `x` into `out` and
    /// transforms in place there.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], scratch: &mut DctNdScratch) {
        assert_eq!(out.len(), x.len(), "output size mismatch");
        out.copy_from_slice(x);
        self.apply_in_place(out, scratch, true);
    }

    /// Zero-allocation inverse transform.
    pub fn inverse_into(&self, s: &[f64], out: &mut [f64], scratch: &mut DctNdScratch) {
        assert_eq!(out.len(), s.len(), "output size mismatch");
        out.copy_from_slice(s);
        self.apply_in_place(out, scratch, false);
    }

    /// Transforms each axis in turn, last to first, viewing the tensor
    /// as `[outer][len][inner]` around it: dense axes in one strided
    /// batched pass ([`dense_axis_pass`]), FFT axes line by line.
    fn apply_in_place(&self, data: &mut [f64], scratch: &mut DctNdScratch, forward: bool) {
        assert_eq!(data.len(), self.len(), "tensor size mismatch");
        let mut inner = 1usize;
        for (a, t) in self.axes.iter().enumerate().rev() {
            let len = self.shape[a];
            match &t.kernel {
                Kernel::Dense(mat) => {
                    dense_axis_pass(mat, len, inner, data, &mut scratch.tile, forward);
                }
                Kernel::Fast(_) => {
                    let outer = data.len() / (len * inner);
                    let line_in = &mut scratch.line_in[..len];
                    let line_out = &mut scratch.line_out[..len];
                    let scr = &mut scratch.axis[a];
                    for o in 0..outer {
                        let base = o * len * inner;
                        for i in 0..inner {
                            for (k, v) in line_in.iter_mut().enumerate() {
                                *v = data[base + k * inner + i];
                            }
                            if forward {
                                t.forward_into_with(line_in, line_out, scr);
                            } else {
                                t.inverse_into_with(line_in, line_out, scr);
                            }
                            for (k, v) in line_out.iter().enumerate() {
                                data[base + k * inner + i] = *v;
                            }
                        }
                    }
                }
            }
            inner *= len;
        }
    }
}

/// Applies the dense `len x len` DCT matrix `mat` (forward) or its
/// transpose (inverse) along the middle axis of `data` viewed as
/// `[outer][len][inner]`, in place. `tile` must hold
/// `len * min(inner, DENSE_TILE)` values.
///
/// Output element `(r, ·)` is `init + Σ_q w(r, q)·x[q][·]` summed in `q`
/// order, with `init` the start value of `Iterator::sum` for the forward
/// (the dense 1-D kernel's fold) and `+0.0` for the inverse — see
/// [`DctNd`] for why that reproduces the per-line kernel bit for bit.
fn dense_axis_pass(
    mat: &[f64],
    len: usize,
    inner: usize,
    data: &mut [f64],
    tile: &mut [f64],
    forward: bool,
) {
    let init = if forward {
        std::iter::empty::<f64>().sum::<f64>()
    } else {
        0.0
    };
    // w(r, q) = mat[r * row_stride + q * col_stride].
    let (row_stride, col_stride) = if forward { (len, 1) } else { (1, len) };
    if inner < LANES {
        // Short lines (the contiguous last axis among them): gather,
        // transform and store back one line at a time.
        let line = &mut tile[..len];
        for block in data.chunks_exact_mut(len * inner) {
            for i in 0..inner {
                for (q, v) in line.iter_mut().enumerate() {
                    *v = block[q * inner + i];
                }
                for r in 0..len {
                    let mut acc = init;
                    for (q, &v) in line.iter().enumerate() {
                        acc += mat[r * row_stride + q * col_stride] * v;
                    }
                    block[r * inner + i] = acc;
                }
            }
        }
        return;
    }
    // Split `inner` into near-equal tiles, each at least `LANES` wide.
    let tiles = inner.div_ceil(DENSE_TILE);
    for block in data.chunks_exact_mut(len * inner) {
        for t in 0..tiles {
            let (i0, i1) = (inner * t / tiles, inner * (t + 1) / tiles);
            let w = i1 - i0;
            let tile = &mut tile[..len * w];
            for (q, src) in tile.chunks_exact_mut(w).enumerate() {
                src.copy_from_slice(&block[q * inner + i0..][..w]);
            }
            for r in 0..len {
                let out = &mut block[r * inner + i0..][..w];
                combine_rows(tile, &mat[r * row_stride..], col_stride, init, out);
            }
        }
    }
}

/// `out[i] = init + Σ_q weights[q * stride]·rows[q][i]` for the
/// row-major `rows` (`out.len()` columns, at least [`LANES`]), summed in
/// `q` order with `LANES` accumulators held in registers. A final partial
/// chunk is realigned to end at the last column; the columns it repeats
/// are recomputed from the same inputs, so they get the same values.
fn combine_rows(rows: &[f64], weights: &[f64], stride: usize, init: f64, out: &mut [f64]) {
    let w = out.len();
    debug_assert!(w >= LANES && rows.len().is_multiple_of(w));
    let mut i = 0;
    while i < w {
        let start = i.min(w - LANES);
        let mut acc = [init; LANES];
        for (q, row) in rows.chunks_exact(w).enumerate() {
            let m = weights[q * stride];
            for (a, &v) in acc.iter_mut().zip(&row[start..start + LANES]) {
                *a += m * v;
            }
        }
        out[start..start + LANES].copy_from_slice(&acc);
        i += LANES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn dc_component_of_constant() {
        let dct = Dct1d::new(16);
        let x = vec![1.0; 16];
        let s = dct.forward(&x);
        assert!((s[0] - 4.0).abs() < 1e-12); // sqrt(16) * 1
        for &c in &s[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn forward_inverse_roundtrip_1d() {
        let dct = Dct1d::new(33);
        let x: Vec<f64> = (0..33).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let y = dct.inverse(&dct.forward(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved_1d() {
        let dct = Dct1d::new(21);
        let x: Vec<f64> = (0..21).map(|i| (i as f64 * 0.91).sin() * 2.0).collect();
        let s = dct.forward(&x);
        assert!((l2(&x) - l2(&s)).abs() < 1e-10);
    }

    #[test]
    fn single_cosine_is_one_coefficient() {
        let n = 64;
        let dct = Dct1d::new(n);
        assert!(dct.is_fast(), "n=64 should take the FFT path");
        let k = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) * k as f64 / n as f64).cos())
            .collect();
        let s = dct.forward(&x);
        let mut sorted: Vec<f64> = s.iter().map(|v| v.abs()).collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        // All the energy should be in exactly one coefficient.
        assert!(sorted[0] > 1.0);
        assert!(sorted[1] < 1e-10);
        assert!(s[k].abs() > 1.0);
    }

    #[test]
    fn fast_kernel_selected_at_threshold() {
        assert!(!Dct1d::new(FAST_DCT_THRESHOLD - 1).is_fast());
        assert!(Dct1d::new(FAST_DCT_THRESHOLD).is_fast());
        // Forced constructors override the threshold in both directions.
        assert!(Dct1d::new_fast(4).is_fast());
        assert!(!Dct1d::new_dense(128).is_fast());
    }

    #[test]
    fn fast_matches_dense_exactly_enough() {
        for n in [32usize, 50, 64, 100] {
            let dense = Dct1d::new_dense(n);
            let fast = Dct1d::new_fast(n);
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 31 % 17) as f64 - 8.0) * 0.25)
                .collect();
            let a = dense.forward(&x);
            let b = fast.forward(&x);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-10, "n={n}");
            }
            let ia = dense.inverse(&a);
            let ib = fast.inverse(&b);
            for (u, v) in ia.iter().zip(&ib) {
                assert!((u - v).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_2d() {
        let dct = Dct2d::new(5, 9);
        let x: Vec<f64> = (0..45).map(|i| (i as f64 * 1.3).cos()).collect();
        let y = dct.inverse(&dct.forward(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_2d_fast_kernels() {
        let dct = Dct2d::new(50, 100);
        assert!(dct.is_fast());
        let x: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.013).sin()).collect();
        let y = dct.inverse(&dct.forward(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_2d() {
        let dct = Dct2d::new(7, 7);
        let x: Vec<f64> = (0..49).map(|i| ((i * i) % 11) as f64 - 5.0).collect();
        let s = dct.forward(&x);
        assert!((l2(&x) - l2(&s)).abs() < 1e-10);
    }

    #[test]
    fn separable_product_structure() {
        // A product of cosines along each axis concentrates into a single
        // 2-D coefficient.
        let (rows, cols) = (16, 12);
        let dct = Dct2d::new(rows, cols);
        let (kr, kc) = (3usize, 2usize);
        let mut x = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let fr = (std::f64::consts::PI * (r as f64 + 0.5) * kr as f64 / rows as f64).cos();
                let fc = (std::f64::consts::PI * (c as f64 + 0.5) * kc as f64 / cols as f64).cos();
                x[r * cols + c] = fr * fc;
            }
        }
        let s = dct.forward(&x);
        let dominant = s[kr * cols + kc].abs();
        let rest: f64 = s
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != kr * cols + kc)
            .map(|(_, v)| v.abs())
            .sum();
        assert!(dominant > 1.0 && rest < 1e-9, "dom {dominant} rest {rest}");
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        let dct = Dct2d::new(40, 50);
        let mut scratch = dct.make_scratch();
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut a = vec![0.0; 2000];
        let mut b = vec![0.0; 2000];
        dct.forward_into(&x, &mut a, &mut scratch);
        dct.forward_into(&x, &mut b, &mut scratch);
        assert_eq!(a, b);
        assert_eq!(a, dct.forward(&x));
    }

    #[test]
    #[should_panic(expected = "transform length must be positive")]
    fn rejects_zero_length() {
        let _ = Dct1d::new(0);
    }

    #[test]
    fn non_square_dimensions_tracked() {
        let dct = Dct2d::new(3, 8);
        assert_eq!(dct.rows(), 3);
        assert_eq!(dct.cols(), 8);
        assert_eq!(dct.len(), 24);
    }

    #[test]
    fn transpose_is_involution() {
        let (r, c) = (37, 53);
        let src: Vec<f64> = (0..r * c).map(|i| i as f64).collect();
        let mut t = vec![0.0; r * c];
        let mut back = vec![0.0; r * c];
        transpose(&src, &mut t, r, c);
        transpose(&t, &mut back, c, r);
        assert_eq!(src, back);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], c as f64); // (1,0) of transposed = (0,1) of source
    }

    #[test]
    fn nd_matches_2d_on_matrices() {
        // All-dense matrices match bit for bit (pinned in tests/prop.rs);
        // with an FFT side, `Dct2d` pair-packs lines and `DctNd` does
        // not, so the two agree to rounding only.
        for (rows, cols) in [(6, 10), (40, 50), (5, 64)] {
            let d2 = Dct2d::new(rows, cols);
            let dn = DctNd::new(&[rows, cols]);
            let x: Vec<f64> = (0..rows * cols).map(|i| (i as f64 * 0.37).sin()).collect();
            let a = d2.forward(&x);
            let b = dn.forward(&x);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-10, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn nd_roundtrip_non_pow2_shapes() {
        for shape in [vec![3usize], vec![5, 7], vec![3, 4, 5], vec![2, 3, 5, 7]] {
            let dct = DctNd::new(&shape);
            let n = dct.len();
            let x: Vec<f64> = (0..n).map(|i| ((i * 29 % 23) as f64) - 11.0).collect();
            let y = dct.inverse(&dct.forward(&x));
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-10, "shape {shape:?}");
            }
        }
    }

    #[test]
    fn nd_parseval() {
        let dct = DctNd::new(&[4, 6, 5]);
        let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.61).cos()).collect();
        let s = dct.forward(&x);
        assert!((l2(&x) - l2(&s)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shape needs at least one axis")]
    fn nd_rejects_empty_shape() {
        let _ = DctNd::new(&[]);
    }
}
