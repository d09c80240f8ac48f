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
//! [`DctNd`] is the one multi-dimensional transform: a separable product
//! of 1-D passes over a tensor of any rank, the paper's 2-D grids
//! included ([`Dct2d`] is only its rank-2 name). Every transform exposes
//! `_into` variants taking caller-owned scratch, so the solver hot loop
//! ([`crate::fista`]) runs with zero heap allocation in steady state.
//!
//! [`DctNd`] applies each dense axis as one strided batched pass over
//! the whole tensor rather than one 1-D call per line: the short axes of
//! the N-D workloads (LiH's 3⁸, H2's 10³) would otherwise spend most of
//! a transform in per-line call overhead. The pass performs the dense
//! kernel's arithmetic in the dense kernel's order, so its output is
//! bit-identical to transforming line by line. Each FFT axis packs two
//! lines into one complex DFT, and on tensors large enough to pay for
//! it its lines run data-parallel (via `oscar-par`).

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

    /// The FFT plan, when this instance uses the FFT kernel.
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

/// Apply-time scratch for a [`DctNd`]: per worker, one inner-axis tile
/// for the dense axes and 1-D scratch for each FFT axis; where an FFT
/// axis is transformed through a transpose, one tensor-sized buffer.
/// Allocate once with [`DctNd::make_scratch`] and reuse — every apply
/// through it is heap-allocation-free.
#[derive(Clone, Debug)]
pub struct DctNdScratch {
    tiles: Vec<Vec<f64>>,
    buf: Vec<f64>,
    axis: Vec<Vec<Dct1dScratch>>,
}

/// Widest run of the inner (faster-varying) axes a dense-axis pass
/// works on at once; its tile holds at most `len * DENSE_TILE` values.
const DENSE_TILE: usize = 128;

/// Columns a dense-axis pass accumulates at once, in registers. Axes
/// whose inner run is shorter go line by line.
const LANES: usize = 8;

/// A separable N-dimensional orthonormal DCT over a row-major tensor of
/// the given shape (last axis contiguous) — the one transform behind
/// every reconstruction: the paper's p = 1 grids (rank 2), reshaped
/// p >= 2 QAOA landscapes and the VQE scans, treated natively instead of
/// flattened to 2-D.
///
/// Axes are transformed last to first, in place. With the tensor viewed
/// as `[outer][len][inner]` around axis `a`:
///
/// * a dense axis (`len < FAST_DCT_THRESHOLD`, which covers every
///   production tensor side) is one strided batched pass: each output
///   row `k` accumulates `Σ_j M[k][j]·x[j][·]` over contiguous `inner`
///   runs, a tile of at most `DENSE_TILE` columns at a time, so the
///   loops vectorize and no per-line call is made. When `inner` is
///   shorter than a register block (the contiguous last axis among
///   them) the pass walks the short lines one by one instead. Above
///   `PAR_MIN_ELEMS` elements the `[len][inner]` blocks are split
///   across worker threads.
/// * an FFT axis is pair-packed: two lines share one complex DFT
///   ([`DctPlan::forward_pair_with`]), halving the dominant cost. The
///   contiguous last axis (`inner == 1`) pairs neighbouring lines,
///   skips a pair that is all zero (common in the sparse coefficient
///   tensors FISTA feeds the inverse) and transforms an odd last line
///   on its own; above `PAR_MIN_ELEMS` elements its pairs are split
///   across worker threads. Any other FFT axis pairs neighbouring
///   columns with strided loads and stores, packing a zero column
///   beside an odd last one, when the tensor is below `PAR_MIN_ELEMS`
///   and every axis is FFT; otherwise each `[len][inner]` block is
///   transposed, run as contiguous lines, and transposed back.
///
/// Which of these runs depends only on the shape and the kernels, never
/// on the worker count, so results are bit-identical for any
/// `OSCAR_THREADS`.
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
    /// automatically; see [`FAST_DCT_THRESHOLD`]).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any extent is zero.
    pub fn new(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "shape needs at least one axis");
        DctNd::from_axes(shape.iter().map(|&d| Dct1d::new(d)).collect())
    }

    /// Builds the transform from one 1-D kernel per axis, axis 0 first —
    /// for forcing a kernel regardless of size (the dense oracle, or
    /// Bluestein as the pre-mixed-radix baseline).
    ///
    /// # Panics
    ///
    /// Panics if `axes` is empty.
    pub fn from_axes(axes: Vec<Dct1d>) -> Self {
        assert!(!axes.is_empty(), "shape needs at least one axis");
        DctNd {
            shape: axes.iter().map(Dct1d::len).collect(),
            axes,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The per-axis 1-D transforms, axis 0 first.
    pub fn axes(&self) -> &[Dct1d] {
        &self.axes
    }

    /// Total number of tensor elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the FFT axes other than the last run as strided pair
    /// passes (see the type docs) rather than through a transpose.
    fn strided(&self) -> bool {
        self.len() < PAR_MIN_ELEMS && self.axes.iter().all(Dct1d::is_fast)
    }

    /// Allocates reusable apply-time scratch.
    pub fn make_scratch(&self) -> DctNdScratch {
        let workers = if self.len() >= PAR_MIN_ELEMS {
            oscar_par::max_threads()
        } else {
            1
        };
        let (mut tile, mut noncontiguous_fft, mut inner) = (0, false, 1);
        for (t, &len) in self.axes.iter().zip(&self.shape).rev() {
            if !t.is_fast() {
                tile = tile.max(len * inner.min(DENSE_TILE));
            }
            noncontiguous_fft |= t.is_fast() && inner > 1;
            inner *= len;
        }
        let transposes = noncontiguous_fft && !self.strided();
        DctNdScratch {
            tiles: vec![vec![0.0; tile]; workers],
            buf: vec![0.0; if transposes { self.len() } else { 0 }],
            axis: self
                .axes
                .iter()
                .map(|t| {
                    let pool = if t.is_fast() { workers } else { 0 };
                    (0..pool).map(|_| t.make_scratch()).collect()
                })
                .collect(),
        }
    }

    /// Forward N-D DCT.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the shape's element count.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        self.apply_axes(&mut out, 0, &mut self.make_scratch(), true);
        out
    }

    /// Inverse N-D DCT.
    ///
    /// # Panics
    ///
    /// Panics if `s.len()` does not match the shape's element count.
    pub fn inverse(&self, s: &[f64]) -> Vec<f64> {
        let mut out = s.to_vec();
        self.apply_axes(&mut out, 0, &mut self.make_scratch(), false);
        out
    }

    /// Zero-allocation forward transform: copies `x` into `out` and
    /// transforms in place there.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from another transform.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], scratch: &mut DctNdScratch) {
        assert_eq!(out.len(), x.len(), "output size mismatch");
        out.copy_from_slice(x);
        self.apply_axes(out, 0, scratch, true);
    }

    /// Zero-allocation inverse transform.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from another transform.
    pub fn inverse_into(&self, s: &[f64], out: &mut [f64], scratch: &mut DctNdScratch) {
        assert_eq!(out.len(), s.len(), "output size mismatch");
        out.copy_from_slice(s);
        self.apply_axes(out, 0, scratch, false);
    }

    /// Transforms every axis but the leading one, in place, over `data`:
    /// whole slabs of the tensor along axis 0 (a prefix of it, or all of
    /// it). The measurement operator's sample-point applies use it.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of axis-0 slabs.
    pub(crate) fn apply_trailing(
        &self,
        data: &mut [f64],
        scratch: &mut DctNdScratch,
        forward: bool,
    ) {
        assert_eq!(
            data.len() % (self.len() / self.shape[0]),
            0,
            "data must hold whole axis-0 slabs"
        );
        self.apply_axes(data, 1, scratch, forward);
    }

    /// Transforms axes `first..` in turn, last to first, in place, viewing
    /// `data` as `[outer][len][inner]` around each (see the type docs).
    fn apply_axes(
        &self,
        data: &mut [f64],
        first: usize,
        scratch: &mut DctNdScratch,
        forward: bool,
    ) {
        if first == 0 {
            assert_eq!(data.len(), self.len(), "tensor size mismatch");
        }
        let DctNdScratch { tiles, buf, axis } = scratch;
        let strided = self.strided();
        let mut inner = 1usize;
        for a in (first..self.axes.len()).rev() {
            let len = self.shape[a];
            match &self.axes[a].kernel {
                Kernel::Dense(mat) => {
                    split_across_workers(data, len * inner, tiles, |block, tile| {
                        dense_axis_pass(mat, len, inner, block, tile, forward);
                    });
                }
                Kernel::Fast(plan) if inner == 1 => {
                    line_pass(plan, data, len, &mut axis[a], forward);
                }
                Kernel::Fast(plan) => {
                    for block in data.chunks_exact_mut(len * inner) {
                        if strided {
                            strided_pass(plan, block, inner, &mut axis[a][0], forward);
                        } else {
                            let buf = &mut buf[..block.len()];
                            transpose(block, buf, len, inner);
                            line_pass(plan, buf, len, &mut axis[a], forward);
                            transpose(buf, block, inner, len);
                        }
                    }
                }
            }
            inner *= len;
        }
    }
}

/// A [`DctNd`] over a `rows x cols` grid, under the rank-2 name the
/// paper binaries use. It holds no logic of its own: everything derefs
/// to the N-D transform.
///
/// # Examples
///
/// ```
/// use oscar_cs::dct::Dct2d;
///
/// let dct = Dct2d::new(4, 6);
/// let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
/// let y = dct.inverse(&dct.forward(&x));
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Dct2d(DctNd);

impl Dct2d {
    /// `DctNd::new(&[rows, cols])`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Dct2d(DctNd::new(&[rows, cols]))
    }
}

impl std::ops::Deref for Dct2d {
    type Target = DctNd;

    fn deref(&self) -> &DctNd {
        &self.0
    }
}

/// Runs `f` over `data` split into whole `granule`s across the workers
/// of `pool`, each with its own scratch, when `data` holds at least
/// `PAR_MIN_ELEMS` elements; otherwise over all of `data` at once. The
/// split changes only who computes each granule, never its arithmetic.
fn split_across_workers<S: Send>(
    data: &mut [f64],
    granule: usize,
    pool: &mut [S],
    f: impl Fn(&mut [f64], &mut S) + Sync,
) {
    if data.len() >= PAR_MIN_ELEMS && pool.len() > 1 {
        oscar_par::for_each_chunk_mut_with(data, granule, pool, |_, chunk, s| f(chunk, s));
    } else {
        f(data, &mut pool[0]);
    }
}

/// Transforms every `len`-long contiguous line of `data` in place, two
/// at a time ([`pair_lines`]), split across workers in granules of two
/// lines so that no worker splits a packed pair.
fn line_pass(
    plan: &DctPlan,
    data: &mut [f64],
    len: usize,
    pool: &mut [Dct1dScratch],
    forward: bool,
) {
    split_across_workers(data, 2 * len, pool, |chunk, scr| {
        pair_lines(plan, chunk, len, scr, forward);
    });
}

/// Serial core of [`line_pass`]: lines `2i` and `2i + 1` share one
/// complex DFT. A pair that is all zero (of either sign) is written as
/// `+0.0` without a DFT; an odd last line is transformed on its own,
/// with the same zero skip.
fn pair_lines(plan: &DctPlan, data: &mut [f64], len: usize, scr: &mut Dct1dScratch, forward: bool) {
    let mut pairs = data.chunks_exact_mut(2 * len);
    for pair in &mut pairs {
        if pair.iter().all(|&v| v == 0.0) {
            pair.fill(0.0);
            continue;
        }
        let load = |d: &[f64], j: usize| (d[j], d[len + j]);
        let store = |d: &mut [f64], k: usize, a: f64, b: f64| {
            d[k] = a;
            d[len + k] = b;
        };
        if forward {
            plan.forward_pair_with(&mut scr.0, pair, load, store);
        } else {
            plan.inverse_pair_with(&mut scr.0, pair, load, store);
        }
    }
    let line = pairs.into_remainder();
    if line.iter().all(|&v| v == 0.0) {
        line.fill(0.0);
    } else {
        let load = |d: &[f64], j: usize| d[j];
        let store = |d: &mut [f64], k: usize, v: f64| d[k] = v;
        if forward {
            plan.forward_with(&mut scr.0, line, load, store);
        } else {
            plan.inverse_with(&mut scr.0, line, load, store);
        }
    }
}

/// Transforms every column of the row-major `[len][inner]` block in
/// place, packing columns `c` and `c + 1` into one complex DFT with
/// strided loads and stores. An odd last column packs a zero column in
/// the imaginary slot and discards it. No zero skip.
fn strided_pass(
    plan: &DctPlan,
    block: &mut [f64],
    inner: usize,
    scr: &mut Dct1dScratch,
    forward: bool,
) {
    for c in (0..inner).step_by(2) {
        let pair = c + 1 < inner;
        let load = |d: &[f64], i: usize| {
            let row = &d[i * inner..];
            (row[c], if pair { row[c + 1] } else { 0.0 })
        };
        let store = |d: &mut [f64], k: usize, a: f64, b: f64| {
            let row = &mut d[k * inner..];
            row[c] = a;
            if pair {
                row[c + 1] = b;
            }
        };
        if forward {
            plan.forward_pair_with(&mut scr.0, block, load, store);
        } else {
            plan.inverse_pair_with(&mut scr.0, block, load, store);
        }
    }
}

/// Cache-blocked out-of-place transpose of a row-major `rows x cols`
/// matrix into a `cols x rows` one.
pub(crate) fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
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
        assert!(dct.axes().iter().all(Dct1d::is_fast));
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
        assert_eq!(dct.shape(), &[3, 8]);
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
