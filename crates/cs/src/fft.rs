//! Fast Fourier transform machinery backing the O(n log n) DCT path.
//!
//! Two layers:
//!
//! * [`Fft`] — a complex DFT plan of any length `n`. Planning picks the
//!   cheapest decomposition per size ([`FftStrategy`]):
//!   - a hand-rolled iterative radix-2 Cooley–Tukey kernel when `n` is
//!     a power of two (kept as the smooth-size oracle);
//!   - an out-of-place Stockham mixed-radix network when `n` has any
//!     prime factor `<= 31`, with dedicated radix-2/3/4/5 butterflies
//!     (the paper's grid sides 50, 100, 144, 225 are all 2·3·5-smooth),
//!     generic O(r²) butterflies for the remaining small primes, and at
//!     most one Bluestein *sub-stage* when a large prime cofactor is
//!     left over;
//!   - Bluestein's chirp-z algorithm (one power-of-two convolution)
//!     only when `n` has no prime factor `<= 31` at all.
//!
//!   All apply-time state lives in a caller-provided [`FftScratch`], so
//!   plans are `Sync` and applies are allocation-free.
//! * [`DctPlan`] — orthonormal DCT-II/DCT-III of length `n` on top of a
//!   single size-`n` DFT via Makhoul's even permutation, making every
//!   1-D transform O(n log n) instead of the dense kernel's O(n²).
//!
//! Precision: the FFT path agrees with the dense transform to ~1e-12
//! relative error at the grid sizes this workspace uses (property tests
//! in `crates/cs/tests/prop.rs` pin 1e-10 for every 5-smooth size up to
//! 240 and the paper's exact sides).

use std::f64::consts::PI;

/// A complex number; minimal on purpose (this crate only needs the FFT's
/// arithmetic, not a general-purpose complex type).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Zero.
    pub const ZERO: Cpx = Cpx { re: 0.0, im: 0.0 };

    /// Builds a complex number.
    #[inline]
    pub fn new(re: f64, im: f64) -> Cpx {
        Cpx { re, im }
    }

    /// `e^{i theta}`.
    #[inline]
    pub fn cis(theta: f64) -> Cpx {
        Cpx {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Cpx {
        Cpx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Cpx {
        Cpx {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl std::ops::Add for Cpx {
    type Output = Cpx;
    #[inline]
    fn add(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl std::ops::Sub for Cpx {
    type Output = Cpx;
    #[inline]
    fn sub(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl std::ops::Mul for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// Apply-time scratch for an [`Fft`] plan (and the [`DctPlan`] built on
/// it). Allocate once with [`Fft::scratch`] / [`DctPlan::scratch`] and
/// reuse across applies.
#[derive(Clone, Debug, Default)]
pub struct FftScratch {
    /// Convolution buffer for the Bluestein path (`m` entries; empty for
    /// the pure radix-2 and mixed-radix paths).
    conv: Vec<Cpx>,
    /// Ping-pong buffer for the Stockham mixed-radix path (`n` entries;
    /// empty otherwise).
    stock: Vec<Cpx>,
    /// Gather buffer for generic-radix and sub-transform butterflies
    /// (largest such radix; empty when every stage is specialized).
    blk: Vec<Cpx>,
    /// Scratch for the Bluestein sub-stage's inner FFT, when the plan
    /// has one.
    sub: Option<Box<FftScratch>>,
    /// Line buffer for the DCT permutation step (`n` entries when owned
    /// by a [`DctPlan`], else empty).
    line: Vec<Cpx>,
    /// Second line buffer for the pair-packed DCT-III
    /// ([`DctPlan::inverse_pair_with`]); `n` entries under a
    /// [`DctPlan`].
    line2: Vec<Cpx>,
}

/// How an [`Fft`] plan (and any [`DctPlan`] on top of it) computes its
/// DFT. Returned by [`Fft::strategy`] / [`DctPlan::strategy`]; part of
/// the scratch-compatibility key in `oscar_cs::workspace` because each
/// strategy needs differently shaped scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FftStrategy {
    /// In-place iterative radix-2 Cooley–Tukey (power-of-two lengths).
    Radix2,
    /// Out-of-place Stockham mixed-radix network: dedicated 2/3/4/5
    /// butterflies, generic butterflies for primes up to 31, and at
    /// most one Bluestein sub-stage for a large prime cofactor.
    MixedRadix,
    /// Bluestein chirp-z over one power-of-two convolution (lengths
    /// with no prime factor `<= 31`, or forced via
    /// [`Fft::new_bluestein`] as the non-smooth baseline).
    Bluestein,
}

/// Largest prime factor handled in-line by a (dedicated or generic)
/// butterfly stage. A prime factor above this is delegated to one
/// Bluestein sub-stage instead, keeping the O(r²) generic butterfly
/// from dominating; below it the generic butterfly beats Bluestein's
/// convolution constants.
const MAX_BUTTERFLY_RADIX: usize = 31;

/// A DFT plan for a fixed length `n >= 1`.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    kind: FftKind,
}

#[derive(Clone, Debug)]
enum FftKind {
    /// Radix-2 iterative Cooley–Tukey; `n` is a power of two.
    Radix2 {
        /// Bit-reversal permutation of `0..n`.
        rev: Vec<u32>,
        /// Forward twiddles `e^{-2 pi i k / n}` for `k < n/2`.
        twiddle: Vec<Cpx>,
    },
    /// Stockham mixed-radix butterfly network; the stage table is the
    /// factorization of `n` (see [`butterfly_factors`]).
    Mixed {
        stages: Vec<Stage>,
        /// Largest gather-buffer radix among Generic/Sub stages (0 when
        /// all stages are specialized).
        gather: usize,
    },
    /// Bluestein chirp-z for arbitrary `n` via a radix-2 convolution of
    /// length `m = next_pow2(2n - 1)`.
    Bluestein {
        fft_m: Box<Fft>,
        /// `w[j] = e^{-i pi j^2 / n}` for `j < n`.
        chirp: Vec<Cpx>,
        /// Forward DFT of the circularly extended conjugate chirp,
        /// pre-scaled by `1/m` so the inverse convolution FFT needs no
        /// extra normalization pass.
        bfreq: Vec<Cpx>,
    },
}

/// One stage of the Stockham mixed-radix network. When the stage runs,
/// the transform is split into sub-DFTs of length `n' = radix * m`; the
/// stage performs `m * stride` radix-point butterflies and twiddles.
#[derive(Clone, Debug)]
struct Stage {
    /// Butterfly radix `r`.
    radix: usize,
    /// Sub-transform split count `m = n' / r`.
    m: usize,
    /// `w_{n'}^{p t}` for `p < m`, `1 <= t < r`, flattened as
    /// `p * (r - 1) + t - 1` — the `t = 0` factor is always 1 and
    /// omitted.
    twiddle: Vec<Cpx>,
    kind: StageKind,
}

#[derive(Clone, Debug)]
enum StageKind {
    /// `u = (a + b, a - b)`.
    Radix2,
    /// Dedicated 3-point butterfly (one real half, one ±i√3/2 pair).
    Radix3,
    /// Dedicated 4-point butterfly (twiddles 1, -i only).
    Radix4,
    /// Dedicated 5-point butterfly (cos/sin 2π/5 and 4π/5 constants).
    Radix5,
    /// Naive O(r²) DFT butterfly for a prime radix in 7..=31;
    /// `roots[j] = e^{-2 pi i j / r}`.
    Generic { roots: Vec<Cpx> },
    /// Large-prime cofactor computed by an inner FFT (always a
    /// [`FftKind::Bluestein`] plan, since every factor `<= 31` was
    /// already split off) — the "single Bluestein stage" fallback.
    Sub { fft: Box<Fft> },
}

/// Splits `n` into butterfly radices — 4s first (half the stages of
/// radix-2 at the same cost model), one leftover 2, then 3s, 5s, and
/// generic primes up to [`MAX_BUTTERFLY_RADIX`] in ascending order —
/// plus the remaining cofactor, whose prime factors (if any) all exceed
/// [`MAX_BUTTERFLY_RADIX`].
fn butterfly_factors(mut n: usize) -> (Vec<usize>, usize) {
    let mut factors = Vec::new();
    while n.is_multiple_of(4) {
        factors.push(4);
        n /= 4;
    }
    if n.is_multiple_of(2) {
        factors.push(2);
        n /= 2;
    }
    for r in [3usize, 5] {
        while n.is_multiple_of(r) {
            factors.push(r);
            n /= r;
        }
    }
    let mut d = 7;
    while d <= MAX_BUTTERFLY_RADIX {
        while n.is_multiple_of(d) {
            factors.push(d);
            n /= d;
        }
        d += 2;
    }
    (factors, n)
}

// Emptiness is unrepresentable (lengths are validated positive at
// construction), so a `len`-only API is deliberate.
#[allow(clippy::len_without_is_empty)]
impl Fft {
    /// Plans a DFT of length `n`, picking the cheapest decomposition
    /// (see [`FftStrategy`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Fft {
        assert!(n > 0, "FFT length must be positive");
        if n.is_power_of_two() {
            return Fft::new_radix2(n);
        }
        let (factors, cofactor) = butterfly_factors(n);
        if factors.is_empty() {
            // No prime factor <= 31 at all: Bluestein the whole length.
            return Fft::new_bluestein(n);
        }
        Fft::new_mixed(n, factors, cofactor)
    }

    /// Plans the in-place radix-2 network; `n` is a power of two.
    fn new_radix2(n: usize) -> Fft {
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)) << u32::from(bits == 0))
            .collect::<Vec<_>>();
        let twiddle = (0..n / 2)
            .map(|k| Cpx::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Fft {
            n,
            kind: FftKind::Radix2 { rev, twiddle },
        }
    }

    /// Builds the Stockham stage table for `n = product(factors) *
    /// cofactor`. Stage `j` runs on sub-DFTs of length `n'_j`, which
    /// shrinks by that stage's radix; the cofactor (when present)
    /// becomes one trailing Bluestein sub-stage.
    fn new_mixed(n: usize, mut radices: Vec<usize>, cofactor: usize) -> Fft {
        if cofactor > 1 {
            radices.push(cofactor);
        }
        let mut stages = Vec::with_capacity(radices.len());
        let mut sub_len = n;
        let mut gather = 0usize;
        for &r in &radices {
            let m = sub_len / r;
            let twiddle = (0..m)
                .flat_map(|p| {
                    (1..r).map(move |t| {
                        // Reduce the exponent mod n' to keep the angle
                        // argument small regardless of n.
                        Cpx::cis(-2.0 * PI * ((p * t) % sub_len) as f64 / sub_len as f64)
                    })
                })
                .collect();
            let kind = match r {
                2 => StageKind::Radix2,
                3 => StageKind::Radix3,
                4 => StageKind::Radix4,
                5 => StageKind::Radix5,
                _ if r <= MAX_BUTTERFLY_RADIX => {
                    gather = gather.max(r);
                    StageKind::Generic {
                        roots: (0..r)
                            .map(|j| Cpx::cis(-2.0 * PI * j as f64 / r as f64))
                            .collect(),
                    }
                }
                _ => {
                    gather = gather.max(r);
                    StageKind::Sub {
                        fft: Box::new(Fft::new(r)),
                    }
                }
            };
            stages.push(Stage {
                radix: r,
                m,
                twiddle,
                kind,
            });
            sub_len = m;
        }
        debug_assert_eq!(sub_len, 1, "stage radices must multiply to n");
        Fft {
            n,
            kind: FftKind::Mixed { stages, gather },
        }
    }

    /// Plans a Bluestein chirp-z DFT of length `n` regardless of how
    /// `n` factors — [`Fft::new`] only picks this for lengths with no
    /// prime factor `<= 31`; the public constructor exists as the
    /// pre-mixed-radix baseline for benchmarks and oracle tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_bluestein(n: usize) -> Fft {
        assert!(n > 0, "FFT length must be positive");
        let m = (2 * n - 1).next_power_of_two();
        let fft_m = Box::new(Fft::new(m));
        // Chirp phases have period 2n in j^2; reduce mod 2n to keep the
        // angle argument small regardless of n.
        let chirp: Vec<Cpx> = (0..n)
            .map(|j| {
                let jj = (j as u64 * j as u64) % (2 * n as u64);
                Cpx::cis(-PI * jj as f64 / n as f64)
            })
            .collect();
        // b[j] = conj(chirp[|j|]) circularly extended to length m.
        let mut b = vec![Cpx::ZERO; m];
        b[0] = chirp[0].conj();
        for j in 1..n {
            b[j] = chirp[j].conj();
            b[m - j] = chirp[j].conj();
        }
        let mut scratch = fft_m.scratch();
        fft_m.forward(&mut b, &mut scratch);
        let inv_m = 1.0 / m as f64;
        for v in &mut b {
            *v = v.scale(inv_m);
        }
        Fft {
            n,
            kind: FftKind::Bluestein {
                fft_m,
                chirp,
                bfreq: b,
            },
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The decomposition this plan executes.
    pub fn strategy(&self) -> FftStrategy {
        match &self.kind {
            FftKind::Radix2 { .. } => FftStrategy::Radix2,
            FftKind::Mixed { .. } => FftStrategy::MixedRadix,
            FftKind::Bluestein { .. } => FftStrategy::Bluestein,
        }
    }

    /// The per-stage radix decomposition, in execution order: `[2; log2
    /// n]` for the radix-2 path, the stage table for the mixed-radix
    /// path (a large prime cofactor appears as its own trailing radix),
    /// and `[n]` for a whole-length Bluestein plan.
    pub fn radices(&self) -> Vec<usize> {
        match &self.kind {
            FftKind::Radix2 { .. } => vec![2; self.n.trailing_zeros() as usize],
            FftKind::Mixed { stages, .. } => stages.iter().map(|s| s.radix).collect(),
            FftKind::Bluestein { .. } => vec![self.n],
        }
    }

    /// Allocates scratch sized for this plan.
    pub fn scratch(&self) -> FftScratch {
        match &self.kind {
            FftKind::Radix2 { .. } => FftScratch::default(),
            FftKind::Mixed { stages, gather } => {
                let sub = stages.iter().find_map(|s| match &s.kind {
                    StageKind::Sub { fft } => Some(Box::new(fft.scratch())),
                    _ => None,
                });
                FftScratch {
                    stock: vec![Cpx::ZERO; self.n],
                    blk: vec![Cpx::ZERO; *gather],
                    sub,
                    ..FftScratch::default()
                }
            }
            FftKind::Bluestein { fft_m, .. } => FftScratch {
                conv: vec![Cpx::ZERO; fft_m.len()],
                ..FftScratch::default()
            },
        }
    }

    /// In-place forward DFT: `X[k] = sum_j x[j] e^{-2 pi i j k / n}`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n` or `scratch` was not sized by
    /// [`Fft::scratch`] for this plan.
    pub fn forward(&self, data: &mut [Cpx], scratch: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "FFT length mismatch");
        match &self.kind {
            FftKind::Radix2 { rev, twiddle } => radix2_forward(data, rev, twiddle),
            FftKind::Mixed { stages, .. } => mixed_forward(data, stages, scratch),
            FftKind::Bluestein {
                fft_m,
                chirp,
                bfreq,
            } => {
                let m = fft_m.len();
                let conv = &mut scratch.conv;
                assert_eq!(conv.len(), m, "scratch not sized for this plan");
                // a[j] = x[j] * chirp[j], zero-padded to m.
                for j in 0..self.n {
                    conv[j] = data[j] * chirp[j];
                }
                for v in conv[self.n..].iter_mut() {
                    *v = Cpx::ZERO;
                }
                // Circular convolution with the precomputed chirp filter.
                let mut inner = FftScratch::default();
                fft_m.forward(conv, &mut inner);
                for (v, &b) in conv.iter_mut().zip(bfreq.iter()) {
                    *v = *v * b;
                }
                // Inverse FFT via conjugation; bfreq carries the 1/m.
                for v in conv.iter_mut() {
                    *v = v.conj();
                }
                fft_m.forward(conv, &mut inner);
                for (x, (&c, &w)) in data.iter_mut().zip(conv.iter().zip(chirp.iter())) {
                    *x = c.conj() * w;
                }
            }
        }
    }

    /// In-place inverse DFT (unitary up to the conventional `1/n`):
    /// `x[j] = (1/n) sum_k X[k] e^{+2 pi i j k / n}`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Fft::forward`].
    pub fn inverse(&self, data: &mut [Cpx], scratch: &mut FftScratch) {
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.forward(data, scratch);
        let inv_n = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.conj().scale(inv_n);
        }
    }
}

/// Iterative radix-2 DIT butterfly network. `rev` and `twiddle` come
/// from the plan; `data.len()` is a power of two. The first two stages
/// are specialized: their twiddles are `1` and `-i`, so they need no
/// complex multiplies.
fn radix2_forward(data: &mut [Cpx], rev: &[u32], twiddle: &[Cpx]) {
    let n = data.len();
    for i in 0..n {
        let j = rev[i] as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Stage len = 2: w = 1.
    if n >= 2 {
        let mut i = 0;
        while i < n {
            let a = data[i];
            let b = data[i + 1];
            data[i] = a + b;
            data[i + 1] = a - b;
            i += 2;
        }
    }
    // Stage len = 4: twiddles 1 and -i (multiply by -i = (im, -re)).
    if n >= 4 {
        let mut base = 0;
        while base < n {
            let a0 = data[base];
            let a1 = data[base + 1];
            let a2 = data[base + 2];
            let a3 = data[base + 3];
            let b3 = Cpx::new(a3.im, -a3.re);
            data[base] = a0 + a2;
            data[base + 2] = a0 - a2;
            data[base + 1] = a1 + b3;
            data[base + 3] = a1 - b3;
            base += 4;
        }
    }
    let mut len = 8;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        let mut base = 0;
        while base < n {
            let mut tw = 0;
            for i in base..base + half {
                let w = twiddle[tw];
                let odd = data[i + half] * w;
                let even = data[i];
                data[i] = even + odd;
                data[i + half] = even - odd;
                tw += step;
            }
            base += len;
        }
        len <<= 1;
    }
}

/// sin(pi/3), the radix-3 butterfly's only irrational constant.
const SQRT3_HALF: f64 = 0.866_025_403_784_438_6;
/// cos(2 pi/5), sin(2 pi/5), cos(4 pi/5), sin(4 pi/5) for radix-5.
const COS_2PI_5: f64 = 0.309_016_994_374_947_45;
const SIN_2PI_5: f64 = 0.951_056_516_295_153_5;
const COS_4PI_5: f64 = -0.809_016_994_374_947_5;
const SIN_4PI_5: f64 = 0.587_785_252_292_473_1;

/// Out-of-place Stockham mixed-radix network. Stage `j` sees the array
/// as `stride` interleaved sub-problems of length `n'_j` and performs
/// `m_j * stride` radix-`r_j` butterflies; data ping-pongs between the
/// caller's buffer and `scratch.stock`, landing back in `data` (with
/// one final copy when the stage count is odd). Results are in natural
/// order — Stockham's self-sorting property replaces the radix-2 path's
/// bit-reversal permutation.
fn mixed_forward(data: &mut [Cpx], stages: &[Stage], scratch: &mut FftScratch) {
    let n = data.len();
    let mut stock = std::mem::take(&mut scratch.stock);
    assert_eq!(stock.len(), n, "scratch not sized for this plan");
    let mut stride = 1usize;
    let mut in_data = true;
    for stage in stages {
        if in_data {
            stage.apply(data, &mut stock, stride, scratch);
        } else {
            stage.apply(&stock, data, stride, scratch);
        }
        in_data = !in_data;
        stride *= stage.radix;
    }
    if !in_data {
        data.copy_from_slice(&stock);
    }
    scratch.stock = stock;
}

impl Stage {
    /// One butterfly pass: for each split index `p < m` and lane
    /// `q < stride`, gather `r` inputs at `src[q + stride * (p + m *
    /// i)]`, apply the radix-`r` DFT, twiddle by `w_{n'}^{p t}`, and
    /// scatter to `dst[q + stride * (r * p + t)]`.
    fn apply(&self, src: &[Cpx], dst: &mut [Cpx], stride: usize, scratch: &mut FftScratch) {
        let r = self.radix;
        let m = self.m;
        match &self.kind {
            StageKind::Radix2 => {
                for p in 0..m {
                    let w = self.twiddle[p];
                    for q in 0..stride {
                        let a = src[q + stride * p];
                        let b = src[q + stride * (p + m)];
                        dst[q + stride * 2 * p] = a + b;
                        dst[q + stride * (2 * p + 1)] = (a - b) * w;
                    }
                }
            }
            StageKind::Radix3 => {
                for p in 0..m {
                    let w1 = self.twiddle[2 * p];
                    let w2 = self.twiddle[2 * p + 1];
                    for q in 0..stride {
                        let a0 = src[q + stride * p];
                        let a1 = src[q + stride * (p + m)];
                        let a2 = src[q + stride * (p + 2 * m)];
                        let t1 = a1 + a2;
                        let t2 = a0 - t1.scale(0.5);
                        let e = (a1 - a2).scale(SQRT3_HALF);
                        // u1 = t2 - i e, u2 = t2 + i e.
                        let u1 = Cpx::new(t2.re + e.im, t2.im - e.re);
                        let u2 = Cpx::new(t2.re - e.im, t2.im + e.re);
                        dst[q + stride * 3 * p] = a0 + t1;
                        dst[q + stride * (3 * p + 1)] = u1 * w1;
                        dst[q + stride * (3 * p + 2)] = u2 * w2;
                    }
                }
            }
            StageKind::Radix4 => {
                for p in 0..m {
                    let w1 = self.twiddle[3 * p];
                    let w2 = self.twiddle[3 * p + 1];
                    let w3 = self.twiddle[3 * p + 2];
                    for q in 0..stride {
                        let a0 = src[q + stride * p];
                        let a1 = src[q + stride * (p + m)];
                        let a2 = src[q + stride * (p + 2 * m)];
                        let a3 = src[q + stride * (p + 3 * m)];
                        let s02 = a0 + a2;
                        let d02 = a0 - a2;
                        let s13 = a1 + a3;
                        let d13 = a1 - a3;
                        // -i * d13.
                        let jd = Cpx::new(d13.im, -d13.re);
                        dst[q + stride * 4 * p] = s02 + s13;
                        dst[q + stride * (4 * p + 1)] = (d02 + jd) * w1;
                        dst[q + stride * (4 * p + 2)] = (s02 - s13) * w2;
                        dst[q + stride * (4 * p + 3)] = (d02 - jd) * w3;
                    }
                }
            }
            StageKind::Radix5 => {
                for p in 0..m {
                    let tw = &self.twiddle[4 * p..4 * p + 4];
                    for q in 0..stride {
                        let a0 = src[q + stride * p];
                        let a1 = src[q + stride * (p + m)];
                        let a2 = src[q + stride * (p + 2 * m)];
                        let a3 = src[q + stride * (p + 3 * m)];
                        let a4 = src[q + stride * (p + 4 * m)];
                        let t1 = a1 + a4;
                        let t2 = a2 + a3;
                        let t3 = a1 - a4;
                        let t4 = a2 - a3;
                        let b1 = a0 + t1.scale(COS_2PI_5) + t2.scale(COS_4PI_5);
                        let b2 = a0 + t1.scale(COS_4PI_5) + t2.scale(COS_2PI_5);
                        let v1 = t3.scale(SIN_2PI_5) + t4.scale(SIN_4PI_5);
                        let v2 = t3.scale(SIN_4PI_5) - t4.scale(SIN_2PI_5);
                        // u1/u4 = b1 ∓ i v1; u2/u3 = b2 ∓ i v2.
                        dst[q + stride * 5 * p] = a0 + t1 + t2;
                        dst[q + stride * (5 * p + 1)] =
                            Cpx::new(b1.re + v1.im, b1.im - v1.re) * tw[0];
                        dst[q + stride * (5 * p + 2)] =
                            Cpx::new(b2.re + v2.im, b2.im - v2.re) * tw[1];
                        dst[q + stride * (5 * p + 3)] =
                            Cpx::new(b2.re - v2.im, b2.im + v2.re) * tw[2];
                        dst[q + stride * (5 * p + 4)] =
                            Cpx::new(b1.re - v1.im, b1.im + v1.re) * tw[3];
                    }
                }
            }
            StageKind::Generic { roots } => {
                let blk = &mut scratch.blk[..r];
                for p in 0..m {
                    let tw = &self.twiddle[(r - 1) * p..(r - 1) * (p + 1)];
                    for q in 0..stride {
                        let base = q + stride * p;
                        for (i, b) in blk.iter_mut().enumerate() {
                            *b = src[base + stride * m * i];
                        }
                        let out = q + stride * r * p;
                        // t = 0: plain sum, no twiddle.
                        let mut sum = blk[0];
                        for &b in blk[1..].iter() {
                            sum = sum + b;
                        }
                        dst[out] = sum;
                        for (ti, &w) in tw.iter().enumerate() {
                            let t = ti + 1;
                            let mut acc = blk[0];
                            let mut idx = 0usize;
                            for &b in blk[1..].iter() {
                                idx += t;
                                if idx >= r {
                                    idx -= r;
                                }
                                acc = acc + b * roots[idx];
                            }
                            dst[out + stride * t] = acc * w;
                        }
                    }
                }
            }
            StageKind::Sub { fft } => {
                let sub = scratch
                    .sub
                    .as_mut()
                    .expect("scratch not sized for this plan");
                let blk = &mut scratch.blk[..r];
                for p in 0..m {
                    let tw = &self.twiddle[(r - 1) * p..(r - 1) * (p + 1)];
                    for q in 0..stride {
                        let base = q + stride * p;
                        for (i, b) in blk.iter_mut().enumerate() {
                            *b = src[base + stride * m * i];
                        }
                        fft.forward(blk, sub);
                        let out = q + stride * r * p;
                        dst[out] = blk[0];
                        for (ti, (&u, &w)) in blk[1..].iter().zip(tw.iter()).enumerate() {
                            dst[out + stride * (ti + 1)] = u * w;
                        }
                    }
                }
            }
        }
    }
}

/// An orthonormal DCT-II (forward) / DCT-III (inverse) plan of length
/// `n`, computed through one size-`n` DFT.
///
/// Forward: with Makhoul's even permutation `v[i] = x[2i]`,
/// `v[n-1-i] = x[2i+1]`, the DCT-II is
/// `C[k] = Re(e^{-i pi k / 2n} DFT(v)[k])`, then orthonormal scaling.
/// Inverse runs the same pipeline backwards.
#[derive(Clone, Debug)]
pub struct DctPlan {
    n: usize,
    fft: Fft,
    /// `perm[i]` = source index in `x` for `v[i]`.
    perm: Vec<u32>,
    /// `e^{-i pi k / 2n}` for `k < n`.
    shift: Vec<Cpx>,
    /// Orthonormal scale per coefficient: `sqrt(1/n)` for k = 0, else
    /// `sqrt(2/n)`.
    scale: Vec<f64>,
}

// Emptiness is unrepresentable (lengths are validated positive at
// construction), so a `len`-only API is deliberate.
#[allow(clippy::len_without_is_empty)]
impl DctPlan {
    /// Plans the transform for length `n >= 1`, on the cheapest DFT
    /// decomposition for that size (see [`FftStrategy`]).
    pub fn new(n: usize) -> DctPlan {
        DctPlan::with_fft(Fft::new(n))
    }

    /// Plans the transform on a whole-length Bluestein DFT regardless
    /// of how `n` factors — the pre-mixed-radix baseline, kept for
    /// benchmarks and oracle tests ([`Fft::new_bluestein`]).
    pub fn new_bluestein(n: usize) -> DctPlan {
        DctPlan::with_fft(Fft::new_bluestein(n))
    }

    fn with_fft(fft: Fft) -> DctPlan {
        let n = fft.len();
        assert!(n > 0, "transform length must be positive");
        let mut perm = vec![0u32; n];
        let half = n.div_ceil(2);
        for i in 0..half {
            perm[i] = 2 * i as u32;
        }
        for i in 0..n / 2 {
            perm[n - 1 - i] = 2 * i as u32 + 1;
        }
        let shift = (0..n)
            .map(|k| Cpx::cis(-PI * k as f64 / (2.0 * n as f64)))
            .collect();
        let mut scale = vec![(2.0 / n as f64).sqrt(); n];
        scale[0] = (1.0 / n as f64).sqrt();
        DctPlan {
            n,
            fft,
            perm,
            shift,
            scale,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The DFT decomposition behind this plan.
    pub fn strategy(&self) -> FftStrategy {
        self.fft.strategy()
    }

    /// The underlying DFT's per-stage radix table ([`Fft::radices`]).
    pub fn radices(&self) -> Vec<usize> {
        self.fft.radices()
    }

    /// Allocates scratch sized for this plan.
    pub fn scratch(&self) -> FftScratch {
        let mut s = self.fft.scratch();
        s.line = vec![Cpx::ZERO; self.n];
        s.line2 = vec![Cpx::ZERO; self.n];
        s
    }

    /// Orthonormal DCT-II: `x` (space domain) into `out` (coefficients).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from another plan.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], scratch: &mut FftScratch) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        self.forward_with(scratch, out, |_, i| x[i], |o, k, v| o[k] = v);
    }

    /// Orthonormal DCT-III (the inverse of [`DctPlan::forward_into`]):
    /// coefficients `s` into space-domain `out`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or scratch from another plan.
    pub fn inverse_into(&self, s: &[f64], out: &mut [f64], scratch: &mut FftScratch) {
        assert_eq!(s.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        self.inverse_with(scratch, out, |_, k| s[k], |o, i, v| o[i] = v);
    }

    /// [`Self::forward_into`] through accessors: `load(data, i)` returns
    /// sample `i`, and `store(data, k, c)` receives coefficient `k`.
    /// Every load happens before the first store, so both may address
    /// the same elements of `data`: the line can be transformed in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` came from another plan.
    pub(crate) fn forward_with<D: ?Sized>(
        &self,
        scratch: &mut FftScratch,
        data: &mut D,
        load: impl Fn(&D, usize) -> f64,
        mut store: impl FnMut(&mut D, usize, f64),
    ) {
        assert_eq!(
            scratch.line.len(),
            self.n,
            "scratch not sized for this plan"
        );
        let mut line = std::mem::take(&mut scratch.line);
        for (v, &p) in line.iter_mut().zip(self.perm.iter()) {
            *v = Cpx::new(load(data, p as usize), 0.0);
        }
        self.fft.forward(&mut line, scratch);
        for k in 0..self.n {
            store(data, k, (self.shift[k] * line[k]).re * self.scale[k]);
        }
        scratch.line = line;
    }

    /// [`Self::inverse_into`] through accessors, as
    /// [`Self::forward_with`]: `load(data, k)` returns coefficient `k`,
    /// and `store(data, i, x)` receives sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` came from another plan.
    pub(crate) fn inverse_with<D: ?Sized>(
        &self,
        scratch: &mut FftScratch,
        data: &mut D,
        load: impl Fn(&D, usize) -> f64,
        mut store: impl FnMut(&mut D, usize, f64),
    ) {
        assert_eq!(
            scratch.line.len(),
            self.n,
            "scratch not sized for this plan"
        );
        let mut line = std::mem::take(&mut scratch.line);
        // Rebuild the complex spectrum V[k] = e^{+i pi k/2n} (C[k] - i C[n-k])
        // from the real DCT coefficients (C = unnormalized DCT-II values).
        let c0 = load(data, 0) / self.scale[0];
        line[0] = Cpx::new(c0, 0.0);
        for k in 1..self.n {
            let ck = load(data, k) / self.scale[k];
            let cnk = load(data, self.n - k) / self.scale[self.n - k];
            line[k] = self.shift[k].conj() * Cpx::new(ck, -cnk);
        }
        self.fft.inverse(&mut line, scratch);
        for (i, &p) in self.perm.iter().enumerate() {
            store(data, p as usize, line[i].re);
        }
        scratch.line = line;
    }

    /// Pair-packed forward DCT-II: transforms **two** real lines with a
    /// single complex DFT by packing them as real/imaginary parts — the
    /// classic two-for-one real-FFT trick, halving the dominant cost of
    /// batched multi-line transforms.
    ///
    /// `load(data, i)` must return sample `i` of both lines;
    /// `store(data, k, c1, c2)` receives coefficient `k` of each. Every
    /// load precedes the first store, so both may address the same
    /// elements of `data`: the pair can be transformed in place.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` came from another plan.
    pub fn forward_pair_with<D: ?Sized>(
        &self,
        scratch: &mut FftScratch,
        data: &mut D,
        load: impl Fn(&D, usize) -> (f64, f64),
        mut store: impl FnMut(&mut D, usize, f64, f64),
    ) {
        let n = self.n;
        assert_eq!(scratch.line.len(), n, "scratch not sized for this plan");
        let mut line = std::mem::take(&mut scratch.line);
        for (v, &p) in line.iter_mut().zip(self.perm.iter()) {
            let (a, b) = load(data, p as usize);
            *v = Cpx::new(a, b);
        }
        self.fft.forward(&mut line, scratch);
        // With V = DFT(v_a + i v_b): A[k] = (V[k] + conj(V[n-k]))/2 and
        // B[k] = (V[k] - conj(V[n-k]))/2i are the individual spectra.
        store(
            data,
            0,
            line[0].re * self.scale[0],
            line[0].im * self.scale[0],
        );
        for k in 1..n {
            let vk = line[k];
            let vm = line[n - k];
            let a = Cpx::new(vk.re + vm.re, vk.im - vm.im).scale(0.5);
            let b = Cpx::new(vk.im + vm.im, vm.re - vk.re).scale(0.5);
            let sh = self.shift[k];
            store(
                data,
                k,
                (sh * a).re * self.scale[k],
                (sh * b).re * self.scale[k],
            );
        }
        scratch.line = line;
    }

    /// Pair-packed inverse DCT-III: reconstructs **two** real lines with
    /// a single complex inverse DFT (see [`Self::forward_pair_with`]).
    ///
    /// `load(data, k)` must return coefficient `k` of both lines;
    /// `store(data, i, x1, x2)` receives sample `i` of each (in place,
    /// as for [`Self::forward_pair_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `scratch` came from another plan.
    pub fn inverse_pair_with<D: ?Sized>(
        &self,
        scratch: &mut FftScratch,
        data: &mut D,
        load: impl Fn(&D, usize) -> (f64, f64),
        mut store: impl FnMut(&mut D, usize, f64, f64),
    ) {
        let n = self.n;
        assert_eq!(scratch.line.len(), n, "scratch not sized for this plan");
        assert_eq!(scratch.line2.len(), n, "scratch not sized for this plan");
        let mut line = std::mem::take(&mut scratch.line);
        let mut packed = std::mem::take(&mut scratch.line2);
        // P[k] = (C1[k] + i C2[k]) / scale[k]; by linearity the packed
        // spectrum is V[k] = conj(shift[k]) (P[k] - i P[n-k]), V[0] = P[0].
        for (k, p) in packed.iter_mut().enumerate() {
            let (c1, c2) = load(data, k);
            let inv = 1.0 / self.scale[k];
            *p = Cpx::new(c1 * inv, c2 * inv);
        }
        line[0] = packed[0];
        for k in 1..n {
            let p = packed[k];
            let q = packed[n - k];
            // p - i q = (p.re + q.im, p.im - q.re)
            line[k] = self.shift[k].conj() * Cpx::new(p.re + q.im, p.im - q.re);
        }
        self.fft.inverse(&mut line, scratch);
        for (i, &p) in self.perm.iter().enumerate() {
            store(data, p as usize, line[i].re, line[i].im);
        }
        scratch.line = line;
        scratch.line2 = packed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n^2) DFT oracle.
    fn dft_naive(x: &[Cpx]) -> Vec<Cpx> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Cpx::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let w = Cpx::cis(-2.0 * PI * (j * k) as f64 / n as f64);
                    acc = acc + v * w;
                }
                acc
            })
            .collect()
    }

    fn ramp(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| Cpx::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect()
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let fft = Fft::new(n);
            let mut data = ramp(n);
            let want = dft_naive(&data);
            let mut scratch = fft.scratch();
            fft.forward(&mut data, &mut scratch);
            for (a, b) in data.iter().zip(&want) {
                assert!(
                    (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn non_pow2_matches_naive_dft() {
        // Mixed-radix sizes (smooth, generic-prime, and Bluestein
        // sub-stage) plus a pure large prime (whole-length Bluestein).
        for n in [
            3usize, 5, 6, 7, 12, 15, 33, 50, 74, 77, 100, 111, 143, 144, 225, 235, 257,
        ] {
            let fft = Fft::new(n);
            let mut data = ramp(n);
            let want = dft_naive(&data);
            let mut scratch = fft.scratch();
            fft.forward(&mut data, &mut scratch);
            for (a, b) in data.iter().zip(&want) {
                assert!(
                    (a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn forced_bluestein_matches_naive_dft() {
        for n in [3usize, 12, 50, 100, 144, 225] {
            let fft = Fft::new_bluestein(n);
            assert_eq!(fft.strategy(), FftStrategy::Bluestein);
            let mut data = ramp(n);
            let want = dft_naive(&data);
            let mut scratch = fft.scratch();
            fft.forward(&mut data, &mut scratch);
            for (a, b) in data.iter().zip(&want) {
                assert!(
                    (a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn strategy_selection_per_size() {
        assert_eq!(Fft::new(64).strategy(), FftStrategy::Radix2);
        assert_eq!(Fft::new(1).strategy(), FftStrategy::Radix2);
        for n in [6usize, 50, 100, 144, 225, 31, 77] {
            assert_eq!(Fft::new(n).strategy(), FftStrategy::MixedRadix, "n={n}");
        }
        // Large prime factor -> one Bluestein sub-stage, still mixed.
        assert_eq!(Fft::new(74).strategy(), FftStrategy::MixedRadix);
        assert_eq!(Fft::new(74).radices(), vec![2, 37]);
        // No factor <= 31 at all -> whole-length Bluestein.
        assert_eq!(Fft::new(37).strategy(), FftStrategy::Bluestein);
        assert_eq!(Fft::new(37 * 41).strategy(), FftStrategy::Bluestein);
        // The paper's grid sides decompose into dedicated butterflies.
        assert_eq!(Fft::new(50).radices(), vec![2, 5, 5]);
        assert_eq!(Fft::new(100).radices(), vec![4, 5, 5]);
        assert_eq!(Fft::new(144).radices(), vec![4, 4, 3, 3]);
        assert_eq!(Fft::new(225).radices(), vec![3, 3, 5, 5]);
    }

    #[test]
    fn mixed_radix_is_bit_stable() {
        // Two independently planned transforms of the same input agree
        // to the last bit, as do repeat applies through one scratch.
        for n in [50usize, 100, 144, 225, 74, 77] {
            let input = ramp(n);
            let run = || {
                let fft = Fft::new(n);
                let mut data = input.clone();
                let mut scratch = fft.scratch();
                fft.forward(&mut data, &mut scratch);
                fft.forward(&mut data, &mut scratch);
                data
            };
            let (a, b) = (run(), run());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "n={n}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [1usize, 2, 7, 16, 27, 64, 100] {
            let fft = Fft::new(n);
            let orig = ramp(n);
            let mut data = orig.clone();
            let mut scratch = fft.scratch();
            fft.forward(&mut data, &mut scratch);
            fft.inverse(&mut data, &mut scratch);
            for (a, b) in data.iter().zip(&orig) {
                assert!(
                    (a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn dct_plan_bluestein_matches_default() {
        for n in [50usize, 100, 144, 225] {
            let auto = DctPlan::new(n);
            assert_eq!(auto.strategy(), FftStrategy::MixedRadix);
            let blue = DctPlan::new_bluestein(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            auto.forward_into(&x, &mut a, &mut auto.scratch());
            blue.forward_into(&x, &mut b, &mut blue.scratch());
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn dct_plan_roundtrip() {
        for n in [1usize, 2, 3, 8, 17, 32, 100, 257] {
            let plan = DctPlan::new(n);
            let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let mut coeffs = vec![0.0; n];
            let mut back = vec![0.0; n];
            let mut scratch = plan.scratch();
            plan.forward_into(&x, &mut coeffs, &mut scratch);
            plan.inverse_into(&coeffs, &mut back, &mut scratch);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dct_plan_parseval() {
        let n = 96;
        let plan = DctPlan::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin() * 2.0).collect();
        let mut coeffs = vec![0.0; n];
        let mut scratch = plan.scratch();
        plan.forward_into(&x, &mut coeffs, &mut scratch);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = coeffs.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-9, "{ex} vs {ec}");
    }

    #[test]
    fn scratch_reuse_is_clean() {
        // Two applies through the same scratch give identical results.
        let plan = DctPlan::new(100);
        let x: Vec<f64> = (0..100).map(|i| (i as f64).cos()).collect();
        let mut scratch = plan.scratch();
        let mut a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        plan.forward_into(&x, &mut a, &mut scratch);
        plan.forward_into(&x, &mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn pair_forward_matches_two_singles() {
        for n in [2usize, 8, 17, 33, 64, 100] {
            let plan = DctPlan::new(n);
            let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() - 0.5).collect();
            let mut scratch = plan.scratch();
            let mut a1 = vec![0.0; n];
            let mut a2 = vec![0.0; n];
            plan.forward_into(&x1, &mut a1, &mut scratch);
            plan.forward_into(&x2, &mut a2, &mut scratch);
            let mut b = [vec![0.0; n], vec![0.0; n]];
            plan.forward_pair_with(
                &mut scratch,
                &mut b,
                |_, i| (x1[i], x2[i]),
                |b, k, c1, c2| {
                    b[0][k] = c1;
                    b[1][k] = c2;
                },
            );
            for k in 0..n {
                assert!((a1[k] - b[0][k]).abs() < 1e-10, "n={n} line 1 k={k}");
                assert!((a2[k] - b[1][k]).abs() < 1e-10, "n={n} line 2 k={k}");
            }
        }
    }

    #[test]
    fn pair_inverse_matches_two_singles() {
        for n in [2usize, 8, 17, 33, 64, 100] {
            let plan = DctPlan::new(n);
            let s1: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
            let s2: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) * 0.25).collect();
            let mut scratch = plan.scratch();
            let mut a1 = vec![0.0; n];
            let mut a2 = vec![0.0; n];
            plan.inverse_into(&s1, &mut a1, &mut scratch);
            plan.inverse_into(&s2, &mut a2, &mut scratch);
            let mut b = [vec![0.0; n], vec![0.0; n]];
            plan.inverse_pair_with(
                &mut scratch,
                &mut b,
                |_, k| (s1[k], s2[k]),
                |b, i, v1, v2| {
                    b[0][i] = v1;
                    b[1][i] = v2;
                },
            );
            for i in 0..n {
                assert!((a1[i] - b[0][i]).abs() < 1e-10, "n={n} line 1 i={i}");
                assert!((a2[i] - b[1][i]).abs() < 1e-10, "n={n} line 2 i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn rejects_zero_length() {
        let _ = Fft::new(0);
    }
}
