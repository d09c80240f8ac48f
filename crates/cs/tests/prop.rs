//! Property-based tests for the compressed-sensing machinery.

use oscar_cs::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The DCT is linear: T(a x + b y) = a T(x) + b T(y).
    #[test]
    fn dct_is_linear(
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 24;
        let dct = Dct1d::new(n);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let lhs = dct.forward(&combo);
        let tx = dct.forward(&x);
        let ty = dct.forward(&y);
        for i in 0..n {
            prop_assert!((lhs[i] - (a * tx[i] + b * ty[i])).abs() < 1e-9);
        }
    }

    /// Hard thresholding (keep_top_k) never increases energy and keeps at
    /// most k non-zeros.
    #[test]
    fn keep_top_k_contracts(values in prop::collection::vec(-5.0f64..5.0, 1..60), k in 0usize..70) {
        let kept = keep_top_k(&values, k);
        let e_in: f64 = values.iter().map(|v| v * v).sum();
        let e_out: f64 = kept.iter().map(|v| v * v).sum();
        prop_assert!(e_out <= e_in + 1e-12);
        prop_assert!(kept.iter().filter(|v| **v != 0.0).count() <= k.min(values.len()));
    }

    /// The energy fraction is monotone in the energy target.
    #[test]
    fn energy_fraction_monotone(values in prop::collection::vec(-5.0f64..5.0, 2..80)) {
        let f90 = energy_fraction(&values, 0.90);
        let f99 = energy_fraction(&values, 0.99);
        prop_assert!(f99 >= f90 - 1e-12);
        prop_assert!(f90 > 0.0 && f99 <= 1.0);
    }

    /// FISTA's residual never exceeds ||y|| (the zero solution's residual,
    /// which the solver must at least match).
    #[test]
    fn fista_beats_zero_solution(seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dct = Dct2d::new(8, 8);
        let mut coeffs = vec![0.0; 64];
        coeffs[rng.gen_range(0usize..64)] = rng.gen_range(0.5..3.0);
        let full = dct.inverse(&coeffs);
        let pattern = SamplePattern::random(8, 8, 0.4, &mut rng);
        let y = pattern.gather(&full);
        let op = MeasurementOperator::new(&dct, &pattern);
        let sol = fista(&op, &y, &FistaConfig::default());
        let ynorm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(sol.residual_norm <= ynorm + 1e-9);
    }
}

/// FFT-kernel vs dense-kernel equivalence and transform invariants for
/// the sizes the acceptance criteria pin: every n in 1..=64, every
/// 2·3·5-smooth n up to 240 (the mixed-radix fast path, including the
/// paper's exact grid sides 50, 100, 144, 225), sizes exercising the
/// generic 7..=31 butterflies and the large-prime Bluestein sub-stage,
/// plus 128 (power of two) and 257 (prime, whole-length Bluestein).
mod fft_vs_dense {
    use oscar_cs::dct::{Dct1d, Dct2d, DctNd};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SIZES: &[usize] = &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
        49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 100, 128, 257,
    ];

    /// Every 2·3·5-smooth size in 65..=240 (the 1..=64 range is already
    /// fully covered by `SIZES`); all take the mixed-radix path on
    /// dedicated butterflies. Includes the paper's sides 100, 144, 225.
    const SMOOTH_240: &[usize] = &[
        72, 75, 80, 81, 90, 96, 100, 108, 120, 125, 135, 144, 150, 160, 162, 180, 192, 200, 216,
        225, 240,
    ];

    /// Sizes whose factorizations exercise the generic prime
    /// butterflies (7..=31) and the Bluestein sub-stage for a large
    /// prime cofactor (74 = 2·37, 111 = 3·37, 235 = 5·47).
    const ROUGH_SIZES: &[usize] = &[74, 77, 91, 111, 143, 169, 187, 203, 217, 231, 235];

    fn all_sizes() -> impl Iterator<Item = usize> {
        SIZES.iter().chain(SMOOTH_240).chain(ROUGH_SIZES).copied()
    }

    fn random_signal(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn fft_forward_matches_dense_oracle_to_1e10() {
        let mut rng = StdRng::seed_from_u64(101);
        for n in all_sizes() {
            let dense = Dct1d::new_dense(n);
            let fast = Dct1d::new_fast(n);
            let x = random_signal(n, &mut rng);
            let a = dense.forward(&x);
            let b = fast.forward(&x);
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (u - v).abs() < 1e-10,
                    "n={n} coeff {i}: dense {u} vs fft {v}"
                );
            }
        }
    }

    #[test]
    fn fft_inverse_matches_dense_oracle_to_1e10() {
        let mut rng = StdRng::seed_from_u64(102);
        for n in all_sizes() {
            let dense = Dct1d::new_dense(n);
            let fast = Dct1d::new_fast(n);
            let s = random_signal(n, &mut rng);
            let a = dense.inverse(&s);
            let b = fast.inverse(&s);
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (u - v).abs() < 1e-10,
                    "n={n} sample {i}: dense {u} vs fft {v}"
                );
            }
        }
    }

    #[test]
    fn fft_roundtrip_identity_to_1e10() {
        let mut rng = StdRng::seed_from_u64(103);
        for n in all_sizes() {
            let fast = Dct1d::new_fast(n);
            let x = random_signal(n, &mut rng);
            let y = fast.inverse(&fast.forward(&x));
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn dct2d_roundtrip_non_pow2_non_square() {
        let mut rng = StdRng::seed_from_u64(104);
        // Mix of non-power-of-two, non-square, production, and skinny grids.
        for &(rows, cols) in &[
            (5usize, 9usize),
            (33, 47),
            (50, 100),
            (144, 225),
            (1, 257),
            (100, 3),
            (64, 64),
        ] {
            let dct = Dct2d::new(rows, cols);
            let x = random_signal(rows * cols, &mut rng);
            let y = dct.inverse(&dct.forward(&x));
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-10, "grid {rows}x{cols}");
            }
        }
    }

    #[test]
    fn dct2d_fast_matches_dense_on_grids() {
        let mut rng = StdRng::seed_from_u64(105);
        for &(rows, cols) in &[(33usize, 50usize), (50, 100), (144, 225), (40, 257)] {
            let dense = DctNd::from_axes(vec![Dct1d::new_dense(rows), Dct1d::new_dense(cols)]);
            let fast = DctNd::from_axes(vec![Dct1d::new_fast(rows), Dct1d::new_fast(cols)]);
            let x = random_signal(rows * cols, &mut rng);
            let a = dense.forward(&x);
            let b = fast.forward(&x);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-9, "grid {rows}x{cols}");
            }
        }
    }

    #[test]
    fn dctnd_roundtrip_non_pow2_non_square() {
        let mut rng = StdRng::seed_from_u64(106);
        for shape in [
            vec![7usize],
            vec![5, 7],
            vec![12, 15, 10],
            vec![3, 33, 5],
            vec![2, 3, 5, 7],
        ] {
            let dct = DctNd::new(&shape);
            let x = random_signal(dct.len(), &mut rng);
            let y = dct.inverse(&dct.forward(&x));
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-10, "shape {shape:?}");
            }
        }
    }
}

/// The N-D transform's dense axes run as strided batched passes; these
/// tests pin them bit for bit to the straightforward algorithm — gather
/// every line, transform it with [`Dct1d`], scatter it back — and its
/// pair-packed FFT axes to output hashes recorded from the dedicated
/// 2-D transform it replaced.
mod dctnd_bit_identity {
    use oscar_cs::dct::{Dct1d, DctNd};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Per-line reference: axes last to first, each line gathered,
    /// transformed with the 1-D kernel of its length, and scattered back.
    fn per_line_reference(shape: &[usize], x: &[f64], forward: bool) -> Vec<f64> {
        let mut data = x.to_vec();
        let mut inner = 1;
        for &len in shape.iter().rev() {
            let t = Dct1d::new(len);
            let mut scratch = t.make_scratch();
            let (mut line_in, mut line_out) = (vec![0.0; len], vec![0.0; len]);
            for block in data.chunks_exact_mut(len * inner) {
                for i in 0..inner {
                    for (k, v) in line_in.iter_mut().enumerate() {
                        *v = block[k * inner + i];
                    }
                    if forward {
                        t.forward_into_with(&line_in, &mut line_out, &mut scratch);
                    } else {
                        t.inverse_into_with(&line_in, &mut line_out, &mut scratch);
                    }
                    for (k, v) in line_out.iter().enumerate() {
                        block[k * inner + i] = *v;
                    }
                }
            }
            inner *= len;
        }
        data
    }

    /// Random values salted with exact zeros, negative zeros and
    /// subnormals of both signs.
    fn awkward_signal(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE * rng.gen_range(-0.9..0.9),
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    }

    /// A coefficient tensor as FISTA feeds the inverse: mostly zeros of
    /// both signs, a few spikes, a few subnormals.
    fn sparse_signal(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|i| match rng.gen_range(0..20) {
                0 => rng.gen_range(-3.0..3.0),
                1 => f64::MIN_POSITIVE * rng.gen_range(-0.5..0.5),
                _ if i % 2 == 0 => 0.0,
                _ => -0.0,
            })
            .collect()
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} is {g:e}, reference {w:e}"
            );
        }
    }

    #[test]
    fn dense_axis_passes_match_per_line_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(107);
        for shape in [
            vec![3usize; 8],
            vec![3, 4, 5],
            vec![2, 3, 5, 7],
            vec![5, 31, 3],
            vec![31, 2],
            vec![10, 10, 10],
            vec![7, 13, 11],
            vec![6],
        ] {
            let dct = DctNd::new(&shape);
            let mut scratch = dct.make_scratch();
            let n = dct.len();
            let mut out = vec![0.0; n];
            let inputs = [
                awkward_signal(n, &mut rng),
                sparse_signal(n, &mut rng),
                vec![-0.0; n],
                vec![0.0; n],
            ];
            for x in &inputs {
                dct.forward_into(x, &mut out, &mut scratch);
                let want = per_line_reference(&shape, x, true);
                assert_same_bits(&out, &want, &format!("forward {shape:?}"));
                dct.inverse_into(x, &mut out, &mut scratch);
                let want = per_line_reference(&shape, x, false);
                assert_same_bits(&out, &want, &format!("inverse {shape:?}"));
            }
        }
    }

    /// FNV-1a over the output's bit patterns.
    fn bit_hash(v: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in v.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Whole rows of `+0.0` and `-0.0` between random ones, so that the
    /// FFT passes meet all-zero line pairs (and, on odd row counts, an
    /// all-zero last line).
    fn zero_lines_signal(shape: &[usize], rng: &mut StdRng) -> Vec<f64> {
        let cols = shape[1];
        (0..shape[0] * cols)
            .map(|i| match (i / cols) % 5 {
                0 => rng.gen_range(-2.0..2.0),
                1 | 3 => -0.0,
                _ => 0.0,
            })
            .collect()
    }

    /// Rank-2 output bits of forward and inverse, on a salted dense, a
    /// sparse, a zero-lines and an all `-0.0` input, against hashes recorded from the separate 2-D
    /// transform (`Dct2d` with its own passes) before it was folded into
    /// [`DctNd`]. The grids cover the serial strided path (50x100,
    /// 32x40, rows > cols 100x50, odd Bluestein 33x35), the transposed
    /// path with workers (144x225, odd columns, above `PAR_MIN_ELEMS`)
    /// and the mixed dense/FFT grids (17x40, 45x7). The 144x225 hashes
    /// are the multi-worker ones; they hold for any worker count.
    #[test]
    fn rank2_matches_recorded_dct2d_bits() {
        let bluestein =
            |r, c| DctNd::from_axes(vec![Dct1d::new_bluestein(r), Dct1d::new_bluestein(c)]);
        let cases: [(DctNd, u64, [u64; 8]); 7] = [
            (
                DctNd::new(&[50, 100]),
                300,
                [
                    0x11b6e1ba6802f0a2,
                    0xaa28abb4a533e88f,
                    0xe8b25fb43937f06c,
                    0x2c7751a730f37306,
                    0xcbb75888785ef2c2,
                    0x3391f65ddb49145c,
                    0x600f98ab98233825,
                    0x304f5fbd01f54b25,
                ],
            ),
            (
                DctNd::new(&[32, 40]),
                301,
                [
                    0x3d674f1d8c2bc652,
                    0x6801edfa40dca579,
                    0xa64dc52776dc73c6,
                    0x5c15f6385295daa3,
                    0xcafd3400ce75d77b,
                    0xea69056cd5653d94,
                    0x9213f0ec13614325,
                    0x8e965bc536e0c325,
                ],
            ),
            (
                DctNd::new(&[100, 50]),
                302,
                [
                    0x4dda55b3487ff99c,
                    0x57f31a4e73f4fd31,
                    0xfc4532d0cacd00de,
                    0x4b08d9df7c76568e,
                    0x50dd8dd6fd598b49,
                    0x4940f8526e20e2e4,
                    0x600f98ab98233825,
                    0x23e60a4c81b4bea5,
                ],
            ),
            (
                bluestein(33, 35),
                303,
                [
                    0x05ead881fe5c392b,
                    0x6dbf732a9085cd3e,
                    0xb6ecf9113b5c5f49,
                    0x975e7435dd135b83,
                    0xc5244711ebbcb371,
                    0xbe0ff4fd38804e68,
                    0xeee2bd85d54fe985,
                    0x5bb7db64a3933305,
                ],
            ),
            (
                DctNd::new(&[144, 225]),
                304,
                [
                    0x813e3e2587e17d45,
                    0x118be96a340ff8f4,
                    0x122b0edeef1e5680,
                    0x53417d15210db9c3,
                    0x980ef6650c435926,
                    0x5da9ad867ce64912,
                    0x0fef85e861d9fd25,
                    0x0fef85e861d9fd25,
                ],
            ),
            (
                DctNd::new(&[17, 40]),
                305,
                [
                    0xa30dc0915e4d60b5,
                    0x6c3d0749cefe9b91,
                    0x4c696ffaec10b210,
                    0xc137891d34f81d3d,
                    0x5be208f60443ffc2,
                    0xa595a2149789690b,
                    0x8eb24022b1ca2c25,
                    0x8eb24022b1ca2c25,
                ],
            ),
            (
                DctNd::new(&[45, 7]),
                306,
                [
                    0x279067c966a182c9,
                    0xf938e1c243149c4c,
                    0x0b83902711b8ead1,
                    0x83390d5ccfd3287a,
                    0x48b87ae6762e39e6,
                    0x4fa6b1830f3c52a2,
                    0xf68451b645612605,
                    0xf68451b645612605,
                ],
            ),
        ];
        for (dct, seed, want) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let awkward = awkward_signal(dct.len(), &mut rng);
            let sparse = sparse_signal(dct.len(), &mut rng);
            let lines = zero_lines_signal(dct.shape(), &mut rng);
            let negative_zeros = vec![-0.0; dct.len()];
            let got = [&awkward, &sparse, &lines, &negative_zeros]
                .map(|x| [bit_hash(&dct.forward(x)), bit_hash(&dct.inverse(x))]);
            assert_eq!(
                got.concat(),
                want,
                "{:?}: forward/inverse of awkward, sparse, zero-lines and -0.0 input",
                dct.shape()
            );
        }
    }
}

/// The measurement operator evaluates only the sampled points where
/// that is cheaper (a pass over the other axes of the nonzero leading
/// slabs, then per-sample sums against the leading-axis table). These
/// tests pin it to the plain definition — a full [`DctNd`] inverse then
/// a gather for `A s`, a scatter then a full forward for `Aᵀ y` — on
/// every kernel kind, at ranks 1 to 8 with dense and FFT leading axes,
/// on odd, skinny and parallel-sized shapes, and at the coefficient
/// patterns that decide how many slabs the forward transforms.
mod sampled_operator {
    use oscar_cs::dct::{Dct1d, DctNd};
    use oscar_cs::measure::{MeasurementOperatorNd, NdSamplePattern, SensingOperator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Shapes covering every leading-kernel/trailing-kernel pairing the
    /// operator meets.
    fn shapes() -> Vec<(&'static str, DctNd)> {
        let forced = |kernel: fn(usize) -> Dct1d, dims: &[usize]| {
            DctNd::from_axes(dims.iter().map(|&d| kernel(d)).collect())
        };
        vec![
            ("dense 12x20", DctNd::new(&[12, 20])),
            ("dense odd rows 17x40", DctNd::new(&[17, 40])),
            ("mixed-radix 50x100", DctNd::new(&[50, 100])),
            ("fft odd rows 45x64", DctNd::new(&[45, 64])),
            ("rows > cols 100x50", DctNd::new(&[100, 50])),
            ("bluestein 37x41", forced(Dct1d::new_bluestein, &[37, 41])),
            ("forced dense 40x48", forced(Dct1d::new_dense, &[40, 48])),
            ("parallel 144x225", DctNd::new(&[144, 225])),
            ("rank 1 dense 17", DctNd::new(&[17])),
            ("rank 1 fft 40", DctNd::new(&[40])),
            ("fft leading 40x7", DctNd::new(&[40, 7])),
            ("fft leading 33x5x6", DctNd::new(&[33, 5, 6])),
            ("fft middle 3x40x5", DctNd::new(&[3, 40, 5])),
            ("rank 4 dense 5x4x3x6", DctNd::new(&[5, 4, 3, 6])),
            ("rank 4 fft leading 35x3x2x5", DctNd::new(&[35, 3, 2, 5])),
            ("rank 8 3^8", DctNd::new(&[3; 8])),
        ]
    }

    /// A 10% and a 50% random pattern, a single sample, and full
    /// sampling. The densest two run some applies (all, for full
    /// sampling) through the full transform instead of the sample-point
    /// sums.
    fn patterns(dims: &[usize], rng: &mut StdRng) -> Vec<NdSamplePattern> {
        let n = dims.iter().product();
        vec![
            NdSamplePattern::random(dims, 0.1, rng),
            NdSamplePattern::random(dims, 0.5, rng),
            NdSamplePattern::from_indices(dims, vec![rng.gen_range(0..n)]),
            NdSamplePattern::from_indices(dims, (0..n).collect()),
        ]
    }

    /// Coefficient tensors, viewed as `[rows][rest]` around the leading
    /// axis: dense random, all zero (no slab to transform), nonzero only
    /// in the last slab (every slab must be transformed), a typical
    /// low-frequency sparse iterate, and a mix of `-0.0` slabs with
    /// subnormal entries (`-0.0` is zero, a subnormal is not).
    fn coefficient_sets(dims: &[usize], rng: &mut StdRng) -> Vec<(&'static str, Vec<f64>)> {
        let n: usize = dims.iter().product();
        let rows = dims[0];
        let rest = n / rows;
        let dense: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut last_slab = vec![0.0; n];
        for v in &mut last_slab[(rows - 1) * rest..] {
            *v = rng.gen_range(-2.0..2.0);
        }
        let mut sparse = vec![0.0; n];
        for _ in 0..12 {
            let (k, l) = (rng.gen_range(0..rows.min(4)), rng.gen_range(0..rest.min(9)));
            sparse[k * rest + l] = rng.gen_range(-2.0..2.0);
        }
        let mut tiny = vec![-0.0; n];
        let mid = rows / 2;
        for l in (0..rest).step_by(3) {
            tiny[mid * rest + l] = rng.gen_range(-1.5e-308..1.5e-308);
        }
        vec![
            ("dense", dense),
            ("all zero", vec![0.0; n]),
            ("last slab only", last_slab),
            ("sparse low slabs", sparse),
            ("-0.0/subnormal mix", tiny),
        ]
    }

    fn forward_reference(dct: &DctNd, pattern: &NdSamplePattern, s: &[f64]) -> Vec<f64> {
        pattern.gather(&dct.inverse(s))
    }

    fn adjoint_reference(dct: &DctNd, pattern: &NdSamplePattern, y: &[f64]) -> Vec<f64> {
        let mut grid = vec![0.0; dct.len()];
        for (&i, &v) in pattern.indices().iter().zip(y) {
            grid[i] = v;
        }
        dct.forward(&grid)
    }

    /// `got` equals `want` to 1e-12 relative to `want`'s largest entry,
    /// with a floor of 64 subnormal steps so rounding among subnormals
    /// passes while a dropped subnormal slab does not.
    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let floor = 64.0 * f64::from_bits(1);
        assert!(
            err <= 1e-12 * scale + floor,
            "{what}: max error {err:e} against scale {scale:e}"
        );
    }

    #[test]
    fn forward_matches_inverse_then_gather() {
        let mut rng = StdRng::seed_from_u64(201);
        for (name, dct) in shapes() {
            for pattern in patterns(dct.shape(), &mut rng) {
                let op = MeasurementOperatorNd::new(&dct, &pattern);
                let mut scratch = op.make_scratch();
                let mut out = vec![f64::NAN; pattern.num_samples()];
                for (kind, s) in coefficient_sets(dct.shape(), &mut rng) {
                    op.forward_into(&s, &mut out, &mut scratch);
                    let what = format!("{name}, m={}, {kind}", pattern.num_samples());
                    assert_close(&out, &forward_reference(&dct, &pattern, &s), &what);
                }
            }
        }
    }

    #[test]
    fn adjoint_matches_scatter_then_forward() {
        let mut rng = StdRng::seed_from_u64(202);
        for (name, dct) in shapes() {
            for pattern in patterns(dct.shape(), &mut rng) {
                let op = MeasurementOperatorNd::new(&dct, &pattern);
                let mut scratch = op.make_scratch();
                let mut out = vec![f64::NAN; dct.len()];
                let m = pattern.num_samples();
                let random: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
                for (kind, y) in [("random", random), ("zero", vec![0.0; m])] {
                    op.adjoint_into(&y, &mut out, &mut scratch);
                    let what = format!("{name}, m={m}, {kind}");
                    assert_close(&out, &adjoint_reference(&dct, &pattern, &y), &what);
                }
            }
        }
    }

    #[test]
    fn adjoint_is_the_transpose_of_forward() {
        let mut rng = StdRng::seed_from_u64(203);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(u, v)| u * v).sum::<f64>();
        // ‖a‖₂ scaled by its largest entry, so subnormal vectors do not
        // square to zero.
        let norm = |a: &[f64]| {
            let top = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if top == 0.0 {
                return 0.0;
            }
            top * a.iter().map(|v| (v / top) * (v / top)).sum::<f64>().sqrt()
        };
        for (name, dct) in shapes() {
            for pattern in patterns(dct.shape(), &mut rng) {
                let op = MeasurementOperatorNd::new(&dct, &pattern);
                let mut scratch = op.make_scratch();
                let (n, m) = (dct.len(), pattern.num_samples());
                let y: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut aty = vec![0.0; n];
                op.adjoint_into(&y, &mut aty, &mut scratch);
                for (kind, s) in coefficient_sets(dct.shape(), &mut rng) {
                    let mut a_s = vec![0.0; m];
                    op.forward_into(&s, &mut a_s, &mut scratch);
                    let (lhs, rhs) = (dot(&a_s, &y), dot(&s, &aty));
                    let scale = norm(&s) * norm(&y);
                    assert!(
                        (lhs - rhs).abs() <= 1e-12 * scale,
                        "{name}, m={m}, {kind}: <As,y> {lhs} vs <s,A^T y> {rhs}"
                    );
                }
            }
        }
    }
}
