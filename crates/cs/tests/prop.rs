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

    /// Gather/truncate consistency: a truncated pattern gathers a prefix.
    #[test]
    fn truncated_pattern_gathers_prefix(seed in 0u64..500, keep in 1usize..20) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pattern = SamplePattern::random(8, 8, 0.5, &mut rng);
        let keep = keep.min(pattern.num_samples());
        let full: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let all = pattern.gather(&full);
        let t = pattern.truncated(keep);
        prop_assert_eq!(t.gather(&full), all[..keep].to_vec());
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
            let dense = Dct2d::new_dense(rows, cols);
            let fast = Dct2d::new_fast(rows, cols);
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
/// every line, transform it with [`Dct1d`], scatter it back — and
/// rank-2 tensors to [`Dct2d`].
mod dctnd_bit_identity {
    use oscar_cs::dct::{Dct1d, Dct2d, DctNd};
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
            vec![5, 40, 3],
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

    #[test]
    fn rank2_dense_tensor_matches_dct2d_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(108);
        for (rows, cols) in [(6usize, 10usize), (10, 12), (16, 20), (31, 31)] {
            let d2 = Dct2d::new(rows, cols);
            let dn = DctNd::new(&[rows, cols]);
            for x in [
                awkward_signal(rows * cols, &mut rng),
                sparse_signal(rows * cols, &mut rng),
            ] {
                let what = format!("{rows}x{cols}");
                assert_same_bits(&dn.forward(&x), &d2.forward(&x), &format!("forward {what}"));
                assert_same_bits(&dn.inverse(&x), &d2.inverse(&x), &format!("inverse {what}"));
            }
        }
    }
}

/// The 2-D [`MeasurementOperator`] evaluates only the sampled points
/// (a row pass on the nonzero coefficient rows, then per-sample sums
/// against the axis-0 table). These tests pin it to the plain
/// definition — a full [`Dct2d`] inverse then a gather for `A s`, a
/// scatter then a full forward for `Aᵀ y` — on every kernel kind, on
/// odd, skinny and parallel-sized grids, and at the coefficient
/// patterns that decide how many rows the forward transforms.
mod sampled_operator {
    use oscar_cs::dct::Dct2d;
    use oscar_cs::measure::{MeasurementOperator, SamplePattern, SensingOperator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Grids covering every row-kernel/column-kernel pairing the
    /// operator meets.
    fn grids() -> Vec<(&'static str, Dct2d)> {
        vec![
            ("dense 12x20", Dct2d::new(12, 20)),
            ("dense odd rows 17x40", Dct2d::new(17, 40)),
            ("mixed-radix 50x100", Dct2d::new(50, 100)),
            ("fft odd rows 45x64", Dct2d::new(45, 64)),
            ("rows > cols 100x50", Dct2d::new(100, 50)),
            ("bluestein 37x41", Dct2d::new_bluestein(37, 41)),
            ("forced dense 40x48", Dct2d::new_dense(40, 48)),
            ("parallel 144x225", Dct2d::new(144, 225)),
        ]
    }

    /// A 10% and a 50% random pattern, a single sample, and full
    /// sampling. On the FFT grids the densest two run some applies (all,
    /// for full sampling) through the full transform instead of the
    /// sample-point sums.
    fn patterns(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<SamplePattern> {
        let n = rows * cols;
        vec![
            SamplePattern::random(rows, cols, 0.1, rng),
            SamplePattern::random(rows, cols, 0.5, rng),
            SamplePattern::from_indices(rows, cols, vec![rng.gen_range(0..n)]),
            SamplePattern::from_indices(rows, cols, (0..n).collect()),
        ]
    }

    /// Coefficient grids: dense random, all zero (no row to transform),
    /// nonzero only in the last row (every row must be transformed), a
    /// typical low-frequency sparse iterate, and a mix of `-0.0` rows
    /// with subnormal entries (`-0.0` is zero, a subnormal is not).
    fn coefficient_sets(
        rows: usize,
        cols: usize,
        rng: &mut StdRng,
    ) -> Vec<(&'static str, Vec<f64>)> {
        let n = rows * cols;
        let dense: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut last_row = vec![0.0; n];
        for v in &mut last_row[(rows - 1) * cols..] {
            *v = rng.gen_range(-2.0..2.0);
        }
        let mut sparse = vec![0.0; n];
        for _ in 0..12 {
            let (k, l) = (rng.gen_range(0..rows.min(4)), rng.gen_range(0..cols.min(9)));
            sparse[k * cols + l] = rng.gen_range(-2.0..2.0);
        }
        let mut tiny = vec![-0.0; n];
        let mid = rows / 2;
        for l in (0..cols).step_by(3) {
            tiny[mid * cols + l] = rng.gen_range(-1.5e-308..1.5e-308);
        }
        vec![
            ("dense", dense),
            ("all zero", vec![0.0; n]),
            ("last row only", last_row),
            ("sparse low rows", sparse),
            ("-0.0/subnormal mix", tiny),
        ]
    }

    fn forward_reference(dct: &Dct2d, pattern: &SamplePattern, s: &[f64]) -> Vec<f64> {
        let mut grid = vec![0.0; dct.len()];
        dct.inverse_into(s, &mut grid, &mut dct.make_scratch());
        pattern.gather(&grid)
    }

    fn adjoint_reference(dct: &Dct2d, pattern: &SamplePattern, y: &[f64]) -> Vec<f64> {
        let mut grid = vec![0.0; dct.len()];
        for (&i, &v) in pattern.indices().iter().zip(y) {
            grid[i] = v;
        }
        let mut out = vec![0.0; dct.len()];
        dct.forward_into(&grid, &mut out, &mut dct.make_scratch());
        out
    }

    /// `got` equals `want` to 1e-12 relative to `want`'s largest entry,
    /// with a floor of 64 subnormal steps so rounding among subnormals
    /// passes while a dropped subnormal row does not.
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
        for (name, dct) in grids() {
            let (rows, cols) = (dct.rows(), dct.cols());
            for pattern in patterns(rows, cols, &mut rng) {
                let op = MeasurementOperator::new(&dct, &pattern);
                let mut scratch = op.make_scratch();
                let mut out = vec![f64::NAN; pattern.num_samples()];
                for (kind, s) in coefficient_sets(rows, cols, &mut rng) {
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
        for (name, dct) in grids() {
            let (rows, cols) = (dct.rows(), dct.cols());
            for pattern in patterns(rows, cols, &mut rng) {
                let op = MeasurementOperator::new(&dct, &pattern);
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
        for (name, dct) in grids() {
            let (rows, cols) = (dct.rows(), dct.cols());
            for pattern in patterns(rows, cols, &mut rng) {
                let op = MeasurementOperator::new(&dct, &pattern);
                let s: Vec<f64> = (0..dct.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y: Vec<f64> = (0..pattern.num_samples())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(u, v)| u * v).sum::<f64>();
                let lhs = dot(&op.forward(&s), &y);
                let rhs = dot(&s, &op.adjoint(&y));
                let scale = dot(&s, &s).sqrt() * dot(&y, &y).sqrt();
                assert!(
                    (lhs - rhs).abs() <= 1e-12 * scale,
                    "{name}, m={}: <As,y> {lhs} vs <s,A^T y> {rhs}",
                    pattern.num_samples()
                );
            }
        }
    }
}
