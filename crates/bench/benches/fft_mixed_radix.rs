//! Bluestein vs mixed-radix at the paper's non-power-of-two grid
//! sides (50, 100, 144, 225 — all 2·3·5-smooth).
//!
//! Before the mixed-radix kernel, every non-power-of-two 1-D line fell
//! back to Bluestein's chirp-z convolution (one power-of-two FFT pair
//! of length `next_pow2(2n-1)` per line); `Dct1d::new_bluestein` keeps
//! that path alive as the baseline. Three views:
//!
//! * `dct1d_*` — one 1-D transform per side, the kernel-level gap;
//! * `dct2d_*` — full 50×100 and 144×225 grid transforms;
//! * `reconstruct_*` — end-to-end FISTA recovery on those grids, the
//!   number the acceptance criteria pin (mixed-radix must win).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oscar_cs::dct::{Dct1d, DctNd};
use oscar_cs::fista::{fista_with, FistaConfig};
use oscar_cs::measure::{MeasurementOperator, SamplePattern};
use oscar_cs::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `rows x cols` transform on the given 1-D kernel for both axes.
fn grid(kernel: fn(usize) -> Dct1d, rows: usize, cols: usize) -> DctNd {
    DctNd::from_axes(vec![kernel(rows), kernel(cols)])
}

/// The paper's grid sides; every one is non-power-of-two.
const SIDES: &[usize] = &[50, 100, 144, 225];

fn bench_dct1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct1d_nonpow2");
    for &n in SIDES {
        let mixed = Dct1d::new_fast(n);
        let blue = Dct1d::new_bluestein(n);
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0.0; n];
        let mut mixed_scratch = mixed.make_scratch();
        let mut blue_scratch = blue.make_scratch();
        group.bench_with_input(BenchmarkId::new("mixed_radix", n), &x, |b, x| {
            b.iter(|| mixed.forward_into_with(x, &mut out, &mut mixed_scratch))
        });
        group.bench_with_input(BenchmarkId::new("bluestein", n), &x, |b, x| {
            b.iter(|| blue.forward_into_with(x, &mut out, &mut blue_scratch))
        });
    }
    group.finish();
}

fn bench_dct2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2d_nonpow2");
    for &(rows, cols) in &[(50usize, 100usize), (144, 225)] {
        let mixed = grid(Dct1d::new_fast, rows, cols);
        let blue = grid(Dct1d::new_bluestein, rows, cols);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0.0; rows * cols];
        let mut mixed_scratch = mixed.make_scratch();
        let mut blue_scratch = blue.make_scratch();
        let label = format!("{rows}x{cols}");
        group.bench_with_input(BenchmarkId::new("mixed_radix", &label), &x, |b, x| {
            b.iter(|| mixed.forward_into(x, &mut out, &mut mixed_scratch))
        });
        group.bench_with_input(BenchmarkId::new("bluestein", &label), &x, |b, x| {
            b.iter(|| blue.forward_into(x, &mut out, &mut blue_scratch))
        });
    }
    group.finish();
}

/// End-to-end sparse recovery at the paper's grids: same landscape,
/// same sampling pattern, same solver — only the DFT decomposition
/// behind the 2-D DCT differs.
fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct_nonpow2");
    group.sample_size(10);
    for &(rows, cols) in &[(50usize, 100usize), (144, 225)] {
        let mixed = grid(Dct1d::new_fast, rows, cols);
        let blue = grid(Dct1d::new_bluestein, rows, cols);
        let mut rng = StdRng::seed_from_u64(3);
        let mut coeffs = vec![0.0; rows * cols];
        for _ in 0..20 {
            let i = rng.gen_range(0..coeffs.len());
            coeffs[i] = rng.gen_range(-3.0..3.0);
        }
        let full = mixed.inverse(&coeffs);
        let pattern = SamplePattern::random(rows, cols, 0.1, &mut rng);
        let y = pattern.gather(&full);
        let cfg = FistaConfig::default();
        let label = format!("{rows}x{cols}_10pct");

        let op_mixed = MeasurementOperator::new(&mixed, &pattern);
        let mut ws_mixed = Workspace::for_operator(&op_mixed);
        group.bench_with_input(BenchmarkId::new("mixed_radix", &label), &y, |b, y| {
            b.iter(|| fista_with(&op_mixed, y, &cfg, &mut ws_mixed).support_size)
        });

        let op_blue = MeasurementOperator::new(&blue, &pattern);
        let mut ws_blue = Workspace::for_operator(&op_blue);
        group.bench_with_input(BenchmarkId::new("bluestein", &label), &y, |b, y| {
            b.iter(|| fista_with(&op_blue, y, &cfg, &mut ws_blue).support_size)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dct1d, bench_dct2d, bench_reconstruct);
criterion_main!(benches);
