//! Compressed-sensing kernel throughput: DCT transforms and FISTA solves
//! at the paper's grid sizes (50x100 = the p=1 grid; 144x225 = the
//! reshaped p=2 grid).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oscar_cs::dct::{Dct1d, Dct2d, DctNd};
use oscar_cs::fista::{fista, FistaConfig};
use oscar_cs::measure::{MeasurementOperator, SamplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_dct(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2d");
    for &(rows, cols) in &[(50usize, 100usize), (144, 225)] {
        let dct = Dct2d::new(rows, cols);
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.bench_with_input(
            BenchmarkId::new("forward", format!("{rows}x{cols}")),
            &x,
            |b, x| b.iter(|| dct.forward(x)),
        );
        let s = dct.forward(&x);
        group.bench_with_input(
            BenchmarkId::new("inverse", format!("{rows}x{cols}")),
            &s,
            |b, s| b.iter(|| dct.inverse(s)),
        );
    }
    group.finish();
}

fn bench_fista(c: &mut Criterion) {
    let mut group = c.benchmark_group("fista_solve");
    group.sample_size(10);
    for &(rows, cols) in &[(50usize, 100usize), (144, 225)] {
        let dct = Dct2d::new(rows, cols);
        // A realistic 20-sparse spectrum.
        let mut rng = StdRng::seed_from_u64(2);
        let mut coeffs = vec![0.0; rows * cols];
        for _ in 0..20 {
            let i = rng.gen_range(0..coeffs.len());
            coeffs[i] = rng.gen_range(-3.0..3.0);
        }
        let full = dct.inverse(&coeffs);
        let pattern = SamplePattern::random(rows, cols, 0.08, &mut rng);
        let y = pattern.gather(&full);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}_8pct")),
            &y,
            |b, y| {
                b.iter(|| {
                    let op = MeasurementOperator::new(&dct, &pattern);
                    fista(&op, y, &FistaConfig::default()).support_size
                })
            },
        );
    }
    group.finish();
}

/// FFT kernel vs dense kernel on the same grids — the kernel-level view
/// of the speedup benchmark's end-to-end numbers.
fn bench_dct_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2d_kernel");
    for &(rows, cols) in &[(64usize, 64usize), (50, 100), (144, 225)] {
        let dense = DctNd::from_axes(vec![Dct1d::new_dense(rows), Dct1d::new_dense(cols)]);
        let fast = DctNd::from_axes(vec![Dct1d::new_fast(rows), Dct1d::new_fast(cols)]);
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0.0; rows * cols];
        let mut dense_scratch = dense.make_scratch();
        let mut fast_scratch = fast.make_scratch();
        group.bench_with_input(
            BenchmarkId::new("dense", format!("{rows}x{cols}")),
            &x,
            |b, x| b.iter(|| dense.forward_into(x, &mut out, &mut dense_scratch)),
        );
        group.bench_with_input(
            BenchmarkId::new("fft", format!("{rows}x{cols}")),
            &x,
            |b, x| b.iter(|| fast.forward_into(x, &mut out, &mut fast_scratch)),
        );
    }
    group.finish();
}

/// Workspace-reusing FISTA (`fista_with`) vs the allocating wrapper —
/// quantifies the zero-allocation design on the paper's p=1 grid.
fn bench_fista_workspace(c: &mut Criterion) {
    use oscar_cs::fista::fista_with;
    use oscar_cs::workspace::Workspace;

    let (rows, cols) = (50usize, 100usize);
    let dct = Dct2d::new(rows, cols);
    let mut rng = StdRng::seed_from_u64(9);
    let mut coeffs = vec![0.0; rows * cols];
    for _ in 0..20 {
        let i = rng.gen_range(0..coeffs.len());
        coeffs[i] = rng.gen_range(-3.0..3.0);
    }
    let full = dct.inverse(&coeffs);
    let pattern = SamplePattern::random(rows, cols, 0.08, &mut rng);
    let y = pattern.gather(&full);
    let op = MeasurementOperator::new(&dct, &pattern);
    let cfg = FistaConfig::default();

    let mut group = c.benchmark_group("fista_workspace_50x100");
    group.sample_size(10);
    let mut ws = Workspace::for_operator(&op);
    group.bench_function("reused_workspace", |b| {
        b.iter(|| fista_with(&op, &y, &cfg, &mut ws).support_size)
    });
    group.bench_function("fresh_allocations", |b| {
        b.iter(|| fista(&op, &y, &cfg).support_size)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dct,
    bench_dct_kernels,
    bench_fista,
    bench_fista_workspace
);
criterion_main!(benches);
