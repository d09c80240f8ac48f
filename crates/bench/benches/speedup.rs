//! The headline claim: OSCAR generates a complete landscape with a small
//! fraction of the circuit executions a grid search needs (paper: "up to
//! 100x speedup", 2-20x on the evaluated grids).
//!
//! We benchmark end-to-end wall time of (a) full grid search and (b)
//! OSCAR = sampled circuit executions + CS recovery, on the same grid,
//! plus the circuit-count ratio at matched NRMSE.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oscar_core::grid::Grid2d;
use oscar_core::landscape::Landscape;
use oscar_core::reconstruct::Reconstructor;
use oscar_problems::ising::IsingProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("landscape_generation");
    group.sample_size(10);
    for &n in &[10usize, 12, 14] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let problem = IsingProblem::random_3_regular(n, &mut rng);
        let eval = problem.qaoa_evaluator();
        let grid = Grid2d::small_p1(25, 40);

        group.bench_with_input(BenchmarkId::new("grid_search", n), &n, |b, _| {
            b.iter(|| Landscape::from_qaoa(grid, &eval));
        });

        let truth = Landscape::from_qaoa(grid, &eval);
        group.bench_with_input(BenchmarkId::new("oscar_10pct", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                // Sampled circuit executions (10% of the grid) + recovery.
                let report = Reconstructor::default().reconstruct_fraction_with(
                    &truth,
                    0.10,
                    &mut rng,
                    |beta, gamma| eval.expectation(&[beta], &[gamma]),
                );
                report.nrmse
            });
        });
    }
    group.finish();

    // Circuit-count ratio at matched accuracy, printed once.
    let mut rng = StdRng::seed_from_u64(99);
    let problem = IsingProblem::random_3_regular(12, &mut rng);
    let grid = Grid2d::small_p1(25, 40);
    let truth = Landscape::from_qaoa(grid, &problem.qaoa_evaluator());
    let report = Reconstructor::default().reconstruct_fraction(&truth, 0.08, &mut rng);
    println!(
        "\n[speedup] grid search = {} circuits; OSCAR = {} circuits \
         (circuit-count speedup {:.1}x) at NRMSE {:.4}\n",
        grid.len(),
        report.samples_used,
        grid.len() as f64 / report.samples_used as f64,
        report.nrmse
    );
}

/// End-to-end `Reconstructor::reconstruct` on a 64x64 grid (the
/// size-based default transform). The dense-vs-FFT comparison lives at
/// kernel level in `cs_kernels`.
fn bench_reconstruct_64(c: &mut Criterion) {
    use oscar_cs::measure::SamplePattern;

    let grid = Grid2d::small_p1(64, 64);
    let mut rng = StdRng::seed_from_u64(7);
    let problem = IsingProblem::random_3_regular(12, &mut rng);
    let truth = Landscape::from_qaoa(grid, &problem.qaoa_evaluator());
    let pattern = SamplePattern::random(64, 64, 0.12, &mut rng);
    let samples = pattern.gather(truth.values());
    let oscar = Reconstructor::default();

    let mut group = c.benchmark_group("reconstruct_64x64");
    group.sample_size(10);
    group.bench_function("fft_default", |b| {
        b.iter(|| oscar.reconstruct(&grid, &pattern, &samples).1)
    });
    group.finish();
}

criterion_group!(benches, bench_speedup, bench_reconstruct_64);
criterion_main!(benches);
