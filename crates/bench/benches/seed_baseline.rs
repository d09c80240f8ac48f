//! Times the seed-identical reconstruction path — dense matrix DCT with
//! per-column gather/scatter plus per-iteration `Vec` allocations,
//! reimplemented verbatim below — against the current default engine,
//! and cross-checks that both produce the same landscape. This is the
//! "what did this PR actually buy end-to-end" benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use oscar_core::grid::Grid2d;
use oscar_core::landscape::Landscape;
use oscar_core::reconstruct::Reconstructor;
use oscar_cs::measure::SamplePattern;
use oscar_problems::ising::IsingProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod seed_impl {
    //! Verbatim reimplementation of the seed's hot path (pre-PR).

    pub struct Dct1d {
        n: usize,
        mat: Vec<f64>,
    }

    impl Dct1d {
        pub fn new(n: usize) -> Self {
            let mut mat = vec![0.0; n * n];
            let norm0 = (1.0 / n as f64).sqrt();
            let norm = (2.0 / n as f64).sqrt();
            for k in 0..n {
                let scale = if k == 0 { norm0 } else { norm };
                for i in 0..n {
                    mat[k * n + i] = scale
                        * (std::f64::consts::PI * (i as f64 + 0.5) * k as f64 / n as f64).cos();
                }
            }
            Dct1d { n, mat }
        }

        pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
            for k in 0..self.n {
                let row = &self.mat[k * self.n..(k + 1) * self.n];
                out[k] = row.iter().zip(x.iter()).map(|(m, v)| m * v).sum();
            }
        }

        pub fn inverse_into(&self, s: &[f64], out: &mut [f64]) {
            out.fill(0.0);
            for k in 0..self.n {
                let c = s[k];
                if c == 0.0 {
                    continue;
                }
                let row = &self.mat[k * self.n..(k + 1) * self.n];
                for (o, m) in out.iter_mut().zip(row.iter()) {
                    *o += c * m;
                }
            }
        }
    }

    pub struct Dct2d {
        rows: usize,
        cols: usize,
        row_t: Dct1d,
        col_t: Dct1d,
    }

    impl Dct2d {
        pub fn new(rows: usize, cols: usize) -> Self {
            Dct2d {
                rows,
                cols,
                row_t: Dct1d::new(cols),
                col_t: Dct1d::new(rows),
            }
        }

        pub fn len(&self) -> usize {
            self.rows * self.cols
        }

        pub fn forward(&self, x: &[f64]) -> Vec<f64> {
            self.apply(x, true)
        }

        pub fn inverse(&self, s: &[f64]) -> Vec<f64> {
            self.apply(s, false)
        }

        fn apply(&self, x: &[f64], forward: bool) -> Vec<f64> {
            let mut tmp = vec![0.0; x.len()];
            let mut buf_in = vec![0.0; self.cols.max(self.rows)];
            let mut buf_out = vec![0.0; self.cols.max(self.rows)];
            for r in 0..self.rows {
                let src = &x[r * self.cols..(r + 1) * self.cols];
                let dst = &mut tmp[r * self.cols..(r + 1) * self.cols];
                if forward {
                    self.row_t.forward_into(src, dst);
                } else {
                    self.row_t.inverse_into(src, dst);
                }
            }
            let mut out = vec![0.0; x.len()];
            for c in 0..self.cols {
                for r in 0..self.rows {
                    buf_in[r] = tmp[r * self.cols + c];
                }
                if forward {
                    self.col_t
                        .forward_into(&buf_in[..self.rows], &mut buf_out[..self.rows]);
                } else {
                    self.col_t
                        .inverse_into(&buf_in[..self.rows], &mut buf_out[..self.rows]);
                }
                for r in 0..self.rows {
                    out[r * self.cols + c] = buf_out[r];
                }
            }
            out
        }
    }

    pub fn seed_fista(
        dct: &Dct2d,
        indices: &[usize],
        y: &[f64],
        lambda_rel: f64,
        max_iter: usize,
        tol: f64,
        debias_steps: usize,
    ) -> Vec<f64> {
        let n = dct.len();
        let forward = |s: &[f64]| -> Vec<f64> {
            let x = dct.inverse(s);
            indices.iter().map(|&i| x[i]).collect()
        };
        let adjoint = |r: &[f64]| -> Vec<f64> {
            let mut scattered = vec![0.0; n];
            for (&idx, &v) in indices.iter().zip(r.iter()) {
                scattered[idx] = v;
            }
            dct.forward(&scattered)
        };
        let soft = |x: f64, t: f64| {
            if x > t {
                x - t
            } else if x < -t {
                x + t
            } else {
                0.0
            }
        };

        let aty = adjoint(y);
        let max_corr = aty.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let lambda = (lambda_rel * max_corr).max(f64::MIN_POSITIVE);

        let mut s = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut t = 1.0f64;
        for _ in 0..max_iter {
            let az = forward(&z);
            let resid: Vec<f64> = az.iter().zip(y.iter()).map(|(a, b)| a - b).collect();
            let grad = adjoint(&resid);
            let mut s_next = vec![0.0; n];
            for i in 0..n {
                s_next[i] = soft(z[i] - grad[i], lambda);
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            let mut max_delta = 0.0f64;
            let mut max_mag = 0.0f64;
            for i in 0..n {
                let delta = s_next[i] - s[i];
                z[i] = s_next[i] + beta * delta;
                max_delta = max_delta.max(delta.abs());
                max_mag = max_mag.max(s_next[i].abs());
            }
            s = s_next;
            t = t_next;
            if max_delta <= tol * max_mag.max(1e-12) {
                break;
            }
        }
        // Debias.
        let support: Vec<usize> = s
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i)
            .collect();
        if !support.is_empty() {
            for _ in 0..debias_steps {
                let az = forward(&s);
                let resid: Vec<f64> = az.iter().zip(y.iter()).map(|(a, b)| a - b).collect();
                let grad = adjoint(&resid);
                let mut max_step = 0.0f64;
                for &i in &support {
                    s[i] -= grad[i];
                    max_step = max_step.max(grad[i].abs());
                }
                if max_step < 1e-12 {
                    break;
                }
            }
        }
        dct.inverse(&s)
    }
}

fn bench_probe(c: &mut Criterion) {
    use std::time::Instant;
    let grid = Grid2d::small_p1(64, 64);
    let mut rng = StdRng::seed_from_u64(7);
    let problem = IsingProblem::random_3_regular(12, &mut rng);
    let truth = Landscape::from_qaoa(grid, &problem.qaoa_evaluator());
    let pattern = SamplePattern::random(64, 64, 0.12, &mut rng);
    let samples = pattern.gather(truth.values());

    let seed_dct = seed_impl::Dct2d::new(64, 64);
    let run_seed = || {
        seed_impl::seed_fista(
            &seed_dct,
            pattern.indices(),
            &samples,
            0.005,
            500,
            1e-7,
            120,
        )
    };
    let fast = Reconstructor::default();

    // Verify the seed path and the new path agree.
    let a = run_seed();
    let (l, _) = fast.reconstruct(&grid, &pattern, &samples);
    let max_diff = a
        .iter()
        .zip(l.values())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    println!("[probe] max |seed - new| = {max_diff:.3e}");

    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = run_seed();
    }
    let t_seed = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = fast.reconstruct(&grid, &pattern, &samples);
    }
    let t_new = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "[probe] seed {:.1} ms vs new {:.1} ms -> {:.2}x",
        t_seed * 1e3,
        t_new * 1e3,
        t_seed / t_new
    );
    let _ = c;
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
