//! Kernel rows for the traced run: DCT forward+inverse at every
//! workload shape (the 2-D engine beside the N-D one at the same shape),
//! one FISTA iteration at each workload's shape, and circuit
//! evaluations per second for each problem kind. Byte counts are
//! computed from array sizes, not measured.

use crate::workloads::Workload;
use oscar_core::grid::Grid2d;
use oscar_cs::dct::{Dct2d, DctNd};
use oscar_cs::fista::soft_threshold;
use oscar_cs::measure::{
    MeasurementOperator, MeasurementOperatorNd, NdSamplePattern, SamplePattern, SensingOperator,
};
use oscar_executor::device::DeviceSpec;
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, VqeEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One kernel measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn row(name: impl Into<String>, value: f64, unit: &'static str) -> Row {
    Row {
        name: name.into(),
        value,
        unit,
    }
}

/// A shape the workloads reconstruct on, with its sampling fraction.
struct KernelShape {
    tag: &'static str,
    dims: Vec<usize>,
    fraction: f64,
}

fn shapes() -> [KernelShape; 3] {
    [
        KernelShape {
            tag: "50x100",
            dims: vec![50, 100],
            fraction: 0.1,
        },
        KernelShape {
            tag: "32x40",
            dims: vec![32, 40],
            fraction: 0.2,
        },
        KernelShape {
            tag: "3p8",
            dims: vec![3; 8],
            fraction: 0.25,
        },
    ]
}

/// Median seconds per call of `f`, over batches filling `budget`.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let batch = ((budget.as_secs_f64() / 15.0 / once) as usize).max(1);
    let mut per = Vec::new();
    let start = Instant::now();
    while per.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    crate::stats::median(&per)
}

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 - 0.5)
        .collect()
}

/// Bytes one separable transform moves: a read and a write of the
/// whole array per axis pass.
fn transform_bytes(dims: &[usize]) -> f64 {
    let n: usize = dims.iter().product();
    (dims.len() * 2 * n * 8) as f64
}

/// `ns` per point of one forward plus one inverse DCT.
fn dct_rows(budget: Duration, rows: &mut Vec<Row>) {
    for shape in shapes() {
        let n: usize = shape.dims.iter().product();
        let x = signal(n);
        let (mut s, mut y) = (vec![0.0; n], vec![0.0; n]);
        if let [r, c] = shape.dims[..] {
            let dct = Dct2d::new(r, c);
            let mut scratch = dct.make_scratch();
            let secs = per_call(budget, || {
                dct.forward_into(black_box(&x), &mut s, &mut scratch);
                dct.inverse_into(&s, &mut y, &mut scratch);
                black_box(&y);
            });
            rows.push(row(
                format!("kernel.dct2d_{}.ns_per_point", shape.tag),
                secs * 1e9 / n as f64,
                "ns",
            ));
        }
        let dct = DctNd::new(&shape.dims);
        let mut scratch = dct.make_scratch();
        let secs = per_call(budget, || {
            dct.forward_into(black_box(&x), &mut s, &mut scratch);
            dct.inverse_into(&s, &mut y, &mut scratch);
            black_box(&y);
        });
        rows.push(row(
            format!("kernel.dctnd_{}.ns_per_point", shape.tag),
            secs * 1e9 / n as f64,
            "ns",
        ));
        rows.push(row(
            format!("kernel.dct_{}.bytes_computed", shape.tag),
            2.0 * transform_bytes(&shape.dims),
            "bytes",
        ));
    }
}

/// One FISTA iteration as `oscar_cs::fista` runs it: forward apply,
/// residual, adjoint apply, soft threshold and momentum update.
fn fista_iteration_secs<O: SensingOperator>(op: &O, budget: Duration) -> f64 {
    let (n, m) = (op.signal_len(), op.measurement_len());
    let mut scratch = op.make_scratch();
    let y = signal(m);
    let mut z = signal(n);
    let (mut s, mut s_next, mut grad) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut az, mut resid) = (vec![0.0; m], vec![0.0; m]);
    per_call(budget, || {
        op.forward_into(&z, &mut az, &mut scratch);
        for ((r, &a), &b) in resid.iter_mut().zip(&az).zip(&y) {
            *r = a - b;
        }
        op.adjoint_into(&resid, &mut grad, &mut scratch);
        for i in 0..n {
            s_next[i] = soft_threshold(z[i] - grad[i], 1e-3);
            z[i] = s_next[i] + 0.5 * (s_next[i] - s[i]);
        }
        std::mem::swap(&mut s, &mut s_next);
        black_box(&z);
    })
}

/// `us` per FISTA iteration at each workload shape (the runtime's 2-D
/// engine for grids, the N-D one for tensors).
fn fista_rows(budget: Duration, rows: &mut Vec<Row>) {
    for shape in shapes() {
        let n: usize = shape.dims.iter().product();
        let mut rng = StdRng::seed_from_u64(7);
        let (secs, m) = match shape.dims[..] {
            [r, c] => {
                let pattern = SamplePattern::random(r, c, shape.fraction, &mut rng);
                let dct = Dct2d::new(r, c);
                let op = MeasurementOperator::new(&dct, &pattern);
                (fista_iteration_secs(&op, budget), pattern.num_samples())
            }
            _ => {
                let pattern = NdSamplePattern::random(&shape.dims, shape.fraction, &mut rng);
                let dct = DctNd::new(&shape.dims);
                let op = MeasurementOperatorNd::new(&dct, &pattern);
                (fista_iteration_secs(&op, budget), pattern.num_samples())
            }
        };
        rows.push(row(
            format!("kernel.fista_iter_{}.us", shape.tag),
            secs * 1e6,
            "us",
        ));
        // Two transforms, a gather and a scatter of `m` samples, and
        // three reads plus three writes of `n`-vectors in the update.
        let bytes = 2.0 * transform_bytes(&shape.dims) + (4 * m * 8) as f64 + (6 * n * 8) as f64;
        rows.push(row(
            format!("kernel.fista_iter_{}.bytes_computed", shape.tag),
            bytes,
            "bytes",
        ));
    }
}

/// Circuit evaluations per second for each problem kind.
fn circuit_rows(budget: Duration, rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(11);
    let problem = IsingProblem::random_3_regular(10, &mut rng);
    let grid = Grid2d::standard_p1();
    let eval = problem.qaoa_evaluator();
    let mut i = 0;
    let secs = per_call(budget, || {
        let (b, g) = grid.point(i % grid.len());
        black_box(eval.expectation(&[b], &[g]));
        i += 1;
    });
    rows.push(row(
        "kernel.qsim_maxcut10_exact.evals_per_s",
        1.0 / secs,
        "1/s",
    ));

    let qpu = DeviceSpec::by_name("ibm perth")
        .expect("ibm perth is a known device")
        .build(&problem, 0);
    let mut i = 0u64;
    let secs = per_call(budget, || {
        let (b, g) = grid.point(i as usize % grid.len());
        black_box(qpu.execute_scaled_at(&[b], &[g], 1.0, 5, i));
        i += 1;
    });
    rows.push(row(
        "kernel.qsim_maxcut10_perth.evals_per_s",
        1.0 / secs,
        "1/s",
    ));

    let vqe = VqeEvaluator::new(Molecule::LiH);
    let mut params = vec![0.0; Molecule::LiH.num_params()];
    let mut i = 0usize;
    let secs = per_call(budget, || {
        let axis = i % params.len();
        params[axis] = (i % 3) as f64 * 0.3 - 0.3;
        black_box(vqe.expectation(&params));
        i += 1;
    });
    rows.push(row("kernel.qsim_lih_vqe.evals_per_s", 1.0 / secs, "1/s"));
}

/// Every kernel row, each measured for about `budget`.
pub fn measure(budget: Duration) -> Vec<Row> {
    let mut rows = Vec::new();
    dct_rows(budget, &mut rows);
    fista_rows(budget, &mut rows);
    circuit_rows(budget, &mut rows);
    rows
}

/// The DCT and FISTA-iteration rows for `workload`'s reconstruction
/// shape and engine, as `(dct ns/point, fista us/iteration)`.
pub fn for_workload(rows: &[Row], workload: Workload) -> (f64, f64) {
    let (engine, tag) = match workload {
        Workload::Paper2dWarm => ("dct2d", "50x100"),
        Workload::ZneCold => ("dct2d", "32x40"),
        Workload::LihWarm => ("dctnd", "3p8"),
    };
    let find = |name: String| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    (
        find(format!("kernel.{engine}_{tag}.ns_per_point")),
        find(format!("kernel.fista_iter_{tag}.us")),
    )
}
