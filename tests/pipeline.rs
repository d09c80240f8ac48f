//! End-to-end integration tests spanning all crates: the full OSCAR
//! pipeline on small-but-real workloads, plus the golden regression
//! suite that pins the batch pipeline's observable numbers on the
//! paper's 50×100 grid.

use oscar::core::prelude::*;
use oscar::executor::prelude::*;
use oscar::mitigation::model::NoiseModel;
use oscar::optim::prelude::*;
use oscar::problems::ising::IsingProblem;
use oscar_cs::measure::SamplePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(n: usize, seed: u64) -> IsingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    IsingProblem::random_3_regular(n, &mut rng)
}

/// Golden values for one pinned pipeline run (see
/// [`golden_pipeline_numbers_on_the_papers_grid`]).
struct Golden {
    name: &'static str,
    nrmse: f64,
    argmin: [f64; 2],
    argmin_value: f64,
    best_value: f64,
}

/// Golden end-to-end regression: for fixed seeds on the paper's 50×100
/// p=1 grid, the reconstruction error, reconstruction argmin, and
/// stage-3 optimizer best-value of one exact, one noisy ("ibm perth"),
/// and one ZNE-mitigated job are pinned to known-good numbers, so any
/// future refactor of the transform/solver/mitigation/optimizer stack
/// diffs against them instead of only against itself.
///
/// Tolerances: argmin coordinates are grid points (pinned tight);
/// error/value floats allow 1e-6 relative slack for libm variation
/// across platforms. Every stage is deterministic, so a legitimate
/// refactor that changes these numbers must update them *knowingly*.
#[test]
fn golden_pipeline_numbers_on_the_papers_grid() {
    use oscar::runtime::job::{run_job, JobSpec};
    use oscar::runtime::mitigation::Mitigation;
    use oscar::runtime::source::LandscapeSource;

    let p = problem(10, 42);
    let grid = Grid2d::small_p1(50, 100);
    let perth = oscar::executor::device::DeviceSpec::by_name("ibm perth").expect("known device");
    let exact = JobSpec::new(p.clone(), grid, 0.1, 5);
    let noisy = JobSpec::new(p.clone(), grid, 0.1, 5)
        .with_source(LandscapeSource::noisy(perth))
        .with_landscape_seed(3);
    let zne = noisy.clone().with_mitigation(Mitigation::zne_richardson());

    let goldens = [
        (
            exact,
            Golden {
                name: "exact",
                nrmse: 4.116557964577614e-2,
                argmin: [-4.007133486721675e-1, 5.870652938526382e-1],
                argmin_value: -1.007224319058857e1,
                best_value: -1.0073559581593189e1,
            },
        ),
        (
            noisy,
            Golden {
                name: "noisy ibm perth",
                nrmse: 5.130972566405576e-2,
                argmin: [-4.007133486721675e-1, 5.870652938526382e-1],
                argmin_value: -9.187089537329072e0,
                best_value: -9.187915354398966e0,
            },
        ),
        (
            zne,
            Golden {
                name: "zne richardson",
                nrmse: 1.086206057744128e-1,
                argmin: [-4.007133486721675e-1, 5.870652938526382e-1],
                argmin_value: -9.774001560652238e0,
                best_value: -9.774426530880666e0,
            },
        ),
    ];

    let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * (1.0 + b.abs());
    for (spec, golden) in goldens {
        let r = run_job(&spec, None);
        assert_eq!(r.samples_used, 500, "{}: sampling budget", golden.name);
        assert!(
            close(r.nrmse, golden.nrmse, 1e-6),
            "{}: nrmse {} drifted from golden {}",
            golden.name,
            r.nrmse,
            golden.nrmse
        );
        let (argmin_value, argmin) = r.reconstruction.argmin();
        let (b, g) = (argmin[0], argmin[1]);
        assert!(
            close(b, golden.argmin[0], 1e-9) && close(g, golden.argmin[1], 1e-9),
            "{}: argmin ({b}, {g}) drifted from golden {:?}",
            golden.name,
            golden.argmin
        );
        assert!(
            close(argmin_value, golden.argmin_value, 1e-6),
            "{}: argmin value {argmin_value} drifted from golden {}",
            golden.name,
            golden.argmin_value
        );
        assert!(
            close(r.best_value, golden.best_value, 1e-6),
            "{}: optimizer best value {} drifted from golden {}",
            golden.name,
            r.best_value,
            golden.best_value
        );
        assert!(
            r.best_value <= argmin_value + 1e-9,
            "{}: stage 3 must not end above the grid argmin",
            golden.name
        );
    }
}

/// Golden N-D regressions, mirroring the 2-D suite: a depth-2 QAOA job
/// on its native 4-D `(beta1, beta2, gamma1, gamma2)` tensor — exact
/// and ZNE-mitigated on "ibm perth" — and an H2 VQE parameter scan,
/// each pinned on reconstruction error, reconstruction argmin, and
/// optimizer best value. Same tolerances and update discipline as
/// [`golden_pipeline_numbers_on_the_papers_grid`].
#[test]
// lint: the pinned argmin coordinates are QAOA grid points that land
// exactly on fractions of pi; they are captured output, not hand-typed
// approximations of the constants.
#[allow(clippy::approx_constant)]
fn golden_nd_pipeline_numbers() {
    use oscar::core::grid::Shape;
    use oscar::problems::workload::{Molecule, ProblemInstance};
    use oscar::runtime::job::{default_vqe_shape, run_job, JobSpec};
    use oscar::runtime::mitigation::Mitigation;
    use oscar::runtime::source::LandscapeSource;

    struct NdGolden {
        name: &'static str,
        samples_used: usize,
        nrmse: f64,
        argmin: &'static [f64],
        argmin_value: f64,
        best_value: f64,
    }

    let perth = oscar::executor::device::DeviceSpec::by_name("ibm perth").expect("known device");
    let qaoa = JobSpec::shaped(
        ProblemInstance::ising(problem(8, 42), 2),
        Shape::qaoa(2, 6, 7),
        0.15,
        5,
    );
    let qaoa_zne = qaoa
        .clone()
        .with_source(LandscapeSource::noisy(perth))
        .with_landscape_seed(3)
        .with_mitigation(Mitigation::zne_richardson());
    let h2 = JobSpec::shaped(
        ProblemInstance::molecule(Molecule::H2),
        default_vqe_shape(Molecule::H2),
        0.2,
        5,
    );

    let goldens = [
        (
            qaoa,
            NdGolden {
                name: "exact p=2 qaoa",
                samples_used: 265,
                nrmse: 7.177258100100431e-2,
                argmin: &[
                    -3.9269908169872414e-1,
                    -2.3561944901923448e-1,
                    5.235987755982989e-1,
                    7.853981633974483e-1,
                ],
                argmin_value: -8.753065788093334e0,
                best_value: -8.753065788093334e0,
            },
        ),
        (
            qaoa_zne,
            NdGolden {
                name: "zne p=2 qaoa ibm perth",
                samples_used: 265,
                nrmse: 1.115041604203712e-1,
                argmin: &[
                    3.9269908169872414e-1,
                    2.3561944901923448e-1,
                    -5.235987755982989e-1,
                    -7.853981633974483e-1,
                ],
                argmin_value: -8.329560444412058e0,
                best_value: -8.329560444412058e0,
            },
        ),
        (
            h2,
            NdGolden {
                name: "h2 vqe scan",
                samples_used: 200,
                nrmse: 6.0070363229611776e-2,
                argmin: &[
                    -1.7453292519943298e-1,
                    1.7453292519943298e-1,
                    -1.7453292519943298e-1,
                ],
                argmin_value: -1.9364307007274322e0,
                best_value: -1.9364307007274322e0,
            },
        ),
    ];

    let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * (1.0 + b.abs());
    for (spec, golden) in goldens {
        let r = run_job(&spec, None);
        assert_eq!(
            r.samples_used, golden.samples_used,
            "{}: sampling budget",
            golden.name
        );
        assert!(
            close(r.nrmse, golden.nrmse, 1e-6),
            "{}: nrmse {} drifted from golden {}",
            golden.name,
            r.nrmse,
            golden.nrmse
        );
        let (argmin_value, argmin) = r.reconstruction.argmin();
        assert_eq!(argmin.len(), golden.argmin.len(), "{}: rank", golden.name);
        for (i, (&a, &g)) in argmin.iter().zip(golden.argmin).enumerate() {
            assert!(
                close(a, g, 1e-9),
                "{}: argmin[{i}] {a} drifted from golden {g}",
                golden.name
            );
        }
        assert!(
            close(argmin_value, golden.argmin_value, 1e-6),
            "{}: argmin value {argmin_value} drifted from golden {}",
            golden.name,
            golden.argmin_value
        );
        assert!(
            close(r.best_value, golden.best_value, 1e-6),
            "{}: optimizer best value {} drifted from golden {}",
            golden.name,
            r.best_value,
            golden.best_value
        );
        assert!(
            r.best_value <= argmin_value + 1e-9,
            "{}: stage 3 must not end above the grid argmin",
            golden.name
        );
    }
}

/// The determinism contract across executor counts, on a batch mixing
/// every workload family and shape: 2-D MaxCut, 4-D depth-2 SK-model
/// QAOA (noisy + Gaussian-mitigated), and H2/LiH VQE scans. One
/// executor and four executors must produce bit-identical results,
/// job for job.
#[test]
fn mixed_nd_batch_is_bit_identical_across_executor_counts() {
    use oscar::core::grid::Shape;
    use oscar::problems::workload::{Molecule, ProblemInstance};
    use oscar::runtime::job::{default_vqe_shape, JobSpec};
    use oscar::runtime::mitigation::Mitigation;
    use oscar::runtime::scheduler::{BatchRuntime, RuntimeConfig};
    use oscar::runtime::source::LandscapeSource;

    let perth = oscar::executor::device::DeviceSpec::by_name("ibm perth").expect("known device");
    let mut rng = StdRng::seed_from_u64(19);
    let sk = IsingProblem::sk_model(8, &mut rng);
    let specs = [
        JobSpec::new(problem(10, 42), Grid2d::small_p1(20, 30), 0.2, 1),
        JobSpec::shaped(ProblemInstance::ising(sk, 2), Shape::qaoa(2, 5, 6), 0.25, 2)
            .with_source(LandscapeSource::noisy(perth))
            .with_landscape_seed(7)
            .with_mitigation(Mitigation::gaussian()),
        JobSpec::shaped(
            ProblemInstance::molecule(Molecule::H2),
            default_vqe_shape(Molecule::H2),
            0.3,
            3,
        ),
        JobSpec::shaped(
            ProblemInstance::molecule(Molecule::LiH),
            default_vqe_shape(Molecule::LiH),
            0.2,
            4,
        ),
    ];

    let run = |concurrency: usize| {
        let runtime = BatchRuntime::new(RuntimeConfig {
            concurrency,
            ..RuntimeConfig::default()
        });
        runtime
            .run_batch(specs.iter().cloned())
            .expect("no job panicked")
    };
    let solo = run(1);
    let four = run(4);
    assert_eq!(solo.len(), four.len());
    for (a, b) in solo.iter().zip(&four) {
        assert_eq!(
            a.reconstruction.values(),
            b.reconstruction.values(),
            "reconstruction drifted across executor counts"
        );
        assert_eq!(a.nrmse.to_bits(), b.nrmse.to_bits());
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
    }
}

#[test]
fn ideal_pipeline_reaches_low_nrmse() {
    let p = problem(10, 1);
    let truth = Landscape::from_qaoa(Grid2d::small_p1(30, 50), &p.qaoa_evaluator());
    let mut rng = StdRng::seed_from_u64(2);
    let report = Reconstructor::default().reconstruct_fraction(&truth, 0.08, &mut rng);
    assert!(report.nrmse < 0.08, "ideal NRMSE {}", report.nrmse);
}

#[test]
fn noisy_pipeline_still_reconstructs() {
    // Figure 4(b): depolarizing noise 0.003/0.007, landscape reconstructed
    // from noisy samples against the *noisy* ground truth.
    let p = problem(10, 3);
    let noise = NoiseModel::depolarizing(0.003, 0.007);
    let dev = QpuDevice::new("noisy", &p, 1, noise, LatencyModel::instant(), 0);
    let grid = Grid2d::small_p1(25, 40);
    let noisy_truth = Landscape::generate(grid, |b, g| dev.execute(&[b], &[g]));
    let mut rng = StdRng::seed_from_u64(4);
    let report = Reconstructor::default().reconstruct_fraction(&noisy_truth, 0.08, &mut rng);
    // Paper Figure 4(b) reports ~0.1 at this noise level; allow a little
    // sampling-pattern variance around it.
    assert!(report.nrmse < 0.12, "noisy NRMSE {}", report.nrmse);
}

#[test]
fn reconstruction_error_grows_with_noise_but_stays_bounded() {
    let p = problem(10, 5);
    let grid = Grid2d::small_p1(20, 30);
    let ideal_truth = Landscape::from_qaoa(grid, &p.qaoa_evaluator());
    // Shot noise on measured samples, scored against the ideal truth.
    let dev = QpuDevice::new(
        "shots",
        &p,
        1,
        NoiseModel::ideal().with_shots(4096),
        LatencyModel::instant(),
        7,
    );
    let mut rng = StdRng::seed_from_u64(6);
    let report =
        Reconstructor::default().reconstruct_fraction_with(&ideal_truth, 0.15, &mut rng, |b, g| {
            dev.execute(&[b], &[g])
        });
    let mut rng = StdRng::seed_from_u64(6);
    let clean = Reconstructor::default().reconstruct_fraction(&ideal_truth, 0.15, &mut rng);
    assert!(report.nrmse >= clean.nrmse, "shot noise should not help");
    assert!(report.nrmse < 0.2, "shot-noise NRMSE {}", report.nrmse);
}

#[test]
fn multi_qpu_ncm_beats_uncompensated() {
    // Figure 8's conclusion as an invariant.
    let p = problem(10, 7);
    let q1 = QpuDevice::new(
        "qpu1",
        &p,
        1,
        NoiseModel::depolarizing(0.001, 0.005),
        LatencyModel::instant(),
        0,
    );
    let q2 = QpuDevice::new(
        "qpu2",
        &p,
        1,
        NoiseModel::depolarizing(0.003, 0.007),
        LatencyModel::instant(),
        1,
    );
    let grid = Grid2d::small_p1(20, 30);
    let target = Landscape::generate(grid, |b, g| q1.execute(&[b], &[g]));

    let mut rng = StdRng::seed_from_u64(8);
    let pattern = SamplePattern::random(grid.rows(), grid.cols(), 0.12, &mut rng);
    let jobs: Vec<Job> = pattern
        .indices()
        .iter()
        .enumerate()
        .map(|(i, &flat)| {
            let (b, g) = grid.point(flat);
            Job {
                index: i,
                betas: vec![b],
                gammas: vec![g],
            }
        })
        .collect();
    let outcomes = execute_split(&[&q1, &q2], &[0.5, 0.5], &jobs);

    // NCM trained on 1% of the grid.
    let train = SamplePattern::random(grid.rows(), grid.cols(), 0.02, &mut rng);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for &flat in train.indices() {
        let (b, g) = grid.point(flat);
        xs.push(q2.execute(&[b], &[g]));
        ys.push(q1.execute(&[b], &[g]));
    }
    let ncm = NoiseCompensationModel::fit(&xs, &ys);

    let oscar = Reconstructor::default();
    let raw: Vec<f64> = outcomes.iter().map(|o| o.value).collect();
    let fixed: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.device == 1 {
                ncm.transform(o.value)
            } else {
                o.value
            }
        })
        .collect();
    let (l_raw, _) = oscar.reconstruct(&grid, &pattern, &raw);
    let (l_ncm, _) = oscar.reconstruct(&grid, &pattern, &fixed);
    let e_raw = nrmse(target.values(), l_raw.values());
    let e_ncm = nrmse(target.values(), l_ncm.values());
    assert!(e_ncm < e_raw, "NCM {e_ncm} should beat raw {e_raw}");
}

#[test]
fn optimizer_on_reconstruction_matches_direct() {
    // Figure 12's invariant: endpoints land close together.
    let p = problem(10, 9);
    let eval = p.qaoa_evaluator();
    let truth = Landscape::from_qaoa(Grid2d::small_p1(30, 40), &eval);
    let mut rng = StdRng::seed_from_u64(10);
    let report = Reconstructor::default().reconstruct_fraction(&truth, 0.2, &mut rng);

    let adam = Adam {
        max_iter: 150,
        ..Adam::default()
    };
    let mut circuit = |x: &[f64]| eval.expectation(&[x[0]], &[x[1]]);
    let cmp = compare_paths(&adam, &report.landscape, &mut circuit, [0.1, 0.25]);
    assert!(
        cmp.endpoint_distance < 0.35,
        "endpoint distance {}",
        cmp.endpoint_distance
    );
}

#[test]
fn oscar_initialization_cuts_adam_queries() {
    // Table 6's invariant for the gradient-based optimizer.
    let p = problem(12, 11);
    let eval = p.qaoa_evaluator();
    let truth = Landscape::from_qaoa(Grid2d::small_p1(25, 35), &eval);
    let mut rng = StdRng::seed_from_u64(12);
    let report = Reconstructor::default().reconstruct_fraction(&truth, 0.12, &mut rng);

    let adam = Adam {
        max_iter: 1000,
        grad_tol: 1e-2,
        ..Adam::default()
    };
    let mut circuit = |x: &[f64]| eval.expectation(&[x[0]], &[x[1]]);
    // A random init from which Adam reaches the same optimum as the
    // OSCAR-suggested init (inits in flat regions terminate early at a
    // far worse value, which would make the query comparison vacuous).
    let cmp = compare_initialization(
        &adam,
        &report.landscape,
        report.samples_used,
        &mut circuit,
        [0.5, -1.0],
    );
    assert!(
        cmp.outcomes_comparable(1e-2),
        "both inits should reach the same optimum: OSCAR {} vs random {}",
        cmp.oscar_fx,
        cmp.random_fx
    );
    assert!(
        cmp.oscar_queries < cmp.random_queries,
        "OSCAR {} vs random {}",
        cmp.oscar_queries,
        cmp.random_queries
    );
}

#[test]
fn eager_reconstruction_trades_little_accuracy() {
    // §5.2: dropping the latency tail loses only a few samples and little
    // accuracy.
    let p = problem(10, 13);
    let dev = QpuDevice::new(
        "queued",
        &p,
        1,
        NoiseModel::ideal(),
        LatencyModel::cloud_queue(),
        5,
    );
    let grid = Grid2d::small_p1(20, 30);
    let truth = Landscape::from_qaoa(grid, &p.qaoa_evaluator());
    let mut rng = StdRng::seed_from_u64(14);
    let pattern = SamplePattern::random(grid.rows(), grid.cols(), 0.15, &mut rng);
    let jobs: Vec<Job> = pattern
        .indices()
        .iter()
        .enumerate()
        .map(|(i, &flat)| {
            let (b, g) = grid.point(flat);
            Job {
                index: i,
                betas: vec![b],
                gammas: vec![g],
            }
        })
        .collect();
    let outcomes = execute_round_robin(&[&dev], &jobs);

    let oscar = Reconstructor::default();
    let full_vals: Vec<f64> = outcomes.iter().map(|o| o.value).collect();
    let (l_full, _) = oscar.reconstruct(&grid, &pattern, &full_vals);
    let e_full = nrmse(truth.values(), l_full.values());

    // Soft timeout placed to drop the last few stragglers (the heavy
    // lognormal tail), independent of where this RNG stream happens to
    // put its largest queue delays.
    let mut times: Vec<f64> = outcomes.iter().map(|o| o.completion_time).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let kept = within_timeout(&outcomes, times[times.len() - 4]);
    assert!(kept.len() < outcomes.len());
    let kept_idx: Vec<usize> = kept.iter().map(|o| pattern.indices()[o.index]).collect();
    let eager_pattern = SamplePattern::from_indices(grid.rows(), grid.cols(), kept_idx);
    let eager_vals: Vec<f64> = kept.iter().map(|o| o.value).collect();
    let (l_eager, _) = oscar.reconstruct(&grid, &eager_pattern, &eager_vals);
    let e_eager = nrmse(truth.values(), l_eager.values());

    assert!(
        e_eager < e_full + 0.05,
        "eager error {e_eager} should stay near full error {e_full}"
    );
}

#[test]
fn p2_reshaped_reconstruction_works() {
    // Figure 4(c): reshape the 4-D p=2 landscape to 2-D and reconstruct.
    use oscar::core::reshape::generate_p2_landscape;
    let p = problem(8, 15);
    let eval = p.qaoa_evaluator();
    let grid4 = Grid4d::small_p2(8, 10);
    let values = generate_p2_landscape(&grid4, |betas, gammas| eval.expectation(betas, gammas));
    let (rows, cols) = grid4.reshaped_dims();

    let mut rng = StdRng::seed_from_u64(16);
    let pattern = SamplePattern::random(rows, cols, 0.2, &mut rng);
    let samples = pattern.gather(&values);
    let recon = Reconstructor::default().reconstruct_array(rows, cols, &pattern, &samples);
    let err = nrmse(&values, &recon);
    // The paper reports 0.07-0.25 for p=2 because the reshaping introduces
    // artificial patterns; accept the same ballpark.
    assert!(err < 0.3, "p=2 NRMSE {err}");
}
