//! The OSCAR reconstruction pipeline (paper §4, Figure 3): random
//! parameter sampling → circuit execution → compressed-sensing recovery.

use crate::grid::Grid2d;
use crate::landscape::{Landscape, NdLandscape};
use crate::metrics::nrmse;
use oscar_cs::dct::DctNd;
use oscar_cs::fista::{fista_with, FistaConfig, FistaExit, FistaResult};
use oscar_cs::measure::{MeasurementOperatorNd, NdSamplePattern, SamplePattern};
use oscar_cs::workspace::Workspace;
use rand::{Rng, SeedableRng};

/// OSCAR reconstruction engine.
///
/// # Examples
///
/// Reconstruct a QAOA landscape from 15% of its points:
///
/// ```
/// use oscar_core::grid::Grid2d;
/// use oscar_core::landscape::Landscape;
/// use oscar_core::reconstruct::Reconstructor;
/// use oscar_qsim::qaoa::QaoaEvaluator;
/// use rand::SeedableRng;
///
/// let eval = QaoaEvaluator::new(2, vec![0.0, -1.0, -1.0, 0.0]);
/// let truth = Landscape::from_qaoa(Grid2d::small_p1(16, 20), &eval);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let oscar = Reconstructor::default();
/// let report = oscar.reconstruct_fraction(&truth, 0.15, &mut rng);
/// assert!(report.nrmse < 0.1, "NRMSE {}", report.nrmse);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Reconstructor {
    /// Sparse-recovery solver settings.
    pub fista: FistaConfig,
}

/// The outcome of a reconstruction experiment against known ground
/// truth, over a grid [`Landscape`] or (as [`NdReconstructionReport`])
/// an [`NdLandscape`].
#[derive(Clone, Debug)]
pub struct ReconstructionReport<L = Landscape> {
    /// The reconstructed landscape.
    pub landscape: L,
    /// NRMSE against the ground truth (paper Eq. 1).
    pub nrmse: f64,
    /// Number of circuit evaluations used (sampled points).
    pub samples_used: usize,
    /// FISTA iterations performed.
    pub solver_iterations: usize,
    /// Why FISTA stopped: converged, or ran into its iteration cap.
    pub solver_exit: FistaExit,
    /// Whether the support was refitted by exact least squares
    /// ([`FistaResult::refit`]); `false` when the refit was skipped.
    pub solver_refit: bool,
}

/// The report of a tensor reconstruction.
pub type NdReconstructionReport = ReconstructionReport<NdLandscape>;

impl Reconstructor {
    /// Creates a reconstructor with custom solver settings.
    pub fn new(fista: FistaConfig) -> Self {
        Reconstructor { fista }
    }

    /// Reconstructs a landscape from sampled values at known grid
    /// positions — the core OSCAR primitive. `samples[i]` is the measured
    /// cost at `pattern.indices()[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern grid mismatches `grid` or sample count
    /// mismatches the pattern.
    pub fn reconstruct(
        &self,
        grid: &Grid2d,
        pattern: &SamplePattern,
        samples: &[f64],
    ) -> (Landscape, usize) {
        let (values, sol) = self.solve(&[grid.rows(), grid.cols()], pattern, samples);
        (Landscape::from_values(*grid, values), sol.iterations)
    }

    /// Full experiment against ground truth: sample `fraction` of the true
    /// landscape uniformly at random, reconstruct, and score.
    pub fn reconstruct_fraction<R: Rng + ?Sized>(
        &self,
        truth: &Landscape,
        fraction: f64,
        rng: &mut R,
    ) -> ReconstructionReport {
        self.sampled(truth, fraction, rng, |i| truth.values()[i])
            .map(Landscape::from_nd)
    }

    /// Job-level deterministic entry point: like
    /// [`Self::reconstruct_fraction`], but drawing the sampling pattern
    /// from a dedicated RNG seeded with `seed`, so one `(truth,
    /// fraction, seed)` triple always produces bit-identical output —
    /// the contract `oscar-runtime` batch jobs rely on regardless of
    /// scheduling order or worker count.
    pub fn reconstruct_fraction_seeded(
        &self,
        truth: &Landscape,
        fraction: f64,
        seed: u64,
    ) -> ReconstructionReport {
        self.reconstruct_tensor_fraction_seeded(truth, fraction, seed)
            .map(Landscape::from_nd)
    }

    /// Like [`Self::reconstruct_fraction`], but with measured sample values
    /// supplied by a (possibly noisy) execution closure instead of gathered
    /// from the truth: `measure(beta, gamma)`.
    pub fn reconstruct_fraction_with<R: Rng + ?Sized>(
        &self,
        truth: &Landscape,
        fraction: f64,
        rng: &mut R,
        mut measure: impl FnMut(f64, f64) -> f64,
    ) -> ReconstructionReport {
        let grid = truth.grid();
        self.sampled(truth, fraction, rng, |i| {
            let (b, g) = grid.point(i);
            measure(b, g)
        })
        .map(Landscape::from_nd)
    }

    /// Reconstructs a raw row-major array (no [`Grid2d`] attached) —
    /// used by the reshaped p=2 pipeline where the 2-D axes are synthetic.
    ///
    /// Paper §4.2.4: the p=2 landscape over `(β1, β2, γ1, γ2)`, stored
    /// row-major, *is* the `(nb², ng²)` array whose row pairs the two β
    /// indices and whose column pairs the two γ indices, so reshaping
    /// moves no data. It introduces artificial repeating patterns that
    /// cost some accuracy (Figure 4 C/D).
    pub fn reconstruct_array(
        &self,
        rows: usize,
        cols: usize,
        pattern: &SamplePattern,
        samples: &[f64],
    ) -> Vec<f64> {
        self.solve(&[rows, cols], pattern, samples).0
    }

    /// [`Self::reconstruct_fraction_seeded`] for a landscape of any
    /// rank, solving in the [`DctNd`] basis of its shape: the job
    /// pipeline's stage 2 for grids and tensors alike.
    pub fn reconstruct_tensor_fraction_seeded(
        &self,
        truth: &NdLandscape,
        fraction: f64,
        seed: u64,
    ) -> NdReconstructionReport {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.sampled(truth, fraction, &mut rng, |i| truth.values()[i])
    }

    /// Samples `fraction` of `truth`'s points (pattern drawn from
    /// `rng`), takes `measure(flat index)` at each, reconstructs and
    /// scores against `truth`.
    fn sampled<R: Rng + ?Sized>(
        &self,
        truth: &NdLandscape,
        fraction: f64,
        rng: &mut R,
        measure: impl FnMut(usize) -> f64,
    ) -> NdReconstructionReport {
        let dims = truth.shape().dims();
        let pattern = NdSamplePattern::random(&dims, fraction, rng);
        let samples: Vec<f64> = pattern.indices().iter().copied().map(measure).collect();
        let (values, sol) = self.solve(&dims, &pattern, &samples);
        let landscape = NdLandscape::from_values(truth.shape().clone(), values);
        ReconstructionReport {
            nrmse: nrmse(truth.values(), landscape.values()),
            landscape,
            samples_used: pattern.num_samples(),
            solver_iterations: sol.iterations,
            solver_exit: sol.exit,
            solver_refit: sol.refit,
        }
    }

    /// The one solve path, for grids and tensors alike: FISTA in the
    /// [`DctNd`] basis of `dims`, then the inverse transform. One
    /// [`Workspace`] per call keeps every FISTA iteration allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the pattern dims mismatch `dims` or sample count
    /// mismatches the pattern.
    fn solve(
        &self,
        dims: &[usize],
        pattern: &NdSamplePattern,
        samples: &[f64],
    ) -> (Vec<f64>, FistaResult) {
        assert_eq!(pattern.dims(), dims, "pattern dims mismatch shape");
        assert_eq!(
            samples.len(),
            pattern.num_samples(),
            "one sample per pattern index required"
        );
        let dct = DctNd::new(dims);
        let op = MeasurementOperatorNd::new(&dct, pattern);
        let mut ws = Workspace::for_operator(&op);
        let sol = fista_with(&op, samples, &self.fista, &mut ws);
        let mut values = vec![0.0; dct.len()];
        let mut scratch = dct.make_scratch();
        dct.inverse_into(&sol.coefficients, &mut values, &mut scratch);
        (values, sol)
    }
}

impl<L> ReconstructionReport<L> {
    /// The same report over another view of its landscape.
    fn map<M>(self, view: impl FnOnce(L) -> M) -> ReconstructionReport<M> {
        ReconstructionReport {
            landscape: view(self.landscape),
            nrmse: self.nrmse,
            samples_used: self.samples_used,
            solver_iterations: self.solver_iterations,
            solver_exit: self.solver_exit,
            solver_refit: self.solver_refit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_problems::ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth_landscape(n: usize, seed: u64, grid: Grid2d) -> Landscape {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = IsingProblem::random_3_regular(n, &mut rng);
        Landscape::from_qaoa(grid, &problem.qaoa_evaluator())
    }

    #[test]
    fn qaoa_landscape_reconstructs_accurately() {
        let truth = truth_landscape(8, 1, Grid2d::small_p1(20, 30));
        let mut rng = StdRng::seed_from_u64(2);
        let report = Reconstructor::default().reconstruct_fraction(&truth, 0.15, &mut rng);
        assert!(report.nrmse < 0.07, "NRMSE {}", report.nrmse);
        assert_eq!(report.samples_used, 90);
    }

    #[test]
    fn error_decreases_with_fraction() {
        let truth = truth_landscape(8, 3, Grid2d::small_p1(20, 30));
        let oscar = Reconstructor::default();
        let mut errs = Vec::new();
        for (seed, frac) in [(10u64, 0.04), (11, 0.12), (12, 0.35)] {
            let mut rng = StdRng::seed_from_u64(seed);
            errs.push(oscar.reconstruct_fraction(&truth, frac, &mut rng).nrmse);
        }
        assert!(
            errs[2] < errs[0],
            "error should drop with more samples: {errs:?}"
        );
    }

    #[test]
    fn measured_closure_path_equals_gather_path() {
        let truth = truth_landscape(6, 4, Grid2d::small_p1(12, 16));
        let oscar = Reconstructor::default();
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let eval_problem = {
            let mut rng = StdRng::seed_from_u64(4);
            IsingProblem::random_3_regular(6, &mut rng)
        };
        let eval = eval_problem.qaoa_evaluator();
        let a = oscar.reconstruct_fraction(&truth, 0.2, &mut rng1);
        let b = oscar.reconstruct_fraction_with(&truth, 0.2, &mut rng2, |beta, gamma| {
            eval.expectation(&[beta], &[gamma])
        });
        assert!((a.nrmse - b.nrmse).abs() < 1e-9);
    }

    #[test]
    fn reconstruct_array_matches_landscape_path() {
        let truth = truth_landscape(6, 5, Grid2d::small_p1(10, 14));
        let mut rng = StdRng::seed_from_u64(5);
        let pattern = SamplePattern::random(10, 14, 0.3, &mut rng);
        let samples = pattern.gather(truth.values());
        let oscar = Reconstructor::default();
        let (l, _) = oscar.reconstruct(&truth.grid(), &pattern, &samples);
        let arr = oscar.reconstruct_array(10, 14, &pattern, &samples);
        for (a, b) in l.values().iter().zip(&arr) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn noisy_samples_degrade_gracefully() {
        let truth = truth_landscape(8, 6, Grid2d::small_p1(20, 30));
        let oscar = Reconstructor::default();
        let mut rng = StdRng::seed_from_u64(6);
        let clean = oscar.reconstruct_fraction(&truth, 0.2, &mut rng);
        let mut rng = StdRng::seed_from_u64(6);
        let iqr = truth.iqr();
        let mut noise_rng = StdRng::seed_from_u64(77);
        use rand::Rng;
        let noisy = oscar.reconstruct_fraction_with(&truth, 0.2, &mut rng, |b, g| {
            // Look up the true value and perturb it slightly.
            let grid = truth.grid();
            let r = ((b - grid.beta.lo) / grid.beta.step()).round() as usize;
            let c = ((g - grid.gamma.lo) / grid.gamma.step()).round() as usize;
            truth.at(r, c) + noise_rng.gen_range(-0.02..0.02) * iqr
        });
        assert!(noisy.nrmse >= clean.nrmse * 0.5, "sanity");
        assert!(noisy.nrmse < 0.15, "noisy NRMSE {}", noisy.nrmse);
    }

    #[test]
    fn tensor_reconstruction_recovers_4d_qaoa_landscape() {
        use crate::grid::Shape;
        // p=2 QAOA on a small 4-D shape: the landscape is smooth in the
        // DCT basis, so 25% sampling reconstructs it well.
        let mut rng = StdRng::seed_from_u64(12);
        let problem = IsingProblem::random_3_regular(8, &mut rng);
        let eval = problem.qaoa_evaluator();
        let Shape::Tensor(shape) = Shape::qaoa(2, 5, 6) else {
            panic!("p=2 must be a tensor shape");
        };
        let truth =
            NdLandscape::generate(shape, |p| eval.expectation(&[p[0], p[1]], &[p[2], p[3]]));
        let report = Reconstructor::default().reconstruct_tensor_fraction_seeded(&truth, 0.25, 7);
        assert!(report.nrmse < 0.12, "NRMSE {}", report.nrmse);
        assert_eq!(report.samples_used, 225);

        // Determinism: the same triple is bit-identical.
        let again = Reconstructor::default().reconstruct_tensor_fraction_seeded(&truth, 0.25, 7);
        assert_eq!(report.landscape.values(), again.landscape.values());
    }

    #[test]
    #[should_panic(expected = "one sample per pattern index")]
    fn rejects_sample_count_mismatch() {
        let grid = Grid2d::small_p1(4, 4);
        let pattern = SamplePattern::from_indices(4, 4, vec![0, 1, 2]);
        let _ = Reconstructor::default().reconstruct(&grid, &pattern, &[0.0]);
    }
}
