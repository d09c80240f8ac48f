//! Where a job's stage-1 landscape comes from: exact simulation or a
//! noisy simulated device.
//!
//! The paper's central workload reconstructs *noisy* VQA landscapes
//! from sparse device executions; [`LandscapeSource`] is the runtime's
//! switch between the exact noiseless evaluator and a device-backed
//! noisy evaluation ([`QpuDevice`] for QAOA, [`VqeDevice`] for
//! molecules). Noisy landscapes are **deterministic under
//! concurrency**: every grid point draws its noise from a
//! counter-based RNG keyed by `(landscape_seed, point_index)`
//! ([`oscar_qsim::rng::CounterRng`]) with the flat row-major index as
//! the stream — the same discipline on 2-D grids and N-D tensors — so
//! the landscape is bit-identical no matter how the worker pool
//! interleaves points or how many executors run jobs — the property
//! the batch cache and the `--compare` harness rely on. (The QPU
//! device's internal mutex-guarded RNG stream, by contrast, is
//! execution-order-dependent and is not used here.)

use oscar_core::grid::Shape;
use oscar_core::landscape::{Landscape, NdLandscape, ShapedLandscape};
use oscar_core::usecases::mitigation::zne_factor_seed;
use oscar_executor::device::DeviceSpec;
use oscar_problems::workload::{ProblemInstance, VqeEvaluator};
use oscar_qsim::fingerprint::{tag, Fingerprint};
use oscar_qsim::qaoa::QaoaEvaluator;
use std::cell::OnceCell;
use std::sync::OnceLock;

/// How stage 1 evaluates the ground-truth landscape.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LandscapeSource {
    /// Exact noiseless evaluation (infinite shots, no gate errors).
    /// `JobSpec::landscape_seed` is irrelevant for this source and is
    /// normalized to 0 in cache keys, so exact jobs that differ only in
    /// that field share one cached landscape.
    #[default]
    Exact,
    /// Noisy evaluation through a simulated device.
    Noisy {
        /// The device whose noise configuration shapes every point.
        device: DeviceSpec,
        /// Overrides the device's shot count when set (a sweep axis the
        /// paper's noisy experiments vary independently of the device).
        shots: Option<usize>,
    },
}

impl LandscapeSource {
    /// A noisy source using the device's own shot count.
    pub fn noisy(device: DeviceSpec) -> Self {
        LandscapeSource::Noisy {
            device,
            shots: None,
        }
    }

    /// `true` for the exact noiseless source.
    pub fn is_exact(&self) -> bool {
        matches!(self, LandscapeSource::Exact)
    }

    /// The device actually executed: the spec with any shot override
    /// already folded into its noise model. `None` for [`Self::Exact`].
    pub(crate) fn effective_device(&self) -> Option<DeviceSpec> {
        match self {
            LandscapeSource::Exact => None,
            LandscapeSource::Noisy { device, shots } => Some(match shots {
                Some(s) => DeviceSpec {
                    noise: device.noise.with_shots(*s),
                    ..device.clone()
                },
                None => device.clone(),
            }),
        }
    }

    /// Stable 128-bit fingerprint folded into
    /// [`crate::cache::LandscapeKey`]: 0 for [`Self::Exact`], a
    /// process-stable hash ([`oscar_qsim::fingerprint`]) of the
    /// *effective* device otherwise — exact and noisy entries can never
    /// collide, and a shot override that merely restates the device's
    /// own shot count hashes identically to no override (the landscapes
    /// are bit-identical, so they must share one cache entry).
    ///
    /// Canonical encoding: `tag::NOISY`, then the device fingerprint
    /// ([`DeviceSpec::fingerprint`]) as `u128`.
    pub fn fingerprint(&self) -> u128 {
        match self.effective_device() {
            None => 0,
            Some(spec) => {
                let mut h = Fingerprint::new();
                // Domain tag keeps a pathological all-zero device hash
                // from colliding with the exact source's 0.
                h.write_u8(tag::NOISY);
                h.write_u128(spec.fingerprint());
                h.finish()
            }
        }
    }

    /// Fingerprint of this source at ZNE noise scale `scale` — the
    /// cache identity of one per-factor sub-landscape. Scale `1.0`
    /// normalizes to [`Self::fingerprint`]: the factor-1 landscape *is*
    /// the plain unscaled landscape (same seed, same noise draws), so a
    /// ZNE job and a raw job over the same device share that entry.
    /// The exact source is scale-independent (no noise to amplify) and
    /// always fingerprints to 0.
    ///
    /// Canonical encoding (scale ≠ 1): `tag::ZNE_SCALE`, the device
    /// fingerprint as `u128`, the scale's f64 bit pattern.
    pub fn scaled_fingerprint(&self, scale: f64) -> u128 {
        if scale == 1.0 {
            return self.fingerprint();
        }
        match self.effective_device() {
            None => 0,
            Some(spec) => {
                let mut h = Fingerprint::new();
                h.write_u8(tag::ZNE_SCALE);
                h.write_u128(spec.fingerprint());
                h.write_f64(scale);
                h.finish()
            }
        }
    }

    /// Evaluates the ground-truth landscape for `problem` over `shape`.
    ///
    /// Deterministic: a pure function of `(self, problem, shape,
    /// landscape_seed)`, bit-identical across worker counts and
    /// evaluation orders. Grid points run data-parallel on the shared
    /// worker pool for both sources and every shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape's rank differs from the problem's parameter
    /// count (so only a depth-1 QAOA problem fits a 2-D grid).
    pub fn generate(
        &self,
        problem: &ProblemInstance,
        shape: &Shape,
        landscape_seed: u64,
    ) -> ShapedLandscape {
        self.generate_scaled(problem, shape, landscape_seed, 1.0)
    }

    /// Evaluates the landscape at ZNE noise scale `scale` (depolarizing
    /// rates amplified by gate folding; the per-factor noise seed is
    /// derived so each factor draws fresh shot noise — see
    /// [`oscar_core::usecases::mitigation::zne_factor_seed`]). At
    /// `scale = 1.0` this is bit-identical to [`Self::generate`]; the
    /// exact source ignores the scale entirely.
    ///
    /// A noisy landscape is two passes: one ideal statevector
    /// simulation per point for its moments `(<C>, Var[C])`, then the
    /// device's analytic noise model applied pointwise. Only the second
    /// depends on `scale`.
    ///
    /// # Panics
    ///
    /// See [`Self::generate`].
    pub fn generate_scaled(
        &self,
        problem: &ProblemInstance,
        shape: &Shape,
        landscape_seed: u64,
        scale: f64,
    ) -> ShapedLandscape {
        self.generate_scaled_sharing(problem, shape, landscape_seed, scale, &MomentsCell::new())
    }

    /// [`Self::generate_scaled`], taking the ideal moments from
    /// `moments` and filling it on first use: every scale generated
    /// through one cell simulates each point once. Bit-identical to
    /// [`Self::generate_scaled`]. A cell must only ever serve one
    /// `(problem, shape)`. The exact source leaves the cell untouched.
    pub(crate) fn generate_scaled_sharing(
        &self,
        problem: &ProblemInstance,
        shape: &Shape,
        landscape_seed: u64,
        scale: f64,
        moments: &MomentsCell,
    ) -> ShapedLandscape {
        assert_eq!(
            shape.rank(),
            problem.num_params(),
            "shape rank must match the problem's parameter count"
        );
        let Some(spec) = self.effective_device() else {
            let ideal = Ideal::new(problem);
            return landscape_from_values(shape, ideal_pass(shape, |x| ideal.expectation(x)));
        };
        let moments = moments.get_or_init(|| {
            let ideal = Ideal::new(problem);
            ideal_pass(shape, |x| ideal.moments(x))
        });
        // Every point draws its noise from its own counter stream keyed
        // by the (derived) landscape seed and the flat point index, so
        // the devices' internal-RNG seed is irrelevant.
        let seed = zne_factor_seed(landscape_seed, scale);
        let values: Vec<f64> = match problem {
            ProblemInstance::Ising { problem, depth } => {
                // A 2-D grid transpiles at the spec's own depth; a
                // tensor at the problem's.
                let spec = match shape {
                    Shape::Grid2d(_) => spec,
                    Shape::Tensor(_) => spec.with_depth(*depth),
                };
                let qpu = spec.build(problem, 0);
                noise_pass(moments, |m, i| qpu.noisy_moments_at(m, scale, seed, i))
            }
            ProblemInstance::Molecule(molecule) => {
                let dev = spec.build_vqe(*molecule);
                noise_pass(moments, |m, i| dev.noisy_moments_at(m, scale, seed, i))
            }
        };
        landscape_from_values(shape, values)
    }
}

/// The ideal moments `(<C>, Var[C])` of every point of one `(problem,
/// shape)`, row-major, computed on first use: the scale-independent
/// half of a noisy landscape, shared by the ZNE factors of one job.
pub(crate) type MomentsCell = OnceCell<Vec<(f64, f64)>>;

/// `source.circuit_evals` in the obs registry: ideal circuit
/// simulations run by stage 1, one per landscape point per ideal pass.
fn circuit_evals() -> &'static oscar_obs::Counter {
    static COUNTER: OnceLock<oscar_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| oscar_obs::Registry::global().counter("source.circuit_evals"))
}

/// The noiseless simulator of a problem, over its flat parameter
/// vector (`[betas.., gammas..]` for depth-`p` QAOA).
enum Ideal {
    Qaoa { eval: QaoaEvaluator, depth: usize },
    Vqe(VqeEvaluator),
}

impl Ideal {
    fn new(problem: &ProblemInstance) -> Self {
        match problem {
            ProblemInstance::Ising { problem, depth } => Ideal::Qaoa {
                eval: problem.qaoa_evaluator(),
                depth: *depth,
            },
            ProblemInstance::Molecule(molecule) => Ideal::Vqe(VqeEvaluator::new(*molecule)),
        }
    }

    fn expectation(&self, x: &[f64]) -> f64 {
        match self {
            Ideal::Qaoa { eval, depth } => eval.expectation(&x[..*depth], &x[*depth..]),
            Ideal::Vqe(eval) => eval.expectation(x),
        }
    }

    fn moments(&self, x: &[f64]) -> (f64, f64) {
        match self {
            Ideal::Qaoa { eval, depth } => eval.moments(&x[..*depth], &x[*depth..]),
            Ideal::Vqe(eval) => eval.moments(x),
        }
    }
}

/// `f` at every point of `shape`, row-major, data-parallel on the
/// worker pool in last-axis-aligned chunks, counted in
/// `source.circuit_evals`.
fn ideal_pass<T: Copy + Default + Send>(shape: &Shape, f: impl Fn(&[f64]) -> T + Sync) -> Vec<T> {
    let granule = shape.dims().last().copied().unwrap_or(1);
    let mut out = vec![T::default(); shape.len()];
    oscar_par::for_each_chunk_mut(&mut out, granule, |offset, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            *v = f(&shape.point(offset + k));
        }
    });
    circuit_evals().add(shape.len() as u64);
    out
}

/// `noise(moments[i], i)` at every point: the cheap, scale-dependent
/// half of a noisy landscape.
fn noise_pass(moments: &[(f64, f64)], noise: impl Fn((f64, f64), u64) -> f64) -> Vec<f64> {
    moments
        .iter()
        .enumerate()
        .map(|(i, &m)| noise(m, i as u64))
        .collect()
}

fn landscape_from_values(shape: &Shape, values: Vec<f64>) -> ShapedLandscape {
    match shape {
        Shape::Grid2d(grid) => Landscape::from_values(*grid, values).into(),
        Shape::Tensor(tensor) => NdLandscape::from_values(tensor.clone(), values).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_core::grid::Grid2d;
    use oscar_problems::ising::IsingProblem;
    use oscar_problems::workload::Molecule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem() -> ProblemInstance {
        let mut rng = StdRng::seed_from_u64(21);
        ProblemInstance::ising(IsingProblem::random_3_regular(6, &mut rng), 1)
    }

    fn perth() -> DeviceSpec {
        DeviceSpec::by_name("ibm perth").expect("known device")
    }

    fn grid(nb: usize, ng: usize) -> Shape {
        Shape::Grid2d(Grid2d::small_p1(nb, ng))
    }

    #[test]
    fn noisy_generation_is_bit_stable() {
        let p = problem();
        let shape = grid(8, 10);
        let source = LandscapeSource::noisy(perth());
        let a = source.generate(&p, &shape, 5);
        let b = source.generate(&p, &shape, 5);
        assert_eq!(a.values(), b.values());
        // A different landscape seed is a different noise realization.
        let c = source.generate(&p, &shape, 6);
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn noisy_differs_from_exact_but_correlates() {
        let p = problem();
        let shape = grid(10, 12);
        let exact = LandscapeSource::Exact.generate(&p, &shape, 0);
        let noisy = LandscapeSource::noisy(perth()).generate(&p, &shape, 1);
        assert_ne!(exact.values(), noisy.values());
        // The noisy landscape is the exact one damped toward the mixed
        // mean plus bounded shot noise — it must stay in the same range
        // neighborhood, not be garbage.
        assert!(noisy.values().iter().all(|v| v.is_finite()));
        let span = |l: &ShapedLandscape| {
            let vs = l.values();
            vs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - vs.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(span(&noisy) < span(&exact) * 1.5);
    }

    #[test]
    fn shot_override_changes_fingerprint_and_values() {
        let p = problem();
        let shape = grid(6, 8);
        let base = LandscapeSource::noisy(perth());
        let overridden = LandscapeSource::Noisy {
            device: perth(),
            shots: Some(64),
        };
        assert_ne!(base.fingerprint(), overridden.fingerprint());
        let a = base.generate(&p, &shape, 3);
        let b = overridden.generate(&p, &shape, 3);
        assert_ne!(a.values(), b.values(), "64 shots must be noisier than 4096");
    }

    #[test]
    fn redundant_shot_override_shares_the_no_override_fingerprint() {
        // "ibm perth" already runs at 4096 shots: restating that as an
        // override changes nothing about the landscape, so it must hash
        // to the same cache key (the noisy analogue of the exact
        // source's seed normalization).
        let spelled_out = LandscapeSource::Noisy {
            device: perth(),
            shots: Some(4096),
        };
        let implicit = LandscapeSource::noisy(perth());
        assert_eq!(spelled_out.fingerprint(), implicit.fingerprint());
        let p = problem();
        let shape = grid(6, 8);
        assert_eq!(
            spelled_out.generate(&p, &shape, 3).values(),
            implicit.generate(&p, &shape, 3).values()
        );
    }

    #[test]
    fn scaled_generation_unit_scale_matches_generate() {
        let p = problem();
        let shape = grid(6, 8);
        let source = LandscapeSource::noisy(perth());
        assert_eq!(
            source.generate(&p, &shape, 4).values(),
            source.generate_scaled(&p, &shape, 4, 1.0).values()
        );
        // Higher scales damp harder and draw fresh noise.
        let s3 = source.generate_scaled(&p, &shape, 4, 3.0);
        assert_ne!(source.generate(&p, &shape, 4).values(), s3.values());
        assert_eq!(
            s3.values(),
            source.generate_scaled(&p, &shape, 4, 3.0).values(),
            "scaled generation must be bit-stable"
        );
    }

    #[test]
    fn scaled_fingerprints_normalize_unit_scale_and_separate_factors() {
        let source = LandscapeSource::noisy(perth());
        assert_eq!(source.scaled_fingerprint(1.0), source.fingerprint());
        assert_ne!(source.scaled_fingerprint(2.0), source.fingerprint());
        assert_ne!(
            source.scaled_fingerprint(2.0),
            source.scaled_fingerprint(3.0)
        );
        // Exact sources are scale-independent.
        assert_eq!(LandscapeSource::Exact.scaled_fingerprint(3.0), 0);
    }

    #[test]
    fn exact_fingerprint_is_zero_and_noisy_is_not() {
        assert_eq!(LandscapeSource::Exact.fingerprint(), 0);
        assert_ne!(LandscapeSource::noisy(perth()).fingerprint(), 0);
        assert_eq!(
            LandscapeSource::noisy(perth()).fingerprint(),
            LandscapeSource::noisy(perth()).fingerprint()
        );
    }

    #[test]
    fn depth_two_tensor_generation_is_deterministic_and_noisy_differs() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = ProblemInstance::ising(IsingProblem::random_3_regular(6, &mut rng), 2);
        let shape = Shape::qaoa(2, 4, 5);
        assert_eq!(shape.rank(), 4);
        let exact = LandscapeSource::Exact.generate(&p, &shape, 0);
        assert_eq!(exact.values().len(), 400);
        let source = LandscapeSource::noisy(perth());
        let a = source.generate(&p, &shape, 5);
        let b = source.generate(&p, &shape, 5);
        assert_eq!(a.values(), b.values(), "4-D noisy must be bit-stable");
        assert_ne!(a.values(), exact.values());
        assert_ne!(a.values(), source.generate(&p, &shape, 6).values());
    }

    #[test]
    fn vqe_generation_runs_exact_and_noisy() {
        let p = ProblemInstance::molecule(Molecule::H2);
        let shape = Shape::vqe_scan(&[5, 5, 5]);
        let exact = LandscapeSource::Exact.generate(&p, &shape, 0);
        assert_eq!(exact.values().len(), 125);
        assert!(exact.values().iter().all(|v| v.is_finite()));
        let source = LandscapeSource::noisy(perth());
        let a = source.generate(&p, &shape, 3);
        let b = source.generate(&p, &shape, 3);
        assert_eq!(a.values(), b.values(), "VQE noisy must be bit-stable");
        assert_ne!(a.values(), exact.values());
    }

    #[test]
    #[should_panic(expected = "shape rank must match")]
    fn rejects_rank_mismatch() {
        let p = ProblemInstance::molecule(Molecule::H2);
        let _ = LandscapeSource::Exact.generate(&p, &grid(4, 4), 0);
    }
}
