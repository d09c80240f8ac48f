//! Simulated QPU devices.
//!
//! A [`QpuDevice`] bundles a problem-specific QAOA evaluator with a device
//! noise configuration and a latency model. Devices stand in for the
//! paper's IBM Lagos / IBM Perth machines and for ideal/noisy simulators
//! (substitution documented in DESIGN.md): each produces expectation
//! values whose systematic bias is determined by its own noise config,
//! which is exactly the property the Noise Compensation Model experiments
//! (Figure 8, Table 5) exercise.

use crate::latency::LatencyModel;
use oscar_mitigation::model::NoiseModel;
use oscar_problems::ansatz::Ansatz;
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, VqeEvaluator};
use oscar_qsim::circuit::GateCounts;
use oscar_qsim::fingerprint::{tag, Fingerprint};
use oscar_qsim::noise::ReadoutError;
use oscar_qsim::qaoa::QaoaEvaluator;
use oscar_qsim::rng::CounterRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Every device name [`DeviceSpec::by_name`] can resolve. The entries
/// are the paper's device/simulator lineup (Table 5): ideal and noisy
/// simulators plus simulated stand-ins for the IBM Perth/Lagos
/// machines.
pub const KNOWN_DEVICES: [&str; 7] = [
    "ideal sim",
    "noisy sim-i",
    "noisy sim-ii",
    "noisy sim",
    "zne sim",
    "ibm perth",
    "ibm lagos",
];

/// A problem-independent description of a simulated device: everything
/// needed to build a [`QpuDevice`] for any problem instance, and to
/// fingerprint the device for cache keys.
///
/// Where [`QpuDevice`] is a live, problem-bound executor (it owns the
/// transpiled gate counts and an evaluator), a `DeviceSpec` is the
/// *recipe*: it travels inside job specs, hashes stably, and is cheap to
/// clone.
///
/// # Examples
///
/// ```
/// use oscar_executor::device::DeviceSpec;
///
/// let spec = DeviceSpec::by_name("ibm perth").unwrap();
/// assert_eq!(spec.name, "ibm perth");
/// assert!(DeviceSpec::by_name("ibm osaka").is_none());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Device name (the registry key for known devices).
    pub name: String,
    /// Noise configuration the device applies to every execution.
    pub noise: NoiseModel,
    /// QAOA depth used when transpiling for physical gate counts.
    pub p: usize,
}

impl DeviceSpec {
    /// A custom device at QAOA depth 1.
    pub fn new(name: &str, noise: NoiseModel) -> Self {
        DeviceSpec {
            name: name.to_string(),
            noise,
            p: 1,
        }
    }

    /// Looks up one of the [`KNOWN_DEVICES`] presets by name.
    pub fn by_name(name: &str) -> Option<Self> {
        let noise = match name {
            "ideal sim" => NoiseModel::ideal(),
            "noisy sim-i" => NoiseModel::depolarizing(0.001, 0.005),
            "noisy sim-ii" => NoiseModel::depolarizing(0.003, 0.007),
            "noisy sim" => NoiseModel::depolarizing(0.002, 0.006).with_shots(4096),
            // Figures 9/10/13's ZNE device: heavy two-qubit noise plus
            // finite shots, so Richardson's {3,-3,1} weights amplify the
            // shot noise into the salt-like jaggedness the paper studies.
            "zne sim" => NoiseModel::depolarizing(0.001, 0.02).with_shots(2048),
            "ibm perth" => NoiseModel::depolarizing(0.0008, 0.009)
                .with_readout(ReadoutError::new(0.02, 0.025))
                .with_shots(4096),
            "ibm lagos" => NoiseModel::depolarizing(0.0005, 0.006)
                .with_readout(ReadoutError::new(0.012, 0.015))
                .with_shots(4096),
            _ => return None,
        };
        Some(DeviceSpec::new(name, noise))
    }

    /// The same device with its shot count overridden to `shots` — the
    /// sweep axis the paper's noisy experiments vary independently of
    /// the device (fig bins and `oscar-batch --shots` both use it).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn with_shots(self, shots: usize) -> Self {
        DeviceSpec {
            noise: self.noise.with_shots(shots),
            ..self
        }
    }

    /// The same device transpiling for QAOA depth `p` — deeper circuits
    /// have more physical gates, so the same noise rates damp harder.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn with_depth(self, p: usize) -> Self {
        assert!(p > 0, "QAOA depth must be at least 1");
        DeviceSpec { p, ..self }
    }

    /// Stable 128-bit fingerprint of the spec (name, exact noise bit
    /// patterns, depth) — folds into landscape cache keys so landscapes
    /// from different devices never collide. Process-stable
    /// (FNV-1a-128 over the canonical encoding,
    /// [`oscar_qsim::fingerprint`]): the persistent landscape store
    /// keys entries by it across restarts and toolchains.
    ///
    /// Canonical encoding: `tag::DEVICE`, name (length-prefixed),
    /// depolarizing `p1`/`p2`, readout `p01`/`p10` (f64 bit patterns),
    /// the optional shot count, the QAOA depth.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fingerprint::new();
        h.write_u8(tag::DEVICE);
        h.write_str(&self.name);
        h.write_f64(self.noise.depolarizing.p1);
        h.write_f64(self.noise.depolarizing.p2);
        h.write_f64(self.noise.readout.p01);
        h.write_f64(self.noise.readout.p10);
        h.write_opt_u64(self.noise.shots.map(|s| s as u64));
        h.write_usize(self.p);
        h.finish()
    }

    /// Builds the live device for `problem` (instant latency, internal
    /// RNG seeded with `seed`; the deterministic
    /// [`QpuDevice::execute_scaled_at`] path ignores that internal stream).
    pub fn build(&self, problem: &IsingProblem, seed: u64) -> QpuDevice {
        QpuDevice::new(
            &self.name,
            problem,
            self.p,
            self.noise,
            LatencyModel::instant(),
            seed,
        )
    }

    /// Builds the live VQE device for `molecule` (the molecular analogue
    /// of [`Self::build`]; the spec's QAOA depth does not apply — the
    /// molecule's reference ansatz fixes the circuit).
    pub fn build_vqe(&self, molecule: Molecule) -> VqeDevice {
        VqeDevice::new(&self.name, molecule, self.noise)
    }
}

/// A simulated quantum processing unit executing QAOA circuits.
///
/// Thread-safe: `execute` may be called concurrently from the parallel
/// executor (the internal RNG is mutex-protected).
///
/// # Examples
///
/// ```
/// use oscar_executor::device::QpuDevice;
/// use oscar_executor::latency::LatencyModel;
/// use oscar_mitigation::model::NoiseModel;
/// use oscar_problems::ising::IsingProblem;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let problem = IsingProblem::random_3_regular(8, &mut rng);
/// let qpu = QpuDevice::new("sim", &problem, 1, NoiseModel::ideal(), LatencyModel::instant(), 0);
/// let e = qpu.execute(&[0.2], &[0.5]);
/// assert!(e <= 0.0);
/// ```
#[derive(Debug)]
pub struct QpuDevice {
    name: String,
    noise: NoiseModel,
    latency: LatencyModel,
    evaluator: QaoaEvaluator,
    counts: GateCounts,
    rng: Mutex<StdRng>,
}

impl QpuDevice {
    /// Builds a device for a QAOA problem at depth `p`.
    ///
    /// The physical gate counts come from transpiling the depth-`p` QAOA
    /// ansatz ([`Ansatz::qaoa`]), so the noise damping matches what the
    /// full circuit would suffer on hardware.
    pub fn new(
        name: &str,
        problem: &IsingProblem,
        p: usize,
        noise: NoiseModel,
        latency: LatencyModel,
        seed: u64,
    ) -> Self {
        let counts = Ansatz::qaoa(problem, p).circuit().gate_counts();
        QpuDevice {
            name: name.to_string(),
            noise,
            latency,
            evaluator: problem.qaoa_evaluator(),
            counts,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This device's noise configuration.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// This device's latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Physical gate counts of the transpiled circuit.
    pub fn gate_counts(&self) -> GateCounts {
        self.counts
    }

    /// The underlying ideal evaluator (e.g. for ground-truth landscapes).
    pub fn evaluator(&self) -> &QaoaEvaluator {
        &self.evaluator
    }

    /// Executes the QAOA circuit at the given angles, returning the noisy
    /// expectation value under this device's noise configuration.
    pub fn execute(&self, betas: &[f64], gammas: &[f64]) -> f64 {
        self.execute_scaled(betas, gammas, 1.0)
    }

    /// Executes with the noise amplified by `scale` (ZNE noise scaling via
    /// gate folding: the folded circuit has `scale`x the gates).
    pub fn execute_scaled(&self, betas: &[f64], gammas: &[f64], scale: f64) -> f64 {
        let moments = self.evaluator.moments(betas, gammas);
        let mut rng = self.lock_rng();
        self.noisy_moments_with_rng(moments, scale, &mut *rng)
    }

    /// The noise half of an execution: this device's noise at scale
    /// `scale` applied to already-simulated ideal `moments` (`(<C>,
    /// Var[C])` from [`QaoaEvaluator::moments`]).
    fn noisy_moments_with_rng<R: Rng + ?Sized>(
        &self,
        moments: (f64, f64),
        scale: f64,
        rng: &mut R,
    ) -> f64 {
        let (ideal, var) = moments;
        let mixed = self.evaluator.diagonal_mean();
        self.noise
            .scaled(scale)
            .noisy_expectation(ideal, var, mixed, self.counts, rng)
    }

    /// Deterministic noise-scaled execution: noise is drawn from a
    /// [`CounterRng`] keyed by `(seed, stream)`, with the depolarizing
    /// rates amplified by ZNE noise scale `scale` (gate folding). The
    /// value is a pure function of `(angles, scale, seed, stream)`,
    /// identical no matter how many other executions ran before it, on
    /// how many threads; callers evaluating a landscape pass the
    /// experiment seed and the flat grid-point index as the stream.
    pub fn execute_scaled_at(
        &self,
        betas: &[f64],
        gammas: &[f64],
        scale: f64,
        seed: u64,
        stream: u64,
    ) -> f64 {
        self.noisy_moments_at(self.evaluator.moments(betas, gammas), scale, seed, stream)
    }

    /// [`Self::execute_scaled_at`] on already-simulated ideal `moments`
    /// (from [`QaoaEvaluator::moments`]): bit-identical to it for the
    /// moments of the same angles. Costs no simulation, so the moments
    /// of one point can serve every ZNE scale.
    pub fn noisy_moments_at(&self, moments: (f64, f64), scale: f64, seed: u64, stream: u64) -> f64 {
        self.noisy_moments_with_rng(moments, scale, &mut CounterRng::new(seed, stream))
    }

    /// Executes and also samples the simulated job latency (queue +
    /// execution), in simulated seconds.
    pub fn execute_timed(&self, betas: &[f64], gammas: &[f64]) -> (f64, f64) {
        let value = self.execute(betas, gammas);
        let mut rng = self.lock_rng();
        let latency = self.latency.sample(&mut *rng);
        (value, latency)
    }

    /// Locks the device RNG, tolerating poisoning (a panicked worker must
    /// not wedge every later execution).
    fn lock_rng(&self) -> std::sync::MutexGuard<'_, StdRng> {
        self.rng.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A simulated device executing molecular VQE circuits — the workload
/// counterpart of [`QpuDevice`] for [`Molecule`] problems.
///
/// Where the QAOA device takes `(betas, gammas)`, a VQE execution takes
/// the flat ansatz parameter vector. Noise follows the same model: the
/// ideal statevector moments pass through
/// [`NoiseModel::noisy_expectation`] with gate counts transpiled from
/// the molecule's reference ansatz and the mixed-state mean fixed by the
/// Hamiltonian's identity component (Pauli terms are traceless).
///
/// Only the deterministic counter-RNG execution paths are offered: VQE
/// landscapes are always generated through the reproducible-by-index
/// discipline, so there is no internal sequential stream to misuse.
#[derive(Debug)]
pub struct VqeDevice {
    name: String,
    noise: NoiseModel,
    evaluator: VqeEvaluator,
    counts: GateCounts,
    mixed: f64,
}

impl VqeDevice {
    /// Builds a device for a molecule's reference UCCSD-style ansatz.
    pub fn new(name: &str, molecule: Molecule, noise: NoiseModel) -> Self {
        let evaluator = VqeEvaluator::new(molecule);
        let counts = evaluator.ansatz().circuit().gate_counts();
        let mixed = evaluator.hamiltonian().constant();
        VqeDevice {
            name: name.to_string(),
            noise,
            evaluator,
            counts,
            mixed,
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This device's noise configuration.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Physical gate counts of the transpiled ansatz circuit.
    pub fn gate_counts(&self) -> GateCounts {
        self.counts
    }

    /// The underlying ideal evaluator (e.g. for ground-truth landscapes).
    pub fn evaluator(&self) -> &VqeEvaluator {
        &self.evaluator
    }

    /// Deterministic noise-scaled execution keyed by `(seed, stream)`:
    /// the VQE analogue of [`QpuDevice::execute_scaled_at`], a pure
    /// function of `(params, scale, seed, stream)` regardless of
    /// execution order or thread count.
    pub fn execute_scaled_at(&self, params: &[f64], scale: f64, seed: u64, stream: u64) -> f64 {
        self.noisy_moments_at(self.evaluator.moments(params), scale, seed, stream)
    }

    /// [`Self::execute_scaled_at`] on already-simulated ideal `moments`
    /// (from [`VqeEvaluator::moments`]): bit-identical to it for the
    /// moments of the same parameters — the VQE analogue of
    /// [`QpuDevice::noisy_moments_at`].
    pub fn noisy_moments_at(&self, moments: (f64, f64), scale: f64, seed: u64, stream: u64) -> f64 {
        let (ideal, var) = moments;
        let mut rng = CounterRng::new(seed, stream);
        self.noise
            .scaled(scale)
            .noisy_expectation(ideal, var, self.mixed, self.counts, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_qsim::noise::ReadoutError;

    fn problem() -> IsingProblem {
        let mut rng = StdRng::seed_from_u64(5);
        IsingProblem::random_3_regular(8, &mut rng)
    }

    #[test]
    fn ideal_device_matches_evaluator() {
        let p = problem();
        let qpu = QpuDevice::new(
            "ideal",
            &p,
            1,
            NoiseModel::ideal(),
            LatencyModel::instant(),
            0,
        );
        let direct = p.qaoa_evaluator().expectation(&[0.3], &[0.7]);
        assert!((qpu.execute(&[0.3], &[0.7]) - direct).abs() < 1e-12);
    }

    #[test]
    fn noisy_device_biases_toward_mixed() {
        let p = problem();
        let noise = NoiseModel::depolarizing(0.003, 0.007);
        let qpu = QpuDevice::new("noisy", &p, 1, noise, LatencyModel::instant(), 0);
        let ideal = p.qaoa_evaluator().expectation(&[-0.2], &[0.6]);
        let noisy = qpu.execute(&[-0.2], &[0.6]);
        let mixed = p.qaoa_evaluator().diagonal_mean();
        // noisy lies strictly between ideal and mixed.
        let lo = ideal.min(mixed);
        let hi = ideal.max(mixed);
        assert!(noisy > lo && noisy < hi, "{lo} < {noisy} < {hi} violated");
    }

    #[test]
    fn different_noise_devices_disagree() {
        let p = problem();
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
            0,
        );
        let e1 = q1.execute(&[0.25], &[0.5]);
        let e2 = q2.execute(&[0.25], &[0.5]);
        assert!(
            (e1 - e2).abs() > 1e-4,
            "devices should differ: {e1} vs {e2}"
        );
    }

    #[test]
    fn shot_noise_varies_between_calls() {
        let p = problem();
        let noise = NoiseModel::ideal().with_shots(256);
        let qpu = QpuDevice::new("shots", &p, 1, noise, LatencyModel::instant(), 3);
        let a = qpu.execute(&[0.1], &[0.1]);
        let b = qpu.execute(&[0.1], &[0.1]);
        assert_ne!(a, b);
    }

    #[test]
    fn scaled_execution_damps_more() {
        let p = problem();
        let noise = NoiseModel::depolarizing(0.002, 0.006);
        let qpu = QpuDevice::new("zne", &p, 1, noise, LatencyModel::instant(), 0);
        let mixed = p.qaoa_evaluator().diagonal_mean();
        let e1 = qpu.execute_scaled(&[0.2], &[0.6], 1.0);
        let e3 = qpu.execute_scaled(&[0.2], &[0.6], 3.0);
        assert!(
            (e3 - mixed).abs() < (e1 - mixed).abs(),
            "scale-3 should be closer to mixed: {e1} vs {e3} (mixed {mixed})"
        );
    }

    #[test]
    fn readout_noise_applies() {
        let p = problem();
        let noise = NoiseModel::ideal().with_readout(ReadoutError::new(0.05, 0.05));
        let qpu = QpuDevice::new("ro", &p, 1, noise, LatencyModel::instant(), 0);
        let ideal = p.qaoa_evaluator().expectation(&[0.2], &[0.6]);
        let noisy = qpu.execute(&[0.2], &[0.6]);
        assert!((noisy - ideal).abs() > 1e-6);
    }

    #[test]
    fn zne_on_device_beats_unmitigated() {
        use oscar_mitigation::zne::ZneConfig;
        let p = problem();
        let noise = NoiseModel::depolarizing(0.002, 0.006);
        let qpu = QpuDevice::new("zne2", &p, 1, noise, LatencyModel::instant(), 0);
        let ideal = p.qaoa_evaluator().expectation(&[0.25], &[0.55]);
        let raw = qpu.execute(&[0.25], &[0.55]);
        let mitigated = ZneConfig::richardson_123()
            .extrapolate(&mut |c| qpu.execute_scaled(&[0.25], &[0.55], c));
        assert!(
            (mitigated - ideal).abs() < (raw - ideal).abs(),
            "ZNE {mitigated} should beat raw {raw} (ideal {ideal})"
        );
    }

    #[test]
    fn scaled_at_is_order_independent() {
        let p = problem();
        let noise = NoiseModel::depolarizing(0.002, 0.006).with_shots(512);
        let qpu = QpuDevice::new("det", &p, 1, noise, LatencyModel::instant(), 0);
        let at = |seed: u64, stream: u64| qpu.execute_scaled_at(&[0.2], &[0.6], 1.0, seed, stream);
        let reference = at(7, 3);
        // Burn the internal stream and hit other (seed, stream) pairs:
        // the deterministic path must not care.
        for k in 0..10 {
            let _ = qpu.execute(&[0.1], &[0.1]);
            let _ = at(7, 100 + k);
        }
        assert_eq!(at(7, 3).to_bits(), reference.to_bits());
        // Distinct seeds and streams give distinct noise realizations.
        assert_ne!(at(8, 3), reference);
        assert_ne!(at(7, 4), reference);
    }

    #[test]
    fn scaled_at_matches_noisy_moments_at_on_every_scale() {
        let p = problem();
        let noise = NoiseModel::depolarizing(0.002, 0.006).with_shots(512);
        let qpu = QpuDevice::new("det-zne", &p, 1, noise, LatencyModel::instant(), 0);
        let moments = p.qaoa_evaluator().moments(&[0.2], &[0.6]);
        for scale in [1.0, 3.0] {
            let a = qpu.execute_scaled_at(&[0.2], &[0.6], scale, 7, 3);
            assert_eq!(
                a.to_bits(),
                qpu.noisy_moments_at(moments, scale, 7, 3).to_bits()
            );
            assert_eq!(
                a.to_bits(),
                qpu.execute_scaled_at(&[0.2], &[0.6], scale, 7, 3).to_bits()
            );
        }
        // Other scales are genuinely scaled.
        assert_ne!(
            qpu.execute_scaled_at(&[0.2], &[0.6], 3.0, 7, 3).to_bits(),
            qpu.execute_scaled_at(&[0.2], &[0.6], 1.0, 7, 3).to_bits()
        );
    }

    #[test]
    fn spec_with_shots_overrides_and_refingerprints() {
        let base = DeviceSpec::by_name("zne sim").unwrap();
        assert_eq!(base.noise.shots, Some(2048));
        let few = base.clone().with_shots(192);
        assert_eq!(few.noise.shots, Some(192));
        assert_eq!(few.name, base.name);
        assert_ne!(few.fingerprint(), base.fingerprint());
    }

    #[test]
    fn device_spec_registry_resolves_every_known_name() {
        for name in KNOWN_DEVICES {
            let spec = DeviceSpec::by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(spec.name, name);
            let qpu = spec.build(&problem(), 0);
            assert!(qpu.execute_scaled_at(&[0.2], &[0.5], 1.0, 1, 0).is_finite());
        }
        assert!(DeviceSpec::by_name("ibm osaka").is_none());
    }

    #[test]
    fn device_spec_fingerprints_separate_devices() {
        let mut seen = std::collections::HashSet::new();
        for name in KNOWN_DEVICES {
            assert!(
                seen.insert(DeviceSpec::by_name(name).unwrap().fingerprint()),
                "fingerprint collision for {name}"
            );
        }
        // The fingerprint tracks the noise config, not just the name.
        let a = DeviceSpec::new("x", NoiseModel::depolarizing(0.001, 0.005));
        let b = DeviceSpec::new("x", NoiseModel::depolarizing(0.001, 0.005).with_shots(1024));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn vqe_device_ideal_matches_evaluator() {
        let dev = VqeDevice::new("ideal", Molecule::H2, NoiseModel::ideal());
        let params = [0.2, -0.4, 0.7];
        let direct = dev.evaluator().expectation(&params);
        assert!((dev.execute_scaled_at(&params, 1.0, 0, 0) - direct).abs() < 1e-12);
    }

    #[test]
    fn vqe_device_scaled_at_is_order_independent() {
        let noise = NoiseModel::depolarizing(0.002, 0.006).with_shots(512);
        let dev = VqeDevice::new("det", Molecule::H2, noise);
        let params = [0.1, 0.3, -0.2];
        let at = |seed: u64, stream: u64| dev.execute_scaled_at(&params, 1.0, seed, stream);
        let reference = at(7, 3);
        for k in 0..10 {
            let _ = at(7, 100 + k);
        }
        assert_eq!(at(7, 3).to_bits(), reference.to_bits());
        assert_ne!(at(8, 3), reference);
        assert_ne!(at(7, 4), reference);
        // The moments path is bit-identical at every scale.
        let moments = dev.evaluator().moments(&params);
        for scale in [1.0, 3.0] {
            assert_eq!(
                dev.execute_scaled_at(&params, scale, 7, 3).to_bits(),
                dev.noisy_moments_at(moments, scale, 7, 3).to_bits()
            );
        }
    }

    #[test]
    fn vqe_device_noise_biases_toward_constant() {
        let dev = VqeDevice::new(
            "noisy",
            Molecule::LiH,
            NoiseModel::depolarizing(0.003, 0.007),
        );
        let params = [0.1; 8];
        let ideal = dev.evaluator().expectation(&params);
        let noisy = dev.execute_scaled_at(&params, 1.0, 0, 0);
        let mixed = dev.evaluator().hamiltonian().constant();
        let lo = ideal.min(mixed);
        let hi = ideal.max(mixed);
        assert!(noisy > lo && noisy < hi, "{lo} < {noisy} < {hi} violated");
    }

    #[test]
    fn spec_with_depth_changes_fingerprint_and_damping() {
        let base = DeviceSpec::by_name("noisy sim-i").unwrap();
        let deep = base.clone().with_depth(2);
        assert_eq!(deep.p, 2);
        assert_ne!(deep.fingerprint(), base.fingerprint());
        // Same angles, more gates -> closer to the mixed value.
        let p = problem();
        let mixed = p.qaoa_evaluator().diagonal_mean();
        let q1 = base.build(&p, 0);
        let q2 = deep.build(&p, 0);
        let e1 = q1.execute_scaled_at(&[0.2, 0.0], &[0.5, 0.0], 1.0, 1, 0);
        let e2 = q2.execute_scaled_at(&[0.2, 0.0], &[0.5, 0.0], 1.0, 1, 0);
        assert!(
            (e2 - mixed).abs() < (e1 - mixed).abs(),
            "depth-2 should damp harder: {e1} vs {e2} (mixed {mixed})"
        );
    }

    #[test]
    fn timed_execution_reports_latency() {
        let p = problem();
        let qpu = QpuDevice::new(
            "timed",
            &p,
            1,
            NoiseModel::ideal(),
            LatencyModel::cloud_queue(),
            1,
        );
        let (_, t) = qpu.execute_timed(&[0.1], &[0.2]);
        assert!(t > 0.0);
    }
}
