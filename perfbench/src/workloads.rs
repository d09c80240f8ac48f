//! The three workloads: what each job is, how the system under test is
//! set up, and the closed loop that drives it.
//!
//! Every job of a workload has the same shape, and the landscape cache
//! is either always hit or always missed, so a per-layer change has one
//! workload that exercises it and one that bypasses it:
//!
//! * `paper2d_warm` — depth-1 10-qubit MaxCut on the paper's 50×100
//!   grid, fraction 0.1, exact source, Nelder–Mead. Four instances
//!   whose landscapes are generated in set-up; timed jobs vary only the
//!   sampling seed, so every lookup hits and stage 2 (reconstruction)
//!   is nearly all of the job.
//! * `zne_cold` — 10-qubit MaxCut on a 32×40 grid, fraction 0.2, noisy
//!   `ibm perth` device with Richardson ZNE. Every job has its own
//!   instance and noise seed, so every lookup misses and stage 1
//!   (noisy evaluation at three noise scales) dominates.
//! * `lih_warm` — LiH VQE on its default 3⁸ scan, fraction 0.25. The
//!   one landscape is warmed in set-up. Each job's request and result
//!   pass through `oscar-serve`'s wire codec (JSON encode, parse and
//!   request validation) around a submit to the in-process runtime, so
//!   the codec, the scheduler and the rank-8 transform are timed.

use oscar_core::grid::Grid2d;
use oscar_executor::device::DeviceSpec;
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::Molecule;
use oscar_runtime::{
    run_job, BatchRuntime, JobSpec, LandscapeCache, LandscapeSource, Mitigation, RuntimeConfig,
};
use oscar_serve::proto::{result_to_json, Request};
use oscar_serve::{json, result_checksum, Json, SubmitReq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit 2-D reconstruction on the paper's grid.
    Paper2dWarm,
    /// Cache-miss ZNE-mitigated noisy sweep.
    ZneCold,
    /// Cache-hit LiH VQE scan through the wire codec.
    LihWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper2dWarm, Workload::ZneCold, Workload::LihWarm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper2dWarm => "paper2d_warm",
            Workload::ZneCold => "zne_cold",
            Workload::LihWarm => "lih_warm",
        }
    }

    /// Parses a command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or tiny ones that let the
/// self-test run every workload in about a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Self-test sizes.
    Tiny,
}

/// Seed streams derived from the workload seed.
const STREAM_INSTANCE: u64 = 1;
const STREAM_SAMPLE: u64 = 2;
const STREAM_NOISE: u64 = 3;
const STREAM_WARMUP: u64 = 4;

/// SplitMix64 over `(seed, stream, index)`: independent, reproducible
/// seeds for instances, sampling patterns and noise realizations. Kept
/// to 53 bits, so a seed survives the wire's JSON numbers exactly.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    for _ in 0..2 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z >> 11
}

/// The jobs of one workload run, all derived from the workload seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    scale: Scale,
    /// `paper2d_warm`'s shared instances (empty otherwise).
    instances: Vec<IsingProblem>,
}

impl Plan {
    /// Builds the plan for `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let count = match (workload, scale) {
            (Workload::Paper2dWarm, Scale::Full) => 4,
            (Workload::Paper2dWarm, Scale::Tiny) => 2,
            _ => 0,
        };
        let mut plan = Plan {
            workload,
            seed,
            scale,
            instances: Vec::new(),
        };
        plan.instances = (0..count).map(|i| plan.instance(i)).collect();
        plan
    }

    fn qubits(&self) -> usize {
        match self.scale {
            Scale::Full => 10,
            Scale::Tiny => 6,
        }
    }

    fn instance(&self, index: u64) -> IsingProblem {
        let mut rng = StdRng::seed_from_u64(derive(self.seed, STREAM_INSTANCE, index));
        IsingProblem::random_3_regular(self.qubits(), &mut rng)
    }

    /// Landscapes the set-up must warm: one warm-up job per distinct
    /// landscape of a cache-hit workload, one per executor otherwise.
    pub fn warmup_jobs(&self, executors: usize) -> u64 {
        match self.workload {
            Workload::Paper2dWarm => self.instances.len() as u64,
            Workload::ZneCold | Workload::LihWarm => executors as u64,
        }
    }

    /// Whether timed job `index` reuses the landscape of an earlier
    /// timed job.
    pub fn shares_landscape(&self, index: u64) -> bool {
        match self.workload {
            Workload::Paper2dWarm => index >= self.instances.len() as u64,
            Workload::ZneCold => false,
            Workload::LihWarm => index >= 1,
        }
    }

    /// The in-process spec of timed job `index`.
    pub fn spec(&self, index: u64) -> JobSpec {
        self.spec_on(STREAM_SAMPLE, index)
    }

    /// The spec of set-up warm-up job `index` (a seed stream no timed
    /// job uses, on the same landscapes).
    pub fn warmup_spec(&self, index: u64) -> JobSpec {
        self.spec_on(STREAM_WARMUP, index)
    }

    fn spec_on(&self, stream: u64, index: u64) -> JobSpec {
        let sample_seed = derive(self.seed, stream, index);
        match self.workload {
            Workload::Paper2dWarm => {
                let grid = match self.scale {
                    Scale::Full => Grid2d::standard_p1(),
                    Scale::Tiny => Grid2d::small_p1(10, 12),
                };
                let fraction = match self.scale {
                    Scale::Full => 0.1,
                    Scale::Tiny => 0.3,
                };
                let instance = &self.instances[index as usize % self.instances.len()];
                JobSpec::new(instance.clone(), grid, fraction, sample_seed)
            }
            Workload::ZneCold => {
                // Instance and noise seeds derive from the job's own
                // sampling seed, so no two jobs share a landscape.
                let grid = match self.scale {
                    Scale::Full => Grid2d::small_p1(32, 40),
                    Scale::Tiny => Grid2d::small_p1(8, 10),
                };
                let fraction = match self.scale {
                    Scale::Full => 0.2,
                    Scale::Tiny => 0.3,
                };
                let device = DeviceSpec::by_name("ibm perth").expect("ibm perth is a known device");
                JobSpec::new(self.instance(sample_seed), grid, fraction, sample_seed)
                    .with_source(LandscapeSource::noisy(device))
                    .with_landscape_seed(derive(self.seed, STREAM_NOISE, sample_seed))
                    .with_mitigation(Mitigation::zne_richardson())
            }
            Workload::LihWarm => self
                .request_on(stream, index)
                .to_spec()
                .expect("the benchmark's LiH request is valid"),
        }
    }

    /// The wire request of timed job `index` (`lih_warm`).
    pub fn request(&self, index: u64) -> SubmitReq {
        self.request_on(STREAM_SAMPLE, index)
    }

    fn request_on(&self, stream: u64, index: u64) -> SubmitReq {
        let seed = derive(self.seed, stream, index);
        match self.scale {
            Scale::Full => SubmitReq::vqe(Molecule::LiH, seed, 0.25),
            Scale::Tiny => SubmitReq {
                shape: Some(vec![2; Molecule::LiH.num_params()]),
                ..SubmitReq::vqe(Molecule::LiH, seed, 0.5)
            },
        }
    }
}

/// What the client saw for one timed job.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A result arrived.
    Done(Done),
    /// The runtime reported the job lost (`JobLost`).
    Lost,
}

/// The parts of a finished job the benchmark checks and reports.
#[derive(Clone, Debug)]
pub struct Done {
    /// `oscar_serve::result_checksum` of the result.
    pub checksum: u64,
    /// The job body's wall time as the system reports it.
    pub wall: Duration,
    /// FISTA iterations.
    pub solver_iterations: usize,
}

/// One timed job.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Job index in the plan.
    pub index: u64,
    /// Submit-to-result latency measured by the client.
    pub latency: Duration,
    /// The outcome.
    pub outcome: Outcome,
}

/// Runs a closed loop: one thread per client, each with one job
/// outstanding, taking job indices in order until `seconds` have passed
/// and at least `min_jobs` jobs have started (so a slowed machine still
/// yields enough samples for the percentiles). Jobs in flight at the end
/// finish and count. Returns the samples in index order and the
/// wall-clock from start to the last completion.
pub fn closed_loop<C: Send>(
    clients: Vec<C>,
    seconds: f64,
    min_jobs: u64,
    job: impl Fn(&mut C, u64) -> Result<Sample, String> + Sync,
) -> Result<(Vec<Sample>, Duration), String> {
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let duration = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, samples, job) = (&next, &samples, &job);
                scope.spawn(move || -> Result<(), String> {
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= min_jobs && start.elapsed() >= duration {
                            break;
                        }
                        let sample = job(&mut client, index)?;
                        samples
                            .lock()
                            .expect("no client panics holding the sample list")
                            .push(sample);
                    }
                    Ok(())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    results.into_iter().collect::<Result<(), String>>()?;
    let mut samples = samples.into_inner().expect("client threads have ended");
    samples.sort_by_key(|s| s.index);
    Ok((samples, wall))
}

/// The in-process runtime of `paper2d_warm` and `zne_cold`, with its
/// cache warmed by the plan's warm-up jobs.
pub fn setup_runtime(plan: &Plan, executors: usize) -> Result<BatchRuntime, String> {
    let runtime = BatchRuntime::new(RuntimeConfig {
        concurrency: executors,
        ..RuntimeConfig::default()
    });
    let warmup = (0..plan.warmup_jobs(executors)).map(|k| plan.warmup_spec(k));
    runtime
        .run_batch(warmup)
        .map_err(|e| format!("warm-up job failed: {e}"))?;
    Ok(runtime)
}

/// One timed in-process job: submit to the runtime, wait for the result.
pub fn runtime_job(runtime: &BatchRuntime, plan: &Plan, index: u64) -> Sample {
    let spec = plan.spec(index);
    let start = Instant::now();
    let result = runtime.submit(spec).wait();
    let latency = start.elapsed();
    let outcome = match result {
        Ok(r) => Outcome::Done(Done {
            checksum: result_checksum(&r),
            wall: r.wall,
            solver_iterations: r.solver_iterations,
        }),
        Err(_) => Outcome::Lost,
    };
    Sample {
        index,
        latency,
        outcome,
    }
}

/// One timed `lih_warm` job: the request is encoded, parsed and
/// validated into a spec by `oscar-serve`'s codec, as the daemon does
/// with a `submit` line; the spec runs on the in-process runtime; the
/// result is encoded and parsed back, as a `wait` reply travels to the
/// client. The latency covers all of it.
pub fn wire_job(runtime: &BatchRuntime, plan: &Plan, index: u64) -> Result<Sample, String> {
    let start = Instant::now();
    let line = plan.request(index).to_json().to_string_compact();
    let request = json::parse(&line).map_err(|e| format!("job {index}: request line: {e}"))?;
    let spec = match Request::from_json(&request) {
        Ok(Request::Submit(req)) => req.to_spec(),
        Ok(other) => return Err(format!("job {index}: not a submit: {other:?}")),
        Err(e) => Err(e),
    }
    .map_err(|e| format!("job {index}: request refused: {}", e.message))?;
    let outcome = match runtime.submit(spec).wait() {
        Ok(r) => {
            let line = result_to_json(&r, false).to_string_compact();
            let reply = json::parse(&line).map_err(|e| format!("job {index}: result line: {e}"))?;
            Outcome::Done(
                parse_result(&reply)
                    .ok_or_else(|| format!("job {index}: malformed result {line}"))?,
            )
        }
        Err(_) => Outcome::Lost,
    };
    Ok(Sample {
        index,
        latency: start.elapsed(),
        outcome,
    })
}

/// The parts of a wire result the benchmark checks.
fn parse_result(result: &Json) -> Option<Done> {
    let checksum = u64::from_str_radix(result.get("checksum")?.as_str()?, 16).ok()?;
    let wall_ms = result.get("wall_ms")?.as_f64()?;
    Some(Done {
        checksum,
        wall: Duration::from_secs_f64(wall_ms / 1e3),
        solver_iterations: result.get("solver_iterations")?.as_u64()? as usize,
    })
}

/// The correctness gate, run after the timed phase: every timed job's
/// spec runs again through `run_job`, never through the cache of the
/// system under test. The first job on each landscape runs uncached
/// (`run_job(spec, None)`); later jobs on the same landscape share one
/// the gate generated itself in a cache of its own, so the gate costs
/// about as much as the timed phase instead of regenerating a warm
/// landscape per job. Returns, per sample, the reference checksum and
/// NRMSE.
pub fn reference_results(plan: &Plan, samples: &[Sample], threads: usize) -> Vec<(u64, f64)> {
    let cache = LandscapeCache::new(RuntimeConfig::default().landscape_cache_capacity);
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<(u64, f64)>> = samples.iter().map(|_| Mutex::new((0, 0.0))).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sample) = samples.get(i) else { break };
                let shared = plan.shares_landscape(sample.index).then_some(&cache);
                let reference = run_job(&plan.spec(sample.index), shared);
                *out[i].lock().expect("one writer per slot") =
                    (result_checksum(&reference), reference.nrmse);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("gate threads have ended"))
        .collect()
}
