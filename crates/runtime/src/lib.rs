//! # oscar-runtime — persistent runtime for streams of reconstructions
//!
//! PR 1 made a *single* reconstruction fast; this crate is the layer
//! that makes a *stream* of them fast. It amortizes three kinds of
//! state across jobs that the per-call pipeline used to rebuild every
//! time:
//!
//! * **Threads** — all data-parallel kernels run on the lazily
//!   initialized persistent worker pool in `oscar-par`
//!   ([`oscar_par::pool`]): chunk-stealing workers spawned once per
//!   process, shared by every concurrent job, zero spawn cost per
//!   parallel apply in steady state.
//! * **FFT/DCT plans** — twiddle tables (mixed-radix stage tables,
//!   Bluestein chirps) are cached per transform size
//!   ([`oscar_cs::plan_cache`]), so a batch of jobs at one grid side
//!   plans once, on the cheapest decomposition for that side.
//! * **Landscapes** — ground-truth landscapes (a full grid of circuit
//!   evaluations, the most expensive stage) live in a bounded LRU
//!   ([`cache::LandscapeCache`]) keyed by `(problem, shape, seed)`, so
//!   parameter sweeps that revisit an instance skip straight to
//!   reconstruction. An optional persistent disk tier
//!   ([`store::LandscapeStore`], [`scheduler::RuntimeConfig::store`])
//!   carries those landscapes across process restarts: keys are
//!   process-stable 128-bit fingerprints
//!   ([`oscar_qsim::fingerprint`]), entries are checksummed, and any
//!   corrupt entry degrades to a miss.
//!
//! Jobs are generic over both the **problem kind** — MaxCut or SK-model
//! QAOA at any depth, or molecular VQE (H2, LiH UCCSD ansätze) — and
//! the **landscape shape**: depth-1 QAOA runs on the paper's 2-D
//! `(beta, gamma)` grid, while deeper QAOA and VQE scans run on N-D
//! tensors ([`oscar_core::grid::Shape`]) through the same sampling,
//! mitigation, reconstruction, and descent stages
//! ([`job::JobSpec::shaped`]).
//!
//! On top sits the [`scheduler::BatchRuntime`]: a bounded-concurrency
//! batch scheduler with a submit/handle API — priority levels
//! ([`scheduler::Priority`]) with FIFO tie-break and cheap per-job
//! cancellation ([`scheduler::JobHandle::cancel`]) — that pipelines
//! *landscape sampling → mitigation → CS reconstruction →
//! optimization* per job ([`job::run_job`]) and drains many jobs
//! across the pool. Stage 1 runs through the spec's
//! [`source::LandscapeSource`]: exact noiseless simulation, or a noisy
//! simulated device whose per-point noise comes from a counter-based
//! RNG keyed by `(landscape_seed, point_index)`. The spec's
//! [`mitigation::Mitigation`] then post-processes the landscape (ZNE
//! with individually cached per-factor landscapes, readout inversion,
//! Gaussian smoothing), and [`descent::Descent`] selects the stage-3
//! optimizer (the full `oscar-optim` lineup, SPSA seeded from the job
//! seed). Results are deterministic along every axis: a
//! [`job::JobSpec`] fully determines its [`job::JobResult`],
//! bit-identical whether the job runs inline, alone, or interleaved
//! with dozens of others on any number of executors.
//!
//! The `oscar-batch` binary (in `oscar-bench`) drives this end to end
//! from a job-list file and reports per-job latency and aggregate
//! throughput.
//!
//! # Example
//!
//! ```
//! use oscar_runtime::job::JobSpec;
//! use oscar_runtime::scheduler::{BatchRuntime, RuntimeConfig};
//! use oscar_core::grid::Grid2d;
//! use oscar_problems::ising::IsingProblem;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let problem = IsingProblem::random_3_regular(6, &mut rng);
//! let runtime = BatchRuntime::new(RuntimeConfig {
//!     concurrency: 2,
//!     ..RuntimeConfig::default()
//! });
//! // Four sampling seeds over one instance: the ground-truth landscape
//! // is computed once and served from the cache three times.
//! let jobs = (0..4).map(|seed| {
//!     JobSpec::new(problem.clone(), Grid2d::small_p1(10, 12), 0.3, seed)
//! });
//! let results = runtime.run_batch(jobs).expect("no job panicked");
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.nrmse < 0.3));
//! // In-flight dedup: exactly one job computes the landscape, the
//! // other three hit (waiting out the computation counts as a hit).
//! assert!(runtime.cache_stats().hits >= 3);
//! assert_eq!(runtime.cache_stats().misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod descent;
pub mod job;
pub mod mitigation;
pub mod scheduler;
pub mod source;
pub mod store;

pub use cache::{CacheStats, KeyClass, LandscapeCache, LandscapeKey};
pub use descent::Descent;
pub use job::{default_vqe_shape, run_job, JobResult, JobSpec};
pub use mitigation::{mitigated_landscape, Mitigation};
pub use scheduler::{
    BatchRuntime, JobHandle, JobLost, JobStatus, Priority, RuntimeConfig, SubmitOptions,
};
pub use source::LandscapeSource;
pub use store::{store_stats, LandscapeStore, StoreStats};
