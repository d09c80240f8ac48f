//! # oscar — compressed-sensing debugging for variational quantum algorithms
//!
//! Meta-crate for the OSCAR reproduction (ISCA 2023: *Enabling High
//! Performance Debugging for Variational Quantum Algorithms using
//! Compressed Sensing*). Re-exports every subsystem:
//!
//! * [`qsim`] — state-vector quantum simulator substrate;
//! * [`problems`] — MaxCut / SK / molecular workloads and ansatzes;
//! * [`cs`] — DCT bases and sparse recovery (FISTA);
//! * [`optim`] — ADAM, COBYLA, Nelder–Mead, SPSA with query accounting;
//! * [`mitigation`] — noise models, ZNE, readout mitigation;
//! * [`executor`] — multi-QPU devices, latency model, NCM, eager sampling;
//! * [`core`] — the OSCAR reconstruction pipeline and use cases;
//! * [`par`] — persistent worker pool and data-parallel helpers;
//! * [`obs`] — observability substrate: atomic metrics registry,
//!   log2 latency histograms, and per-job stage-span tracing;
//! * [`runtime`] — batch job scheduler and plan/landscape caching for
//!   streams of reconstructions;
//! * [`serve`] — the `oscar-serve` batch service daemon: line-delimited
//!   JSON over Unix/TCP sockets with admission control, deadlines, and
//!   graceful drain.
//!
//! # Quickstart
//!
//! ```
//! use oscar::core::prelude::*;
//! use oscar::problems::ising::IsingProblem;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let problem = IsingProblem::random_3_regular(8, &mut rng);
//! let truth = Landscape::from_qaoa(Grid2d::small_p1(20, 28), &problem.qaoa_evaluator());
//! let report = Reconstructor::default().reconstruct_fraction(&truth, 0.15, &mut rng);
//! println!("reconstructed with NRMSE {:.4}", report.nrmse);
//! # assert!(report.nrmse < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use oscar_core as core;
pub use oscar_cs as cs;
pub use oscar_executor as executor;
pub use oscar_mitigation as mitigation;
pub use oscar_obs as obs;
pub use oscar_optim as optim;
pub use oscar_par as par;
pub use oscar_problems as problems;
pub use oscar_qsim as qsim;
pub use oscar_runtime as runtime;
pub use oscar_serve as serve;
