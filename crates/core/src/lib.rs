//! # oscar-core — compressed-sensing VQA landscape reconstruction
//!
//! The primary contribution of the reproduced paper (*Enabling High
//! Performance Debugging for Variational Quantum Algorithms using
//! Compressed Sensing*, ISCA 2023): OSCAR reconstructs an entire VQA cost
//! landscape from a small random subset of circuit executions by
//! exploiting the landscape's sparsity in the DCT domain, then drives
//! three debugging use cases on top of the reconstruction.
//!
//! * [`grid`] / [`landscape`] — parameter grids (paper Table 1) and
//!   landscapes over them: one type for every rank,
//!   [`landscape::NdLandscape`], with the 2-D grid's
//!   [`landscape::Landscape`] as its rank-2 view;
//! * [`reconstruct::Reconstructor`] — the sampling + FISTA recovery
//!   pipeline, one path for grids and tensors;
//! * [`metrics`] — NRMSE and the landscape-shape metrics (Eqs. 1–4);
//! * [`interpolate`] — rectangular bivariate splines for instant
//!   optimizer queries;
//! * [`reshape`] — the 4-D → 2-D reshaping used for p=2 QAOA;
//! * [`usecases`] — noise-mitigation benchmarking, optimizer debugging,
//!   and OSCAR-based initialization.
//!
//! # Example
//!
//! ```
//! use oscar_core::prelude::*;
//! use oscar_problems::ising::IsingProblem;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let problem = IsingProblem::random_3_regular(8, &mut rng);
//! let truth = Landscape::from_qaoa(Grid2d::small_p1(20, 28), &problem.qaoa_evaluator());
//! let report = Reconstructor::default().reconstruct_fraction(&truth, 0.2, &mut rng);
//! assert!(report.nrmse < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod grid;
pub mod interpolate;
pub mod landscape;
pub mod metrics;
pub mod reconstruct;
pub mod reshape;
pub mod usecases;

/// Glob-import of the most used types.
pub mod prelude {
    pub use crate::grid::{Axis, Grid2d, Grid4d, Shape, TensorShape};
    pub use crate::interpolate::{BivariateSpline, CubicSpline, MultilinearInterp};
    pub use crate::landscape::{Landscape, NdLandscape, ShapedLandscape};
    pub use crate::metrics::{nrmse, LandscapeMetrics};
    pub use crate::reconstruct::{NdReconstructionReport, ReconstructionReport, Reconstructor};
    pub use crate::usecases::initialization::{compare_initialization, InitializationReport};
    pub use crate::usecases::mitigation::{MitigationMetrics, ZneLandscapes};
    pub use crate::usecases::optimizer_debug::{
        compare_paths, optimize_on_reconstruction, optimize_on_reconstruction_nd, PathComparison,
    };
    pub use crate::usecases::slices::{slice_reconstruction, SliceConfig, SliceReport};
}
