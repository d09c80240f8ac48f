//! # oscar-cs — compressed sensing for landscape reconstruction
//!
//! The mathematical core of OSCAR (paper §4 and Appendix A):
//!
//! * [`dct`] — orthonormal DCT-II/III in 1-D and separable N-D form
//!   (one engine for every rank; `Dct2d` is its rank-2 name), the
//!   sparsifying basis `Ψ`, with interchangeable dense (O(n²), tiny
//!   sizes + test oracle) and FFT (O(n log n), default from `n >= 32`,
//!   two lines per complex DFT) kernels;
//! * [`fft`] — the FFT machinery behind the fast kernel: radix-2 for
//!   powers of two, Stockham mixed-radix (dedicated 2/3/4/5
//!   butterflies) for every other size with a prime factor `<= 31` —
//!   which covers the paper's 50/100/144/225 grid sides natively — and
//!   Bluestein chirp-z only for large-prime lengths;
//! * [`plan_cache`] — process-wide per-size plan cache so concurrent
//!   jobs at the same grid side share twiddle/chirp tables (each on
//!   the cheapest decomposition for its size) and DCT synthesis tables;
//! * [`measure`] — random sampling patterns and the measurement operator
//!   `A = C Ψ` with its adjoint, one of each for every rank
//!   (`SamplePattern` and `MeasurementOperator` are their rank-2 names);
//!   the operator evaluates only the sampled points where that costs
//!   less than a full transform;
//! * [`fista`] — the sparse solver: FISTA for the l1 (LASSO) recovery
//!   program, then an exact least-squares refit of the recovered support;
//! * [`workspace`] — reusable scratch making the solver hot loops
//!   allocation-free in steady state;
//! * [`analysis`] — DCT energy-compaction metrics (Table 4).
//!
//! # Example
//!
//! Recover a sparse 10x10 landscape from 35% of its points (any other
//! shape, of any rank, goes through the same three types):
//!
//! ```
//! use oscar_cs::prelude::*;
//! use rand::SeedableRng;
//!
//! let dct = DctNd::new(&[10, 10]);
//! let mut coeffs = vec![0.0; 100];
//! coeffs[0] = 4.0;
//! coeffs[21] = -1.0;
//! let landscape = dct.inverse(&coeffs);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pattern = NdSamplePattern::random(&[10, 10], 0.35, &mut rng);
//! let y = pattern.gather(&landscape);
//! let op = MeasurementOperatorNd::new(&dct, &pattern);
//! let sol = fista(&op, &y, &FistaConfig::default());
//! let recon = dct.inverse(&sol.coefficients);
//! let err: f64 = recon.iter().zip(&landscape).map(|(a, b)| (a - b).abs()).sum();
//! assert!(err / 100.0 < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod analysis;
pub mod dct;
pub mod fft;
pub mod fista;
pub mod measure;
pub mod plan_cache;
pub mod workspace;

/// Glob-import of the most used types.
pub mod prelude {
    pub use crate::analysis::{dct_energy_fraction_99, energy_fraction, keep_top_k};
    pub use crate::dct::{Dct1d, Dct2d, DctNd, FAST_DCT_THRESHOLD};
    pub use crate::fista::{fista, fista_with, FistaConfig, FistaExit, FistaResult};
    pub use crate::measure::{
        MeasurementOperator, MeasurementOperatorNd, NdSamplePattern, SamplePattern, SensingOperator,
    };
    pub use crate::workspace::Workspace;
}
