//! # oscar-qsim — state-vector quantum simulation substrate
//!
//! This crate is the quantum-execution substrate for the OSCAR reproduction
//! (ISCA 2023: *Enabling High Performance Debugging for Variational Quantum
//! Algorithms using Compressed Sensing*). It provides:
//!
//! * [`complex::C64`] — minimal complex arithmetic (no external deps);
//! * [`pauli`] — Pauli strings and Pauli-sum observables (Hamiltonians);
//! * [`state::StateVector`] — dense `2^n` simulator with the full gate set
//!   needed by QAOA / Two-local / UCCSD ansatzes;
//! * [`circuit::Circuit`] — parameterized circuits with hardware gate
//!   counting and ZNE-style gate folding;
//! * [`noise`] — trajectory-based depolarizing noise and readout error;
//! * [`rng::CounterRng`] — counter-based RNG whose stream is a pure
//!   function of `(seed, stream)`, for noise draws that must not depend
//!   on evaluation order;
//! * [`fingerprint::Fingerprint`] — process-stable FNV-1a-128 over a
//!   canonical byte encoding, for cache keys that persist to disk;
//! * [`qaoa::QaoaEvaluator`] — the fast path for diagonal cost Hamiltonians
//!   that makes dense landscape grids tractable.
//!
//! # Example
//!
//! ```
//! use oscar_qsim::prelude::*;
//!
//! // Bell-state preparation and a ZZ measurement.
//! let mut psi = StateVector::zero_state(2);
//! psi.h(0);
//! psi.cnot(0, 1);
//! let zz = PauliSum::from_strings(vec![PauliString::parse("ZZ", 1.0).unwrap()]);
//! assert!((psi.expectation(&zz) - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod circuit;
pub mod complex;
pub mod fingerprint;
pub mod noise;
pub mod pauli;
pub mod qaoa;
pub mod rng;
pub mod state;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::circuit::{Circuit, GateCounts, Op, Param};
    pub use crate::complex::C64;
    pub use crate::noise::{DepolarizingNoise, ReadoutError};
    pub use crate::pauli::{Pauli, PauliString, PauliSum};
    pub use crate::qaoa::QaoaEvaluator;
    pub use crate::rng::CounterRng;
    pub use crate::state::StateVector;
}
