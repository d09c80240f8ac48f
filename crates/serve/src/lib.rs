//! `oscar-serve`: a fault-tolerant batch service daemon over the OSCAR
//! runtime.
//!
//! One daemon owns one [`BatchRuntime`] and speaks line-delimited JSON
//! over a Unix socket (or TCP): `submit`, `cancel`, `status`, `wait`,
//! `stats`, and `drain` verbs. The crate is std-only — the wire format
//! ([`json`]), the protocol ([`proto`]), the admission policy
//! ([`admission`]), the daemon ([`daemon`]), and a well-behaved client
//! ([`client`]) are all hand-rolled, with a deterministic
//! fault-injection harness (the `fault` module, behind the `fault` feature)
//! scripting the misbehaviour the integration suite asserts against.
//!
//! The design centers on four robustness layers (see [`daemon`] for
//! the full contract): bounded admission with structured
//! `retry_after_ms` rejects, deadline-aware scheduling with
//! server-side expiry, failure containment (protocol errors, client
//! disconnects, executor panics), and graceful drain on the `drain`
//! verb or SIGTERM.
//!
//! Results are bit-identical to the library path: a `submit` body maps
//! to a [`proto::SubmitReq`] whose [`proto::SubmitReq::to_spec`] is
//! the single source of truth, so `oscar_runtime::run_job` on the same
//! request reproduces the served result exactly (the wire carries an
//! FNV-1a checksum over the result's f64 bit patterns as proof).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod client;
pub mod daemon;
#[cfg(feature = "fault")]
pub mod fault;
pub mod json;
pub mod proto;

pub use client::Client;
pub use daemon::{spawn_tcp, spawn_unix, DaemonHandle, ServeConfig, ServerState};
pub use json::Json;
pub use proto::{result_checksum, ErrorCode, SubmitReq};

// Referenced by the crate docs.
#[allow(unused_imports)]
use oscar_runtime::scheduler::BatchRuntime;
