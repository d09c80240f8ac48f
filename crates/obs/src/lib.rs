//! # oscar-obs — observability substrate for the OSCAR pipeline
//!
//! Std-only, zero-dependency metrics and tracing shared by every layer
//! of the stack (`par`, `cs`, `executor`, `runtime`, `serve`, `bench`).
//! Three pieces:
//!
//! * [`metrics`] — lock-free atomic [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and fixed-bucket log2 latency
//!   [`metrics::Histogram`]s (p50/p90/p99 extraction) behind a
//!   process-wide [`metrics::Registry`] handing out cheap cloneable
//!   handles. Instrumented code resolves a handle once (a `OnceLock`
//!   static) and the hot path is a single relaxed atomic op — no
//!   allocation, no locking, and a disabled registry short-circuits to
//!   one relaxed load.
//! * [`span`] — per-job stage spans (landscape gen → mitigation →
//!   reconstruction → descent) recorded into a bounded overwrite ring
//!   ([`span::Tracer`]) and exportable as JSONL via the `OSCAR_TRACE`
//!   environment variable or `oscar-batch --trace FILE`. Wall-clock
//!   readings never enter job *results*, so bit-identity determinism
//!   guarantees are untouched by tracing.
//! * [`quantile`] — the single home for percentile math: exact
//!   sorted-sample quantiles ([`quantile::Summary`]).
//!
//! The quantile rank convention is shared everywhere: the `q`-quantile
//! of `n` samples is the sorted element at index
//! `round((n - 1) * q)`; [`metrics::Histogram::percentile`] reports the
//! upper bound of the log2 bucket containing that rank, so a histogram
//! percentile is always within 2x of the exact sorted-sample oracle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod metrics;
pub mod quantile;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry};
pub use quantile::Summary;
pub use span::{Stage, Tracer};
