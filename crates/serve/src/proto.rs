//! The `oscar-serve` wire protocol: request parsing, error codes, and
//! result serialization.
//!
//! One JSON object per line in each direction. Every request carries a
//! `"verb"`; every reply carries `"ok"` — `true` with verb-specific
//! fields, or `false` with an [`ErrorCode`] under `"error"`, a
//! human-readable `"message"`, and (for admission rejects) a
//! `"retry_after_ms"` hint. Malformed input of any kind — bad JSON, a
//! missing field, an unknown verb, an out-of-range parameter — maps to
//! a structured error reply on the same connection; the daemon never
//! answers a request with silence or a disconnect.
//!
//! [`SubmitReq`] is the single source of truth for how wire parameters
//! become a [`JobSpec`]: [`SubmitReq::to_spec`] is also how
//! `oscar-batch` builds its local jobs (instance from
//! `StdRng::seed_from_u64(instance_seed)`, grid from `small_p1`), so a
//! daemon-side job is *the same spec* a local run executes — the
//! foundation of the bit-identical-results guarantee the fault suite
//! asserts via [`result_checksum`].

use crate::json::Json;
use oscar_core::grid::{Grid2d, Shape};
use oscar_executor::device::DeviceSpec;
use oscar_problems::ising::IsingProblem;
use oscar_problems::workload::{Molecule, ProblemInstance, ProblemKind};
use oscar_runtime::descent::Descent;
use oscar_runtime::job::{default_vqe_shape, JobResult, JobSpec};
use oscar_runtime::mitigation::Mitigation;
use oscar_runtime::scheduler::Priority;
use oscar_runtime::source::LandscapeSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest problem the service admits (state vectors are `2^qubits`
/// doubles; 16 qubits keeps a hostile submit under a megabyte of
/// simulator state).
pub const MAX_QUBITS: usize = 16;

/// Largest side the service admits on any landscape axis: grid `rows`
/// and `cols` and every N-D `shape` entry alike (the paper's 144×225
/// p=2 grid fits).
pub const MAX_GRID_SIDE: usize = 256;

/// Largest tensor rank (parameter count) an N-D `shape` may declare.
pub const MAX_SHAPE_RANK: usize = 16;

/// Largest total point count of any landscape, 2-D grid or N-D
/// `shape` (one circuit evaluation per point; = [`MAX_GRID_SIDE`]²).
pub const MAX_SHAPE_POINTS: usize = 65_536;

/// The one size rule for every landscape: each named axis in
/// `2..=MAX_GRID_SIDE`, at most [`MAX_SHAPE_POINTS`] points in all.
fn check_landscape_size(axes: &[(&str, usize)]) -> Result<(), RequestError> {
    for &(name, n) in axes {
        if !(2..=MAX_GRID_SIDE).contains(&n) {
            return Err(RequestError::bad(format!(
                "{name} must be in 2..={MAX_GRID_SIDE}"
            )));
        }
    }
    let points = axes.iter().fold(1usize, |p, &(_, n)| p.saturating_mul(n));
    if points > MAX_SHAPE_POINTS {
        return Err(RequestError::bad(format!(
            "the landscape declares {points} points, over the {MAX_SHAPE_POINTS} cap"
        )));
    }
    Ok(())
}

/// Structured protocol error codes (the `"error"` field of a reject).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The request was well-formed JSON but semantically invalid
    /// (missing field, out-of-range value, unknown device/mode name).
    BadRequest,
    /// The `"verb"` field named no known verb.
    UnknownVerb,
    /// The referenced job id is not (or no longer) registered.
    UnknownJob,
    /// Admission reject: the pending queue is at capacity. Carries
    /// `retry_after_ms`.
    Overloaded,
    /// Admission reject: this client is at its live-job quota. Carries
    /// `retry_after_ms`.
    QuotaExceeded,
    /// Admission reject: the daemon is draining and accepts no new work.
    Draining,
    /// The job was cancelled before it ran; no result exists.
    Cancelled,
    /// The job's deadline expired before it ran; no result exists.
    Expired,
    /// The job was lost (it panicked, or the runtime shut down with it
    /// queued); no result exists.
    JobLost,
    /// The request line exceeded the per-line byte bound.
    LineTooLong,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::Draining => "draining",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Expired => "expired",
            ErrorCode::JobLost => "job-lost",
            ErrorCode::LineTooLong => "line-too-long",
        }
    }
}

/// A request that failed validation: the code plus a human-readable
/// message for the reply.
#[derive(Clone, Debug)]
pub struct RequestError {
    /// The structured code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> Self {
        RequestError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

/// A validated `submit` request (see the module docs for defaulting).
#[derive(Clone, Debug)]
pub struct SubmitReq {
    /// The workload family (wire field `problem`: `maxcut`, `sk`,
    /// `h2`, or `lih`; defaults to `maxcut`).
    pub problem: ProblemKind,
    /// Qubit count of the random Ising instance (even, `4..=16`).
    /// Fixed by the molecule — and forbidden on the wire — for VQE
    /// workloads.
    pub qubits: usize,
    /// QAOA depth `p` (wire field `depth`, `>= 1`, QAOA-only;
    /// defaults to 1). Depth ≥ 2 landscapes are N-D tensors and
    /// require `shape`.
    pub depth: usize,
    /// Per-axis point counts of an N-D landscape (wire field `shape`).
    /// Required for depth ≥ 2 QAOA (`2 * depth` axes, betas first);
    /// optional for molecules (defaults to the molecule's standard
    /// scan); forbidden for depth-1 QAOA, which uses `rows`/`cols`.
    pub shape: Option<Vec<usize>>,
    /// Seed generating the problem instance (defaults to `seed`).
    pub instance_seed: u64,
    /// Sampling-pattern / SPSA seed.
    pub seed: u64,
    /// Grid rows (beta axis), `2..=256`. Depth-1 QAOA only (0
    /// otherwise).
    pub rows: usize,
    /// Grid columns (gamma axis), `2..=256`. Depth-1 QAOA only (0
    /// otherwise). `rows * cols` is capped at [`MAX_SHAPE_POINTS`]
    /// like any landscape's point count.
    pub cols: usize,
    /// Sampling budget as a fraction of grid points in `(0, 1]`.
    pub fraction: f64,
    /// Stage-1 noise-realization seed (defaults to `seed`; ignored for
    /// the exact source).
    pub landscape_seed: u64,
    /// Noisy-device name (`None` = exact noiseless simulation).
    pub device: Option<String>,
    /// Shot-count override for the noisy device.
    pub shots: Option<usize>,
    /// Mitigation mode.
    pub mitigation: Mitigation,
    /// Stage-3 optimizer.
    pub descent: Descent,
    /// Explicit dispatch priority (`None` = derive from the deadline,
    /// or Normal).
    pub priority: Option<Priority>,
    /// Start deadline relative to admission, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SubmitReq {
    /// A minimal depth-1 MaxCut request with every optional axis at
    /// its default.
    pub fn new(qubits: usize, seed: u64, rows: usize, cols: usize, fraction: f64) -> Self {
        SubmitReq {
            problem: ProblemKind::MaxCut,
            qubits,
            depth: 1,
            shape: None,
            instance_seed: seed,
            seed,
            rows,
            cols,
            fraction,
            landscape_seed: seed,
            device: None,
            shots: None,
            mitigation: Mitigation::None,
            descent: Descent::NelderMead,
            priority: None,
            deadline_ms: None,
        }
    }

    /// A depth-`p` QAOA request over an N-D tensor: `counts` holds the
    /// per-axis point counts, `2 * depth` of them, betas first.
    pub fn deep_qaoa(
        problem: ProblemKind,
        qubits: usize,
        depth: usize,
        seed: u64,
        counts: Vec<usize>,
        fraction: f64,
    ) -> Self {
        SubmitReq {
            problem,
            depth,
            shape: Some(counts),
            rows: 0,
            cols: 0,
            ..SubmitReq::new(qubits, seed, 0, 0, fraction)
        }
    }

    /// A molecular VQE request on the molecule's default scan shape.
    pub fn vqe(molecule: Molecule, seed: u64, fraction: f64) -> Self {
        SubmitReq {
            problem: ProblemKind::Molecule(molecule),
            qubits: molecule.num_qubits(),
            rows: 0,
            cols: 0,
            ..SubmitReq::new(molecule.num_qubits(), seed, 0, 0, fraction)
        }
    }

    /// Parses and validates the fields of a `submit` object.
    pub fn from_json(obj: &Json) -> Result<SubmitReq, RequestError> {
        let problem = match obj.get("problem") {
            None | Some(Json::Null) => ProblemKind::MaxCut,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| RequestError::bad("'problem' must be a string"))?;
                ProblemKind::by_name(name).ok_or_else(|| {
                    RequestError::bad(format!(
                        "unknown problem '{name}' (one of: {})",
                        ProblemKind::names().join(", ")
                    ))
                })?
            }
        };
        let seed = req_u64(obj, "seed")?;
        let fraction = obj
            .get("fraction")
            .and_then(Json::as_f64)
            .ok_or_else(|| RequestError::bad("missing or invalid 'fraction'"))?;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(RequestError::bad("'fraction' must be in (0, 1]"));
        }
        let depth = match opt_u64(obj, "depth")? {
            None => 1,
            Some(_) if problem.is_molecule() => {
                return Err(RequestError::bad(
                    "'depth' applies only to QAOA problems ('maxcut', 'sk')",
                ))
            }
            Some(0) => return Err(RequestError::bad("'depth' must be at least 1")),
            Some(d) => d as usize,
        };
        let shape = match obj.get("shape") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| RequestError::bad("'shape' must be an array of axis sizes"))?;
                if arr.is_empty() || arr.len() > MAX_SHAPE_RANK {
                    return Err(RequestError::bad(format!(
                        "'shape' must have 1..={MAX_SHAPE_RANK} axes"
                    )));
                }
                let counts = arr
                    .iter()
                    .map(|entry| {
                        entry.as_u64().map(|n| n as usize).ok_or_else(|| {
                            RequestError::bad("'shape' entries must be non-negative integers")
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                let axes: Vec<(&str, usize)> =
                    counts.iter().map(|&n| ("'shape' axes", n)).collect();
                check_landscape_size(&axes)?;
                Some(counts)
            }
        };
        let (qubits, rows, cols) = match problem {
            ProblemKind::Molecule(m) => {
                // The molecule fixes the register and parameter count;
                // 2-D grid fields have no N-D meaning.
                for field in ["qubits", "rows", "cols"] {
                    if !matches!(obj.get(field), None | Some(Json::Null)) {
                        return Err(RequestError::bad(format!(
                            "'{field}' does not apply to molecular problems"
                        )));
                    }
                }
                if let Some(counts) = &shape {
                    if counts.len() != m.num_params() {
                        return Err(RequestError::bad(format!(
                            "'shape' for '{}' needs {} axes (one per ansatz parameter)",
                            m.name(),
                            m.num_params()
                        )));
                    }
                }
                (m.num_qubits(), 0, 0)
            }
            ProblemKind::MaxCut | ProblemKind::SkModel => {
                let qubits = req_u64(obj, "qubits")? as usize;
                if !(4..=MAX_QUBITS).contains(&qubits) || !qubits.is_multiple_of(2) {
                    return Err(RequestError::bad(format!(
                        "'qubits' must be even and in 4..={MAX_QUBITS}"
                    )));
                }
                if depth == 1 {
                    if shape.is_some() {
                        return Err(RequestError::bad(
                            "'shape' needs 'depth' >= 2; depth-1 QAOA uses 'rows'/'cols'",
                        ));
                    }
                    let rows = req_u64(obj, "rows")? as usize;
                    let cols = req_u64(obj, "cols")? as usize;
                    check_landscape_size(&[("'rows'", rows), ("'cols'", cols)])?;
                    (qubits, rows, cols)
                } else {
                    for field in ["rows", "cols"] {
                        if !matches!(obj.get(field), None | Some(Json::Null)) {
                            return Err(RequestError::bad(format!(
                                "'{field}' is a depth-1 field; depth >= 2 QAOA uses 'shape'"
                            )));
                        }
                    }
                    match &shape {
                        None => {
                            return Err(RequestError::bad(
                                "depth >= 2 QAOA needs 'shape' (2 * depth axes, betas first)",
                            ))
                        }
                        Some(counts) if counts.len() != 2 * depth => {
                            return Err(RequestError::bad(format!(
                                "'shape' for depth {depth} needs {} axes (betas then gammas)",
                                2 * depth
                            )))
                        }
                        Some(_) => {}
                    }
                    (qubits, 0, 0)
                }
            }
        };
        let instance_seed = opt_u64(obj, "instance_seed")?.unwrap_or(seed);
        let landscape_seed = opt_u64(obj, "landscape_seed")?.unwrap_or(seed);
        let device = match obj.get("device") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| RequestError::bad("'device' must be a string"))?;
                if DeviceSpec::by_name(name).is_none() {
                    return Err(RequestError::bad(format!("unknown device '{name}'")));
                }
                Some(name.to_string())
            }
        };
        let shots = match opt_u64(obj, "shots")? {
            Some(0) => return Err(RequestError::bad("'shots' must be positive")),
            Some(s) => {
                if device.is_none() {
                    return Err(RequestError::bad("'shots' needs 'device'"));
                }
                Some(s as usize)
            }
            None => None,
        };
        let mitigation = match obj.get("mitigation") {
            None | Some(Json::Null) => Mitigation::None,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| RequestError::bad("'mitigation' must be a string"))?;
                Mitigation::by_name(name)
                    .ok_or_else(|| RequestError::bad(format!("unknown mitigation '{name}'")))?
            }
        };
        let descent = match obj.get("optimizer") {
            None | Some(Json::Null) => Descent::NelderMead,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| RequestError::bad("'optimizer' must be a string"))?;
                Descent::by_name(name)
                    .ok_or_else(|| RequestError::bad(format!("unknown optimizer '{name}'")))?
            }
        };
        let priority = match obj.get("priority") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_str() {
                Some("low") => Some(Priority::Low),
                Some("normal") => Some(Priority::Normal),
                Some("high") => Some(Priority::High),
                _ => {
                    return Err(RequestError::bad(
                        "'priority' must be 'low', 'normal', or 'high'",
                    ))
                }
            },
        };
        let deadline_ms = opt_u64(obj, "deadline_ms")?;
        Ok(SubmitReq {
            problem,
            depth,
            shape,
            qubits,
            instance_seed,
            seed,
            rows,
            cols,
            fraction,
            landscape_seed,
            device,
            shots,
            mitigation,
            descent,
            priority,
            deadline_ms,
        })
    }

    /// Serializes the request as a `submit` wire object (the inverse of
    /// [`Self::from_json`]; clients build their lines with this).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("verb".to_string(), Json::Str("submit".into())),
            ("problem".to_string(), Json::Str(self.problem.name().into())),
        ];
        if !self.problem.is_molecule() {
            fields.push(("qubits".to_string(), Json::Num(self.qubits as f64)));
            if self.depth > 1 {
                fields.push(("depth".to_string(), Json::Num(self.depth as f64)));
            } else {
                fields.push(("rows".to_string(), Json::Num(self.rows as f64)));
                fields.push(("cols".to_string(), Json::Num(self.cols as f64)));
            }
        }
        if let Some(counts) = &self.shape {
            fields.push((
                "shape".to_string(),
                Json::Arr(counts.iter().map(|&n| Json::Num(n as f64)).collect()),
            ));
        }
        fields.extend([
            (
                "instance_seed".to_string(),
                Json::Num(self.instance_seed as f64),
            ),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("fraction".to_string(), Json::Num(self.fraction)),
            (
                "landscape_seed".to_string(),
                Json::Num(self.landscape_seed as f64),
            ),
            (
                "mitigation".to_string(),
                Json::Str(self.mitigation.name().into()),
            ),
            (
                "optimizer".to_string(),
                Json::Str(self.descent.name().into()),
            ),
        ]);
        if let Some(device) = &self.device {
            fields.push(("device".to_string(), Json::Str(device.clone())));
        }
        if let Some(shots) = self.shots {
            fields.push(("shots".to_string(), Json::Num(shots as f64)));
        }
        if let Some(priority) = self.priority {
            let name = match priority {
                Priority::Low => "low",
                Priority::Normal => "normal",
                Priority::High => "high",
            };
            fields.push(("priority".to_string(), Json::Str(name.into())));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Num(ms as f64)));
        }
        Json::Obj(fields)
    }

    /// Builds the job spec this request denotes. `oscar-batch` builds
    /// every local job through this mapping too, so daemon-side results
    /// are bit-identical to a local `run_job` of the same request.
    pub fn to_spec(&self) -> Result<JobSpec, RequestError> {
        let (instance, shape) = match self.problem {
            ProblemKind::MaxCut | ProblemKind::SkModel => {
                let mut rng = StdRng::seed_from_u64(self.instance_seed);
                let problem = match self.problem {
                    ProblemKind::MaxCut => {
                        IsingProblem::try_random_3_regular(self.qubits, &mut rng)
                            .map_err(|e| RequestError::bad(format!("infeasible instance: {e}")))?
                    }
                    _ => IsingProblem::sk_model(self.qubits, &mut rng),
                };
                let shape = match &self.shape {
                    None => Shape::Grid2d(Grid2d::small_p1(self.rows, self.cols)),
                    Some(counts) => {
                        let p = self.depth;
                        Shape::qaoa_with_counts(p, &counts[..p], &counts[p..])
                    }
                };
                (ProblemInstance::ising(problem, self.depth), shape)
            }
            ProblemKind::Molecule(m) => {
                let shape = match &self.shape {
                    None => default_vqe_shape(m),
                    Some(counts) => Shape::vqe_scan(counts),
                };
                (ProblemInstance::molecule(m), shape)
            }
        };
        let source = match &self.device {
            None => LandscapeSource::Exact,
            Some(name) => LandscapeSource::Noisy {
                device: DeviceSpec::by_name(name)
                    .ok_or_else(|| RequestError::bad(format!("unknown device '{name}'")))?,
                shots: self.shots,
            },
        };
        Ok(JobSpec::shaped(instance, shape, self.fraction, self.seed)
            .with_source(source)
            .with_landscape_seed(self.landscape_seed)
            .with_mitigation(self.mitigation.clone())
            .with_descent(self.descent))
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Admit a job.
    Submit(Box<SubmitReq>),
    /// Cancel a queued job.
    Cancel {
        /// Daemon job id.
        job: u64,
    },
    /// Report a job's lifecycle state.
    Status {
        /// Daemon job id.
        job: u64,
    },
    /// Block (bounded) for a job's result.
    Wait {
        /// Daemon job id.
        job: u64,
        /// Wait bound in milliseconds (`None` = the daemon default;
        /// 0 = non-blocking poll).
        timeout_ms: Option<u64>,
        /// Include the full reconstruction values in the reply.
        include_values: bool,
    },
    /// Report daemon counters.
    Stats,
    /// Report the full metrics registry (counters, gauges, histogram
    /// summaries) plus daemon-local metrics.
    Metrics,
    /// Stop admission, finish everything, then shut down.
    Drain,
}

impl Request {
    /// Parses one already-JSON-decoded request object.
    pub fn from_json(obj: &Json) -> Result<Request, RequestError> {
        let verb = obj
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::bad("missing 'verb'"))?;
        match verb {
            "submit" => Ok(Request::Submit(Box::new(SubmitReq::from_json(obj)?))),
            "cancel" => Ok(Request::Cancel {
                job: req_u64(obj, "job")?,
            }),
            "status" => Ok(Request::Status {
                job: req_u64(obj, "job")?,
            }),
            "wait" => Ok(Request::Wait {
                job: req_u64(obj, "job")?,
                timeout_ms: opt_u64(obj, "timeout_ms")?,
                include_values: obj
                    .get("include_values")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            other => Err(RequestError {
                code: ErrorCode::UnknownVerb,
                message: format!("unknown verb '{other}'"),
            }),
        }
    }
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, RequestError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| RequestError::bad(format!("missing or invalid '{key}'")))
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| RequestError::bad(format!("invalid '{key}'"))),
    }
}

/// FNV-1a over the bit patterns of a result's numeric payload
/// (reconstruction values, NRMSE, best point/value). Two results agree
/// on this checksum iff they are bit-identical along every axis the
/// determinism contract covers — the compact form of the fault suite's
/// "daemon results equal library results" assertion.
pub fn result_checksum(result: &JobResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &v in result.reconstruction.values() {
        fold(v.to_bits());
    }
    fold(result.nrmse.to_bits());
    for &coord in &result.best_point {
        fold(coord.to_bits());
    }
    fold(result.best_value.to_bits());
    h
}

/// Serializes a job result for the `wait` reply. The reconstruction's
/// full value array is included only on request (`include_values`);
/// the checksum is always present.
pub fn result_to_json(result: &JobResult, include_values: bool) -> Json {
    let mut fields = vec![
        ("nrmse".to_string(), Json::Num(result.nrmse)),
        (
            "samples_used".to_string(),
            Json::Num(result.samples_used as f64),
        ),
        (
            "solver_iterations".to_string(),
            Json::Num(result.solver_iterations as f64),
        ),
        (
            "best_point".to_string(),
            Json::Arr(result.best_point.iter().map(|&c| Json::Num(c)).collect()),
        ),
        ("best_value".to_string(), Json::Num(result.best_value)),
        (
            "dims".to_string(),
            Json::Arr(
                result
                    .reconstruction
                    .shape()
                    .dims()
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ),
        (
            "cache_hit".to_string(),
            Json::Bool(result.landscape_cache_hit),
        ),
        (
            "wall_ms".to_string(),
            Json::Num(result.wall.as_secs_f64() * 1e3),
        ),
        (
            "checksum".to_string(),
            Json::Str(format!("{:016x}", result_checksum(result))),
        ),
    ];
    if let Some(grid) = result.reconstruction.as_grid2d().map(|l| l.grid()) {
        fields.push(("rows".to_string(), Json::Num(grid.rows() as f64)));
        fields.push(("cols".to_string(), Json::Num(grid.cols() as f64)));
    }
    if include_values {
        fields.push((
            "values".to_string(),
            Json::Arr(
                result
                    .reconstruction
                    .values()
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn submit_roundtrips_through_json() {
        let mut req = SubmitReq::new(8, 41, 16, 20, 0.25);
        req.device = Some("ibm perth".into());
        req.shots = Some(4096);
        req.mitigation = Mitigation::zne_richardson();
        req.descent = Descent::Spsa;
        req.priority = Some(Priority::High);
        req.deadline_ms = Some(5000);
        let line = req.to_json().to_string_compact();
        let back = match Request::from_json(&parse(&line).unwrap()).unwrap() {
            Request::Submit(r) => r,
            other => panic!("expected submit, got {other:?}"),
        };
        assert_eq!(back.qubits, 8);
        assert_eq!(back.instance_seed, 41);
        assert_eq!(back.seed, 41);
        assert_eq!((back.rows, back.cols), (16, 20));
        assert_eq!(back.fraction, 0.25);
        assert_eq!(back.device.as_deref(), Some("ibm perth"));
        assert_eq!(back.shots, Some(4096));
        assert_eq!(back.mitigation.name(), "zne");
        assert_eq!(back.descent, Descent::Spsa);
        assert_eq!(back.priority, Some(Priority::High));
        assert_eq!(back.deadline_ms, Some(5000));
    }

    #[test]
    fn submit_validation_rejects_bad_fields() {
        let base = SubmitReq::new(8, 1, 10, 10, 0.3).to_json();
        let mutate = |key: &str, v: Json| {
            let Json::Obj(mut fields) = base.clone() else {
                unreachable!()
            };
            for f in &mut fields {
                if f.0 == key {
                    f.1 = v;
                    return Json::Obj(fields);
                }
            }
            fields.push((key.to_string(), v));
            Json::Obj(fields)
        };
        for bad in [
            mutate("qubits", Json::Num(7.0)),
            mutate("qubits", Json::Num(64.0)),
            mutate("rows", Json::Num(1.0)),
            mutate("cols", Json::Num(1000.0)),
            mutate("fraction", Json::Num(0.0)),
            mutate("fraction", Json::Num(1.5)),
            mutate("device", Json::Str("martian qpu".into())),
            mutate("mitigation", Json::Str("prayer".into())),
            mutate("optimizer", Json::Str("brute-force".into())),
            mutate("priority", Json::Str("urgent".into())),
            mutate("shots", Json::Num(100.0)), // shots without device
        ] {
            let parsed = Request::from_json(&bad);
            assert!(
                matches!(parsed, Err(ref e) if e.code == ErrorCode::BadRequest),
                "{} must be rejected, got {parsed:?}",
                bad.to_string_compact()
            );
        }
    }

    #[test]
    fn deep_qaoa_and_vqe_submits_roundtrip_through_json() {
        let req = SubmitReq::deep_qaoa(ProblemKind::SkModel, 6, 2, 9, vec![4, 5, 6, 7], 0.4);
        let line = req.to_json().to_string_compact();
        let back = match Request::from_json(&parse(&line).unwrap()).unwrap() {
            Request::Submit(r) => r,
            other => panic!("expected submit, got {other:?}"),
        };
        assert_eq!(back.problem, ProblemKind::SkModel);
        assert_eq!(back.depth, 2);
        assert_eq!(back.shape.as_deref(), Some(&[4usize, 5, 6, 7][..]));
        assert_eq!(back.qubits, 6);
        assert_eq!((back.rows, back.cols), (0, 0));

        let req = SubmitReq::vqe(Molecule::LiH, 3, 0.5);
        let line = req.to_json().to_string_compact();
        // Molecular submits carry no register/grid fields on the wire.
        let obj = parse(&line).unwrap();
        for absent in ["qubits", "rows", "cols", "depth"] {
            assert!(obj.get(absent).is_none(), "'{absent}' leaked into {line}");
        }
        let back = match Request::from_json(&obj).unwrap() {
            Request::Submit(r) => r,
            other => panic!("expected submit, got {other:?}"),
        };
        assert_eq!(back.problem, ProblemKind::Molecule(Molecule::LiH));
        assert_eq!(back.qubits, Molecule::LiH.num_qubits());
        assert_eq!(back.shape, None);
    }

    #[test]
    fn shape_and_problem_validation_rejects_malformed_submits() {
        for (bad, why) in [
            (
                r#"{"verb":"submit","problem":"travelling-salesman","qubits":6,"seed":1,"rows":8,"cols":8,"fraction":0.3}"#,
                "unknown problem",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"seed":1,"rows":8,"cols":8,"depth":0,"fraction":0.3}"#,
                "zero depth",
            ),
            (
                r#"{"verb":"submit","problem":"h2","depth":2,"seed":1,"fraction":0.3}"#,
                "depth on a molecule",
            ),
            (
                r#"{"verb":"submit","problem":"h2","qubits":2,"seed":1,"fraction":0.3}"#,
                "qubits on a molecule",
            ),
            (
                r#"{"verb":"submit","problem":"h2","rows":8,"seed":1,"fraction":0.3}"#,
                "rows on a molecule",
            ),
            (
                r#"{"verb":"submit","problem":"h2","shape":[4,4],"seed":1,"fraction":0.3}"#,
                "wrong molecular shape rank",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"seed":1,"rows":8,"cols":8,"shape":[4,4],"fraction":0.3}"#,
                "shape at depth 1",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":2,"seed":1,"fraction":0.3}"#,
                "depth 2 without shape",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":2,"shape":[4,4,4],"seed":1,"fraction":0.3}"#,
                "shape rank != 2 * depth",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":2,"shape":[4,4,4,4],"rows":8,"cols":8,"seed":1,"fraction":0.3}"#,
                "rows alongside shape",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":2,"shape":[4,1,4,4],"seed":1,"fraction":0.3}"#,
                "axis below 2",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":2,"shape":[4,-4,4,4],"seed":1,"fraction":0.3}"#,
                "negative axis",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":6,"depth":8,"shape":[60,60,60,60,60,60,60,60,60,60,60,60,60,60,60,60],"seed":1,"fraction":0.3}"#,
                "over the point cap",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":8,"seed":1,"rows":257,"cols":8,"fraction":0.3}"#,
                "257 grid rows",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":8,"seed":1,"rows":8,"cols":257,"fraction":0.3}"#,
                "257 grid columns",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":8,"depth":2,"shape":[257,4,4,4],"seed":1,"fraction":0.3}"#,
                "257-point shape axis",
            ),
            (
                r#"{"verb":"submit","problem":"maxcut","qubits":8,"depth":2,"shape":[256,256,2,2],"seed":1,"fraction":0.3}"#,
                "sides within the cap, points over it",
            ),
        ] {
            let parsed = Request::from_json(&parse(bad).unwrap());
            assert!(
                matches!(parsed, Err(ref e) if e.code == ErrorCode::BadRequest),
                "{why}: {bad} must be rejected, got {parsed:?}"
            );
        }
    }

    #[test]
    fn nd_to_spec_matches_the_library_mapping() {
        // Depth-2 QAOA: wire counts are betas first, exactly the
        // qaoa_with_counts convention.
        let req = SubmitReq::deep_qaoa(ProblemKind::MaxCut, 6, 2, 11, vec![4, 5, 6, 7], 0.4);
        let spec = req.to_spec().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let problem = IsingProblem::try_random_3_regular(6, &mut rng).unwrap();
        let reference = JobSpec::shaped(
            oscar_problems::workload::ProblemInstance::ising(problem, 2),
            Shape::qaoa_with_counts(2, &[4, 5], &[6, 7]),
            0.4,
            11,
        )
        .with_landscape_seed(11);
        let a = oscar_runtime::job::run_job(&spec, None);
        let b = oscar_runtime::job::run_job(&reference, None);
        assert_eq!(result_checksum(&a), result_checksum(&b));
        assert_eq!(a.best_point.len(), 4);

        // VQE with the default scan shape.
        let spec = SubmitReq::vqe(Molecule::H2, 5, 0.5).to_spec().unwrap();
        let reference = JobSpec::shaped(
            oscar_problems::workload::ProblemInstance::molecule(Molecule::H2),
            default_vqe_shape(Molecule::H2),
            0.5,
            5,
        )
        .with_landscape_seed(5);
        let a = oscar_runtime::job::run_job(&spec, None);
        let b = oscar_runtime::job::run_job(&reference, None);
        assert_eq!(result_checksum(&a), result_checksum(&b));
        assert_eq!(a.best_point.len(), 3);

        // N-D results serialize dims and omit the 2-D grid fields.
        let json = result_to_json(&a, false);
        let dims: Vec<u64> = json
            .get("dims")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|d| d.as_u64().unwrap())
            .collect();
        assert_eq!(dims, vec![10, 10, 10]);
        assert!(json.get("rows").is_none() && json.get("cols").is_none());
        assert_eq!(
            json.get("best_point").and_then(Json::as_arr).unwrap().len(),
            3
        );
    }

    #[test]
    fn to_spec_matches_the_batch_job_list_mapping() {
        // Each `oscar-batch` request shape against its spec built by hand
        // from the library constructors: depth-1 MaxCut through
        // `JobSpec::new`, every other kind through `JobSpec::shaped`
        // with `Shape::qaoa` counts or the molecule's default scan.
        let maxcut = |qubits: usize, seed: u64| {
            IsingProblem::try_random_3_regular(qubits, &mut StdRng::seed_from_u64(seed)).unwrap()
        };
        let sk = |qubits: usize, seed: u64| {
            IsingProblem::sk_model(qubits, &mut StdRng::seed_from_u64(seed))
        };
        let with_seeds = |mut req: SubmitReq, instance_seed: u64, landscape_seed: u64| {
            req.instance_seed = instance_seed;
            req.landscape_seed = landscape_seed;
            req
        };
        let deep = |kind: ProblemKind, p: usize, nb: usize, ng: usize| {
            let counts = [vec![nb; p], vec![ng; p]].concat();
            with_seeds(SubmitReq::deep_qaoa(kind, 10, p, 2013, counts, 0.25), 40, 1)
        };
        let deep_ref = |problem: IsingProblem, p: usize, nb: usize, ng: usize| {
            JobSpec::shaped(
                ProblemInstance::ising(problem, p),
                Shape::qaoa(p, nb, ng),
                0.25,
                2013,
            )
            .with_landscape_seed(1)
        };
        let vqe_ref = |m: Molecule| {
            JobSpec::shaped(
                ProblemInstance::molecule(m),
                default_vqe_shape(m),
                0.25,
                2000,
            )
            .with_landscape_seed(0)
        };
        let mut noisy = with_seeds(
            SubmitReq {
                problem: ProblemKind::MaxCut,
                ..SubmitReq::new(10, 7, 16, 20, 0.25)
            },
            40,
            1,
        );
        noisy.device = Some("ibm perth".into());
        noisy.shots = Some(2048);
        noisy.mitigation = Mitigation::zne_richardson();
        noisy.descent = Descent::Spsa;
        let cases = [
            (
                "depth-1 MaxCut file line",
                SubmitReq::new(8, 17, 12, 14, 0.3),
                JobSpec::new(maxcut(8, 17), Grid2d::small_p1(12, 14), 0.3, 17)
                    .with_landscape_seed(17),
            ),
            (
                "synthetic, instance seed != seed",
                with_seeds(SubmitReq::new(10, 2013, 20, 24, 0.25), 41, 1),
                JobSpec::new(maxcut(10, 41), Grid2d::small_p1(20, 24), 0.25, 2013)
                    .with_landscape_seed(1),
            ),
            (
                "SK depth 1 on 16x20",
                with_seeds(
                    SubmitReq {
                        problem: ProblemKind::SkModel,
                        ..SubmitReq::new(10, 2000, 16, 20, 0.25)
                    },
                    40,
                    0,
                ),
                JobSpec::shaped(
                    ProblemInstance::ising(sk(10, 40), 1),
                    Shape::Grid2d(Grid2d::small_p1(16, 20)),
                    0.25,
                    2000,
                ),
            ),
            (
                "MaxCut on qaoa(2, 5, 6)",
                deep(ProblemKind::MaxCut, 2, 5, 6),
                deep_ref(maxcut(10, 40), 2, 5, 6),
            ),
            (
                "SK on qaoa(2, 5, 6)",
                deep(ProblemKind::SkModel, 2, 5, 6),
                deep_ref(sk(10, 40), 2, 5, 6),
            ),
            (
                "MaxCut on qaoa(3, 3, 3)",
                deep(ProblemKind::MaxCut, 3, 3, 3),
                deep_ref(maxcut(10, 40), 3, 3, 3),
            ),
            (
                "H2 default scan",
                with_seeds(SubmitReq::vqe(Molecule::H2, 2000, 0.25), 40, 0),
                vqe_ref(Molecule::H2),
            ),
            (
                "LiH default scan",
                with_seeds(SubmitReq::vqe(Molecule::LiH, 2000, 0.25), 40, 0),
                vqe_ref(Molecule::LiH),
            ),
            (
                "noisy device with shots, ZNE and SPSA",
                noisy,
                JobSpec::new(maxcut(10, 40), Grid2d::small_p1(16, 20), 0.25, 7)
                    .with_source(LandscapeSource::Noisy {
                        device: DeviceSpec::by_name("ibm perth").unwrap(),
                        shots: Some(2048),
                    })
                    .with_landscape_seed(1)
                    .with_mitigation(Mitigation::zne_richardson())
                    .with_descent(Descent::Spsa),
            ),
        ];
        for (name, req, reference) in cases {
            let a = oscar_runtime::job::run_job(&req.to_spec().unwrap(), None);
            let b = oscar_runtime::job::run_job(&reference, None);
            assert_eq!(result_checksum(&a), result_checksum(&b), "{name}");
            assert_eq!(a.nrmse.to_bits(), b.nrmse.to_bits(), "{name}");
        }
    }

    #[test]
    fn the_papers_144x225_grid_is_admitted() {
        let line = r#"{"verb":"submit","problem":"maxcut","qubits":8,"seed":6,"rows":144,"cols":225,"fraction":0.05}"#;
        let req = match Request::from_json(&parse(line).unwrap()) {
            Ok(Request::Submit(req)) => req,
            other => panic!("the paper's 144x225 grid must be admitted, got {other:?}"),
        };
        // The in-process spec: `oscar-batch --file` maps the job line
        // `8 6 144 225 0.05` through `SubmitReq::new`.
        let problem = IsingProblem::try_random_3_regular(8, &mut StdRng::seed_from_u64(6)).unwrap();
        let reference =
            JobSpec::new(problem, Grid2d::small_p1(144, 225), 0.05, 6).with_landscape_seed(6);
        let file_line = SubmitReq::new(8, 6, 144, 225, 0.05).to_spec().unwrap();
        let spec = req.to_spec().unwrap();
        assert_eq!(format!("{spec:?}"), format!("{reference:?}"));
        assert_eq!(format!("{file_line:?}"), format!("{reference:?}"));
    }

    #[test]
    fn checksum_distinguishes_results() {
        let a =
            oscar_runtime::job::run_job(&SubmitReq::new(6, 1, 8, 10, 0.3).to_spec().unwrap(), None);
        let b =
            oscar_runtime::job::run_job(&SubmitReq::new(6, 2, 8, 10, 0.3).to_spec().unwrap(), None);
        assert_ne!(result_checksum(&a), result_checksum(&b));
        // And the JSON form carries it.
        let json = result_to_json(&a, true);
        assert_eq!(
            json.get("checksum").and_then(Json::as_str).unwrap(),
            format!("{:016x}", result_checksum(&a))
        );
        assert_eq!(
            json.get("values").and_then(Json::as_arr).unwrap().len(),
            a.reconstruction.values().len()
        );
    }

    #[test]
    fn unknown_verbs_and_missing_fields_map_to_codes() {
        let e = Request::from_json(&parse(r#"{"verb":"reboot"}"#).unwrap()).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownVerb);
        let e = Request::from_json(&parse(r#"{"verb":"cancel"}"#).unwrap()).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_json(&parse(r#"{"no":"verb"}"#).unwrap()).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }
}
