//! The `oscar-serve` daemon: one [`BatchRuntime`] behind a socket.
//!
//! Thread-per-connection over a nonblocking accept loop. Every
//! connection reads line-delimited JSON requests ([`crate::proto`]),
//! executes them against the shared [`ServerState`], and writes one
//! reply line per request. The robustness contract, layer by layer:
//!
//! * **Admission control** — a submit is rejected (never queued) when
//!   the pending queue is at [`ServeConfig::max_pending`] or the
//!   client is at [`ServeConfig::per_client_quota`] live jobs; rejects
//!   carry a `retry_after_ms` hint from [`crate::admission`] fed by a
//!   daemon-local [`oscar_obs::Histogram`] of completed-job wall times
//!   (microseconds, lock-free to record).
//! * **Observability** — the `metrics` verb returns the process-wide
//!   [`oscar_obs::Registry`] snapshot (cache/pool/scheduler/stage
//!   metrics) plus daemon-local admission counters as JSON, and
//!   optionally Prometheus-style text ([`ServeConfig::metrics_text`]).
//! * **Deadlines** — `deadline_ms` maps to a dynamic [`Priority`] (a
//!   tight deadline is promoted to High) plus a hard start deadline in
//!   the scheduler; the periodic tick sweeps expired entries out of
//!   the queue ([`BatchRuntime::expire_overdue`]) so their waiters get
//!   the `expired` reply promptly.
//! * **Failure containment** — malformed lines get protocol error
//!   replies on the same connection; a client disconnect cancels that
//!   client's still-queued (never running) jobs; an executor panic
//!   surfaces as a `job-lost` reply; the job registry is bounded
//!   (settled entries are evicted oldest-first past
//!   [`ServeConfig::registry_capacity`]), so no workload pattern grows
//!   daemon memory without bound.
//! * **Graceful drain** — the `drain` verb (or SIGTERM in the binary,
//!   via [`DaemonHandle::drain`]) stops admission, lets running and
//!   queued jobs finish ([`BatchRuntime::drain`]), settles every
//!   registry entry so waiters flush, then shuts the daemon down.

use crate::admission;
use crate::json::Json;
use crate::proto::{result_to_json, ErrorCode, Request, RequestError, SubmitReq};
use oscar_obs::{Histogram, MetricValue, Registry};
use oscar_runtime::scheduler::{
    BatchRuntime, JobHandle, JobLost, JobStatus, Priority, RuntimeConfig, SubmitOptions,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (all bounds have safe defaults).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Executor threads in the owned [`BatchRuntime`].
    pub concurrency: usize,
    /// Landscape-cache capacity of the runtime.
    pub cache_capacity: usize,
    /// Optional persistent landscape store directory
    /// ([`oscar_runtime::store::LandscapeStore`]): landscapes survive
    /// daemon restarts, so a recycled daemon serves a warm workload at
    /// reconstruction speed instead of regenerating every landscape.
    pub store_dir: Option<PathBuf>,
    /// Admission bound: submits are rejected `overloaded` while this
    /// many jobs are already queued.
    pub max_pending: usize,
    /// Admission bound: submits are rejected `quota-exceeded` while
    /// the client has this many unsettled jobs.
    pub per_client_quota: usize,
    /// Include Prometheus-style text exposition in `metrics` replies
    /// (the JSON registry snapshot is always included).
    pub metrics_text: bool,
    /// Request lines longer than this are rejected `line-too-long`.
    pub max_line_bytes: usize,
    /// Registry bound: settled jobs beyond this are evicted
    /// oldest-first (their results become `unknown-job`).
    pub registry_capacity: usize,
    /// Default `wait` bound when the request names none.
    pub default_wait_ms: u64,
    /// Accept-loop tick: expiry sweeps, settle sweeps, and shutdown
    /// checks run at this period, and connection reads poll at it.
    pub tick: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            concurrency: oscar_par::max_threads(),
            cache_capacity: 32,
            store_dir: None,
            max_pending: 64,
            per_client_quota: 16,
            metrics_text: false,
            max_line_bytes: 64 * 1024,
            registry_capacity: 4096,
            default_wait_ms: 30_000,
            tick: Duration::from_millis(25),
        }
    }
}

/// A settled job's terminal record.
enum Outcome {
    Done(Box<oscar_runtime::job::JobResult>),
    Cancelled,
    Expired,
    Lost,
}

impl Outcome {
    fn from_lost(lost: &JobLost) -> Outcome {
        if lost.was_cancelled() {
            Outcome::Cancelled
        } else if lost.was_expired() {
            Outcome::Expired
        } else {
            Outcome::Lost
        }
    }
}

/// Per-connection accounting shared with that client's job entries.
#[derive(Default)]
struct ClientSlot {
    /// Unsettled jobs submitted on this connection (the quota basis).
    live: AtomicUsize,
}

/// One registered job: the runtime handle plus its settled outcome.
struct JobEntry {
    id: u64,
    client: Arc<ClientSlot>,
    /// Held only for the duration of one bounded operation (a cancel,
    /// a status read, or one `wait` chunk of at most two ticks), so a
    /// blocked waiter can never starve another client's cancel.
    handle: Mutex<JobHandle>,
    outcome: Mutex<Option<Outcome>>,
    /// Set exactly once, when the outcome is stored (guards the
    /// client's live-count decrement).
    settled: AtomicBool,
}

impl JobEntry {
    /// Records the job's terminal outcome exactly once, releasing its
    /// quota slot and (for completions) feeding the latency window.
    fn settle(&self, state: &ServerState, outcome: Outcome) {
        if self
            .settled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        if let Outcome::Done(result) = &outcome {
            state.latency_us.record_duration(result.wall);
        }
        *lock(&self.outcome) = Some(outcome);
        self.client.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// Non-blocking settle attempt: fetches a finished result (or a
    /// terminal loss) out of the handle if one is ready.
    fn try_settle(&self, state: &ServerState) {
        if self.settled.load(Ordering::Acquire) {
            return;
        }
        self.poll_and_settle(state, Duration::ZERO);
    }

    /// Waits up to `timeout` for the handle to resolve and settles what
    /// it yields, both under the handle lock (lock order: handle, then
    /// outcome). Taking a result out of the handle leaves it
    /// disconnected; a concurrent poller that saw that before the
    /// result was settled would settle the job as lost, so no other
    /// poller may look between the take and the settle. Returns `false`
    /// on a timeout.
    fn poll_and_settle(&self, state: &ServerState, timeout: Duration) -> bool {
        let handle = lock(&self.handle);
        match handle.wait_timeout(timeout) {
            Ok(Some(result)) => self.settle(state, Outcome::Done(Box::new(result))),
            Ok(None) => return false,
            Err(lost) => self.settle(state, Outcome::from_lost(&lost)),
        }
        true
    }

    /// The wire status string.
    fn status_str(&self) -> &'static str {
        if let Some(outcome) = lock(&self.outcome).as_ref() {
            return match outcome {
                Outcome::Done(_) => "done",
                Outcome::Cancelled => "cancelled",
                Outcome::Expired => "expired",
                Outcome::Lost => "failed",
            };
        }
        match lock(&self.handle).status() {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Expired => "expired",
            JobStatus::Failed => "failed",
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared daemon state: the runtime, the job registry, and counters.
pub struct ServerState {
    runtime: BatchRuntime,
    config: ServeConfig,
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
    /// Completed-job wall times in microseconds. Daemon-local (not in
    /// the global registry) so concurrent daemons in one process — the
    /// test suites run several — never pollute each other's admission
    /// estimates.
    latency_us: Histogram,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Connections being served right now.
    connections_open: AtomicU64,
    /// Connections accepted over the daemon's lifetime.
    connections_total: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_draining: AtomicU64,
    bad_requests: AtomicU64,
    disconnect_cancelled: AtomicU64,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState").finish_non_exhaustive()
    }
}

impl ServerState {
    fn new(config: ServeConfig) -> std::io::Result<Arc<ServerState>> {
        let store = match &config.store_dir {
            Some(dir) => Some(oscar_runtime::store::LandscapeStore::open(dir)?),
            None => None,
        };
        Ok(Arc::new(ServerState {
            runtime: BatchRuntime::new(RuntimeConfig {
                concurrency: config.concurrency.max(1),
                landscape_cache_capacity: config.cache_capacity.max(1),
                store,
            }),
            config,
            jobs: Mutex::new(BTreeMap::new()),
            latency_us: Histogram::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            disconnect_cancelled: AtomicU64::new(0),
        }))
    }

    /// `true` once a drain (verb, SIGTERM, or shutdown) has begun:
    /// admission is closed.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// `true` once the daemon has been asked to stop its loops.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Graceful drain: closes admission, runs every admitted job to
    /// completion, settles all registry entries (flushing waiters),
    /// and requests shutdown. Idempotent; safe from any thread.
    pub fn drain_and_stop(&self) {
        self.draining.store(true, Ordering::Release);
        self.runtime.drain();
        let entries: Vec<Arc<JobEntry>> = lock(&self.jobs).values().cloned().collect();
        for entry in entries {
            entry.try_settle(self);
        }
        self.shutdown.store(true, Ordering::Release);
    }

    /// The periodic tick: sweep expired queue entries, settle finished
    /// jobs (feeding the latency histogram even when nobody waits), and
    /// evict settled entries past the registry bound.
    fn tick(&self) {
        self.runtime.expire_overdue();
        let entries: Vec<Arc<JobEntry>> = lock(&self.jobs).values().cloned().collect();
        for entry in &entries {
            entry.try_settle(self);
        }
        let mut jobs = lock(&self.jobs);
        if jobs.len() > self.config.registry_capacity {
            let excess = jobs.len() - self.config.registry_capacity;
            let evict: Vec<u64> = jobs
                .values()
                .filter(|e| e.settled.load(Ordering::Acquire))
                .take(excess)
                .map(|e| e.id)
                .collect();
            for id in evict {
                jobs.remove(&id);
            }
        }
    }

    fn entry(&self, id: u64) -> Option<Arc<JobEntry>> {
        lock(&self.jobs).get(&id).cloned()
    }

    fn handle_submit(&self, client: &Arc<ClientSlot>, req: &SubmitReq) -> Json {
        if self.is_draining() {
            self.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return error_reply(
                ErrorCode::Draining,
                "daemon is draining; no new work is admitted",
                vec![],
            );
        }
        let pending = self.runtime.pending();
        let running = self.runtime.running() as usize;
        let retry = admission::retry_after(
            pending,
            running,
            self.runtime.concurrency(),
            &self.latency_us,
        );
        if client.live.load(Ordering::Acquire) >= self.config.per_client_quota {
            self.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return error_reply(
                ErrorCode::QuotaExceeded,
                &format!(
                    "client is at its quota of {} live jobs",
                    self.config.per_client_quota
                ),
                vec![retry_field(retry)],
            );
        }
        if pending >= self.config.max_pending {
            self.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return error_reply(
                ErrorCode::Overloaded,
                &format!("pending queue is at capacity ({pending} jobs)"),
                vec![retry_field(retry)],
            );
        }
        let spec = match req.to_spec() {
            Ok(spec) => spec,
            Err(e) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
                return error_reply(e.code, &e.message, vec![]);
            }
        };
        let mut opts = SubmitOptions::with_priority(req.priority.unwrap_or(Priority::Normal));
        if let Some(ms) = req.deadline_ms {
            let budget = Duration::from_millis(ms);
            opts.priority = admission::deadline_priority(req.priority, budget, &self.latency_us);
            opts = opts.deadline(Instant::now() + budget);
        }
        let priority = opts.priority;
        let handle = self.runtime.submit_opts(spec, opts);
        let id = handle.id();
        client.live.fetch_add(1, Ordering::AcqRel);
        let entry = Arc::new(JobEntry {
            id,
            client: Arc::clone(client),
            handle: Mutex::new(handle),
            outcome: Mutex::new(None),
            settled: AtomicBool::new(false),
        });
        lock(&self.jobs).insert(id, entry);
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("job".to_string(), Json::Num(id as f64)),
            ("status".to_string(), Json::Str("queued".into())),
            (
                "priority".to_string(),
                Json::Str(
                    match priority {
                        Priority::Low => "low",
                        Priority::Normal => "normal",
                        Priority::High => "high",
                    }
                    .into(),
                ),
            ),
        ])
    }

    fn handle_cancel(&self, id: u64) -> Json {
        let Some(entry) = self.entry(id) else {
            return unknown_job(id);
        };
        let cancelled = if entry.settled.load(Ordering::Acquire) {
            false
        } else {
            let won = lock(&entry.handle).cancel();
            if won {
                entry.settle(self, Outcome::Cancelled);
            }
            won
        };
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("job".to_string(), Json::Num(id as f64)),
            ("cancelled".to_string(), Json::Bool(cancelled)),
            ("status".to_string(), Json::Str(entry.status_str().into())),
        ])
    }

    fn handle_status(&self, id: u64) -> Json {
        let Some(entry) = self.entry(id) else {
            return unknown_job(id);
        };
        entry.try_settle(self);
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("job".to_string(), Json::Num(id as f64)),
            ("status".to_string(), Json::Str(entry.status_str().into())),
        ])
    }

    fn handle_wait(&self, id: u64, timeout_ms: Option<u64>, include_values: bool) -> Json {
        let Some(entry) = self.entry(id) else {
            return unknown_job(id);
        };
        let total = Duration::from_millis(timeout_ms.unwrap_or(self.config.default_wait_ms));
        let deadline = Instant::now() + total;
        loop {
            if let Some(reply) = self.outcome_reply(&entry, include_values) {
                return reply;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            // Short chunks so the handle mutex is released often
            // (cancels interleave) and shutdown is noticed promptly.
            let chunk = remaining.min(self.config.tick * 2);
            if !entry.poll_and_settle(self, chunk) && remaining.is_zero() {
                return Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("job".to_string(), Json::Num(id as f64)),
                    ("status".to_string(), Json::Str(entry.status_str().into())),
                    ("timed_out".to_string(), Json::Bool(true)),
                ]);
            }
        }
    }

    fn outcome_reply(&self, entry: &JobEntry, include_values: bool) -> Option<Json> {
        let outcome = lock(&entry.outcome);
        match outcome.as_ref()? {
            Outcome::Done(result) => Some(Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("job".to_string(), Json::Num(entry.id as f64)),
                ("status".to_string(), Json::Str("done".into())),
                ("result".to_string(), result_to_json(result, include_values)),
            ])),
            Outcome::Cancelled => Some(lost_reply(entry.id, ErrorCode::Cancelled)),
            Outcome::Expired => Some(lost_reply(entry.id, ErrorCode::Expired)),
            Outcome::Lost => Some(lost_reply(entry.id, ErrorCode::JobLost)),
        }
    }

    fn handle_stats(&self) -> Json {
        let latency = self.latency_us.snapshot();
        // Histogram percentiles are bucket upper bounds: ≤2x-coarse
        // estimates, Null until the first job completes.
        let ms = |us: u64| {
            if latency.count == 0 {
                Json::Null
            } else {
                Json::Num(us as f64 / 1e3)
            }
        };
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            (
                "pending".to_string(),
                Json::Num(self.runtime.pending() as f64),
            ),
            (
                "running".to_string(),
                Json::Num(self.runtime.running() as f64),
            ),
            (
                "submitted".to_string(),
                Json::Num(self.runtime.submitted() as f64),
            ),
            (
                "completed".to_string(),
                Json::Num(self.runtime.completed() as f64),
            ),
            (
                "cancelled".to_string(),
                Json::Num(self.runtime.cancelled() as f64),
            ),
            (
                "expired".to_string(),
                Json::Num(self.runtime.expired() as f64),
            ),
            (
                "failed".to_string(),
                Json::Num(self.runtime.failed() as f64),
            ),
            (
                "max_pending".to_string(),
                Json::Num(self.config.max_pending as f64),
            ),
            (
                "per_client_quota".to_string(),
                Json::Num(self.config.per_client_quota as f64),
            ),
            (
                "connections_open".to_string(),
                Json::Num(self.connections_open.load(Ordering::Relaxed) as f64),
            ),
            (
                "connections_total".to_string(),
                Json::Num(self.connections_total.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_overload".to_string(),
                Json::Num(self.rejected_overload.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_quota".to_string(),
                Json::Num(self.rejected_quota.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_draining".to_string(),
                Json::Num(self.rejected_draining.load(Ordering::Relaxed) as f64),
            ),
            (
                "bad_requests".to_string(),
                Json::Num(self.bad_requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "disconnect_cancelled".to_string(),
                Json::Num(self.disconnect_cancelled.load(Ordering::Relaxed) as f64),
            ),
            ("median_latency_ms".to_string(), ms(latency.p50)),
            ("p99_latency_ms".to_string(), ms(latency.p99)),
            ("draining".to_string(), Json::Bool(self.is_draining())),
        ])
    }

    /// The `metrics` verb: the full process-wide registry snapshot
    /// (every `cache.*`, `pool.*`, `sched.*`, `stage.*` metric) under
    /// `"registry"`, daemon-local admission metrics under `"serve"`,
    /// and Prometheus-style text under `"text"` when configured.
    fn handle_metrics(&self) -> Json {
        let registry = Registry::global();
        let registry_fields: Vec<(String, Json)> = registry
            .snapshot()
            .into_iter()
            .map(|(name, value)| (name, metric_value_to_json(&value)))
            .collect();
        let serve_fields = vec![
            (
                "job_latency_us".to_string(),
                metric_value_to_json(&MetricValue::Histogram(self.latency_us.snapshot())),
            ),
            (
                "connections_open".to_string(),
                Json::Num(self.connections_open.load(Ordering::Relaxed) as f64),
            ),
            (
                "connections_total".to_string(),
                Json::Num(self.connections_total.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_overload".to_string(),
                Json::Num(self.rejected_overload.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_quota".to_string(),
                Json::Num(self.rejected_quota.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_draining".to_string(),
                Json::Num(self.rejected_draining.load(Ordering::Relaxed) as f64),
            ),
            (
                "bad_requests".to_string(),
                Json::Num(self.bad_requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "disconnect_cancelled".to_string(),
                Json::Num(self.disconnect_cancelled.load(Ordering::Relaxed) as f64),
            ),
        ];
        let mut fields = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("registry".to_string(), Json::Obj(registry_fields)),
            ("serve".to_string(), Json::Obj(serve_fields)),
        ];
        if self.config.metrics_text {
            fields.push(("text".to_string(), Json::Str(registry.render_prometheus())));
        }
        Json::Obj(fields)
    }

    fn handle_drain(&self) -> Json {
        self.drain_and_stop();
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("drained".to_string(), Json::Bool(true)),
            (
                "completed".to_string(),
                Json::Num(self.runtime.completed() as f64),
            ),
        ])
    }
}

/// Render a registry metric value for the `metrics` reply: counters and
/// gauges become plain numbers, histograms a `{count, sum, p50, p90,
/// p99}` object (percentiles are log2-bucket upper bounds).
fn metric_value_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::Num(*v as f64),
        MetricValue::Gauge(v) => Json::Num(*v as f64),
        MetricValue::Histogram(snap) => Json::Obj(vec![
            ("count".to_string(), Json::Num(snap.count as f64)),
            ("sum".to_string(), Json::Num(snap.sum as f64)),
            ("p50".to_string(), Json::Num(snap.p50 as f64)),
            ("p90".to_string(), Json::Num(snap.p90 as f64)),
            ("p99".to_string(), Json::Num(snap.p99 as f64)),
        ]),
    }
}

fn retry_field(retry: Duration) -> (String, Json) {
    (
        "retry_after_ms".to_string(),
        Json::Num((retry.as_secs_f64() * 1e3).ceil()),
    )
}

fn error_reply(code: ErrorCode, message: &str, extra: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(code.as_str().into())),
        ("message".to_string(), Json::Str(message.into())),
    ];
    fields.extend(extra);
    Json::Obj(fields)
}

fn lost_reply(id: u64, code: ErrorCode) -> Json {
    let message = match code {
        ErrorCode::Cancelled => "job was cancelled before it ran",
        ErrorCode::Expired => "job's deadline expired before it ran",
        _ => "job was lost (it panicked or the runtime shut down)",
    };
    error_reply(
        code,
        message,
        vec![("job".to_string(), Json::Num(id as f64))],
    )
}

fn unknown_job(id: u64) -> Json {
    error_reply(
        ErrorCode::UnknownJob,
        &format!("no job {id} is registered (never submitted, or evicted)"),
        vec![],
    )
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.write_all(bytes),
            Conn::Tcp(s) => s.write_all(bytes),
        }
    }
}

/// A running daemon: its shared state plus the accept-loop thread.
///
/// Dropping the handle shuts the daemon down (without draining —
/// queued jobs are lost); call [`Self::drain`] first for a graceful
/// stop, or use the `drain` verb from a client.
pub struct DaemonHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    socket_path: Option<PathBuf>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("local_addr", &self.local_addr)
            .field("socket_path", &self.socket_path)
            .finish_non_exhaustive()
    }
}

impl DaemonHandle {
    /// The shared daemon state (counters, drain control).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The bound TCP address (for `--listen 127.0.0.1:0` setups);
    /// `None` for Unix-socket daemons.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Graceful drain: stop admission, finish everything, flush
    /// waiters, stop the daemon. The SIGTERM path of the binary.
    pub fn drain(&self) {
        self.state.drain_and_stop();
    }

    /// Blocks until the accept loop (and every connection thread) has
    /// exited. Call after [`Self::drain`] or after a client issued the
    /// `drain` verb.
    pub fn join(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Starts a daemon on a Unix socket at `path` (a stale socket file
/// from a previous run is removed first).
pub fn spawn_unix(path: impl AsRef<Path>, config: ServeConfig) -> std::io::Result<DaemonHandle> {
    let path = path.as_ref().to_path_buf();
    if path.exists() {
        std::fs::remove_file(&path)?;
    }
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;
    spawn(Listener::Unix(listener), config, None, Some(path))
}

/// Starts a daemon on a TCP socket (`addr` like `127.0.0.1:7070`;
/// port 0 picks a free port — read it back via
/// [`DaemonHandle::local_addr`]).
pub fn spawn_tcp(addr: &str, config: ServeConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    spawn(Listener::Tcp(listener), config, Some(local), None)
}

fn spawn(
    listener: Listener,
    config: ServeConfig,
    local_addr: Option<SocketAddr>,
    socket_path: Option<PathBuf>,
) -> std::io::Result<DaemonHandle> {
    let state = ServerState::new(config)?;
    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("oscar-serve-accept".into())
        .spawn(move || accept_loop(listener, &accept_state))?;
    Ok(DaemonHandle {
        state,
        accept: Some(accept),
        local_addr,
        socket_path,
    })
}

fn accept_loop(listener: Listener, state: &Arc<ServerState>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !state.is_shut_down() {
        let conn = match &listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        };
        match conn {
            Ok(conn) => {
                let state = Arc::clone(state);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("oscar-serve-conn".into())
                    .spawn(move || connection_loop(conn, &state))
                {
                    connections.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                state.tick();
                std::thread::sleep(state.config.tick);
                connections.retain(|c| !c.is_finished());
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off a
                // tick rather than spinning or dying.
                std::thread::sleep(state.config.tick);
            }
        }
    }
    for conn in connections {
        let _ = conn.join();
    }
}

fn connection_loop(mut conn: Conn, state: &Arc<ServerState>) {
    if conn.set_read_timeout(state.config.tick).is_err() {
        return;
    }
    state.connections_total.fetch_add(1, Ordering::Relaxed);
    state.connections_open.fetch_add(1, Ordering::Relaxed);
    let client = Arc::new(ClientSlot::default());
    let mut submitted: Vec<u64> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // When a line overflows the bound we reply once, then discard
    // bytes up to the next newline to resynchronize.
    let mut discarding = false;
    let mut clean_shutdown = false;

    'conn: loop {
        if state.is_shut_down() {
            clean_shutdown = true;
            break;
        }
        match conn.read_some(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    if discarding {
                        discarding = false;
                        continue;
                    }
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    // A complete line can still exceed the bound when
                    // the whole thing (newline included) lands in one
                    // read — enforcement must not depend on how the
                    // kernel segments the byte stream.
                    if line.len() > state.config.max_line_bytes {
                        if conn.write_all_bytes(&line_too_long_reply(state)).is_err() {
                            break 'conn;
                        }
                        continue;
                    }
                    let (reply, drain) = handle_line(state, &client, &mut submitted, line);
                    let mut bytes = reply.to_string_compact().into_bytes();
                    bytes.push(b'\n');
                    if conn.write_all_bytes(&bytes).is_err() {
                        break 'conn;
                    }
                    if drain {
                        clean_shutdown = true;
                        break 'conn;
                    }
                }
                if buf.len() > state.config.max_line_bytes {
                    buf.clear();
                    discarding = true;
                    if conn.write_all_bytes(&line_too_long_reply(state)).is_err() {
                        break 'conn;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        }
    }

    // Failure containment: a dying client's still-queued jobs are
    // cancelled (running jobs finish — their results may be claimed by
    // another connection). A clean shutdown (drain) keeps everything.
    if !clean_shutdown && !state.is_draining() {
        for id in submitted {
            if let Some(entry) = state.entry(id) {
                if !entry.settled.load(Ordering::Acquire) && lock(&entry.handle).cancel() {
                    entry.settle(state, Outcome::Cancelled);
                    state.disconnect_cancelled.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    state.connections_open.fetch_sub(1, Ordering::Relaxed);
}

/// The wire bytes of a `line-too-long` reply (newline included).
fn line_too_long_reply(state: &Arc<ServerState>) -> Vec<u8> {
    let reply = error_reply(
        ErrorCode::LineTooLong,
        &format!("request line exceeds {} bytes", state.config.max_line_bytes),
        vec![],
    );
    let mut bytes = reply.to_string_compact().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Parses and executes one request line; returns the reply and whether
/// the connection (and daemon) should now shut down (drain verb).
fn handle_line(
    state: &Arc<ServerState>,
    client: &Arc<ClientSlot>,
    submitted: &mut Vec<u64>,
    line: &str,
) -> (Json, bool) {
    let parsed = match crate::json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            state.bad_requests.fetch_add(1, Ordering::Relaxed);
            return (
                error_reply(ErrorCode::BadJson, &format!("invalid JSON: {e}"), vec![]),
                false,
            );
        }
    };
    let request = match Request::from_json(&parsed) {
        Ok(r) => r,
        Err(RequestError { code, message }) => {
            state.bad_requests.fetch_add(1, Ordering::Relaxed);
            return (error_reply(code, &message, vec![]), false);
        }
    };
    match request {
        Request::Submit(req) => {
            let reply = state.handle_submit(client, &req);
            if let Some(id) = reply.get("job").and_then(Json::as_u64) {
                submitted.push(id);
            }
            (reply, false)
        }
        Request::Cancel { job } => (state.handle_cancel(job), false),
        Request::Status { job } => (state.handle_status(job), false),
        Request::Wait {
            job,
            timeout_ms,
            include_values,
        } => (state.handle_wait(job, timeout_ms, include_values), false),
        Request::Stats => (state.handle_stats(), false),
        Request::Metrics => (state.handle_metrics(), false),
        Request::Drain => (state.handle_drain(), true),
    }
}
