//! The batch job scheduler: bounded-concurrency execution of many
//! reconstruction jobs over the shared worker pool.
//!
//! [`BatchRuntime`] owns a small set of persistent *executor* threads
//! (the concurrency bound) draining a priority queue of [`JobSpec`]s:
//! higher-[`Priority`] jobs dispatch first; within a priority level,
//! jobs carrying a deadline dispatch earliest-deadline-first ahead of
//! deadline-less jobs, and deadline-less jobs keep FIFO submission
//! order. Each executor runs one job at a time through the full
//! pipeline ([`crate::job::run_job`]); the data-parallel stages inside
//! a job (landscape evaluation, large-grid DCT passes) delegate to the
//! global `oscar-par` worker pool, whose chunk-stealing workers are
//! shared by every concurrently running job — so job-level and
//! data-level parallelism compose without oversubscribing the machine.
//!
//! Priorities, deadlines, and cancellation change *when* (and whether)
//! a job runs, never *what* it computes: a [`crate::job::JobResult`]
//! is a pure function of its spec, so results stay bit-identical under
//! any dispatch order.
//!
//! Submission is asynchronous: [`BatchRuntime::submit`] returns a
//! [`JobHandle`] immediately. The handle and the queue entry share one
//! slot holding the job's whole lifecycle, so a handle can be cloned
//! and read any number of times: [`JobHandle::status`] reads the slot,
//! [`JobHandle::wait_timeout`] blocks (boundedly) until the slot holds
//! the shared result, [`JobHandle::wait`] consumes the handle for the
//! owned [`JobResult`], and [`JobHandle::cancel`] drops a still-queued
//! job without running it. A queued job whose
//! [`SubmitOptions::deadline`] passes before an executor reaches it is
//! cancelled server-side — it never runs, and its handle reports an
//! *expired* [`JobLost`]. Overdue entries are discarded when an
//! executor pops them; a long-running service can additionally call
//! [`BatchRuntime::expire_overdue`] to sweep them out of the queue
//! eagerly. [`BatchRuntime::run_batch`] is the
//! synchronous convenience that submits a whole batch and returns
//! results in submission order, and [`BatchRuntime::drain`] blocks
//! until everything admitted so far has finished — the graceful-
//! shutdown hook `oscar-serve` uses.

use crate::cache::{lock, CacheStats, LandscapeCache};
use crate::job::{run_job, JobResult, JobSpec};
use oscar_obs::Histogram;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Jobs running simultaneously (executor threads). Defaults to the
    /// `oscar-par` worker budget (`OSCAR_THREADS` or the machine's
    /// available parallelism).
    pub concurrency: usize,
    /// Ground-truth landscapes kept resident in the LRU cache.
    pub landscape_cache_capacity: usize,
    /// Optional persistent disk tier under the landscape cache
    /// ([`crate::store::LandscapeStore`]): in-memory misses probe it,
    /// fresh landscapes are written behind. `None` (the default) keeps
    /// the runtime purely in-memory.
    pub store: Option<Arc<crate::store::LandscapeStore>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            concurrency: oscar_par::max_threads(),
            landscape_cache_capacity: 32,
            store: None,
        }
    }
}

/// Dispatch priority of a submitted job. Higher priorities leave the
/// queue first; jobs of equal priority dispatch in submission order
/// (FIFO tie-break), so a stream of same-priority jobs behaves exactly
/// like the pre-priority scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: dispatched only when nothing else waits.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: jumps ahead of every queued non-high job.
    High,
}

impl Priority {
    /// Every priority, dispatch order (lowest first).
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// The priority's metric-name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Scheduler telemetry (`sched.*` in the obs registry), resolved once.
/// The gauges/counters mirror the runtime's own atomics so `oscar-serve`
/// can expose scheduler health without a reference to the runtime.
struct SchedMetrics {
    queue_depth: [oscar_obs::Gauge; 3],
    dispatch_wait_us: oscar_obs::Histogram,
    submitted: oscar_obs::Counter,
    completed: oscar_obs::Counter,
    cancelled: oscar_obs::Counter,
    expired: oscar_obs::Counter,
    failed: oscar_obs::Counter,
}

fn sched_metrics() -> &'static SchedMetrics {
    static METRICS: std::sync::OnceLock<SchedMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = oscar_obs::Registry::global();
        SchedMetrics {
            queue_depth: Priority::ALL
                .map(|p| registry.gauge(&format!("sched.queue_depth.{}", p.as_str()))),
            dispatch_wait_us: registry.histogram("sched.dispatch_wait_us"),
            submitted: registry.counter("sched.submitted"),
            completed: registry.counter("sched.completed"),
            cancelled: registry.counter("sched.cancelled"),
            expired: registry.counter("sched.expired"),
            failed: registry.counter("sched.failed"),
        }
    })
}

/// Everything [`BatchRuntime::submit_opts`] can attach to a job beyond
/// its spec: a dispatch [`Priority`] and an optional absolute deadline.
///
/// A deadline changes scheduling two ways. While queued, the job sorts
/// earliest-deadline-first *within its priority level*, ahead of
/// deadline-less jobs of the same priority (callers that want a
/// deadline to outrank higher static priorities map it to a higher
/// [`Priority`] themselves — `oscar-serve` derives that mapping from
/// observed latency percentiles). And once the deadline passes, a job
/// still queued is cancelled server-side: it never runs, and its
/// handle's wait reports an expired [`JobLost`]. A deadline never
/// interrupts a job that already started.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Dispatch priority ([`Priority::Normal`] by default).
    pub priority: Priority,
    /// Absolute wall-clock deadline for *starting* the job. `None`
    /// (the default) means the job waits indefinitely.
    pub deadline: Option<Instant>,
}

impl SubmitOptions {
    /// Options with the given priority and no deadline.
    pub fn with_priority(priority: Priority) -> Self {
        SubmitOptions {
            priority,
            deadline: None,
        }
    }

    /// Replaces the deadline (builder-style).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Observable lifecycle of a submitted job (see [`JobHandle::status`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Claimed by an executor and running.
    Running,
    /// The result exists; every wait on any clone of the handle
    /// returns it.
    Done,
    /// Dropped from the queue by [`JobHandle::cancel`] before running.
    Cancelled,
    /// Dropped from the queue because its [`SubmitOptions::deadline`]
    /// passed before an executor reached it.
    Expired,
    /// No result will ever exist: the job panicked while running, or
    /// the runtime was dropped with the job still queued.
    Failed,
}

impl JobStatus {
    /// `true` for the states a job never leaves: everything but
    /// [`JobStatus::Queued`] and [`JobStatus::Running`].
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// One job's lifecycle, shared by its queue entry and every clone of
/// its [`JobHandle`]. Transitions: `Queued -> Running -> Done` on the
/// normal path; `Queued -> Cancelled` for a cancel that wins the race
/// with dispatch; `Queued -> Expired` for a deadline that passes
/// first; `Running -> Lost` when the job panics and `Queued -> Lost`
/// when the runtime is dropped with the job still queued. A cancel
/// that arrives after dispatch changes nothing: the job runs to
/// `Done`. The last four states are terminal.
enum Slot {
    Queued,
    Running,
    Done(Arc<JobResult>),
    Cancelled,
    Expired,
    Lost,
}

impl Slot {
    fn is_pending(&self) -> bool {
        matches!(self, Slot::Queued | Slot::Running)
    }
}

/// The slot plus the condition variable its waiters block on.
struct JobCell {
    slot: Mutex<Slot>,
    settled: Condvar,
}

impl JobCell {
    /// Moves a queued job to `next` (running, cancelled or expired),
    /// running `on_leave` first under the slot lock, so counters it
    /// bumps are current by the time any handle sees the new state.
    /// Returns `false`, changing nothing, when the job already left the
    /// queue state.
    fn leave_queue(&self, next: Slot, on_leave: impl FnOnce()) -> bool {
        let mut slot = lock(&self.slot);
        if !matches!(*slot, Slot::Queued) {
            return false;
        }
        on_leave();
        *slot = next;
        if !slot.is_pending() {
            self.settled.notify_all();
        }
        true
    }

    /// Settles a still-pending job with the terminal `outcome` and
    /// wakes every waiter; a job already settled keeps its outcome.
    fn settle(&self, outcome: Slot) {
        let mut slot = lock(&self.slot);
        if slot.is_pending() {
            *slot = outcome;
            self.settled.notify_all();
        }
    }
}

struct QueuedJob {
    priority: Priority,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    spec: JobSpec,
    handle: JobHandle,
}

impl Drop for QueuedJob {
    /// An entry that goes away before its job settled — the job
    /// panicked, or the runtime abandoned the entry at shutdown —
    /// settles it lost, so no waiter blocks forever.
    fn drop(&mut self) {
        self.handle.cell.settle(Slot::Lost);
    }
}

// The heap is a max-heap: order by priority, then earliest deadline
// first within a level (a deadline-less job sorts after every
// deadlined one), then by *reversed* id so the smallest
// (earliest-submitted) id wins among remaining ties.
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (None, None) => std::cmp::Ordering::Equal,
            })
            .then_with(|| other.handle.id.cmp(&self.handle.id))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.handle.id == other.handle.id
    }
}

impl Eq for QueuedJob {}

struct SchedInner {
    queue: Mutex<BinaryHeap<QueuedJob>>,
    cv: Condvar,
    /// Signaled (under the queue mutex) whenever a job settles or a
    /// queue entry is discarded — [`BatchRuntime::drain`] waits here.
    done_cv: Condvar,
    shutdown: AtomicBool,
    cache: LandscapeCache,
    submitted: AtomicU64,
    dispatched: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    running: AtomicU64,
    latency_us: Histogram,
}

impl SchedInner {
    /// Notifies drain waiters that progress happened (a job settled or
    /// a queue entry was discarded). Locks the queue briefly so the
    /// notification pairs with [`BatchRuntime::drain`]'s locked wait.
    fn notify_progress(&self) {
        drop(lock(&self.queue));
        self.done_cv.notify_all();
    }

    /// Marks a still-queued `job` expired, counting it before any of
    /// its handles can see the expiry; `false` when it already left the
    /// queue state.
    fn expire(&self, job: &QueuedJob) -> bool {
        job.handle.cell.leave_queue(Slot::Expired, || {
            self.expired.fetch_add(1, Ordering::Relaxed);
            sched_metrics().expired.inc();
        })
    }
}

/// A persistent batch scheduler (see the [module docs](self)).
///
/// Dropping the runtime shuts it down: executors finish the job they
/// are on, remaining queued jobs are abandoned — every clone of their
/// handles resolves with `Err(`[`JobLost`]`)`. Prefer draining with
/// [`Self::drain`] / [`Self::run_batch`] or by waiting every handle
/// before drop.
pub struct BatchRuntime {
    inner: Arc<SchedInner>,
    executors: Vec<JoinHandle<()>>,
}

/// Error returned by [`JobHandle::wait`] when a job can no longer
/// produce a result: it was cancelled while queued, its deadline
/// expired while queued, the runtime was dropped while the job was
/// still queued, or the job itself panicked (the executor contains the
/// panic and keeps draining the queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobLost {
    id: u64,
    cancelled: bool,
    expired: bool,
}

impl JobLost {
    /// The scheduler-assigned id of the lost job.
    pub fn job_id(&self) -> u64 {
        self.id
    }

    /// `true` when the job was lost because [`JobHandle::cancel`]
    /// dropped it from the queue before it ran.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// `true` when the job was lost because its
    /// [`SubmitOptions::deadline`] passed before it ran.
    pub fn was_expired(&self) -> bool {
        self.expired
    }
}

impl std::fmt::Display for JobLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cancelled {
            write!(f, "job {} was cancelled before it ran", self.id)
        } else if self.expired {
            write!(f, "job {}'s deadline expired before it ran", self.id)
        } else {
            write!(
                f,
                "job {} was lost: the runtime shut down (or the job panicked) \
                 before it completed",
                self.id
            )
        }
    }
}

impl std::error::Error for JobLost {}

/// A claim ticket for one submitted job. Clones share the job's slot:
/// each sees the same status and the same [`Arc<JobResult>`], and any
/// of them can cancel the job.
#[derive(Clone)]
pub struct JobHandle {
    id: u64,
    cell: Arc<JobCell>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The scheduler-assigned job id (submission order, starting at 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's current lifecycle state. A `Done` status stays `Done`
    /// however many times the result is read; `Cancelled`, `Expired`,
    /// and `Failed` are terminal: the job will never produce a result.
    pub fn status(&self) -> JobStatus {
        match *lock(&self.cell.slot) {
            Slot::Queued => JobStatus::Queued,
            Slot::Running => JobStatus::Running,
            Slot::Done(_) => JobStatus::Done,
            Slot::Cancelled => JobStatus::Cancelled,
            Slot::Expired => JobStatus::Expired,
            Slot::Lost => JobStatus::Failed,
        }
    }

    /// Blocks until the job finishes and returns its result, or
    /// `Err(`[`JobLost`]`)` when it never will: the job was cancelled
    /// or its deadline expired while queued, the runtime was dropped
    /// with it still queued, or it panicked — callers can distinguish
    /// every no-result path from success instead of unwinding.
    ///
    /// A job already cancelled or expired returns `Err` immediately,
    /// even while its dead queue entry still waits to be discarded.
    /// The result is moved out without a copy when this is the last
    /// handle; otherwise the shared result is cloned.
    pub fn wait(self) -> Result<JobResult, JobLost> {
        let shared = {
            let slot = self
                .cell
                .settled
                .wait_while(lock(&self.cell.slot), |slot| slot.is_pending())
                .unwrap_or_else(PoisonError::into_inner);
            match &*slot {
                Slot::Done(result) => Arc::clone(result),
                settled => return Err(self.lost(settled)),
            }
        };
        // Dropping the last handle drops the slot's reference too.
        drop(self);
        Ok(Arc::try_unwrap(shared).unwrap_or_else(|shared| JobResult::clone(&shared)))
    }

    /// Bounded wait: blocks up to `timeout` for the result.
    ///
    /// Returns `Ok(Some(result))` when the job finished — every call,
    /// on every clone of the handle, returns the same shared result —
    /// `Ok(None)` when the timeout elapsed with the job still pending
    /// (call again later), and `Err(`[`JobLost`]`)` when the job will
    /// never produce a result (cancelled, expired, runtime dropped, or
    /// panicked).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<Arc<JobResult>>, JobLost> {
        let (slot, _) = self
            .cell
            .settled
            .wait_timeout_while(lock(&self.cell.slot), timeout, |slot| slot.is_pending())
            .unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Slot::Queued | Slot::Running => Ok(None),
            Slot::Done(result) => Ok(Some(Arc::clone(result))),
            settled => Err(self.lost(settled)),
        }
    }

    /// Requests cancellation. Returns `true` when the job was still
    /// queued and is now dropped: it will never run, costs nothing
    /// further, and every wait reports it as a cancelled [`JobLost`].
    /// Returns `false`, changing nothing, when the job already started
    /// (it is not interrupted; its result is still delivered) or
    /// already settled.
    ///
    /// Cheap either way: one slot transition; the queue entry is
    /// discarded lazily when an executor pops it (or eagerly by
    /// [`BatchRuntime::expire_overdue`]).
    pub fn cancel(&self) -> bool {
        self.cell.leave_queue(Slot::Cancelled, || {})
    }

    /// `true` once the job has run to an end: its result exists
    /// ([`JobStatus::Done`]) or it never will ([`JobStatus::Failed`]).
    pub fn is_finished(&self) -> bool {
        matches!(self.status(), JobStatus::Done | JobStatus::Failed)
    }

    /// The [`JobLost`] matching a settled, result-less slot.
    fn lost(&self, slot: &Slot) -> JobLost {
        JobLost {
            id: self.id,
            cancelled: matches!(slot, Slot::Cancelled),
            expired: matches!(slot, Slot::Expired),
        }
    }
}

impl BatchRuntime {
    /// Starts a runtime with `config.concurrency` executor threads.
    pub fn new(config: RuntimeConfig) -> Self {
        let inner = Arc::new(SchedInner {
            queue: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: LandscapeCache::with_store(
                config.landscape_cache_capacity.max(1),
                config.store.clone(),
            ),
            submitted: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            running: AtomicU64::new(0),
            latency_us: Histogram::new(),
        });
        let executors = (0..config.concurrency.max(1))
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("oscar-exec-{k}"))
                    .spawn(move || executor_loop(&inner))
                    // lint:allow(no-panic): spawn failure at startup
                    // means the host is out of threads; there is no
                    // runtime to degrade into yet.
                    .expect("failed to spawn executor thread")
            })
            .collect();
        BatchRuntime { inner, executors }
    }

    /// Starts a runtime with the default configuration.
    pub fn with_concurrency(concurrency: usize) -> Self {
        BatchRuntime::new(RuntimeConfig {
            concurrency,
            ..RuntimeConfig::default()
        })
    }

    /// Enqueues a job at [`Priority::Normal`] and returns its handle
    /// immediately.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        self.submit_opts(spec, SubmitOptions::default())
    }

    /// Enqueues a job at `priority` and returns its handle immediately.
    /// Among queued jobs, higher priority dispatches first; equal
    /// priorities dispatch in submission order.
    pub fn submit_with_priority(&self, spec: JobSpec, priority: Priority) -> JobHandle {
        self.submit_opts(spec, SubmitOptions::with_priority(priority))
    }

    /// Enqueues a job with full [`SubmitOptions`] (priority and
    /// optional start deadline) and returns its handle immediately.
    pub fn submit_opts(&self, spec: JobSpec, opts: SubmitOptions) -> JobHandle {
        let handle = JobHandle {
            id: self.inner.submitted.fetch_add(1, Ordering::Relaxed) + 1,
            cell: Arc::new(JobCell {
                slot: Mutex::new(Slot::Queued),
                settled: Condvar::new(),
            }),
        };
        lock(&self.inner.queue).push(QueuedJob {
            priority: opts.priority,
            deadline: opts.deadline,
            // lint:allow(wall-clock): queue-wait bookkeeping only;
            // never reaches a JobResult.
            enqueued_at: Instant::now(),
            spec,
            handle: handle.clone(),
        });
        let metrics = sched_metrics();
        metrics.submitted.inc();
        metrics.queue_depth[opts.priority.index()].inc();
        self.inner.cv.notify_one();
        handle
    }

    /// Submits every spec at [`Priority::Normal`] and waits for all
    /// results, returned in submission order.
    ///
    /// Returns `Err(`[`JobLost`]`)` carrying the first failed job's id
    /// if any job panicked (the executor contains the panic, reports
    /// that job lost, and keeps draining the rest); the runtime itself
    /// stays alive for the whole call, so a panicked job is the only
    /// way a batch job can be lost. Use [`Self::submit`] +
    /// [`JobHandle::wait`] for per-job error handling.
    pub fn run_batch(
        &self,
        specs: impl IntoIterator<Item = JobSpec>,
    ) -> Result<Vec<JobResult>, JobLost> {
        let handles: Vec<JobHandle> = specs.into_iter().map(|s| self.submit(s)).collect();
        handles.into_iter().map(|h| h.wait()).collect()
    }

    /// Sweeps the queue, discarding entries that will never run: jobs
    /// whose [`SubmitOptions::deadline`] has passed (marked expired,
    /// which wakes their waiters with the expired [`JobLost`] now
    /// instead of when an executor eventually pops the dead entry) and
    /// jobs already cancelled by their handle. Returns how many jobs
    /// expired in this sweep.
    ///
    /// Executors also discard overdue entries at pop time; this sweep
    /// exists so a long-running service (whose executors may be busy
    /// for seconds) can bound how long expired waiters linger. It
    /// rebuilds the heap, so it is O(queue) — call it from a periodic
    /// tick, not a hot path.
    pub fn expire_overdue(&self) -> u64 {
        // lint:allow(wall-clock): deadline enforcement is inherently
        // wall-clock; expired jobs never produce results.
        let now = Instant::now();
        let mut expired_now = 0;
        let mut queue = lock(&self.inner.queue);
        if queue.is_empty() {
            return 0;
        }
        let entries = std::mem::take(&mut *queue).into_vec();
        let mut kept = Vec::with_capacity(entries.len());
        let mut discarded = false;
        let metrics = sched_metrics();
        for job in entries {
            if job.handle.status() == JobStatus::Cancelled {
                self.inner.cancelled.fetch_add(1, Ordering::Relaxed);
                metrics.cancelled.inc();
                metrics.queue_depth[job.priority.index()].dec();
                discarded = true;
                continue;
            }
            if let Some(deadline) = job.deadline {
                if now >= deadline && self.inner.expire(&job) {
                    metrics.queue_depth[job.priority.index()].dec();
                    expired_now += 1;
                    discarded = true;
                    continue;
                }
            }
            kept.push(job);
        }
        *queue = BinaryHeap::from(kept);
        drop(queue);
        if discarded {
            self.inner.done_cv.notify_all();
        }
        expired_now
    }

    /// Blocks until every job admitted so far has settled: the queue is
    /// empty and no executor is running a job. Queued jobs run to
    /// completion (cancelled/expired entries are discarded), so every
    /// outstanding handle resolves. The graceful-shutdown hook: stop
    /// submitting, `drain()`, then drop the runtime.
    ///
    /// Callers must stop submitting first — a concurrent submitter can
    /// extend the drain indefinitely.
    pub fn drain(&self) {
        let mut queue = lock(&self.inner.queue);
        loop {
            if queue.is_empty() && self.inner.running.load(Ordering::Acquire) == 0 {
                return;
            }
            queue = self
                .inner
                .done_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Landscape-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Jobs dropped from the queue by [`JobHandle::cancel`] before they
    /// ran.
    pub fn cancelled(&self) -> u64 {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Jobs dropped from the queue because their deadline passed before
    /// they ran.
    pub fn expired(&self) -> u64 {
        self.inner.expired.load(Ordering::Relaxed)
    }

    /// Jobs that panicked while running (contained; no result).
    pub fn failed(&self) -> u64 {
        self.inner.failed.load(Ordering::Relaxed)
    }

    /// Wall times ([`JobResult::wall`]) of this runtime's completed
    /// jobs, in microseconds. Owned by the runtime rather than the
    /// global registry, so two runtimes in one process never mix their
    /// latency estimates.
    pub fn job_latency_us(&self) -> &Histogram {
        &self.inner.latency_us
    }

    /// Queue depth: entries waiting for an executor. Includes entries
    /// already cancelled or expired but not yet discarded (they cost a
    /// pop, not a run); [`Self::expire_overdue`] sweeps those out.
    pub fn pending(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Queue entries claimed by executors and not yet settled (running
    /// jobs, plus entries an executor is about to discard as cancelled
    /// or expired).
    pub fn running(&self) -> u64 {
        self.inner.running.load(Ordering::Acquire)
    }

    /// The concurrency bound (number of executors).
    pub fn concurrency(&self) -> usize {
        self.executors.len()
    }
}

impl Drop for BatchRuntime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Lock/unlock pairs with executors' wait to avoid missed wakeups.
        drop(lock(&self.inner.queue));
        self.inner.cv.notify_all();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // Discard the entries abandoned in the queue: each settles its
        // job lost as it drops (a cancelled or expired one keeps that
        // outcome), so every outstanding handle wakes with
        // `Err(JobLost)` rather than blocking forever. Settle the
        // queue-depth gauges too, so the process-wide depth does not
        // leak across runtimes.
        let metrics = sched_metrics();
        for job in lock(&self.inner.queue).drain() {
            metrics.queue_depth[job.priority.index()].dec();
        }
    }
}

impl std::fmt::Debug for BatchRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRuntime")
            .field("concurrency", &self.executors.len())
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .field("cancelled", &self.cancelled())
            .field("expired", &self.expired())
            .field("pending", &self.pending())
            .field("running", &self.running())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

fn executor_loop(inner: &SchedInner) {
    let metrics = sched_metrics();
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = queue.pop() {
                    // Count the entry in-flight while still holding the
                    // queue lock: `drain` checks `queue.is_empty() &&
                    // running == 0` under this same lock, so it can
                    // never observe the gap between a pop and the
                    // claimed job becoming visible.
                    inner.running.fetch_add(1, Ordering::AcqRel);
                    break job;
                }
                queue = inner.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Popped: the entry is out of the queue whatever happens next.
        metrics.queue_depth[job.priority.index()].dec();
        // Expire an overdue entry before claiming it: it never runs,
        // and its waiters wake with the expired error.
        if let Some(deadline) = job.deadline {
            // lint:allow(wall-clock): deadline check at pop time; an
            // expired job is dropped, not computed.
            if Instant::now() >= deadline && inner.expire(&job) {
                drop(job);
                inner.running.fetch_sub(1, Ordering::AcqRel);
                inner.notify_progress();
                continue;
            }
        }
        // Claim the job. A cancel that won the race already settled it
        // (its waiters have the cancelled error): discard the entry and
        // keep draining.
        if !job.handle.cell.leave_queue(Slot::Running, || {}) {
            if job.handle.status() == JobStatus::Cancelled {
                inner.cancelled.fetch_add(1, Ordering::Relaxed);
                metrics.cancelled.inc();
            }
            drop(job);
            inner.running.fetch_sub(1, Ordering::AcqRel);
            inner.notify_progress();
            continue;
        }
        metrics
            .dispatch_wait_us
            .record_duration(job.enqueued_at.elapsed());
        let seq = inner.dispatched.fetch_add(1, Ordering::Relaxed) + 1;
        // Scope stage spans recorded inside the pipeline to this job's
        // scheduler id (telemetry only — never enters the result).
        let _span_scope = oscar_obs::span::JobScope::enter(job.handle.id);
        // Contain a panicking job: the executor must survive to keep
        // draining the queue — if it died instead, jobs still queued
        // behind the poison pill would wait forever (their entries live
        // in the queue, which the runtime keeps alive). The panicked
        // job's entry drops unsettled below, which settles it lost.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&job.spec, Some(&inner.cache))
        }));
        if let Ok(mut result) = outcome {
            result.job_id = job.handle.id;
            result.dispatch_seq = seq;
            inner.latency_us.record_duration(result.wall);
            inner.completed.fetch_add(1, Ordering::Relaxed);
            metrics.completed.inc();
            job.handle.cell.settle(Slot::Done(Arc::new(result)));
        } else {
            inner.failed.fetch_add(1, Ordering::Relaxed);
            metrics.failed.inc();
        }
        // Release the entry (settling a panicked job lost) before
        // leaving the running count, so `drain` never returns with a
        // handle still pending.
        drop(job);
        inner.running.fetch_sub(1, Ordering::AcqRel);
        inner.notify_progress();
    }
}
