//! Per-job stage spans in a bounded overwrite ring.
//!
//! The batch pipeline runs every job through four stages — landscape
//! generation, error mitigation, CS reconstruction, descent — and this
//! module records how long each took without ever touching the job
//! *result* (wall-clock stays out of payloads, so bit-identity
//! determinism guarantees hold whether tracing is on or off).
//!
//! Two consumers share the same instrumentation points
//! ([`with_stage`]):
//!
//! * A thread-local [`JobFrame`] accumulates per-stage nanoseconds for
//!   the duration of one `run_job` call; the runtime feeds the totals
//!   into the registry's `stage.*_us` histograms.
//! * The global [`Tracer`] (enabled by the `OSCAR_TRACE` environment
//!   variable or `oscar-batch --trace`) appends one [`SpanRecord`] per
//!   stage into a preallocated ring — recording never allocates, and
//!   once the ring is full the oldest spans are overwritten (counted in
//!   [`Tracer::dropped`]). [`Tracer::export_jsonl`] writes the ring as
//!   one JSON object per line.
//!
//! With both the frame inactive and the tracer disabled, a
//! [`with_stage`] call is one thread-local read plus one relaxed load.

use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Number of traced pipeline stages.
pub const STAGE_COUNT: usize = 4;

/// Default capacity of the global tracer's span ring.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One pipeline stage of a batch job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Ground-truth landscape evaluation (exact or noisy device).
    LandscapeGen,
    /// Error-mitigation work (ZNE extrapolation, readout, Gaussian).
    Mitigation,
    /// Compressed-sensing reconstruction (FISTA).
    Reconstruction,
    /// Descent optimization on the reconstructed landscape.
    Descent,
}

impl Stage {
    /// Every stage, pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::LandscapeGen,
        Stage::Mitigation,
        Stage::Reconstruction,
        Stage::Descent,
    ];

    /// The stage's wire/metric name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::LandscapeGen => "landscape_gen",
            Stage::Mitigation => "mitigation",
            Stage::Reconstruction => "reconstruction",
            Stage::Descent => "descent",
        }
    }

    /// The stage's position in [`Stage::ALL`] (and in
    /// [`JobFrame::finish`]'s output).
    pub fn index(self) -> usize {
        match self {
            Stage::LandscapeGen => 0,
            Stage::Mitigation => 1,
            Stage::Reconstruction => 2,
            Stage::Descent => 3,
        }
    }
}

/// One recorded stage span. `start_us` is relative to the owning
/// tracer's epoch (its construction time), `dur_us` is the span length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Scheduler job id (0 for jobs run outside the scheduler).
    pub job: u64,
    /// Which pipeline stage.
    pub stage: Stage,
    /// Microseconds since the tracer epoch at span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

struct Ring {
    slots: Vec<SpanRecord>,
    next: usize,
}

/// A bounded span collector: a preallocated overwrite ring.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    cap: usize,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("cap", &self.cap)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    /// A standalone disabled tracer holding at most `cap` spans
    /// (`cap` is clamped to at least 1).
    pub fn new(cap: usize) -> Tracer {
        let cap = cap.max(1);
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            cap,
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(cap),
                next: 0,
            }),
        }
    }

    /// The process-wide tracer [`with_stage`] records into. Starts
    /// enabled iff the `OSCAR_TRACE` environment variable is set.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let tracer = Tracer::new(DEFAULT_RING_CAPACITY);
            if env_trace_path().is_some() {
                tracer.set_enabled(true);
            }
            tracer
        })
    }

    /// Turns span collection on or off (existing spans are kept).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` while spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one span (allocation-free; a no-op while disabled).
    pub fn record(&self, job: u64, stage: Stage, start: Instant, dur: Duration) {
        if !self.is_enabled() {
            return;
        }
        let record = SpanRecord {
            job,
            stage,
            start_us: start
                .checked_duration_since(self.epoch)
                .unwrap_or(Duration::ZERO)
                .as_micros()
                .min(u64::MAX as u128) as u64,
            dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
        };
        let mut ring = lock(&self.ring);
        if ring.slots.len() < self.cap {
            ring.slots.push(record);
        } else {
            let next = ring.next;
            ring.slots[next] = record;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.next = (ring.next + 1) % self.cap;
    }

    /// Number of spans currently held (saturates at capacity).
    pub fn len(&self) -> usize {
        lock(&self.ring).slots.len()
    }

    /// True when no span has been recorded (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The held spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        let ring = lock(&self.ring);
        if ring.slots.len() < self.cap {
            ring.slots.clone()
        } else {
            let (tail, head) = ring.slots.split_at(ring.next);
            head.iter().chain(tail.iter()).copied().collect()
        }
    }

    /// Empties the ring (the dropped count is retained).
    pub fn clear(&self) {
        let mut ring = lock(&self.ring);
        ring.slots.clear();
        ring.next = 0;
    }

    /// Writes the held spans as JSONL, oldest first — one
    /// `{"job":…,"stage":…,"start_us":…,"dur_us":…}` object per line.
    /// Returns the number of lines written.
    pub fn export_jsonl<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        let records = self.records();
        for r in &records {
            writeln!(
                w,
                "{{\"job\":{},\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                r.job,
                r.stage.as_str(),
                r.start_us,
                r.dur_us
            )?;
        }
        Ok(records.len())
    }
}

/// The `OSCAR_TRACE` path, read once per process.
pub fn env_trace_path() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("OSCAR_TRACE").ok())
        .as_deref()
}

/// Writes the global tracer's spans to the `OSCAR_TRACE` path if that
/// variable is set; returns the number of lines written (`None` when
/// the variable is unset).
pub fn export_env_trace() -> io::Result<Option<usize>> {
    let Some(path) = env_trace_path() else {
        return Ok(None);
    };
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = Tracer::global().export_jsonl(&mut file)?;
    Ok(Some(n))
}

#[derive(Clone, Copy)]
struct FrameState {
    active: bool,
    acc_ns: [u64; STAGE_COUNT],
}

thread_local! {
    static FRAME: Cell<FrameState> = const {
        Cell::new(FrameState { active: false, acc_ns: [0; STAGE_COUNT] })
    };
    static CURRENT_JOB: Cell<u64> = const { Cell::new(0) };
}

/// Scopes a scheduler job id onto the current thread so spans recorded
/// inside `run_job` carry it. Restores the previous id on drop.
#[derive(Debug)]
pub struct JobScope {
    prev: u64,
}

impl JobScope {
    /// Enters `job` on this thread.
    pub fn enter(job: u64) -> JobScope {
        let prev = CURRENT_JOB.with(|c| c.replace(job));
        JobScope { prev }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        CURRENT_JOB.with(|c| c.set(self.prev));
    }
}

/// The job id scoped onto this thread (0 outside any [`JobScope`]).
pub fn current_job() -> u64 {
    CURRENT_JOB.with(|c| c.get())
}

/// A per-job stage accumulator: while one is active on this thread,
/// every [`with_stage`] call adds its duration to the matching stage
/// bucket. Exactly one frame per thread — `run_job` owns it.
#[derive(Debug)]
pub struct JobFrame {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl JobFrame {
    /// Activates a fresh frame on this thread (resetting accumulators).
    pub fn begin() -> JobFrame {
        FRAME.with(|f| {
            f.set(FrameState {
                active: true,
                acc_ns: [0; STAGE_COUNT],
            })
        });
        JobFrame {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Deactivates the frame and returns the accumulated per-stage
    /// durations, indexed like [`Stage::ALL`].
    pub fn finish(self) -> [Duration; STAGE_COUNT] {
        FRAME.with(|f| f.get().acc_ns).map(Duration::from_nanos)
    }
}

impl Drop for JobFrame {
    fn drop(&mut self) {
        FRAME.with(|f| {
            f.set(FrameState {
                active: false,
                acc_ns: [0; STAGE_COUNT],
            })
        });
    }
}

/// Runs `f`, attributing its wall time to `stage` in the active
/// [`JobFrame`] (if any) and the global [`Tracer`] (if enabled). With
/// both off this is one thread-local read and one relaxed load on top
/// of calling `f` directly. Instrumentation sites wrap *leaf* work —
/// nesting `with_stage` calls would double-count in the frame.
pub fn with_stage<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let tracer = Tracer::global();
    let active = FRAME.with(|fr| fr.get().active);
    let traced = tracer.is_enabled();
    if !active && !traced {
        return f();
    }
    let start = Instant::now();
    let result = f();
    let dur = start.elapsed();
    if active {
        FRAME.with(|fr| {
            let mut state = fr.get();
            state.acc_ns[stage.index()] =
                state.acc_ns[stage.index()].saturating_add(dur.as_nanos() as u64);
            fr.set(state);
        });
    }
    if traced {
        tracer.record(current_job(), stage, start, dur);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_evicts_oldest() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        let epoch = Instant::now();
        for i in 0..10u64 {
            t.record(i, Stage::Descent, epoch, Duration::from_micros(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let jobs: Vec<u64> = t.records().iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![6, 7, 8, 9], "oldest spans are evicted in order");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 6, "clear keeps the dropped count");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        t.record(1, Stage::Descent, Instant::now(), Duration::from_micros(5));
        assert!(t.is_empty());
    }

    #[test]
    fn export_jsonl_is_one_object_per_line() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t.record(
            3,
            Stage::Reconstruction,
            Instant::now(),
            Duration::from_micros(42),
        );
        let mut out = Vec::new();
        let n = t.export_jsonl(&mut out).unwrap();
        assert_eq!(n, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"job\":3,\"stage\":\"reconstruction\",\"start_us\":"));
        assert!(text.trim_end().ends_with("\"dur_us\":42}"));
    }

    #[test]
    fn frame_accumulates_per_stage() {
        let frame = JobFrame::begin();
        with_stage(Stage::Reconstruction, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        with_stage(Stage::Descent, || ());
        let totals = frame.finish();
        assert!(totals[Stage::Reconstruction.index()] >= Duration::from_millis(2));
        assert!(
            !FRAME.with(|f| f.get().active),
            "finish deactivates the frame"
        );
    }

    #[test]
    fn job_scope_nests_and_restores() {
        assert_eq!(current_job(), 0);
        {
            let _outer = JobScope::enter(7);
            assert_eq!(current_job(), 7);
            {
                let _inner = JobScope::enter(9);
                assert_eq!(current_job(), 9);
            }
            assert_eq!(current_job(), 7);
        }
        assert_eq!(current_job(), 0);
    }
}
