//! # oscar-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three closed-loop workloads ([`workloads`]) drive the public APIs
//! from outside: `oscar_runtime::BatchRuntime` in-process, with
//! `oscar_serve`'s wire codec around each job of `lih_warm`. A run with
//! tracing off reports the end-to-end metrics; a traced run
//! ([`traced`], [`kernels`]) reports the per-layer ones. Every run
//! checks every timed result against an uncached `run_job` of the same
//! spec, and fails loudly when a workload drifts from its purpose.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper2d_warm --seed 1 --seconds 16 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it carries provenance and sample counts.

#![warn(missing_docs)]

pub mod kernels;
pub mod stats;
pub mod traced;
pub mod workloads;

use oscar_obs::Registry;
use oscar_runtime::{KeyClass, LandscapeCache, RuntimeConfig};
use oscar_serve::Json;
use std::time::{Duration, Instant};
use traced::{traced_job, traced_loop, LayerLog};
use workloads::{
    closed_loop, reference_results, runtime_job, setup_runtime, wire_job, Done, Outcome, Plan,
    Sample, Scale, Workload,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// NRMSE quantiles cover the jobs with these first indices, so they are
/// a pure function of the seed whatever the throughput.
const NRMSE_JOBS: u64 = 100;
/// A run must leave at least this many latency samples above its p90.
const P90_TAIL: usize = 10;
/// The timed phase runs on past its length until this many jobs have
/// started: the [`P90_TAIL`] rule needs 100, the rest is headroom for
/// failed jobs and ties.
const MIN_JOBS: u64 = 120;

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: instances, sampling and noise seeds derive from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// A named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every result verified against its uncached reference.
    pub correct: bool,
    /// Timed jobs submitted.
    pub attempted: usize,
    /// Timed jobs without a verified result (lost or wrong).
    pub failed: usize,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Provenance, sample counts and the end-to-end figures of a traced
    /// run.
    pub details: Vec<(String, Json)>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .to_string_compact()
    }

    /// The detail line printed before the result line.
    pub fn detail_line(&self) -> String {
        Json::Obj(self.details.clone()).to_string_compact()
    }
}

/// Registry counters the timed phase is judged by.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: [u64; 4],
    misses: [u64; 4],
    evictions: u64,
    dedup_waits: u64,
    pool_busy_us: u64,
    pool_stolen: u64,
}

impl Counters {
    fn read() -> Counters {
        let registry = Registry::global();
        let mut c = Counters::default();
        for (i, class) in KeyClass::ALL.iter().enumerate() {
            let get = |kind: &str| {
                registry
                    .counter(&format!("cache.{kind}.{}", class.as_str()))
                    .get()
            };
            c.hits[i] = get("hits");
            c.misses[i] = get("misses");
            c.evictions += get("evictions");
            c.dedup_waits += get("dedup_waits");
        }
        c.pool_busy_us = registry.histogram("pool.busy_us").sum();
        c.pool_stolen = registry.counter("pool.tasks_stolen").get();
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        let sub = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            hits: std::array::from_fn(|i| sub(self.hits[i], before.hits[i])),
            misses: std::array::from_fn(|i| sub(self.misses[i], before.misses[i])),
            evictions: sub(self.evictions, before.evictions),
            dedup_waits: sub(self.dedup_waits, before.dedup_waits),
            pool_busy_us: sub(self.pool_busy_us, before.pool_busy_us),
            pool_stolen: sub(self.pool_stolen, before.pool_stolen),
        }
    }

    fn lookups(&self, class: usize) -> u64 {
        self.hits[class] + self.misses[class]
    }
}

/// Everything the timed phase produced.
struct Timed {
    setup: Vec<Duration>,
    samples: Vec<Sample>,
    wall: Duration,
    delta: Counters,
    peak_rss_mb: f64,
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Fails when the system under test cannot be set up or a workload
/// self-check fails (a cache hit ratio off its stated value, a dedup
/// wait, or fewer than ten samples above p90).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = Plan::new(cfg.workload, cfg.seed, cfg.scale);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let timed = time_in_process(cfg, &plan, nproc, reps)?;
    evaluate(cfg, &plan, nproc, timed)
}

fn time_in_process(cfg: &Config, plan: &Plan, nproc: usize, reps: usize) -> Result<Timed, String> {
    let mut setup = Vec::new();
    let mut runtime = None;
    for _ in 0..reps {
        drop(runtime.take());
        let start = Instant::now();
        runtime = Some(setup_runtime(plan, nproc)?);
        setup.push(start.elapsed());
    }
    let runtime = runtime.expect("at least one set-up ran");
    let before = Counters::read();
    let (samples, wall) = closed_loop(
        vec![&runtime; nproc],
        cfg.seconds,
        MIN_JOBS,
        |rt, index| match cfg.workload {
            Workload::LihWarm => wire_job(rt, plan, index),
            Workload::Paper2dWarm | Workload::ZneCold => Ok(runtime_job(rt, plan, index)),
        },
    )?;
    let delta = Counters::read().since(&before);
    let peak_rss_mb = peak_rss_mb()?;
    Ok(Timed {
        setup,
        samples,
        wall,
        delta,
        peak_rss_mb,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak memory: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per-sample verdicts of the correctness gate.
struct Verdicts {
    /// Per sample: no verified result.
    failed: Vec<bool>,
    lost: usize,
    mismatched: usize,
    /// Reference NRMSE of the first [`NRMSE_JOBS`] jobs.
    nrmse: Vec<f64>,
}

fn verify(plan: &Plan, samples: &[Sample], threads: usize) -> Verdicts {
    let references = reference_results(plan, samples, threads);
    let mut v = Verdicts {
        failed: Vec::with_capacity(samples.len()),
        lost: 0,
        mismatched: 0,
        nrmse: Vec::new(),
    };
    for (sample, &(checksum, nrmse)) in samples.iter().zip(&references) {
        let failed = match &sample.outcome {
            Outcome::Done(done) => {
                let wrong = done.checksum != checksum;
                v.mismatched += usize::from(wrong);
                wrong
            }
            Outcome::Lost => {
                v.lost += 1;
                true
            }
        };
        v.failed.push(failed);
        if sample.index < NRMSE_JOBS {
            v.nrmse.push(nrmse);
        }
    }
    v
}

fn self_check(cfg: &Config, timed: &Timed, tail: usize) -> Result<(), String> {
    let delta = &timed.delta;
    let mut problems = Vec::new();
    let total_hits: u64 = delta.hits.iter().sum();
    let total_misses: u64 = delta.misses.iter().sum();
    match cfg.workload {
        Workload::Paper2dWarm | Workload::LihWarm => {
            if total_misses > 0 || total_hits == 0 {
                problems.push(format!(
                    "timed hit ratio must be 1.0, got {total_hits} hits and {total_misses} misses"
                ));
            }
        }
        Workload::ZneCold => {
            let mitigated = 3;
            debug_assert_eq!(KeyClass::ALL[mitigated], KeyClass::Mitigated);
            if delta.hits[mitigated] > 0 || delta.misses[mitigated] == 0 {
                problems.push(format!(
                    "mitigated hit ratio must be 0.0, got {} hits and {} misses",
                    delta.hits[mitigated], delta.misses[mitigated]
                ));
            }
        }
    }
    if delta.dedup_waits > 0 {
        problems.push(format!("{} dedup waits, expected none", delta.dedup_waits));
    }
    if tail < P90_TAIL {
        problems.push(format!(
            "only {tail} of {} samples lie above p90, at least {P90_TAIL} needed",
            timed.samples.len()
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} drifted from its purpose: {}",
            cfg.workload.name(),
            problems.join("; ")
        ))
    }
}

fn evaluate(cfg: &Config, plan: &Plan, nproc: usize, timed: Timed) -> Result<Report, String> {
    let samples = &timed.samples;
    let verdicts = verify(plan, samples, nproc);
    // A job that failed counts as missing every latency limit.
    let latencies: Vec<f64> = samples
        .iter()
        .zip(&verdicts.failed)
        .map(|(s, &failed)| {
            if failed {
                f64::INFINITY
            } else {
                millis(&s.latency)
            }
        })
        .collect();
    let tail = stats::beyond(&latencies, 0.9);
    let p90 = stats::quantile(&latencies, 0.9);
    if !p90.is_finite() {
        return Err(format!(
            "more than a tenth of {} jobs failed ({} lost, {} wrong)",
            samples.len(),
            verdicts.lost,
            verdicts.mismatched
        ));
    }
    self_check(cfg, &timed, tail)?;

    let attempted = samples.len();
    let failed = verdicts.failed.iter().filter(|&&f| f).count();
    let verified = attempted - failed;
    let jobs_per_s = verified as f64 / timed.wall.as_secs_f64();
    let end_to_end = vec![
        metric(
            "setup_s",
            stats::median(
                &timed
                    .setup
                    .iter()
                    .map(Duration::as_secs_f64)
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        metric("jobs_per_s", jobs_per_s, "jobs/s"),
        metric("job_p50_ms", stats::median(&latencies), "ms"),
        metric("job_p90_ms", p90, "ms"),
        metric("success_ratio", verified as f64 / attempted as f64, "ratio"),
        metric("nrmse_p50", stats::median(&verdicts.nrmse), "ratio"),
        metric("nrmse_p90", stats::quantile(&verdicts.nrmse, 0.9), "ratio"),
        metric("peak_rss_mb", timed.peak_rss_mb, "MB"),
    ];

    let count = |n: usize| Json::Num(n as f64);
    let mut details = vec![
        ("workload".into(), Json::Str(cfg.workload.name().into())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("nproc".into(), count(nproc)),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "oscar_threads".into(),
            std::env::var("OSCAR_THREADS").map_or(Json::Null, Json::Str),
        ),
        ("clients".into(), count(nproc)),
        ("executors".into(), count(nproc)),
        ("setup_runs".into(), count(timed.setup.len())),
        ("attempted".into(), count(attempted)),
        ("verified".into(), count(verified)),
        ("lost".into(), count(verdicts.lost)),
        ("wrong".into(), count(verdicts.mismatched)),
        ("samples_above_p90".into(), count(tail)),
        ("nrmse_jobs".into(), count(verdicts.nrmse.len())),
    ];

    if !cfg.trace {
        details.push(("end_to_end".into(), metrics_json(&end_to_end)));
        return Ok(Report {
            correct: verdicts.mismatched == 0,
            attempted,
            failed,
            metrics: end_to_end,
            details,
        });
    }

    let (per_layer, trace_mismatched) = trace(cfg, plan, nproc, &timed, jobs_per_s)?;
    details.push(("end_to_end".into(), metrics_json(&end_to_end)));
    details.push(("traced_wrong".into(), count(trace_mismatched)));
    Ok(Report {
        correct: verdicts.mismatched == 0 && trace_mismatched == 0,
        attempted,
        failed,
        metrics: per_layer,
        details,
    })
}

fn millis(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The traced run: the untraced run's finished jobs re-run layer by
/// layer, plus the kernel rows. Returns the per-layer metrics and how
/// many traced checksums differed from the untraced ones.
fn trace(
    cfg: &Config,
    plan: &Plan,
    nproc: usize,
    timed: &Timed,
    untraced_jobs_per_s: f64,
) -> Result<(Vec<Metric>, usize), String> {
    let cache = LandscapeCache::new(RuntimeConfig::default().landscape_cache_capacity);
    // Warm the trace's own cache exactly as the set-up warmed the
    // runtime's; these generations are the warm workloads' stage-1 cost.
    let mut setup_log = LayerLog::default();
    for k in 0..plan.warmup_jobs(nproc) {
        traced_job(&plan.warmup_spec(k), &cache, &mut setup_log)?;
    }
    let done: Vec<(&Sample, &Done)> = timed
        .samples
        .iter()
        .filter_map(|s| match &s.outcome {
            Outcome::Done(done) => Some((s, done)),
            _ => None,
        })
        .collect();
    let jobs: Vec<(u64, u64)> = done.iter().map(|(s, d)| (s.index, d.checksum)).collect();
    let (log, traced, traced_wall, mismatched) =
        traced_loop(plan, &cache, &jobs, nproc, cfg.seconds)?;
    let budget = match cfg.scale {
        Scale::Full => Duration::from_millis(150),
        Scale::Tiny => Duration::from_millis(5),
    };
    let kernel_rows = kernels::measure(budget);

    let generate: Vec<&(Duration, usize)> =
        setup_log.generate.iter().chain(&log.generate).collect();
    let gen_secs: f64 = generate.iter().map(|(d, _)| d.as_secs_f64()).sum();
    let gen_points: usize = generate.iter().map(|&&(_, p)| p).sum();
    let as_f64 = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let ms = |v: &[Duration]| v.iter().map(millis).collect::<Vec<_>>();
    let max_iter = plan.spec(0).fista.max_iter;
    let (dct_ns, fista_us) = kernels::for_workload(&kernel_rows, cfg.workload);
    let delta = &timed.delta;
    let pool_capacity_us = micros(&timed.wall) * oscar_par::max_threads() as f64;
    // Time a finished job spent outside its body: queueing, plus the
    // wire codec on `lih_warm`.
    let outside_ms: Vec<f64> = done
        .iter()
        .map(|(s, d)| millis(&s.latency.saturating_sub(d.wall)))
        .collect();
    let iterations: Vec<f64> = done
        .iter()
        .map(|(_, d)| d.solver_iterations as f64)
        .collect();

    let mut m = vec![
        metric(
            "source.generate_ms",
            gen_secs * 1e3 / generate.len().max(1) as f64,
            "ms",
        ),
        metric(
            "source.ns_per_point",
            gen_secs * 1e9 / gen_points.max(1) as f64,
            "ns",
        ),
        metric(
            "source.points_evaluated",
            stats::mean(&as_f64(&log.points_per_job)),
            "count",
        ),
        metric(
            "mitigation.extrapolate_ms",
            stats::mean(&ms(&log.extrapolate)),
            "ms",
        ),
    ];
    for (i, class) in KeyClass::ALL.iter().enumerate() {
        let lookups = delta.lookups(i);
        let ratio = if lookups == 0 {
            0.0
        } else {
            delta.hits[i] as f64 / lookups as f64
        };
        m.push(metric(
            format!("cache.hit_ratio.{}", class.as_str()),
            ratio,
            "ratio",
        ));
        m.push(metric(
            format!("cache.lookups.{}", class.as_str()),
            lookups as f64,
            "count",
        ));
    }
    m.extend([
        metric(
            "cache.lookup_us",
            stats::median(&log.lookup_hits.iter().map(micros).collect::<Vec<_>>()),
            "us",
        ),
        metric("cache.dedup_waits", delta.dedup_waits as f64, "count"),
        metric("cache.evictions", delta.evictions as f64, "count"),
        metric("reconstruct.ms", stats::median(&ms(&log.reconstruct)), "ms"),
        metric("fista.iterations", stats::mean(&iterations), "count"),
        metric("fista.us_per_iter", fista_us, "us"),
        metric(
            "fista.cap_exits",
            iterations.iter().filter(|&&n| n >= max_iter as f64).count() as f64,
            "count",
        ),
        metric("dct.ns_per_point", dct_ns, "ns"),
        metric("descent.ms", stats::median(&ms(&log.descent)), "ms"),
        metric(
            "descent.queries",
            stats::mean(&as_f64(&log.queries)),
            "count",
        ),
        metric("sched.queue_wait_ms", stats::median(&outside_ms), "ms"),
        metric(
            "pool.utilization",
            delta.pool_busy_us as f64 / pool_capacity_us.max(1.0),
            "ratio",
        ),
        metric("pool.tasks_stolen", delta.pool_stolen as f64, "count"),
        metric(
            "serve.result_codec_us",
            stats::median(&log.codec.iter().map(micros).collect::<Vec<_>>()),
            "us",
        ),
        metric(
            "trace.overhead_ratio",
            traced as f64 / traced_wall.as_secs_f64() / untraced_jobs_per_s,
            "ratio",
        ),
    ]);
    m.extend(
        kernel_rows
            .into_iter()
            .map(|r| metric(r.name, r.value, r.unit)),
    );
    Ok((m, mismatched))
}
