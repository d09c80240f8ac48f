//! `oscar-batch` — drive the batch runtime end to end.
//!
//! Reads a job list (or synthesizes one), runs every job through the
//! full pipeline (landscape sampling → mitigation → CS reconstruction →
//! optimization) on the [`oscar_runtime::BatchRuntime`], and reports
//! per-job latency plus aggregate throughput. With `--device` the
//! stage-1 landscapes come from a noisy simulated device instead of
//! exact simulation, `--mitigation` post-processes them (ZNE landscapes
//! per noise factor, readout inversion, Gaussian smoothing), and
//! `--optimizer` selects the stage-3 descent — all deterministically,
//! so `--compare` still verifies the scheduled batch bit-identical to
//! an uncached sequential run.
//!
//! `--problem` selects the workload family — `maxcut`/`sk` QAOA (with
//! `--depth` opening the 2p-dimensional landscape as an N-D tensor for
//! p >= 2) or the `h2`/`lih` molecular VQE parameter scans — and
//! passing `sweep` to `--problem`, `--device`, `--mitigation`, and/or
//! `--optimizer` switches to sweep mode: the job list becomes the
//! cross product of the swept axes over one fixed instance per problem
//! kind, and the report becomes a paper-style table (Table 5 /
//! Figure 10 shape) with one row per combination.
//!
//! Every batch — the `--file` list, a synthetic batch, or a sweep — is
//! built once, as wire requests ([`oscar_serve::SubmitReq`]), before
//! anything runs or connects. In-process runs execute each request's
//! [`SubmitReq::to_spec`] job spec, the mapping the daemon applies to
//! a submitted request.
//!
//! With `--connect ADDR` the batch is not run in-process at all:
//! every request is submitted to a running `oscar-serve` daemon (Unix
//! socket path or `host:port`) over the line-delimited JSON protocol,
//! admission rejects are retried after the server's `retry_after_ms`
//! hint, and `--compare` verifies each served checksum against a local
//! `run_job` of the same spec — the daemon's bit-identical contract,
//! end to end. `--drain` asks the daemon to drain and shut down after
//! the batch; `--metrics` fetches and prints the daemon's metrics
//! registry first.
//!
//! Observability (in-process modes): `--profile` prints an end-of-run
//! profile — per-stage time totals from the obs registry, the
//! landscape-cache hit ratio broken down by key class (including ZNE
//! per-factor hits), scheduler dispatch wait, and worker-pool
//! utilization. `--trace FILE` records per-job stage spans and writes
//! them as JSONL to FILE (the `OSCAR_TRACE` environment variable does
//! the same without a flag). Neither perturbs results: wall-clock
//! readings stay out of job results, so `--compare` still passes
//! bit-identically with tracing on.
//!
//! ```text
//! oscar-batch [--file PATH] [--jobs N] [--concurrency N]
//!             [--problem KIND|sweep] [--depth P]
//!             [--fraction F] [--no-optimize] [--compare]
//!             [--device NAME|sweep] [--shots N] [--priority MODE]
//!             [--mitigation MODE|sweep] [--optimizer NAME|sweep]
//!             [--profile] [--trace FILE]
//!             [--connect ADDR] [--metrics] [--drain]
//! ```
//!
//! Job-list format (one job per line, `#` comments):
//!
//! ```text
//! # qubits  seed  rows  cols  fraction
//! 10        1     20    30    0.15
//! 12        2     25    40    0.12
//! ```
//!
//! `qubits` must be even (3-regular MaxCut instances); `seed` feeds
//! instance generation, the sampling pattern, SPSA, and — under
//! `--device` — the per-job noise realization. A line that does not
//! denote a job exits with status 2 and a `PATH:LINE:` message, in both
//! modes; the daemon's wire caps (such as `qubits <= 16`) apply only to
//! served batches.

use oscar_bench::{device_spec_or_exit, print_header};
use oscar_obs::span::{self, Stage};
use oscar_obs::{MetricValue, Registry};
use oscar_problems::workload::ProblemKind;
use oscar_runtime::descent::Descent;
use oscar_runtime::job::{run_job, JobResult, JobSpec};
use oscar_runtime::mitigation::Mitigation;
use oscar_runtime::scheduler::{BatchRuntime, Priority, RuntimeConfig};
use oscar_runtime::KeyClass;
use oscar_serve::SubmitReq;
use std::time::Instant;

/// How `--priority` assigns dispatch priorities across the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PriorityMode {
    Uniform(Priority),
    /// Cycle low/normal/high by job index — a scheduling sweep that
    /// exercises the priority queue while `--compare` pins results
    /// unchanged.
    Sweep,
}

impl PriorityMode {
    fn for_job(self, index: usize) -> Priority {
        match self {
            PriorityMode::Uniform(p) => p,
            PriorityMode::Sweep => match index % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
        }
    }
}

/// The noisy devices a `--device sweep` crosses (the registry's
/// Table 5 lineup minus the exact-equivalent ideal simulator).
const SWEEP_DEVICES: [&str; 3] = ["noisy sim", "ibm perth", "ibm lagos"];

struct Options {
    file: Option<String>,
    problem: String,
    depth: usize,
    jobs: usize,
    concurrency: usize,
    fraction: f64,
    compare: bool,
    device: Option<String>,
    shots: Option<usize>,
    priority: PriorityMode,
    mitigation: String,
    optimizer: String,
    connect: Option<String>,
    drain: bool,
    profile: bool,
    trace: Option<String>,
    metrics: bool,
    store: Option<String>,
}

impl Options {
    /// Whether any axis is swept (sweep mode).
    fn sweeping(&self) -> bool {
        self.problem == "sweep"
            || self.device.as_deref() == Some("sweep")
            || self.mitigation == "sweep"
            || self.optimizer == "sweep"
    }
}

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: oscar-batch [--file PATH] [--jobs N] [--concurrency N]\n\
         \x20                  [--problem KIND|sweep] [--depth P]\n\
         \x20                  [--fraction F] [--no-optimize] [--compare]\n\
         \x20                  [--device NAME|sweep] [--shots N] [--priority MODE]\n\
         \x20                  [--mitigation MODE|sweep] [--optimizer NAME|sweep]\n\
         \x20                  [--profile] [--trace FILE] [--store DIR]\n\
         \x20                  [--connect ADDR] [--metrics] [--drain]\n\
         \n\
         --file PATH      job list: lines of `qubits seed rows cols fraction`\n\
         \x20                  (depth-1 MaxCut only; incompatible with --problem/--depth)\n\
         --problem KIND   workload family: maxcut | sk | h2 | lih (default maxcut);\n\
         \x20                  QAOA kinds sample a (beta, gamma) landscape, molecular\n\
         \x20                  kinds an N-D VQE parameter scan\n\
         --depth P        QAOA depth (default 1); P >= 2 samples the 2P-dimensional\n\
         \x20                  landscape as an N-D tensor (QAOA kinds only)\n\
         --jobs N         synthetic batch size when no file is given (default 16)\n\
         --concurrency N  executor threads (default: OSCAR_THREADS / cores)\n\
         --fraction F     sampling fraction for synthetic jobs (default 0.25)\n\
         --no-optimize    skip the per-job optimization stage (= --optimizer none)\n\
         --compare        also run sequentially; verify bit-identical results\n\
         --device NAME    noisy stage-1 landscapes from this device (deterministic\n\
         \x20                  counter-based noise); default: exact noiseless\n\
         --shots N        override the device's shot count (needs --device)\n\
         --priority MODE  dispatch priority: low | normal | high | sweep\n\
         \x20                  (sweep cycles all three across the batch; default normal)\n\
         --mitigation M   stage-1.5 mitigation: none | zne | zne-linear | readout |\n\
         \x20                  gaussian (default none)\n\
         --optimizer O    stage-3 descent: none | nelder-mead | adam | momentum |\n\
         \x20                  spsa | cobyla | gradient-free (default nelder-mead)\n\
         --profile        print an end-of-run profile: per-stage time totals,\n\
         \x20                  cache hit ratio by key class, pool utilization\n\
         --trace FILE     record per-job stage spans; write JSONL to FILE\n\
         \x20                  (OSCAR_TRACE=FILE in the environment does the same)\n\
         --store DIR      persistent landscape store: landscapes computed this run\n\
         \x20                  are written to DIR and reused by later runs (corrupt\n\
         \x20                  or foreign entries are recomputed, never trusted)\n\
         --connect ADDR   submit the batch to a running oscar-serve daemon\n\
         \x20                  (Unix socket path or host:port) instead of in-process;\n\
         \x20                  admission rejects are retried per retry_after_ms\n\
         --metrics        after the batch, fetch and print the daemon's metrics\n\
         \x20                  registry (needs --connect)\n\
         --drain          after the batch, ask the daemon to drain and shut down\n\
         \x20                  (needs --connect)\n\
         \n\
         Passing `sweep` to --problem, --device, --mitigation, and/or --optimizer\n\
         crosses the swept axes over one fixed instance per problem kind and\n\
         prints a paper-style table."
    );
    std::process::exit(code);
}

fn parse_options() -> Options {
    let mut opts = Options {
        file: None,
        problem: "maxcut".to_string(),
        depth: 1,
        jobs: 16,
        concurrency: oscar_par::max_threads(),
        fraction: 0.25,
        compare: false,
        device: None,
        shots: None,
        priority: PriorityMode::Uniform(Priority::Normal),
        mitigation: "none".to_string(),
        optimizer: "nelder-mead".to_string(),
        connect: None,
        drain: false,
        profile: false,
        trace: None,
        metrics: false,
        store: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            usage_and_exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--file" => opts.file = Some(value(&mut i, "--file")),
            "--problem" => opts.problem = value(&mut i, "--problem"),
            "--depth" => {
                opts.depth = value(&mut i, "--depth").parse().unwrap_or_else(|_| {
                    eprintln!("error: --depth needs a positive integer");
                    usage_and_exit(2);
                });
                if opts.depth == 0 {
                    eprintln!("error: --depth must be at least 1");
                    usage_and_exit(2);
                }
            }
            "--jobs" => {
                opts.jobs = value(&mut i, "--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --jobs needs an integer");
                    usage_and_exit(2);
                })
            }
            "--concurrency" => {
                opts.concurrency = value(&mut i, "--concurrency").parse().unwrap_or_else(|_| {
                    eprintln!("error: --concurrency needs an integer");
                    usage_and_exit(2);
                })
            }
            "--fraction" => {
                opts.fraction = value(&mut i, "--fraction").parse().unwrap_or_else(|_| {
                    eprintln!("error: --fraction needs a number in (0,1]");
                    usage_and_exit(2);
                })
            }
            "--no-optimize" => opts.optimizer = "none".to_string(),
            "--compare" => opts.compare = true,
            "--device" => opts.device = Some(value(&mut i, "--device")),
            "--shots" => {
                let shots: usize = value(&mut i, "--shots").parse().unwrap_or_else(|_| {
                    eprintln!("error: --shots needs a positive integer");
                    usage_and_exit(2);
                });
                if shots == 0 {
                    eprintln!("error: --shots must be positive");
                    usage_and_exit(2);
                }
                opts.shots = Some(shots);
            }
            "--priority" => {
                opts.priority = match value(&mut i, "--priority").as_str() {
                    "low" => PriorityMode::Uniform(Priority::Low),
                    "normal" => PriorityMode::Uniform(Priority::Normal),
                    "high" => PriorityMode::Uniform(Priority::High),
                    "sweep" => PriorityMode::Sweep,
                    other => {
                        eprintln!(
                            "error: unknown priority mode '{other}' \
                             (expected low, normal, high, or sweep)"
                        );
                        usage_and_exit(2);
                    }
                }
            }
            "--mitigation" => opts.mitigation = value(&mut i, "--mitigation"),
            "--optimizer" => opts.optimizer = value(&mut i, "--optimizer"),
            "--connect" => opts.connect = Some(value(&mut i, "--connect")),
            "--drain" => opts.drain = true,
            "--profile" => opts.profile = true,
            "--trace" => opts.trace = Some(value(&mut i, "--trace")),
            "--store" => opts.store = Some(value(&mut i, "--store")),
            "--metrics" => opts.metrics = true,
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage_and_exit(2);
            }
        }
        i += 1;
    }
    if opts.shots.is_some() && opts.device.is_none() {
        eprintln!("error: --shots needs --device");
        usage_and_exit(2);
    }
    if opts.file.is_some() && (opts.problem != "maxcut" || opts.depth != 1) {
        eprintln!("error: --file lines are depth-1 MaxCut jobs; use --problem/--depth without it");
        usage_and_exit(2);
    }
    if opts.depth > 1
        && opts.problem != "sweep"
        && problem_kind_or_exit(&opts.problem).is_molecule()
    {
        eprintln!("error: --depth applies only to QAOA problems (maxcut, sk)");
        usage_and_exit(2);
    }
    if opts.drain && opts.connect.is_none() {
        eprintln!("error: --drain needs --connect");
        usage_and_exit(2);
    }
    if opts.metrics && opts.connect.is_none() {
        eprintln!("error: --metrics needs --connect");
        usage_and_exit(2);
    }
    if opts.connect.is_some() && (opts.profile || opts.trace.is_some()) {
        eprintln!(
            "error: --profile/--trace profile the in-process runtime (use --metrics for a daemon)"
        );
        usage_and_exit(2);
    }
    if opts.connect.is_some() && opts.store.is_some() {
        eprintln!("error: --store configures the in-process runtime (use oscar-serve --store)");
        usage_and_exit(2);
    }
    opts
}

/// Resolves `--problem` (sweep handled by the caller).
fn problem_kind_or_exit(name: &str) -> ProblemKind {
    ProblemKind::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "error: unknown problem '{name}'.\n\
             valid problems: maxcut, sk, h2, lih, sweep"
        );
        std::process::exit(2);
    })
}

/// Resolves `--mitigation` (sweep handled by the caller).
fn mitigation_or_exit(name: &str) -> Mitigation {
    Mitigation::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "error: unknown mitigation '{name}'.\n\
             valid modes: none, zne, zne-linear, readout, gaussian, sweep"
        );
        std::process::exit(2);
    })
}

/// Resolves `--optimizer` (sweep handled by the caller).
fn descent_or_exit(name: &str) -> Descent {
    Descent::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "error: unknown optimizer '{name}'.\n\
             valid optimizers: none, nelder-mead, adam, momentum, spsa, \
             cobyla, gradient-free, sweep"
        );
        std::process::exit(2);
    })
}

/// The request for a kind's fixed instance and standard shape, the
/// workload of sweeps and of non-default synthetic batches. QAOA kinds
/// draw a 10-qubit instance from seed 40 and sample the paper's 16×20
/// grid at depth 1, or a modest 2P-dimensional tensor deeper (counts
/// shrink with depth to keep the point total tractable); molecules are
/// fixed by their Hamiltonian and scan their standard shape.
fn fixed_instance_request(kind: ProblemKind, depth: usize, seed: u64, fraction: f64) -> SubmitReq {
    let mut req = match (kind, depth) {
        (ProblemKind::Molecule(m), _) => SubmitReq::vqe(m, seed, fraction),
        (_, 1) => SubmitReq {
            problem: kind,
            ..SubmitReq::new(10, seed, 16, 20, fraction)
        },
        (_, p) => {
            let (betas, gammas) = if p == 2 { (5, 6) } else { (3, 3) };
            let counts = [vec![betas; p], vec![gammas; p]].concat();
            SubmitReq::deep_qaoa(kind, 10, p, seed, counts, fraction)
        }
    };
    req.instance_seed = 40;
    req
}

/// Reports a bad job-list line and exits 2.
fn line_error(path: &str, lineno: usize, message: &str) -> ! {
    eprintln!("error: {path}:{lineno}: {message}");
    std::process::exit(2);
}

/// Parses the job-list file format (see module docs) into depth-1
/// MaxCut requests. Each line's `seed` also seeds its instance and,
/// under a noisy source, its noise realization, so distinct lines sweep
/// distinct noise streams deterministically. A line that does not
/// denote a job exits 2 as `PATH:LINE: …`, before anything runs.
fn load_requests(path: &str) -> Vec<SubmitReq> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read job list '{path}': {e}");
        std::process::exit(2);
    });
    let mut reqs = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed: Option<(usize, u64, usize, usize, f64)> = (|| {
            if fields.len() != 5 {
                return None;
            }
            Some((
                fields[0].parse().ok()?,
                fields[1].parse().ok()?,
                fields[2].parse().ok()?,
                fields[3].parse().ok()?,
                fields[4].parse().ok()?,
            ))
        })();
        let Some((qubits, seed, rows, cols, fraction)) = parsed else {
            line_error(
                path,
                lineno,
                &format!("expected `qubits seed rows cols fraction`, got '{line}'"),
            );
        };
        if rows < 2 || cols < 2 {
            line_error(path, lineno, "rows and cols must be at least 2");
        }
        let req = SubmitReq::new(qubits, seed, rows, cols, fraction);
        if let Err(e) = req.to_spec() {
            line_error(path, lineno, &e.message);
        }
        reqs.push(req);
    }
    if reqs.is_empty() {
        eprintln!("error: job list '{path}' contains no jobs");
        std::process::exit(2);
    }
    reqs
}

/// The synthetic batch of `--jobs` requests. The default workload
/// (depth-1 MaxCut) cycles through 4 problem instances and 4 grids, so
/// the landscape cache has real repeats to dedupe. Any other
/// `--problem`/`--depth` combination runs the sampling seeds over the
/// kind's [`fixed_instance_request`], cycling 4 noise-realization seeds
/// so noisy repeats still share cached landscapes. Under a noisy source
/// the noise-realization seed follows the instance (not the job) in
/// both cases.
fn synthetic_requests(opts: &Options) -> Vec<SubmitReq> {
    let kind = problem_kind_or_exit(&opts.problem);
    let seed = |j: usize| 2000 + j as u64 * 13;
    if kind != ProblemKind::MaxCut || opts.depth != 1 {
        return (0..opts.jobs)
            .map(|j| {
                let mut req = fixed_instance_request(kind, opts.depth, seed(j), opts.fraction);
                req.landscape_seed = (j % 4) as u64;
                req
            })
            .collect();
    }
    let grids = [(16, 20), (20, 24), (18, 28), (24, 30)];
    (0..opts.jobs)
        .map(|j| {
            let k = j % 4;
            let (rows, cols) = grids[k];
            let mut req = SubmitReq::new(8 + 2 * k, seed(j), rows, cols, opts.fraction);
            req.instance_seed = 40 + k as u64;
            req.landscape_seed = k as u64;
            req
        })
        .collect()
}

/// The one job builder: every batch as wire requests, with device,
/// mitigation and optimizer names resolved once and priorities
/// assigned. Local runs execute the requests' [`SubmitReq::to_spec`]
/// specs and connect mode submits the requests themselves, so a served
/// job is the job a local run executes.
///
/// The batch is the cross product of its base requests with the
/// device, mitigation and optimizer axes: `--device sweep` crosses the
/// noisy Table 5 lineup, `--mitigation sweep` all five modes and
/// `--optimizer sweep` all six optimizers, while an axis that is not
/// swept contributes its one configured value. Outside sweep mode the
/// base is the `--file` list or the synthetic batch. In sweep mode it
/// is one fixed-instance request per problem kind (all four under
/// `--problem sweep`) with one sampling seed, so the landscape cache
/// shares raw and per-factor landscapes across rows and the table
/// isolates the swept axes.
fn batch_requests(opts: &Options) -> Vec<SubmitReq> {
    let devices: Vec<Option<String>> = match opts.device.as_deref() {
        Some("sweep") => SWEEP_DEVICES.iter().map(|d| Some(d.to_string())).collect(),
        Some(name) => {
            device_spec_or_exit(name);
            vec![Some(name.to_string())]
        }
        None => vec![None],
    };
    let mitigations: Vec<Mitigation> = match opts.mitigation.as_str() {
        "sweep" => vec![
            Mitigation::None,
            Mitigation::zne_richardson(),
            Mitigation::zne_linear(),
            Mitigation::Readout,
            Mitigation::gaussian(),
        ],
        name => vec![mitigation_or_exit(name)],
    };
    let descents: Vec<Descent> = match opts.optimizer.as_str() {
        "sweep" => Descent::OPTIMIZERS.to_vec(),
        name => vec![descent_or_exit(name)],
    };
    let base: Vec<SubmitReq> = if opts.sweeping() {
        let problems: Vec<ProblemKind> = match opts.problem.as_str() {
            "sweep" => ProblemKind::names()
                .iter()
                .map(|n| ProblemKind::by_name(n).expect("registry names resolve"))
                .collect(),
            name => vec![problem_kind_or_exit(name)],
        };
        problems
            .into_iter()
            .map(|kind| {
                let mut req = fixed_instance_request(kind, opts.depth, 7, opts.fraction);
                req.landscape_seed = 1;
                req
            })
            .collect()
    } else {
        match &opts.file {
            Some(path) => load_requests(path),
            None => synthetic_requests(opts),
        }
    };
    let mut reqs = Vec::new();
    for req in &base {
        for device in &devices {
            for mitigation in &mitigations {
                for &descent in &descents {
                    reqs.push(SubmitReq {
                        device: device.clone(),
                        shots: opts.shots,
                        mitigation: mitigation.clone(),
                        descent,
                        priority: Some(opts.priority.for_job(reqs.len())),
                        ..req.clone()
                    });
                }
            }
        }
    }
    reqs
}

/// The workload column: grid extents, or `N^rank` for a hypercube.
fn describe(spec: &JobSpec) -> String {
    let dims = spec.shape.dims();
    let extent = if dims.len() > 2 && dims.iter().all(|&n| n == dims[0]) {
        format!("{}^{}", dims[0], dims.len())
    } else {
        dims.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("x")
    };
    format!("{}q {extent}", spec.problem.num_qubits())
}

/// Submits one request, retrying structured admission rejects after the
/// server's `retry_after_ms` hint (capped per attempt, bounded overall).
fn submit_with_retry(client: &mut oscar_serve::Client, req: &SubmitReq) -> u64 {
    use oscar_serve::Json;
    let give_up = Instant::now() + std::time::Duration::from_secs(300);
    loop {
        let reply = client.submit(req).unwrap_or_else(|e| {
            eprintln!("error: submit failed: {e}");
            std::process::exit(1);
        });
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            return reply.get("job").and_then(Json::as_u64).unwrap_or_else(|| {
                eprintln!("error: submit reply carried no job id");
                std::process::exit(1);
            });
        }
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("?");
        if code != "overloaded" && code != "quota-exceeded" {
            eprintln!("error: submit rejected: {}", reply.to_string_compact());
            std::process::exit(1);
        }
        if Instant::now() > give_up {
            eprintln!("error: daemon stayed overloaded past the retry budget");
            std::process::exit(1);
        }
        let retry_ms = reply
            .get("retry_after_ms")
            .and_then(Json::as_f64)
            .unwrap_or(100.0)
            .clamp(1.0, 2_000.0);
        std::thread::sleep(std::time::Duration::from_millis(retry_ms as u64));
    }
}

/// Connect mode: drive a running `oscar-serve` daemon instead of an
/// in-process runtime, with `--compare` checking every served checksum
/// against a local `run_job` of the request's spec.
fn run_connected(opts: &Options, reqs: &[SubmitReq], specs: &[JobSpec]) -> ! {
    use oscar_serve::Json;
    let addr = opts.connect.as_deref().expect("connect mode");
    let mut client = oscar_serve::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    println!("{} jobs over the wire to {addr}\n", reqs.len());

    let t0 = Instant::now();
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| submit_with_retry(&mut client, r))
        .collect();
    println!(
        "{:>6}  {:<10}{:>9}{:>9}{:>11}  checksum",
        "job", "workload", "nrmse", "cache", "latency"
    );
    let mut drift = 0usize;
    for (spec, id) in specs.iter().zip(&ids) {
        let reply = client.wait(*id, Some(120_000), false).unwrap_or_else(|e| {
            eprintln!("error: wait({id}) failed: {e}");
            std::process::exit(1);
        });
        if reply.get("ok").and_then(Json::as_bool) != Some(true)
            || reply.get("timed_out").and_then(Json::as_bool) == Some(true)
        {
            eprintln!(
                "error: job {id} did not complete: {}",
                reply.to_string_compact()
            );
            std::process::exit(1);
        }
        let result = reply.get("result").unwrap_or(&Json::Null);
        let checksum = result
            .get("checksum")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let verified = if opts.compare {
            let local = run_job(spec, None);
            let expected = format!("{:016x}", oscar_serve::result_checksum(&local));
            if expected == checksum {
                " ok"
            } else {
                drift += 1;
                " DRIFT"
            }
        } else {
            ""
        };
        println!(
            "{:>6}  {:<10}{:>9.4}{:>9}{:>10.1}ms  {checksum}{verified}",
            id,
            describe(spec),
            result
                .get("nrmse")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            if result.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                "hit"
            } else {
                "miss"
            },
            result.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    let wall = t0.elapsed();
    println!(
        "\nbatch wall {:.2}s  throughput {:.2} jobs/s",
        wall.as_secs_f64(),
        ids.len() as f64 / wall.as_secs_f64()
    );
    if opts.compare {
        println!(
            "served results bit-identical to local run_job: {}",
            if drift == 0 {
                "yes".to_string()
            } else {
                format!("NO ({drift} jobs drifted)")
            }
        );
        if drift > 0 {
            std::process::exit(1);
        }
    }
    if opts.metrics {
        let reply = client.metrics().unwrap_or_else(|e| {
            eprintln!("error: metrics fetch failed: {e}");
            std::process::exit(1);
        });
        print_server_metrics(&reply);
    }
    if opts.drain {
        let reply = client.drain().unwrap_or_else(|e| {
            eprintln!("error: drain failed: {e}");
            std::process::exit(1);
        });
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("error: drain rejected: {}", reply.to_string_compact());
            std::process::exit(1);
        }
        println!("daemon drained and shut down");
    }
    std::process::exit(0);
}

fn main() {
    let opts = parse_options();
    if opts.trace.is_some() {
        // OSCAR_TRACE enables the global tracer on first touch; the
        // flag has to do it explicitly.
        span::Tracer::global().set_enabled(true);
    }
    print_header("oscar-batch", "batch runtime throughput");
    if opts.sweeping() && opts.file.is_some() {
        eprintln!("error: --file cannot be combined with a swept axis");
        std::process::exit(2);
    }
    if opts.sweeping() && opts.connect.is_some() {
        eprintln!("error: swept axes cannot be combined with --connect");
        std::process::exit(2);
    }
    let reqs = batch_requests(&opts);
    let specs: Vec<JobSpec> = reqs
        .iter()
        .map(|req| {
            req.to_spec().unwrap_or_else(|e| {
                eprintln!("error: {}", e.message);
                std::process::exit(2);
            })
        })
        .collect();
    if opts.connect.is_some() {
        run_connected(&opts, &reqs, &specs);
    }

    println!(
        "{} jobs, concurrency {}, pool budget {} thread(s), problem {}, depth {}, \
         source {}{}, mitigation {}, optimizer {}\n",
        specs.len(),
        opts.concurrency,
        oscar_par::max_threads(),
        opts.problem,
        opts.depth,
        match &opts.device {
            Some(name) => format!("noisy ({name})"),
            None => "exact".to_string(),
        },
        match opts.shots {
            Some(s) => format!(", {s} shots"),
            None => String::new(),
        },
        opts.mitigation,
        opts.optimizer,
    );

    let store = opts.store.as_ref().map(|dir| {
        oscar_runtime::store::LandscapeStore::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open landscape store '{dir}': {e}");
            std::process::exit(2);
        })
    });
    let runtime = BatchRuntime::new(RuntimeConfig {
        concurrency: opts.concurrency,
        store: store.clone(),
        ..RuntimeConfig::default()
    });
    let t0 = Instant::now();
    let handles: Vec<_> = specs
        .iter()
        .zip(&reqs)
        .map(|(spec, req)| {
            runtime.submit_with_priority(spec.clone(), req.priority.unwrap_or(Priority::Normal))
        })
        .collect();
    let mut results = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.wait() {
            Ok(r) => results.push(r),
            Err(lost) => {
                eprintln!("error: {lost}");
                std::process::exit(1);
            }
        }
    }
    let batch_wall = t0.elapsed();

    if opts.sweeping() {
        print_sweep_table(&reqs, &results);
    } else {
        print_job_table(&specs, &results);
    }
    let cache = runtime.cache_stats();
    let throughput = results.len() as f64 / batch_wall.as_secs_f64();
    println!(
        "\nbatch wall {:.2}s  throughput {throughput:.2} jobs/s  \
         landscape cache {} hits / {} misses",
        batch_wall.as_secs_f64(),
        cache.hits,
        cache.misses
    );
    let pool = oscar_par::pool::global().stats();
    println!(
        "worker pool: {} thread budget, {} spawned (steady state spawns none), {} regions",
        pool.threads, pool.threads_spawned, pool.regions_run
    );
    if let Some(store) = &store {
        // Drain the write-behind queue so the printed counters are
        // final and the directory is complete for the next run.
        store.flush();
        let s = oscar_runtime::store::store_stats();
        println!(
            "store: hits={} misses={} writes={} write_errors={} corrupt={}",
            s.hits, s.misses, s.writes, s.write_errors, s.corrupt_entries
        );
    }
    if opts.profile {
        print_profile(batch_wall, oscar_par::max_threads());
    }
    // Export spans now, before a `--compare` sequential pass would
    // append its own (unscheduled) spans to the ring.
    export_traces(&opts);

    if opts.compare {
        let t1 = Instant::now();
        let sequential: Vec<JobResult> = specs.iter().map(|s| run_job(s, None)).collect();
        let seq_wall = t1.elapsed();
        let mut drift = 0usize;
        for (seq, sched) in sequential.iter().zip(&results) {
            if seq.reconstruction.values() != sched.reconstruction.values()
                || seq.nrmse.to_bits() != sched.nrmse.to_bits()
                || seq.best_point != sched.best_point
            {
                drift += 1;
            }
        }
        println!(
            "\nsequential (uncached, one job at a time) wall {:.2}s  \
             runtime speedup {:.2}x  bit-identical: {}",
            seq_wall.as_secs_f64(),
            seq_wall.as_secs_f64() / batch_wall.as_secs_f64(),
            if drift == 0 {
                "yes".to_string()
            } else {
                format!("NO ({drift} jobs drifted)")
            }
        );
        if drift > 0 {
            eprintln!("error: scheduled results drifted from sequential execution");
            std::process::exit(1);
        }
    }
}

/// `--metrics` (connect mode): pretty-print the daemon's `metrics`
/// reply — counters/gauges one per line, histograms as summaries, and
/// the Prometheus text verbatim when the daemon exposes it.
fn print_server_metrics(reply: &oscar_serve::Json) {
    use oscar_serve::Json;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("error: metrics rejected: {}", reply.to_string_compact());
        std::process::exit(1);
    }
    for section in ["registry", "serve"] {
        let Some(Json::Obj(fields)) = reply.get(section) else {
            continue;
        };
        println!("\n-- server metrics: {section} --");
        for (name, value) in fields {
            match value {
                Json::Num(v) => println!("{name:<40}{v}"),
                Json::Obj(_) => {
                    let f = |k: &str| value.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    println!(
                        "{name:<40}count {} sum {} p50 {} p90 {} p99 {}",
                        f("count"),
                        f("sum"),
                        f("p50"),
                        f("p90"),
                        f("p99"),
                    );
                }
                other => println!("{name:<40}{}", other.to_string_compact()),
            }
        }
    }
    if let Some(Json::Str(text)) = reply.get("text") {
        println!("\n-- server metrics: prometheus text --");
        print!("{text}");
    }
}

/// `--profile`: the end-of-run profile, read entirely from the
/// process-wide obs registry so the numbers are exactly what a daemon
/// would expose through its `metrics` verb.
fn print_profile(batch_wall: std::time::Duration, pool_budget: usize) {
    let snapshot: std::collections::BTreeMap<String, MetricValue> =
        Registry::global().snapshot().into_iter().collect();
    let counter = |name: &str| match snapshot.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let hist = |name: &str| match snapshot.get(name) {
        Some(MetricValue::Histogram(h)) => Some(h.clone()),
        _ => None,
    };

    println!("\n-- profile --");
    println!(
        "{:<16}{:>7}{:>12}{:>11}{:>11}",
        "stage", "calls", "total", "mean", "p90"
    );
    let ms = 1e3;
    for stage in Stage::ALL {
        let Some(h) = hist(&format!("stage.{}_us", stage.as_str())) else {
            continue;
        };
        let total = h.sum as f64 / ms;
        let mean = if h.count > 0 {
            total / h.count as f64
        } else {
            0.0
        };
        println!(
            "{:<16}{:>7}{:>10.1}ms{:>9.1}ms{:>9.1}ms",
            stage.as_str(),
            h.count,
            total,
            mean,
            h.p90 as f64 / ms,
        );
    }

    println!("\nlandscape cache (hits / misses / evictions / dedup-waits by key class):");
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    for class in KeyClass::ALL {
        let hits = counter(&format!("cache.hits.{}", class.as_str()));
        let misses = counter(&format!("cache.misses.{}", class.as_str()));
        let evictions = counter(&format!("cache.evictions.{}", class.as_str()));
        let waits = counter(&format!("cache.dedup_waits.{}", class.as_str()));
        total_hits += hits;
        total_misses += misses;
        if hits + misses + evictions + waits > 0 {
            println!(
                "  {:<12}{hits:>6} / {misses} / {evictions} / {waits}",
                class.as_str()
            );
        }
    }
    let lookups = total_hits + total_misses;
    if lookups > 0 {
        println!(
            "  hit ratio {:.1}% ({total_hits} of {lookups} lookups)",
            100.0 * total_hits as f64 / lookups as f64
        );
    }

    println!(
        "stage 1: {} ideal circuit simulations (source.circuit_evals)",
        counter("source.circuit_evals")
    );

    let store_probes = counter("store.hits") + counter("store.misses");
    if store_probes > 0 {
        println!(
            "landscape store: {} hits / {} misses / {} writes / {} write errors / {} corrupt",
            counter("store.hits"),
            counter("store.misses"),
            counter("store.writes"),
            counter("store.write_errors"),
            counter("store.corrupt_entries"),
        );
    }

    if let Some(wait) = hist("sched.dispatch_wait_us") {
        println!(
            "scheduler: {} dispatches, queue wait p50 {}us / p99 {}us",
            wait.count, wait.p50, wait.p99
        );
    }
    if let Some(busy) = hist("pool.busy_us") {
        let busy_s = busy.sum as f64 / 1e6;
        let capacity_s = batch_wall.as_secs_f64() * pool_budget as f64;
        println!(
            "pool: {busy_s:.2} busy-seconds over {:.2}s wall x {pool_budget} threads \
             ({:.0}% utilization), {} spawned, {} tasks stolen",
            batch_wall.as_secs_f64(),
            100.0 * busy_s / capacity_s.max(f64::EPSILON),
            counter("pool.threads_spawned"),
            counter("pool.tasks_stolen"),
        );
    }
}

/// Writes the span ring as JSONL to the `--trace` file and/or the
/// `OSCAR_TRACE` path. Trace failures are fatal: a CI smoke relying on
/// the file must not pass vacuously.
fn export_traces(opts: &Options) {
    let tracer = span::Tracer::global();
    if let Some(path) = &opts.trace {
        let mut file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create trace file '{path}': {e}");
            std::process::exit(1);
        });
        let spans = tracer.export_jsonl(&mut file).unwrap_or_else(|e| {
            eprintln!("error: cannot write trace file '{path}': {e}");
            std::process::exit(1);
        });
        print_trace_summary(spans, tracer.dropped(), path);
    }
    // Honor OSCAR_TRACE too (unless it names the same file).
    if span::env_trace_path().is_some_and(|env| opts.trace.as_deref() != Some(env)) {
        match span::export_env_trace() {
            Ok(Some(spans)) => {
                print_trace_summary(spans, tracer.dropped(), span::env_trace_path().unwrap())
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: cannot write OSCAR_TRACE file: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn print_trace_summary(spans: usize, dropped: u64, path: &str) {
    let overflow = if dropped > 0 {
        format!(" ({dropped} older spans overwritten by the bounded ring)")
    } else {
        String::new()
    };
    println!("trace: {spans} spans -> {path}{overflow}");
}

/// The default per-job report.
fn print_job_table(specs: &[JobSpec], results: &[JobResult]) {
    println!(
        "{:>4}  {:<10}{:>9}{:>7}{:>9}{:>7}{:>11}",
        "job", "workload", "samples", "iters", "nrmse", "cache", "latency"
    );
    for (spec, r) in specs.iter().zip(results) {
        println!(
            "{:>4}  {:<10}{:>9}{:>7}{:>9.4}{:>7}{:>10.1}ms",
            r.job_id,
            describe(spec),
            r.samples_used,
            r.solver_iterations,
            r.nrmse,
            if r.landscape_cache_hit { "hit" } else { "miss" },
            r.wall.as_secs_f64() * 1e3,
        );
    }
}

/// The paper-style sweep table: one row per problem × device ×
/// mitigation × optimizer combination.
fn print_sweep_table(reqs: &[SubmitReq], results: &[JobResult]) {
    println!(
        "{:<9}{:<12}{:<12}{:<15}{:>9}{:>12}{:>7}{:>11}",
        "problem", "device", "mitigation", "optimizer", "nrmse", "best value", "cache", "latency"
    );
    for (req, r) in reqs.iter().zip(results) {
        println!(
            "{:<9}{:<12}{:<12}{:<15}{:>9.4}{:>12.4}{:>7}{:>10.1}ms",
            req.problem.name(),
            req.device.as_deref().unwrap_or("exact"),
            req.mitigation.name(),
            req.descent.name(),
            r.nrmse,
            r.best_value,
            if r.landscape_cache_hit { "hit" } else { "miss" },
            r.wall.as_secs_f64() * 1e3,
        );
    }
}
