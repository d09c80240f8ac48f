//! The traced run: each job re-driven through the public layer calls
//! `oscar_runtime::run_job` makes, in its order — cache lookup, source
//! generation, ZNE extrapolation, reconstruction, descent — with a
//! timer around each call, and the result's trip through `oscar-serve`'s
//! wire codec is timed after. The program itself carries no spans; every
//! timer lives here. Each traced job rebuilds its `JobResult` from the
//! layer outputs, and the caller checks its checksum against the
//! untraced run's.

use crate::workloads::Plan;
use oscar_core::grid::Shape;
use oscar_core::landscape::{Landscape, NdLandscape, ShapedLandscape};
use oscar_core::reconstruct::Reconstructor;
use oscar_core::usecases::mitigation::extrapolated_landscape;
use oscar_core::usecases::optimizer_debug::{
    optimize_on_reconstruction, optimize_on_reconstruction_nd,
};
use oscar_mitigation::zne::ZneConfig;
use oscar_runtime::{JobResult, JobSpec, LandscapeCache, LandscapeKey, Mitigation};
use oscar_serve::json;
use oscar_serve::proto::result_to_json;
use oscar_serve::result_checksum;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-call timings and counts collected by traced jobs.
#[derive(Clone, Debug, Default)]
pub struct LayerLog {
    /// `LandscapeSource::generate_scaled` calls: duration and points.
    pub generate: Vec<(Duration, usize)>,
    /// ZNE extrapolations.
    pub extrapolate: Vec<Duration>,
    /// `LandscapeCache::get_or_compute` calls that hit.
    pub lookup_hits: Vec<Duration>,
    /// Stage-2 `Reconstructor` calls.
    pub reconstruct: Vec<Duration>,
    /// Stage-3 descents.
    pub descent: Vec<Duration>,
    /// Objective queries per descent.
    pub queries: Vec<usize>,
    /// Landscape points evaluated per job.
    pub points_per_job: Vec<usize>,
    /// Results encoded by `result_to_json` and parsed back.
    pub codec: Vec<Duration>,
}

impl LayerLog {
    /// Appends `other`'s records.
    pub fn merge(&mut self, other: LayerLog) {
        self.generate.extend(other.generate);
        self.extrapolate.extend(other.extrapolate);
        self.lookup_hits.extend(other.lookup_hits);
        self.reconstruct.extend(other.reconstruct);
        self.descent.extend(other.descent);
        self.queries.extend(other.queries);
        self.points_per_job.extend(other.points_per_job);
        self.codec.extend(other.codec);
    }

    fn points_generated(&self) -> usize {
        self.generate.iter().map(|&(_, points)| points).sum()
    }
}

/// Runs `spec` layer by layer against `cache`, recording into `log`.
///
/// # Errors
///
/// Fails for a mitigation other than none or ZNE, which no workload uses.
pub fn traced_job(
    spec: &JobSpec,
    cache: &LandscapeCache,
    log: &mut LayerLog,
) -> Result<JobResult, String> {
    let started = Instant::now();
    let points_before = log.points_generated();
    let (truth, cache_hit) = stage1(spec, cache, log)?;
    log.points_per_job
        .push(log.points_generated() - points_before);

    let t = Instant::now();
    let reconstructor = Reconstructor::new(spec.fista);
    let (reconstruction, nrmse, samples_used, solver_iterations) = match truth.as_ref() {
        ShapedLandscape::Grid2d(l) => {
            let r = reconstructor.reconstruct_fraction_seeded(l, spec.fraction, spec.seed);
            (
                ShapedLandscape::Grid2d(r.landscape),
                r.nrmse,
                r.samples_used,
                r.solver_iterations,
            )
        }
        ShapedLandscape::Tensor(l) => {
            let r = reconstructor.reconstruct_tensor_fraction_seeded(l, spec.fraction, spec.seed);
            (
                ShapedLandscape::Tensor(r.landscape),
                r.nrmse,
                r.samples_used,
                r.solver_iterations,
            )
        }
    };
    log.reconstruct.push(t.elapsed());

    let t = Instant::now();
    let (best_point, best_value, queries) =
        match (spec.descent.optimizer(spec.seed), &reconstruction) {
            (Some(optimizer), ShapedLandscape::Grid2d(l)) => {
                let (_, (b0, g0)) = l.argmin();
                let run = optimize_on_reconstruction(optimizer.as_ref(), l, [b0, g0]);
                (vec![run.x[0], run.x[1]], run.fx, run.queries)
            }
            (Some(optimizer), ShapedLandscape::Tensor(l)) => {
                let (_, x0) = l.argmin();
                let run = optimize_on_reconstruction_nd(optimizer.as_ref(), l, &x0);
                (run.x, run.fx, run.queries)
            }
            (None, _) => {
                let (value, point) = reconstruction.argmin();
                (point, value, 0)
            }
        };
    log.descent.push(t.elapsed());
    log.queries.push(queries);

    Ok(JobResult {
        job_id: 0,
        dispatch_seq: 0,
        reconstruction,
        nrmse,
        samples_used,
        solver_iterations,
        best_point,
        best_value,
        landscape_cache_hit: cache_hit,
        wall: started.elapsed(),
    })
}

/// Stage 1 + 1.5 as `oscar_runtime::mitigated_landscape` composes them:
/// the final key's lookup, and inside its producer either the raw
/// generation or one cached lookup per ZNE factor plus extrapolation.
fn stage1(
    spec: &JobSpec,
    cache: &LandscapeCache,
    log: &mut LayerLog,
) -> Result<(Arc<ShapedLandscape>, bool), String> {
    let (problem, shape, source, seed) = (
        &spec.problem,
        &spec.shape,
        &spec.source,
        spec.landscape_seed,
    );
    match spec.mitigation.normalized(source) {
        Mitigation::None => {
            let key = LandscapeKey::new(problem, shape, source, seed);
            Ok(lookup(cache, key, log, |log| generate(spec, 1.0, log)))
        }
        Mitigation::Zne {
            factors,
            extrapolator,
        } => {
            let key = LandscapeKey::mitigated(
                problem,
                shape,
                source,
                seed,
                spec.mitigation.fingerprint(source),
            );
            Ok(lookup(cache, key, log, |log| {
                let zne = ZneConfig::new(factors, extrapolator);
                let subs: Vec<Arc<ShapedLandscape>> = zne
                    .scale_factors
                    .iter()
                    .map(|&scale| {
                        let key = LandscapeKey::zne_factor(problem, shape, source, seed, scale);
                        lookup(cache, key, log, |log| generate(spec, scale, log)).0
                    })
                    .collect();
                let t = Instant::now();
                let mitigated = extrapolate(&zne, shape, &subs);
                log.extrapolate.push(t.elapsed());
                mitigated
            }))
        }
        other => Err(format!(
            "the traced run covers unmitigated and ZNE jobs, not '{}'",
            other.name()
        )),
    }
}

fn lookup(
    cache: &LandscapeCache,
    key: LandscapeKey,
    log: &mut LayerLog,
    produce: impl FnOnce(&mut LayerLog) -> ShapedLandscape,
) -> (Arc<ShapedLandscape>, bool) {
    let t = Instant::now();
    let (landscape, hit) = cache.get_or_compute(key, || produce(&mut *log));
    if hit {
        log.lookup_hits.push(t.elapsed());
    }
    (landscape, hit)
}

fn generate(spec: &JobSpec, scale: f64, log: &mut LayerLog) -> ShapedLandscape {
    let t = Instant::now();
    let landscape =
        spec.source
            .generate_scaled(&spec.problem, &spec.shape, spec.landscape_seed, scale);
    log.generate.push((t.elapsed(), landscape.values().len()));
    landscape
}

fn extrapolate(zne: &ZneConfig, shape: &Shape, subs: &[Arc<ShapedLandscape>]) -> ShapedLandscape {
    match shape {
        Shape::Grid2d(_) => {
            let refs: Vec<&Landscape> = subs
                .iter()
                .map(|s| s.as_grid2d().expect("a grid source yields grid landscapes"))
                .collect();
            extrapolated_landscape(zne, &refs).into()
        }
        Shape::Tensor(tensor) => {
            let mut samples = vec![0.0; subs.len()];
            let values: Vec<f64> = (0..tensor.len())
                .map(|i| {
                    for (slot, sub) in samples.iter_mut().zip(subs) {
                        *slot = sub.values()[i];
                    }
                    zne.extrapolate_values(&samples)
                })
                .collect();
            NdLandscape::from_values(tensor.clone(), values).into()
        }
    }
}

/// The traced phase: `clients` threads re-run the untraced run's
/// finished jobs, given as `(job index, untraced checksum)` in index
/// order, through [`traced_job`] until the list or `seconds` runs out.
/// Returns the merged log, the jobs traced, the phase's wall-clock and
/// how many traced checksums differed from the untraced ones.
pub fn traced_loop(
    plan: &Plan,
    cache: &LandscapeCache,
    jobs: &[(u64, u64)],
    clients: usize,
    seconds: f64,
) -> Result<(LayerLog, usize, Duration, usize), String> {
    let next = AtomicUsize::new(0);
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<Result<(LayerLog, usize, usize), String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let (mut log, mut traced, mut mismatched) = (LayerLog::default(), 0, 0);
                    while start.elapsed() < deadline {
                        let Some(&(index, checksum)) =
                            jobs.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let result = traced_job(&plan.spec(index), cache, &mut log)?;
                        let t = Instant::now();
                        let line = result_to_json(&result, false).to_string_compact();
                        json::parse(&line).map_err(|e| format!("job {index}: result line: {e}"))?;
                        log.codec.push(t.elapsed());
                        traced += 1;
                        mismatched += usize::from(result_checksum(&result) != checksum);
                    }
                    Ok((log, traced, mismatched))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("a traced client panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let (mut log, mut traced, mut mismatched) = (LayerLog::default(), 0, 0);
    for part in per_client {
        let (part_log, part_traced, part_mismatched) = part?;
        log.merge(part_log);
        traced += part_traced;
        mismatched += part_mismatched;
    }
    Ok((log, traced, wall, mismatched))
}
