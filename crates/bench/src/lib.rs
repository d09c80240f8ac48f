//! # oscar-bench — shared helpers for the table/figure harness
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md's per-experiment index). This library
//! holds the common plumbing: seeded instance generation, quartile
//! summaries, and the scale switch.
//!
//! By default the binaries run a reduced-but-faithful configuration that
//! completes in seconds to minutes on a laptop. Set `OSCAR_FULL=1` for
//! paper-scale grids and instance counts (hours).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

use oscar_core::landscape::quantile_sorted;
use oscar_problems::ising::IsingProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `true` when the environment requests paper-scale configurations.
pub fn full_scale() -> bool {
    std::env::var("OSCAR_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A deterministic RNG for experiment `seed`.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Resolves a device name against the shared registry
/// ([`oscar_executor::device::DeviceSpec::by_name`]), or exits with
/// status 2 listing the valid names — the common CLI failure path of
/// every harness binary that takes a device argument.
pub fn device_spec_or_exit(name: &str) -> oscar_executor::device::DeviceSpec {
    oscar_executor::device::DeviceSpec::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "error: unknown device '{name}'.\nvalid devices: {}",
            oscar_executor::device::KNOWN_DEVICES.join(", ")
        );
        std::process::exit(2);
    })
}

/// Resolves the figure-harness `--device NAME` argument against the
/// shared registry, defaulting to `default` when absent. The figure
/// bins take no other arguments (scale comes from `OSCAR_FULL`), so
/// anything unrecognized — including a typoed `--device` — exits with
/// status 2 rather than silently running the default device. An
/// unknown device name exits 2 listing the valid names (the table5 /
/// oscar-batch failure path), so every bin agrees with the runtime on
/// the Table 5 lineup.
pub fn device_from_args(default: &str) -> oscar_executor::device::DeviceSpec {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = default.to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--device" => {
                name = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("error: --device needs a value");
                    std::process::exit(2);
                });
                i += 1;
            }
            other => {
                eprintln!(
                    "error: unknown argument '{other}' (this binary takes only --device NAME)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    device_spec_or_exit(&name)
}

/// Generates `count` random 3-regular MaxCut instances on `n` qubits.
pub fn maxcut_instances(count: usize, n: usize, seed: u64) -> Vec<IsingProblem> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| IsingProblem::random_3_regular(n, &mut rng))
        .collect()
}

/// Quartile summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub q50: f64,
    /// 75th percentile.
    pub q75: f64,
}

impl Quartiles {
    /// Computes quartiles (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no values");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Quartiles {
            q25: quantile_sorted(&sorted, 0.25),
            q50: quantile_sorted(&sorted, 0.5),
            q75: quantile_sorted(&sorted, 0.75),
        }
    }
}

/// Prints a standard experiment header with the active scale.
pub fn print_header(exp: &str, what: &str) {
    println!("== {exp}: {what} ==");
    println!(
        "scale: {} (set OSCAR_FULL=1 for paper-scale)",
        if full_scale() { "FULL" } else { "reduced" }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_ramp() {
        let v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let q = Quartiles::of(&v);
        assert_eq!(q.q25, 25.0);
        assert_eq!(q.q50, 50.0);
        assert_eq!(q.q75, 75.0);
    }

    #[test]
    fn instances_are_distinct() {
        let v = maxcut_instances(3, 8, 1);
        assert_eq!(v.len(), 3);
        assert_ne!(v[0].graph(), v[1].graph());
    }
}
