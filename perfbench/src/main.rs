//! Command-line entry point of the benchmark:
//!
//! ```text
//! oscar-perfbench --workload <paper2d_warm|zne_cold|lih_warm>
//!                 --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a detail line, then the result line as the last line of
//! standard output. Exits non-zero, without a result line, when the
//! arguments are wrong, set-up fails or a workload self-check fails.

use oscar_perfbench::workloads::{Scale, Workload};
use oscar_perfbench::{run, Config};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Paper2dWarm,
        seed: 1,
        seconds: 16.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("oscar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.detail_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oscar-perfbench: {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
