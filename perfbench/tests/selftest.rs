//! Tiny-size self-test of the benchmark: every workload named in
//! `BENCHMARK.json`, run briefly at tiny sizes with tracing off and on,
//! passes its correctness gate and self-checks and emits exactly the
//! metric names and units the manifest lists, each a finite number.

use oscar_perfbench::workloads::{Scale, Workload};
use oscar_perfbench::{run, Config};
use oscar_serve::json::{self, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(manifest: &'a Json, section: &str) -> &'a [Json] {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a '{section}' list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without '{key}': {}", entry.to_string_compact()))
}

#[test]
fn manifest_names_exactly_the_implemented_workloads() {
    let manifest = manifest();
    let listed: Vec<&str> = entries(&manifest, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, implemented);
}

#[test]
fn every_workload_emits_every_listed_metric() {
    let manifest = manifest();
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut expected: Vec<(String, String)> = entries(&manifest, section)
            .iter()
            .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
            .collect();
        expected.sort();
        for workload in Workload::ALL {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                scale: Scale::Tiny,
            };
            let report =
                run(&cfg).unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            assert!(
                report.correct,
                "{}: a result failed its gate",
                workload.name()
            );
            assert!(
                report.attempted >= 100,
                "{}: {} jobs",
                workload.name(),
                report.attempted
            );
            let mut emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            emitted.sort();
            assert_eq!(emitted, expected, "{} (trace {trace})", workload.name());
            for m in &report.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }

            let line = json::parse(&report.result_line()).expect("the result line is JSON");
            let Json::Obj(fields) = &line else {
                panic!("the result line is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}
