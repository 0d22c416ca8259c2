//! The benchmark's own smoke test: every workload at tiny size, untraced
//! and traced. Checks that each run prints one well-formed result line
//! carrying exactly the catalogue's metrics with their units, that the
//! catalogue matches `BENCHMARK.json` (names, units, directions), and that
//! the traced run's segments account for the open-loop mean verdict
//! latency within 5%.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["stream_rows", "stream_bulk", "fit_detect"];

/// Share of the mean verdict latency the traced segments must account for.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

/// `(kind, name) -> (unit, better)` as the binary declares it.
fn catalogue() -> BTreeMap<(String, String), (String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dquag-perfbench"))
        .arg("--catalogue")
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8 catalogue")
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5, "catalogue line `{line}`");
            (
                (f[0].to_string(), f[1].to_string()),
                (f[2].to_string(), f[3].to_string()),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn catalogue_matches_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let root = json.as_object().expect("object");
    let mut declared = BTreeMap::new();
    for kind in ["end_to_end", "per_layer"] {
        for metric in root[kind].as_array().expect("metric list") {
            let m = metric.as_object().expect("metric object");
            let name = m["name"].as_str().expect("name").to_string();
            let better = m["better"].as_str().expect("better").to_string();
            assert!(
                better == "higher" || better == "lower",
                "{name}: better = {better}"
            );
            assert!(valid_name(&name), "bad metric name `{name}`");
            declared.insert(
                (kind.to_string(), name),
                (m["unit"].as_str().expect("unit").to_string(), better),
            );
        }
    }
    assert_eq!(
        declared,
        catalogue(),
        "BENCHMARK.json and the binary's catalogue differ"
    );
    let workloads: Vec<&str> = root["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_object().expect("workload")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Run one tiny workload and return its parsed metrics.
fn run(workload: &str, trace: bool) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dquag-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    let result = result.as_object().expect("result object");
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], Value::Bool(true));
    let attempted = result["attempted"].as_f64().expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(
        result["failed"].as_f64(),
        Some(0.0),
        "{workload}: no operation may fail"
    );
    result["metrics"]
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().expect("metric object");
            let value = m["value"].as_f64().expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (
                name.clone(),
                (value, m["unit"].as_str().expect("unit").to_string()),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_its_catalogue() {
    let catalogue = catalogue();
    for workload in WORKLOADS {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let metrics = run(workload, trace);
            let expected: BTreeMap<&str, &str> = catalogue
                .iter()
                .filter(|((k, _), _)| k == kind)
                .map(|((_, name), (unit, _))| (name.as_str(), unit.as_str()))
                .collect();
            let emitted: BTreeMap<&str, &str> = metrics
                .iter()
                .map(|(name, (_, unit))| (name.as_str(), unit.as_str()))
                .collect();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            if kind == "end_to_end" {
                for (name, (value, _)) in &metrics {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end metric {name} is {value}"
                    );
                }
            } else {
                let share = metrics["trace.attributed_share"].0;
                assert!(
                    (share - 1.0).abs() <= ATTRIBUTION_TOLERANCE,
                    "{workload}: segments account for {share} of the mean verdict latency"
                );
            }
        }
    }
}
