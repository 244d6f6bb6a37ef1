//! Runs every workload in `--quick` mode, untraced and traced, and holds the
//! printed metric names against `BENCHMARK.json` in both directions.

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

#[derive(Deserialize)]
struct Reading {
    value: f64,
    unit: String,
}

fn benchmark_json() -> Benchmark {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `<target dir>/gps-bench`, where runs keep scratch stores and trace files.
fn output_root() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_benchmark"))
        .ancestors()
        .nth(2)
        .expect("the binary sits in <target>/<profile>/")
        .join("gps-bench")
}

fn run(workload: &str, trace: bool) -> (String, ResultLine) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {:?}:\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: ResultLine = serde_json::from_str(last).expect("the last line is one JSON object");
    (stdout, result)
}

fn check(workload: &str) {
    let benchmark = benchmark_json();
    assert!(benchmark.workloads.iter().any(|w| w.name == workload));
    for (trace, listed) in [(false, &benchmark.end_to_end), (true, &benchmark.per_layer)] {
        let (stdout, result) = run(workload, trace);
        assert!(stdout.contains("\"quick\": true"), "quick runs are stamped");
        assert_eq!(result.failed, 0, "{workload} trace={trace}:\n{stdout}");
        assert!(result.correct && result.attempted >= 1);
        let printed: BTreeSet<&str> = result.metrics.keys().map(String::as_str).collect();
        let expected: BTreeSet<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, expected, "{workload} trace={trace}");
        for metric in listed {
            let reading = &result.metrics[&metric.name];
            assert_eq!(reading.unit, metric.unit, "{}", metric.name);
            assert!(reading.value.is_finite(), "{}", metric.name);
            if !trace {
                assert!(reading.value > 0.0, "{} is never 0", metric.name);
            }
        }
    }
}

#[test]
fn specify_2k_runs_clean_and_prints_the_listed_metrics() {
    check("specify-2k");
}

#[test]
fn specify_100k_runs_clean_and_prints_the_listed_metrics() {
    check("specify-100k");
}

#[test]
fn publish_1m_runs_clean_and_prints_the_listed_metrics() {
    check("publish-1m");
}

#[test]
fn live_2k_durable_runs_clean_and_leaves_no_directory_behind() {
    check("live-2k-durable");
    let litter: Vec<_> = std::fs::read_dir(output_root())
        .expect("the traced run wrote its trace here")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| !name.ends_with(".trace.jsonl"))
        .collect();
    assert!(litter.is_empty(), "left behind: {litter:?}");
}

#[test]
fn benchmark_json_is_within_the_contract() {
    let benchmark = benchmark_json();
    assert!(benchmark.paths.iter().all(|path| path == "benchmark"));
    assert!(benchmark
        .command
        .iter()
        .any(|arg| arg.starts_with("benchmark/")));
    assert!((1..=60).contains(&benchmark.run_seconds));
    assert_eq!(benchmark.workloads.len(), 4);
    assert!(benchmark.workloads.iter().all(|w| w.why.len() <= 200));
    for metric in benchmark.end_to_end.iter().chain(&benchmark.per_layer) {
        assert!(["lower", "higher"].contains(&metric.better.as_str()));
    }
    for metric in &benchmark.end_to_end {
        let bound = metric.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
    }
    assert!(benchmark.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = benchmark
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
}

#[test]
fn a_bare_directory_or_a_bad_flag_exits_non_zero_without_a_result() {
    for args in [&["--workload", "no-such"][..], &["--trace", "2"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success());
        assert!(output.stdout.is_empty(), "no result line on {args:?}");
    }
}
