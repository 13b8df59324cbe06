//! Smoke tests of the benchmark binary at tiny scale: every workload of
//! `BENCHMARK.json` runs with two seeds, traced and untraced, and prints
//! exactly the declared metrics with their declared units; a deliberately
//! wrong expected verdict fails the run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::{Command, Output};

use perfbench::json::{parse, Json};
use perfbench::workload::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("the benchmark printed a result line");
    parse(last).expect("the last line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn check_workload(name: &str) {
    let bench = benchmark_json();
    for trace in [false, true] {
        let want = declared(&bench, if trace { "per_layer" } else { "end_to_end" });
        for seed in [1, 2] {
            let out = run(name, seed, trace, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} seed {seed} trace {trace} failed: {stderr}");
            let r = result_line(&out);
            let keys: Vec<&str> =
                r.as_object().expect("result object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
            assert!(r.get("attempted").and_then(Json::as_f64).is_some_and(|a| a >= 1.0));
            let metrics = r.get("metrics").and_then(Json::as_object).expect("metrics object");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name}: {k} has no finite value");
                    (k.clone(), v.get("unit").and_then(Json::as_str).unwrap_or("").to_string())
                })
                .collect();
            assert_eq!(got, want, "{name} seed {seed} trace {trace}: metrics or units differ");
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let bench = benchmark_json();
    let listed: Vec<(&str, &str)> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).expect("name"),
                w.get("why").and_then(Json::as_str).expect("why"),
            )
        })
        .collect();
    let defined: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, defined, "BENCHMARK.json and workload.rs disagree");
}

#[test]
fn fib_uniform_prints_every_metric() {
    check_workload("fib-uniform");
}

#[test]
fn serve_churn_prints_every_metric() {
    check_workload("serve-churn");
}

#[test]
fn a_wrong_expected_verdict_fails_the_run() {
    for name in ["fib-uniform", "serve-churn"] {
        let out = run(name, 3, false, &["--inject-wrong-verdict"]);
        assert_eq!(out.status.code(), Some(1), "{name}: a wrong verdict must exit 1");
        let r = result_line(&out);
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
        assert!(r.get("failed").and_then(Json::as_f64).is_some_and(|f| f >= 1.0));
    }
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
