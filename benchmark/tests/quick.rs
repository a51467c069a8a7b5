//! Runs the benchmark's `quick` suite and one traced workload, and checks
//! the output against `BENCHMARK.json`: every workload and metric named
//! there is produced, with the unit given there, and no operation failed.

use std::path::PathBuf;
use std::process::Command;

use pgas_benchmark::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_pgas-benchmark");

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn spec() -> Value {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of `spec[list]`.
fn named(spec: &Value, list: &str) -> Vec<(String, String)> {
    let entries = spec.get(list).expect("list present").as_arr();
    assert!(!entries.is_empty(), "{list} is empty");
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry lacks {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn check_metrics(metrics: &Value, expected: &[(String, String)], context: &str) {
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{context}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{context}: {name} has no value"));
        assert!(v.is_finite(), "{context}: {name} = {v}");
    }
    assert_eq!(
        metrics.as_obj().len(),
        expected.len(),
        "{context}: metrics not named in BENCHMARK.json"
    );
}

#[test]
fn quick_suite_matches_the_benchmark_spec() {
    let spec = spec();
    let out = Command::new(EXE)
        .arg("quick")
        .output()
        .expect("run the quick suite");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "quick suite failed:\n{stdout}");
    assert!(
        stdout.contains("NOT COMPARABLE"),
        "a quick run must be marked not comparable"
    );

    let summary = std::fs::read_to_string(manifest_dir().join("out/summary-quick.json"))
        .expect("read the summary");
    let summary = json::parse(&summary).expect("summary parses");
    assert_eq!(
        summary.get("comparable").and_then(Value::as_bool),
        Some(false)
    );
    for key in ["git_sha", "nproc", "rustc", "kernel", "loadavg_start"] {
        assert!(
            summary.get("env").and_then(|e| e.get(key)).is_some(),
            "env header lacks {key}"
        );
    }
    assert!(summary.get("seed").is_some() && summary.get("seconds").is_some());

    let end_to_end = named(&spec, "end_to_end");
    let workloads = spec.get("workloads").expect("workloads").as_arr();
    assert_eq!(
        workloads.len(),
        summary.get("workloads").expect("workloads").as_obj().len()
    );
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let got = summary
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            got.get("why").and_then(Value::as_str),
            w.get("why").and_then(Value::as_str),
            "{name}: why"
        );
        assert_eq!(
            got.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name} failed a check"
        );
        assert_eq!(
            got.get("failed_ops_share").and_then(Value::as_f64),
            Some(0.0),
            "{name}: failed ops"
        );
        assert!(got
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|a| a >= 1.0));
        assert!(
            got.get("sizes")
                .and_then(Value::as_str)
                .is_some_and(|s| !s.is_empty()),
            "{name}: sizes"
        );
        check_metrics(got.get("metrics").expect("metrics"), &end_to_end, name);
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_spans() {
    let spec = spec();
    let out = Command::new(EXE)
        .args([
            "--workload",
            "queue-mailbox",
            "--seed",
            "7",
            "--seconds",
            "0.6",
            "--trace",
            "1",
            "--quick",
            "1",
        ])
        .output()
        .expect("run a traced workload");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("result line parses");
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    check_metrics(
        result.get("metrics").expect("metrics"),
        &named(&spec, "per_layer"),
        "queue-mailbox traced",
    );

    let spans = std::fs::read_to_string(manifest_dir().join("out/trace-queue-mailbox.jsonl"))
        .expect("read the span file");
    let names: std::collections::BTreeSet<String> = spans
        .lines()
        .map(|l| {
            json::parse(l)
                .expect("span parses")
                .get("name")
                .and_then(Value::as_str)
                .expect("span name")
                .to_string()
        })
        .collect();
    for expected in [
        "run",
        "setup",
        "measure",
        "round",
        "op",
        "teardown",
        "ladder",
        "ladder.wire",
        "ladder.net",
        "ladder.pgas",
        "ladder.atomics",
        "ladder.epoch",
        "ladder.structures",
    ] {
        assert!(
            names.contains(expected),
            "no {expected} span among {names:?}"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(EXE)
        .args(["--workload", "no-such", "--trace", "0"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
}
