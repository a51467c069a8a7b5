//! Run the results guard ([`pgas_bench::guard`]) on files already written:
//!
//! ```text
//! cargo run -p pgas-bench --release --bin validate_results -- BENCH_results.json
//! cargo run -p pgas-bench --release --bin validate_results -- BENCH_results.json --trace target/trace.jsonl
//! cargo run -p pgas-bench --release --bin validate_results -- target/BENCH_proc.json
//! ```
//!
//! `PATH` defaults to `BENCH_results.json`. `--trace` also checks a span
//! trace. The rows' own `engine` tags say which rules apply: a file of
//! `procbench` rows (every one tagged `engine: "proc"`) skips the sim
//! series rules. Exits nonzero with the failing rule on the first
//! violation.

use std::process::ExitCode;

use pgas_bench::guard::{check_results, check_trace};

/// Read `path` and run `check` on it, printing the verdict.
fn validate(path: &str, what: &str, check: impl Fn(&str) -> Result<usize, String>) -> bool {
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| check(&text));
    match &verdict {
        Ok(n) => println!("validate: {path}: {n} {what} ok"),
        Err(e) => eprintln!("validate: {path}: {e}"),
    }
    verdict.is_ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut results_path = "BENCH_results.json".to_string();
    let mut trace_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_path = Some(it.next().expect("--trace takes a path").clone()),
            other => results_path = other.to_string(),
        }
    }
    let mut ok = validate(&results_path, "rows", check_results);
    if let (true, Some(tp)) = (ok, trace_path) {
        ok = validate(&tp, "spans", check_trace);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
