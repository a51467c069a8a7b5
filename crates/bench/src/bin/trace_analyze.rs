//! Critical-path analyzer for `--trace` JSON-lines files.
//!
//! Reconstructs trace trees (structure-op root spans with nested AM /
//! retry / combining spans), decomposes every root's virtual-time
//! duration into wire / queueing / handler / retry / combine / local
//! components with exact accounting, and optionally renders a Chrome
//! trace-event JSON loadable in Perfetto (<https://ui.perfetto.dev>).
//!
//! ```text
//! trace_analyze <trace.jsonl> [--top N] [--chrome OUT.json] [--strict]
//! ```
//!
//! `--strict` exits non-zero unless ≥ 99% of spans land in rooted trees,
//! every root's components sum exactly to its duration, and the trace has
//! no duplicate span ids — the CI contract for the `trace-smoke` job.

use std::process::ExitCode;

use pgas_bench::trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut top = 5usize;
    let mut strict = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--top needs an integer"));
            }
            "--chrome" => {
                i += 1;
                chrome = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--chrome needs a path")),
                );
            }
            "--strict" => strict = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace_analyze <trace.jsonl> [--top N] [--chrome OUT.json] [--strict]"
                );
                return ExitCode::SUCCESS;
            }
            a if path.is_none() && !a.starts_with('-') => path = Some(a.to_string()),
            a => die(&format!("unknown argument {a:?}")),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| die("missing trace file path"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => die(&format!("cannot read {path}: {e}")),
    };
    let spans = match trace::parse_trace(&text) {
        Ok(s) => s,
        Err(e) => die(&format!("{path}: {e}")),
    };
    let a = trace::analyze(spans);
    print!("{}", trace::report(&a, top));

    if let Some(out) = chrome {
        let doc = trace::chrome_trace(&a);
        if let Err(e) = std::fs::write(&out, &doc) {
            die(&format!("cannot write {out}: {e}"));
        }
        println!(
            "\nchrome trace: {out} ({} bytes) — load at https://ui.perfetto.dev",
            doc.len()
        );
    }

    if strict {
        let mut failed = false;
        if a.rooted_pct() < 99.0 {
            eprintln!("STRICT: rooted {:.2}% < 99%", a.rooted_pct());
            failed = true;
        }
        if !a.accounting_exact() {
            eprintln!("STRICT: component decomposition does not sum to root durations");
            failed = true;
        }
        if a.duplicate_ids > 0 {
            eprintln!("STRICT: {} duplicate span ids", a.duplicate_ids);
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!(
            "\nstrict checks passed: rooted {:.2}%, exact accounting, unique span ids",
            a.rooted_pct()
        );
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ! {
    eprintln!("trace_analyze: {msg}");
    std::process::exit(2);
}
