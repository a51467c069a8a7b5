//! Command line.
//!
//! ```text
//! pgas-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One workload in this process. The last line of standard output is one
//!     JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced,
//!     the metrics are the end-to-end ones; traced, the per-layer ones.
//! pgas-benchmark run       [--seed N] [--seconds S]   every workload, untraced
//! pgas-benchmark trace     [--seed N] [--seconds S]   every workload, traced, plus the ladder
//! pgas-benchmark quick     [--seed N]                 3 rounds each; numbers not comparable
//! pgas-benchmark selfcheck [N] [--seed N] [--seconds S]
//!     The untraced suite N times, twice over; fails if the two sets disagree.
//! ```
//!
//! The suite commands run each workload as its own child process of this
//! binary, so `peak_rss_mb` is a per-workload high-water mark.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::Env;
use crate::json::{self, Value};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Metrics, Opts, Report, WORKLOADS};

const DEFAULT_SEED: u64 = 20200518;
const DEFAULT_SECONDS: f64 = 14.0;
const QUICK_SECONDS: f64 = 0.6;

struct Args {
    command: Option<String>,
    count: Option<usize>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        count: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let flag01 = |flag: &str, v: String| match v.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => a.trace = flag01("--trace", value("--trace")?)?,
            "--quick" => a.quick = flag01("--quick", value("--quick")?)?,
            s if !s.starts_with('-') && a.command.is_none() => a.command = Some(s.to_string()),
            s if a.command.as_deref() == Some("selfcheck") && a.count.is_none() => {
                a.count = Some(s.parse().map_err(|e| format!("selfcheck count: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nsee the usage at the top of benchmark/src/cli.rs or benchmark/README.md");
            return 2;
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (None, Some(w)) => one_workload(w, &args),
        (Some("run"), None) => suite("run", &args),
        (Some("trace"), None) => suite("trace", &args),
        (Some("quick"), None) => suite("quick", &args),
        (Some("selfcheck"), None) => selfcheck(&args),
        _ => {
            eprintln!("error: give either --workload W or one of run | trace | quick | selfcheck");
            2
        }
    }
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

// --- one workload, in this process ---------------------------------------------

/// `ProcEngine` has no read timeouts, so a hung round would hang the
/// benchmark: past three times the workload's expected length the process
/// exits nonzero naming the workload, and its caller counts the run failed.
struct Watchdog {
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(workload: &str, seconds: f64) -> Watchdog {
        // Set-ups, teardowns and the ladder take about this long next
        // to the measured phase; the driver allows a run 180 s in all.
        let expected = seconds + 15.0;
        let limit = Duration::from_secs_f64((3.0 * expected).min(170.0));
        let done = Arc::new(AtomicBool::new(false));
        let (flag, name) = (Arc::clone(&done), workload.to_string());
        let thread = std::thread::spawn(move || {
            let start = Instant::now();
            while !flag.load(Ordering::SeqCst) {
                if start.elapsed() >= limit {
                    eprintln!(
                        "watchdog: workload {name} still running after {:.0} s, aborting; its remaining operations count as failed",
                        limit.as_secs_f64()
                    );
                    std::process::exit(3);
                }
                std::thread::park_timeout(Duration::from_millis(200));
            }
        });
        Watchdog {
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

fn one_workload(name: &str, args: &Args) -> i32 {
    if !WORKLOADS.iter().any(|w| w.0 == name) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "error: unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        );
        return 2;
    }
    // Before `init`: a child process would inherit the real-time class.
    let env = Env::capture();
    eprintln!("{}", env.describe());
    eprintln!("{}", crate::affinity::init());
    if !crate::host::fix_malloc_thresholds() {
        eprintln!("!!! WARNING: mallopt(M_MMAP_THRESHOLD) refused — peak_rss_mb depends on the order of frees !!!");
    }
    let _watchdog = Watchdog::start(name, args.seconds);
    eprintln!(
        "workload {name}: seed {}, {} s measured, {}; {}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        workloads::sizes_of(name)
    );
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let (report, metrics) = if args.trace {
        traced(name, &opts, &env)
    } else {
        let report = workloads::run_named(name, &opts, None).expect("name checked above");
        let metrics = workloads::end_to_end(&report);
        (report, metrics)
    };
    for (n, v, unit) in &metrics.0 {
        eprintln!("  {n:<40} {v:>16.4} {unit}");
    }
    // The raw material of the medians above, for whoever doubts them.
    let m = &report.measured;
    eprintln!(
        "  set-ups {:.4?} s, teardowns {:.4?} s",
        report.setup_s, report.teardown_s
    );
    eprintln!(
        "  op time deciles, us: {}",
        (1..10)
            .map(|d| format!("{:.3}", m.op_us(d as f64 * 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "  ops/s of each round: {}",
        m.rounds
            .iter()
            .map(|r| format!("{:.0}", r.ops as f64 / r.secs))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let c = &report.checks;
    eprintln!(
        "  {:<40} {:>16.4} share  ({} failed of {} attempted)",
        "failed_ops_share",
        c.failed_share(),
        c.failed,
        c.attempted
    );
    for note in &c.notes {
        eprintln!("  FAILED CHECK: {note}");
    }
    println!("{}", result_line(&report, &metrics));
    i32::from(c.failed > 0)
}

/// `"name": {"value": v, "unit": "u"}, ...` — the body of a `metrics` object.
fn metric_fields<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    metrics
        .map(|(n, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(n),
                json::number(v),
                json::quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The driver's contract: exactly these four keys.
fn result_line(report: &Report, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        metric_fields(metrics.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u)))
    )
}

/// The traced run: the workload with every second round recording spans,
/// then the layer ladder; the span file is written once, at the end.
fn traced(name: &str, opts: &Opts, env: &Env) -> (Report, Metrics) {
    let tracer = Tracer::new();
    let (report, ladder) = tracer.scope("run", 0, |root| {
        let mut r = workloads::run_named(name, opts, Some((&tracer, root))).expect("name checked");
        let ladder = tracer.scope("ladder", root, |id| {
            crate::ladder::climb(opts.seed, &tracer, id, &mut r.checks)
        });
        (r, ladder)
    });

    let m = &report.measured;
    let ops = m.ops() as f64;
    let mut out = Metrics::default();
    let c = m.comm();
    // Exact counts of this workload's measured phase, from the library's
    // public `CommSnapshot`; they move `sim.vtime_ns_per_op` with them.
    out.put("pgas.am_per_op", c.am_sent as f64 / ops, "count");
    out.put(
        "pgas.combine_batch_mean",
        c.combined_ops as f64 / c.combines.max(1) as f64,
        "count",
    );
    out.put(
        "pgas.rdma_atomics_per_op",
        c.rdma_atomics as f64 / ops,
        "count",
    );
    out.put(
        "pgas.cpu_atomics_per_op",
        c.cpu_atomics as f64 / ops,
        "count",
    );
    out.put("pgas.cpu_dcas_per_op", c.cpu_dcas as f64 / ops, "count");
    out.put("pgas.retries_per_op", c.retries as f64 / ops, "count");
    // Kernel time per op: the futex and yield price of hand-offs.
    out.put("pgas.sys_cpu_us_per_op", m.cpu().sys_s * 1e6 / ops, "us");
    // SIMULATED time (the Aries-class cost model), not host time; zero on
    // `proc-mix`, where the engine pays physical time instead.
    let vtime: u64 = m.rounds.iter().map(|r| r.vtime_ns).sum();
    out.put("sim.vtime_ns_per_op", vtime as f64 / ops, "ns");
    out.0.extend(ladder.0);

    out.put("driver.op_p99_us", m.op_us(99.0), "us");
    out.put("driver.op_p999_us", m.op_us(99.9), "us");
    let untraced = m.round_rates(false);
    out.put("driver.ops_per_s", stats::median(&untraced), "1/s");
    out.put("driver.round_spread", stats::spread(&untraced), "share");
    out.put("driver.samples", m.samples.len() as f64, "count");
    out.put(
        "driver.trace_overhead_share",
        1.0 - stats::median(&m.round_rates(true)) / stats::median(&untraced),
        "share",
    );
    out.put("driver.loadavg_start", env.loadavg_start, "count");
    out.put(
        "driver.failed_ops_share",
        report.checks.failed_share(),
        "share",
    );

    let path = out_dir().join(format!("trace-{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("  {} spans written to {}", tracer.len(), path.display());
    eprintln!("  span                      recorded     total ms      self ms   (a sampled op stands for 16)");
    for s in tracer.self_times() {
        eprintln!(
            "  {:<24} {:>9} {:>12.3} {:>12.3}",
            s.name,
            s.recorded,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    if m.samples_dropped > 0 {
        eprintln!(
            "  note: {} samples did not fit the buffer",
            m.samples_dropped
        );
    }
    (report, out)
}

// --- the suite: one child process per workload -----------------------------------

/// What a child printed, or why it printed nothing.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--quick", if quick { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v = json::parse(line).map_err(|e| {
        format!(
            "{workload} exited with {} and no result line ({e})",
            out.status
        )
    })?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    let metrics = v
        .get("metrics")
        .ok_or("result lacks metrics")?
        .as_obj()
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                m.get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{name} lacks a value"))?,
                m.get("unit")
                    .and_then(Value::as_str)
                    .ok_or(format!("{name} lacks a unit"))?
                    .to_string(),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false) && out.status.success(),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// The environment header of a suite, with the warning when the box is busy.
fn print_header() -> Env {
    let env = Env::capture();
    println!("{}", env.describe());
    if let Some(w) = env.busy_warning() {
        println!("{w}");
    }
    env
}

fn suite(mode: &str, args: &Args) -> i32 {
    let quick = mode == "quick";
    let trace = mode == "trace";
    let seconds = if quick { QUICK_SECONDS } else { args.seconds };
    let env = print_header();
    println!(
        "mode {mode}: seed {}, {seconds} s measured per workload, {} driver threads (one per locale){}",
        args.seed,
        crate::harness::LOCALES,
        if quick { " — QUICK RUN, NUMBERS NOT COMPARABLE" } else { "" }
    );
    let mut results = Vec::new();
    for (name, _) in WORKLOADS {
        println!("--- {name}: {}", workloads::sizes_of(name));
        results.push((name, run_child(name, args.seed, seconds, trace, quick)));
    }

    // Every metric by name with its unit, one column per workload.
    let mut names: Vec<(String, String)> = Vec::new();
    for (_, r) in &results {
        for (n, _, unit) in r.as_ref().map(|r| r.metrics.as_slice()).unwrap_or(&[]) {
            if !names.iter().any(|x| &x.0 == n) {
                names.push((n.clone(), unit.clone()));
            }
        }
    }
    print!("{:<38} {:<6}", "metric", "unit");
    for (name, _) in &results {
        print!(" {name:>14}");
    }
    println!();
    let share = |r: &Result<ChildResult, String>| match r {
        Ok(r) => r.failed as f64 / r.attempted.max(1) as f64,
        Err(_) => 1.0,
    };
    for (metric, unit) in &names {
        print!("{metric:<38} {unit:<6}");
        for (_, r) in &results {
            let v = r
                .as_ref()
                .ok()
                .and_then(|r| r.metrics.iter().find(|m| &m.0 == metric));
            match v {
                Some(m) => print!(" {:>14}", short(m.1)),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    print!("{:<38} {:<6}", "failed_ops_share", "share");
    for (_, r) in &results {
        print!(" {:>14}", short(share(r)));
    }
    println!();
    if trace {
        println!("sim.vtime_ns_per_op is SIMULATED time (the library's cost model); every other time is host wall clock.");
        println!("ladder metrics (wire.*, proc.*, atomics.*, epoch.*, structures.*, pgas.*_p50_us) are measured afresh in every column.");
    }
    println!("proc-mix traffic crossed the loopback interface of this host, not a link.");

    let mut ok = true;
    let mut entries = Vec::new();
    for ((name, why), (_, r)) in WORKLOADS.iter().zip(&results) {
        let (correct, attempted, failed, metrics) = match r {
            Ok(r) => (r.correct, r.attempted, r.failed, r.metrics.as_slice()),
            Err(e) => {
                println!("FAILED: {e}");
                (false, 1, 1, &[][..])
            }
        };
        ok &= correct;
        let fields = metric_fields(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())));
        entries.push(format!(
            "{}: {{\"why\": {}, \"sizes\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"failed_ops_share\": {}, \"metrics\": {{{}}}}}",
            json::quote(name),
            json::quote(why),
            json::quote(&workloads::sizes_of(name)),
            json::number(failed as f64 / attempted.max(1) as f64),
            fields
        ));
    }
    let summary = format!(
        "{{\"mode\": {}, \"comparable\": {}, \"seed\": {}, \"seconds\": {}, \"driver_threads\": {}, \"env\": {}, \"workloads\": {{{}}}}}\n",
        json::quote(mode),
        !quick,
        args.seed,
        json::number(seconds),
        crate::harness::LOCALES,
        env.to_json(),
        entries.join(", ")
    );
    let path = out_dir().join(format!("summary-{mode}.json"));
    std::fs::write(&path, summary).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("summary written to {}", path.display());
    if !ok {
        println!("RESULT: at least one workload failed an output check or did not finish");
    }
    i32::from(!ok)
}

/// Four significant digits, for the tables; files keep every digit.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

// --- selfcheck -----------------------------------------------------------------

struct Bound {
    name: String,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text)?;
    v.get("end_to_end")
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric lacks a name")?
                    .to_string(),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric lacks a bound")?,
            })
        })
        .collect()
}

/// Two sets of `n` untraced runs of every workload, run `i` of each set with
/// seed `seed + i`. Per (workload, metric) it prints each set's quartiles and
/// spread (interquartile range over median, as the acceptance check takes
/// them) and fails when the two medians differ by more than the metric's
/// bound or a spread exceeds it (`setup_s` excepted, as there).
fn selfcheck(args: &Args) -> i32 {
    let n = args.count.unwrap_or(5);
    if n < 2 {
        eprintln!("error: selfcheck needs at least 2 runs per set");
        return 2;
    }
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print_header();
    println!(
        "selfcheck: 2 sets x {n} runs x {} workloads, seeds {}..{}, {} s each",
        WORKLOADS.len(),
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds
    );
    let mut bad = 0;
    for (name, _) in WORKLOADS {
        // values[set][metric] = one value per run
        let mut values: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); bounds.len()],
            vec![Vec::new(); bounds.len()],
        ];
        let mut failed_ops = 0u64;
        for set in values.iter_mut() {
            for i in 0..n {
                match run_child(name, args.seed + i as u64, args.seconds, false, false) {
                    Ok(r) => {
                        failed_ops += r.failed + u64::from(!r.correct);
                        for (slot, b) in set.iter_mut().zip(&bounds) {
                            match r.metrics.iter().find(|m| m.0 == b.name) {
                                Some(m) => slot.push(m.1),
                                None => {
                                    println!("FAIL {name}: run printed no {}", b.name);
                                    bad += 1;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        println!("FAIL {e}");
                        bad += 1;
                    }
                }
            }
        }
        println!("--- {name}   (failed ops over all runs: {failed_ops})");
        bad += usize::from(failed_ops > 0);
        println!(
            "{:<22} {:>5} | {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>8}",
            "metric",
            "bound",
            "A q1",
            "A median",
            "A q3",
            "spread",
            "B q1",
            "B median",
            "B q3",
            "spread",
            "B vs A"
        );
        for (k, b) in bounds.iter().enumerate() {
            let (a, bv) = (&values[0][k], &values[1][k]);
            if a.len() < 2 || bv.len() < 2 {
                continue;
            }
            let (qa, qb) = (stats::quartiles(a), stats::quartiles(bv));
            let (sa, sb) = (stats::spread(a), stats::spread(bv));
            let diff = (qb[1] - qa[1]) / qa[1];
            let mut verdict = String::new();
            if diff.abs() > b.bound {
                verdict.push_str(" FAIL medians differ by more than the bound");
                bad += 1;
            }
            if b.name != "setup_s" && sa.max(sb) > b.bound {
                verdict.push_str(" FAIL spread exceeds the bound");
                bad += 1;
            } else if b.name != "setup_s" && sa.max(sb) > b.bound / 3.0 {
                verdict.push_str(" warn: spread above a third of the bound");
            }
            println!(
                "{:<22} {:>5} | {:>12} {:>12} {:>12} {:>6.1}% | {:>12} {:>12} {:>12} {:>6.1}% | {:>+7.1}%{verdict}",
                b.name, b.bound, short(qa[0]), short(qa[1]), short(qa[2]), sa * 100.0,
                short(qb[0]), short(qb[1]), short(qb[2]), sb * 100.0, diff * 100.0
            );
        }
    }
    if bad > 0 {
        println!("selfcheck: {bad} failures — the two sets do not agree within the benchmark's own bounds");
    } else {
        println!("selfcheck: the two sets agree within every bound, and no operation failed");
    }
    i32::from(bad > 0)
}
