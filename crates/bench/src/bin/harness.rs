//! The figure harness: regenerates every table/figure of the paper's
//! evaluation section (§III, Figures 3–7) plus the DESIGN.md ablations.
//!
//! ```text
//! cargo run -p pgas-bench --release --bin harness -- all
//! cargo run -p pgas-bench --release --bin harness -- fig3
//! cargo run -p pgas-bench --release --bin harness -- fig4 fig5 fig6 fig7
//! cargo run -p pgas-bench --release --bin harness -- ablations
//! cargo run -p pgas-bench --release --bin harness -- --quick all
//! cargo run -p pgas-bench --release --bin harness -- --quick --trace target/trace.jsonl ablations
//! ```
//!
//! Each figure prints one row per measured point. `vtime` is the virtual
//! makespan from the simulator's Aries-class cost model (the number whose
//! *shape* reproduces the paper); `wall` is host wall-clock time and only
//! meaningful as an implementation-overhead sanity check. Everything
//! printed is also teed to `target/harness_output.txt`.
//!
//! Every measured row is also collected into `BENCH_results.json` (the
//! row format is [`pgas_bench::guard::Record`]) so scripts can consume the
//! run without scraping the text output. `locales` is the row's sweep
//! coordinate (the task count for shared-memory panels, the hop count for
//! A6). The file is written only when the rows pass the results guard
//! ([`pgas_bench::guard`]); otherwise the harness names the failing rule,
//! leaves the file as it was and exits nonzero.
//!
//! `--trace PATH` installs a [`JsonLinesSink`] on every runtime the
//! workloads build, dumping one JSON span per remote operation
//! (issue/arrive/start/end virtual times) — see DESIGN.md "Telemetry".

use std::sync::{Arc, Mutex};

use pgas_nb::sim::telemetry::JsonLinesSink;
use pgas_nb::sim::TelemetrySnapshot;

use pgas_bench::guard::{self, Record};
use pgas_bench::{
    ablate_combining, ablate_election, ablate_local_manager, ablate_privatization,
    ablate_reclaimer, ablate_reclamation_scheme, ablate_scatter, ablate_vread, ablate_wide,
    comm_breakdown, fig3_dist, fig3_shared, fig7_read_only, fig_deletion, runtime, A8Structure,
    CombineWorkload, Sample, Variant, LOCALE_SWEEP, TASK_SWEEP,
};
use pgas_nb::prelude::{EpochManager, HazardReclaimer, LocalEpochManager};

/// Everything printed this run, teed to `target/harness_output.txt` so a
/// full-scale run's text output survives without polluting the repo root.
static OUTPUT: Mutex<String> = Mutex::new(String::new());

macro_rules! say {
    ($($arg:tt)*) => {{
        let line = format!($($arg)*);
        println!("{line}");
        let mut buf = OUTPUT.lock().unwrap();
        buf.push_str(&line);
        buf.push('\n');
    }};
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

struct Scale {
    fig3_ops: u64,
    fig4_objects: usize,
    fig5_objects: usize,
    fig6_objects: usize,
    fig7_iters: u64,
    ablate_objects: usize,
    /// A11 key-space size (the "million keys" knob).
    a11_keys: u64,
    /// A11 mixed-phase operations per task.
    a11_ops: u64,
}

const FULL: Scale = Scale {
    fig3_ops: 1 << 16,
    fig4_objects: 1 << 15,
    fig5_objects: 1 << 13,
    fig6_objects: 1 << 14,
    fig7_iters: 1 << 13,
    ablate_objects: 1 << 13,
    a11_keys: 1 << 20,
    a11_ops: 1 << 12,
};

const QUICK: Scale = Scale {
    fig3_ops: 1 << 12,
    fig4_objects: 1 << 11,
    fig5_objects: 1 << 9,
    fig6_objects: 1 << 11,
    fig7_iters: 1 << 9,
    ablate_objects: 1 << 9,
    a11_keys: 1 << 14,
    a11_ops: 1 << 9,
};

/// Print one measured row and record it for `BENCH_results.json`. The
/// series name is the label plus `extra` when `extra` is a configuration
/// qualifier; a measured extra (`AMs=123`, `reclaimed=512`, ...) is data,
/// not identity, and stays out so a series keeps one stable name. `t` is
/// the runtime's telemetry, for rows measured with one in hand; `reclaim`
/// (A8) and `shard` (A11 sharded) are pre-rendered JSON objects.
#[allow(clippy::too_many_arguments)]
fn row(
    label: &str,
    x_name: &str,
    x: usize,
    extra: &str,
    s: Sample,
    t: Option<&TelemetrySnapshot>,
    reclaim: Option<String>,
    shard: Option<String>,
) {
    say!(
        "{label:<34} {x_name}={x:<3} {extra:<18} vtime={:>12.3} ms  \
         ns/op={:>9.1}  mops={:>8.2}  wall={:>8.1} ms",
        s.vtime_ns as f64 / 1e6,
        s.ns_per_op(),
        s.mops(),
        s.wall_ns as f64 / 1e6,
    );
    let mut name = label.trim().to_string();
    let extra = extra.trim();
    let is_measured = extra
        .split_once('=')
        .is_some_and(|(_, v)| !v.is_empty() && v.chars().all(|c| c.is_ascii_digit()));
    if !extra.is_empty() && !is_measured {
        name.push(' ');
        name.push_str(extra);
    }
    RECORDS.lock().unwrap().push(Record {
        name,
        locales: x,
        vtime_ns: s.vtime_ns,
        ns_per_op: s.ns_per_op(),
        mops: s.mops(),
        comm: t.map(|t| t.comm),
        latency: t.map_or_else(|| "{}".to_string(), |t| t.latency_json()),
        reclaim,
        shard,
    });
}

/// Write `doc` to `path` if it passes the results guard for `engine`;
/// otherwise name the failing rule and leave the file as it is. Returns
/// whether the file was written.
fn write_guarded(path: &str, doc: &str, engine: &str) -> bool {
    let rows = match guard::check_results(doc, engine) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("harness: results guard failed, {path} left as it is: {e}");
            return false;
        }
    };
    match std::fs::write(path, doc) {
        Ok(()) => {
            say!("results: {path} ({rows} rows)");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// Write the recorded rows (see [`write_guarded`]). Returns `false` when
/// the rows were refused or could not be written.
fn write_results_json(path: &str) -> bool {
    let recs = RECORDS.lock().unwrap();
    if recs.is_empty() {
        // An empty array would replace the committed rows with nothing.
        say!("results: no rows measured, {path} left as it is");
        return true;
    }
    write_guarded(path, &guard::render(&recs), "sim")
}

fn fig3(sc: &Scale) {
    say!("\n=== Figure 3: AtomicObject vs atomic int (25/25/25/25 read/write/CAS/exchange) ===");
    say!("--- shared memory: strong scaling over tasks, 1 locale ---");
    for net in [true, false] {
        let net_lbl = if net {
            "net-atomics=on"
        } else {
            "net-atomics=off"
        };
        for variant in Variant::ALL {
            for &tasks in &TASK_SWEEP {
                let rt = runtime(1, net);
                let s = fig3_shared(&rt, tasks, sc.fig3_ops, variant);
                let t = rt.total_telemetry();
                row(
                    variant.label(),
                    "tasks",
                    tasks,
                    net_lbl,
                    s,
                    Some(&t),
                    None,
                    None,
                );
            }
        }
    }
    say!("--- distributed: strong scaling over locales, 4 tasks/locale ---");
    for net in [true, false] {
        let net_lbl = if net {
            "net-atomics=on"
        } else {
            "net-atomics=off"
        };
        for variant in Variant::ALL {
            for &locales in &LOCALE_SWEEP {
                let rt = runtime(locales, net);
                let s = fig3_dist(&rt, 4, sc.fig3_ops, variant);
                let t = rt.total_telemetry();
                row(
                    variant.label(),
                    "locales",
                    locales,
                    net_lbl,
                    s,
                    Some(&t),
                    None,
                    None,
                );
                if locales == *LOCALE_SWEEP.last().unwrap() {
                    say!("    └─ comm @{locales} locales: {}", comm_breakdown(&t));
                }
            }
        }
    }
}

fn fig_deletion_sweep(name: &str, objects: usize, per_iter: Option<u64>, remote_pct: u32) {
    for net in [true, false] {
        let net_lbl = if net {
            "net-atomics=on"
        } else {
            "net-atomics=off"
        };
        for &locales in &LOCALE_SWEEP {
            let rt = runtime(locales, net);
            let (s, stats) = fig_deletion(&rt, objects, per_iter, remote_pct);
            let t = rt.total_telemetry();
            row(name, "locales", locales, net_lbl, s, Some(&t), None, None);
            if locales == *LOCALE_SWEEP.last().unwrap() {
                say!("    └─ reclaim stats @{locales} locales: {stats}");
                say!("    └─ comm @{locales} locales: {}", comm_breakdown(&t));
            }
        }
    }
}

fn fig4(sc: &Scale) {
    say!("\n=== Figure 4: deletion, tryReclaim every 1024 iterations ===");
    fig_deletion_sweep(
        "deferDelete+tryReclaim/1024",
        sc.fig4_objects,
        Some(1024),
        50,
    );
}

fn fig5(sc: &Scale) {
    say!("\n=== Figure 5: deletion, tryReclaim every iteration ===");
    fig_deletion_sweep("deferDelete+tryReclaim/1", sc.fig5_objects, Some(1), 50);
}

fn fig6(sc: &Scale) {
    say!("\n=== Figure 6: deletion, reclamation only at end; remote ratio 0/50/100% ===");
    for remote_pct in [0u32, 50, 100] {
        for &locales in &LOCALE_SWEEP {
            let rt = runtime(locales, true);
            let (s, _) = fig_deletion(&rt, sc.fig6_objects, None, remote_pct);
            let label = format!("defer+clear remote={remote_pct}%");
            let t = rt.total_telemetry();
            row(
                &label,
                "locales",
                locales,
                "net-atomics=on",
                s,
                Some(&t),
                None,
                None,
            );
        }
    }
}

fn fig7(sc: &Scale) {
    say!("\n=== Figure 7: read-only workload (pin/unpin), no deletion ===");
    for net in [true, false] {
        let net_lbl = if net {
            "net-atomics=on"
        } else {
            "net-atomics=off"
        };
        for &locales in &LOCALE_SWEEP {
            let rt = runtime(locales, net);
            let s = fig7_read_only(&rt, 4, sc.fig7_iters);
            let t = rt.total_telemetry();
            let label = "pin/unpin read-only";
            row(label, "locales", locales, net_lbl, s, Some(&t), None, None);
            if locales == *LOCALE_SWEEP.last().unwrap() {
                say!("    └─ comm @{locales} locales: {}", comm_breakdown(&t));
            }
        }
    }
}

fn ablations(sc: &Scale) {
    say!("\n=== Ablation A1: scatter-list bulk free vs per-object remote frees ===");
    for &locales in &[2usize, 4, 8] {
        for scatter in [true, false] {
            let rt = runtime(locales, true);
            let (s, t) = ablate_scatter(&rt, sc.ablate_objects, scatter);
            let label = if scatter {
                "A1 scatter=on "
            } else {
                "A1 scatter=off"
            };
            let extra = format!("AMs={}", t.comm.am_sent);
            row(label, "locales", locales, &extra, s, Some(&t), None, None);
            if locales == 8 {
                say!("    └─ comm @{locales} locales: {}", comm_breakdown(&t));
            }
        }
    }

    say!("\n=== Ablation A2: privatized instance vs single shared instance ===");
    for &locales in &[2usize, 4, 8] {
        for privatized in [true, false] {
            let rt = runtime(locales, false);
            let s = ablate_privatization(&rt, sc.fig7_iters, privatized);
            let label = if privatized {
                "privatized "
            } else {
                "shared@L0  "
            };
            let t = rt.total_telemetry();
            row(
                label,
                "locales",
                locales,
                "net-atomics=off",
                s,
                Some(&t),
                None,
                None,
            );
        }
    }

    say!("\n=== Ablation A3: reclamation election vs every-caller scans ===");
    for &locales in &[2usize, 4, 8] {
        for elected in [true, false] {
            let rt = runtime(locales, true);
            let s = ablate_election(&rt, sc.ablate_objects / 4, elected);
            let label = if elected {
                "election=on "
            } else {
                "election=off"
            };
            let t = rt.total_telemetry();
            row(
                label,
                "locales",
                locales,
                "tryReclaim/iter",
                s,
                Some(&t),
                None,
                None,
            );
        }
    }

    say!("\n=== Ablation A5: LocalEpochManager vs EpochManager (single locale) ===");
    for (name, (s, advances)) in [
        (
            "LocalEpochManager",
            ablate_local_manager::<LocalEpochManager>(sc.ablate_objects),
        ),
        (
            "EpochManager     ",
            ablate_local_manager::<EpochManager>(sc.ablate_objects),
        ),
    ] {
        let extra = format!("advances={advances}");
        row(name, "locales", 1, &extra, s, None, None, None);
    }

    say!("\n=== Ablation A6: epoch-based reclamation vs hazard pointers ===");
    for chain_len in [1usize, 8, 32] {
        let ops = sc.fig3_ops / 16;
        for (name, (s, reclaimed)) in [
            (
                "EBR (pin/unpin)",
                ablate_reclamation_scheme::<LocalEpochManager>(ops, chain_len, 64),
            ),
            (
                "hazard pointers",
                ablate_reclamation_scheme::<HazardReclaimer>(ops, chain_len, 64),
            ),
        ] {
            let extra = format!("reclaimed={reclaimed}");
            row(name, "hops", chain_len, &extra, s, None, None, None);
        }
    }

    say!("\n=== Ablation A8: pluggable reclamation — EBR vs hazard pointers per structure ===");
    a8(sc);

    say!("\n=== Ablation A4: compressed pointers (RDMA) vs wide fallback (DCAS/AM) ===");
    for &locales in &[2usize, 4, 8] {
        for wide in [false, true] {
            let s = ablate_wide(locales, sc.fig3_ops / 4, wide);
            let label = if wide { "wide (>2^16)" } else { "compressed " };
            row(
                label,
                "locales",
                locales,
                "net-atomics=on",
                s,
                None,
                None,
                None,
            );
        }
    }

    say!("\n=== Ablation A10: versioned fast reads vs DCAS reads (read-mostly ABA mixes) ===");
    a10(sc);

    say!("\n=== Ablation A7: remote-op combining ===");
    for workload in CombineWorkload::ALL {
        for &locales in &[2usize, 4, 8] {
            for combining in [false, true] {
                let (s, t) = ablate_combining(locales, sc.fig3_ops / 4, workload, combining);
                let on = if combining { "on" } else { "off" };
                let label = format!("A7 {} combining={on}", workload.label());
                let extra = format!("AMs={}", t.comm.am_sent);
                row(&label, "locales", locales, &extra, s, Some(&t), None, None);
            }
        }
    }

    say!("\n=== Ablation A11: global-view sharded map vs legacy flat map (Zipfian point ops) ===");
    a11(sc);
}

/// Ablation A11: the privatized per-locale-sharded map against the legacy
/// flat map under Zipfian point workloads (θ ∈ {0.9, 0.99}, 90/10 and
/// 50/50 read/write, 1–8 locales). Network atomics are off and combining
/// is on, so the legacy map's remote chain hops each cost an AM round
/// trip while the sharded map pays at most one combined AM per remote op
/// and nothing for locally-owned keys.
fn a11(sc: &Scale) {
    for &theta in &[0.9f64, 0.99] {
        for &read_pct in &[90u32, 50] {
            for &locales in &[1usize, 2, 4, 8] {
                for sharded in [false, true] {
                    let cell = pgas_bench::ablate_globalview(
                        locales,
                        sc.a11_keys,
                        theta,
                        read_pct,
                        sc.a11_ops,
                        sharded,
                    );
                    let tier = if sharded { "sharded" } else { "legacy" };
                    let label =
                        format!("A11 {tier} zipf={theta} mix={read_pct}/{}", 100 - read_pct);
                    let t = &cell.telemetry;
                    let extra = format!("AMs={}", t.comm.am_sent);
                    let shard = cell.shard.as_ref().map(|sh| sh.to_json());
                    row(
                        &label,
                        "locales",
                        locales,
                        &extra,
                        cell.sample,
                        Some(t),
                        None,
                        shard,
                    );
                    if let Some(sh) = &cell.shard {
                        say!(
                            "    └─ shard: local={} remote={}",
                            sh.local_ops,
                            sh.remote_ops
                        );
                    }
                }
            }
        }
    }
}

/// Ablation A8: every structure churned under EBR vs distributed hazard
/// pointers across the locale sweep, plus a `stalled_task` variant at 4
/// locales where a forever-pinned guard shows EBR limbo growing while HP
/// keeps reclaiming.
fn a8(sc: &Scale) {
    let ops = (sc.ablate_objects as u64 / 4).max(256);
    // The locale sweep, then the stalled-task variant at 4 locales: one
    // guard pins before the churn and never unpins until it ends.
    let cells = [(1, false), (2, false), (4, false), (8, false), (4, true)];
    for structure in A8Structure::ALL {
        for (locales, stalled) in cells {
            for r in [
                ablate_reclaimer::<EpochManager>(locales, structure, ops, stalled),
                ablate_reclaimer::<HazardReclaimer>(locales, structure, ops, stalled),
            ] {
                let label = format!("A8 {} {}", structure.label(), r.backend);
                let stall_lbl = if stalled { "stalled_task" } else { "" };
                let reclaim = Some(r.to_json());
                row(
                    &label, "locales", locales, stall_lbl, r.sample, None, reclaim, None,
                );
                if stalled {
                    say!(
                        "    └─ stalled: outstanding={} reclaimed-during-stall={}",
                        r.stalled_outstanding,
                        r.stalled_reclaimed
                    );
                }
            }
        }
    }
}

/// Ablation A10: read-mostly ABA mixes (90% and 99% read) across the
/// locale sweep with the versioned fast-read path off vs on. With the
/// fast path on, reads cost one validated one-sided GET instead of a DCAS
/// AM round trip, so the on rows must win wherever reads are actually
/// remote (≥2 locales); writes keep the DCAS either way.
fn a10(sc: &Scale) {
    let ops = (sc.fig3_ops / 4).max(1024);
    for read_pct in [90u32, 99] {
        for &locales in &[1usize, 2, 4, 8] {
            for fast in [false, true] {
                let (s, t) = ablate_vread(locales, ops, read_pct, fast);
                let label = format!(
                    "A10 {read_pct}% read vread={}",
                    if fast { "on" } else { "off" }
                );
                let extra = format!("AMs={}", t.comm.am_sent);
                row(&label, "locales", locales, &extra, s, Some(&t), None, None);
            }
        }
    }
}

/// The `--engine proc` path: instead of simulating, orchestrate real
/// agent processes (via `pgas_bench::procrun`, same protocol as the
/// `procbench` binary) over a small locale sweep and write their merged
/// rows — tagged `engine: "proc"` — as the results file. The sim figures
/// are not regenerated; validate with `validate_results --engine proc`.
fn run_proc_engine(quick: bool) {
    use pgas_bench::procrun::{self, ProcSpec};
    let ops: u64 = if quick { 512 } else { 4096 };
    let mut rows = Vec::new();
    for locales in [2usize, 4] {
        let spec = ProcSpec {
            locales,
            ops,
            tasks: 2,
            timeout: std::time::Duration::from_secs(120),
        };
        match procrun::orchestrate_self(&spec) {
            Ok(row) => {
                say!(
                    "{:<34} locales={:<3} wall={:>8.1} ms  ns/op={:>9.1}  mops={:>8.2}  AMs={}",
                    row.name,
                    row.locales,
                    row.wall_ns as f64 / 1e6,
                    row.ns_per_op(),
                    row.mops(),
                    row.comm.get("am_sent").copied().unwrap_or(0),
                );
                rows.push(row.to_json());
            }
            Err(e) => {
                eprintln!("harness --engine proc: {locales}-locale cell failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let doc = format!("[\n  {}\n]\n", rows.join(",\n  "));
    if !write_guarded("BENCH_results.json", &doc, "proc") {
        std::process::exit(1);
    }
}

/// What `main` accepts as a figure selector, besides anything that starts
/// with `ablate` (another spelling of `ablations`). No selector means `all`.
const SELECTORS: [&str; 10] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablations",
    "a8",
    "a10",
    "a11",
    "all",
];

fn main() {
    // Re-exec'd as a procbench agent? Run it and exit before touching
    // argv (the orchestrator spawns `current_exe`, which is us when
    // `harness --engine proc` orchestrates).
    pgas_bench::procrun::maybe_run_agent();

    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut engine = "sim".to_string();
    let mut selectors: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => {
                trace_path = Some(it.next().expect("--trace takes a path").clone());
            }
            "--engine" => {
                engine = it.next().expect("--engine takes sim|proc").clone();
                assert!(
                    matches!(engine.as_str(), "sim" | "proc"),
                    "unknown engine {engine:?} (expected sim|proc)"
                );
            }
            other => selectors.push(other.to_string()),
        }
    }
    // A selector that matches nothing would run nothing and still rewrite
    // the results file: refuse it before any work.
    if let Some(bad) = selectors
        .iter()
        .find(|s| !SELECTORS.contains(&s.as_str()) && !s.starts_with("ablate"))
    {
        eprintln!(
            "harness: unknown selector {bad:?}; expected any of {} or ablate* (none runs all)",
            SELECTORS.join(", ")
        );
        std::process::exit(2);
    }
    if engine == "proc" {
        run_proc_engine(quick);
        return;
    }
    let sc = if quick { &QUICK } else { &FULL };
    let wants = |name: &str| {
        selectors.iter().any(|a| a == name)
            || selectors.iter().any(|a| a == "all")
            || selectors.is_empty()
    };

    say!(
        "pgas-nonblocking figure harness (scale: {})",
        if quick { "quick" } else { "full" }
    );
    say!(
        "virtual-time model: Aries-class constants \
         (NIC atomic ~0.95us, AM ~2.5us round trip, CPU atomic 20ns)"
    );
    if let Some(path) = &trace_path {
        let sink = JsonLinesSink::create(path)
            .unwrap_or_else(|e| panic!("could not create trace file {path}: {e}"));
        pgas_bench::set_trace_sink(Arc::new(sink));
        say!("span trace: {path} (one JSON object per remote operation)");
    }

    let t0 = std::time::Instant::now();
    if wants("fig3") {
        fig3(sc);
    }
    if wants("fig4") {
        fig4(sc);
    }
    if wants("fig5") {
        fig5(sc);
    }
    if wants("fig6") {
        fig6(sc);
    }
    if wants("fig7") {
        fig7(sc);
    }
    if wants("ablations") || selectors.iter().any(|a| a.starts_with("ablate")) {
        ablations(sc);
    } else {
        if selectors.iter().any(|a| a == "a8") {
            // Standalone A8 selector for the reclaim smoke job (the full
            // `ablations` run already includes it).
            say!("\n=== Ablation A8: pluggable reclamation — EBR vs hazard pointers per structure ===");
            a8(sc);
        }
        if selectors.iter().any(|a| a == "a10") {
            // Standalone A10 selector for the vread smoke job.
            say!("\n=== Ablation A10: versioned fast reads vs DCAS reads (read-mostly ABA mixes) ===");
            a10(sc);
        }
        if selectors.iter().any(|a| a == "a11") {
            // Standalone A11 selector for the global-view smoke job.
            say!("\n=== Ablation A11: global-view sharded map vs legacy flat map (Zipfian point ops) ===");
            a11(sc);
        }
    }
    let written = write_results_json("BENCH_results.json");
    pgas_bench::flush_trace_sink();
    say!("\nharness done in {:.1}s", t0.elapsed().as_secs_f64());

    // Tee the full text output under target/ (never the repo root).
    let _ = std::fs::create_dir_all("target");
    let text = OUTPUT.lock().unwrap();
    if let Err(e) = std::fs::write("target/harness_output.txt", text.as_str()) {
        eprintln!("could not write target/harness_output.txt: {e}");
    } else {
        println!("text output: target/harness_output.txt");
    }
    if !written {
        std::process::exit(1);
    }
}
