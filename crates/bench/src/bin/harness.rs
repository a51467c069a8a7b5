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
//! Every measured row is also collected and written to
//! `BENCH_results.json` as `{name, locales, vtime_ns, ns_per_op, mops,
//! am_count, retries, gave_up, injected_drops, injected_delays,
//! injected_dups, comm, latency}` so CI (and plotting scripts) can consume
//! the run without scraping the text output. `locales` is the row's sweep
//! coordinate (the task count for shared-memory panels, the hop count for
//! A6); `am_count` is null for series that do not report an AM total. The
//! five fault-injection counters are always zero here (the harness never
//! installs a fault plan), which CI asserts so a chaos configuration can
//! never leak into the performance baselines. `comm` is the full counter
//! snapshot ([`CommSnapshot::to_json`], null for series without one) and
//! `latency` the per-op-class p50/p99/max/mean summary rendered from the
//! telemetry registry ([`TelemetrySnapshot::latency_json`]).
//!
//! `--trace PATH` installs a [`JsonLinesSink`] on every runtime the
//! workloads build, dumping one JSON span per remote operation
//! (issue/arrive/start/end virtual times) — see DESIGN.md "Telemetry".

use std::sync::{Arc, Mutex};

use pgas_nb::sim::telemetry::JsonLinesSink;
use pgas_nb::sim::{CommSnapshot, TelemetrySnapshot};

use pgas_bench::json::{jnum, jstr};
use pgas_bench::{
    ablate_combining, ablate_election, ablate_local_manager, ablate_privatization,
    ablate_reclaimer, ablate_reclamation_scheme, ablate_scatter, ablate_vread, ablate_wide,
    comm_breakdown, fig3_dist, fig3_shared, fig7_read_only, fig_deletion, runtime, A8Structure,
    CombineWorkload, ReclaimAblation, Sample, Variant, LOCALE_SWEEP, TASK_SWEEP,
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

/// One row of `BENCH_results.json`.
struct Record {
    /// Which backend measured the row; everything this binary produces
    /// inline is `"sim"` (the `--engine proc` path delegates to
    /// `procbench` orchestration and bypasses [`RECORDS`]).
    engine: &'static str,
    name: String,
    locales: usize,
    vtime_ns: u64,
    ns_per_op: f64,
    mops: f64,
    am_count: Option<u64>,
    /// Full counter snapshot for rows measured with a runtime in hand.
    comm: Option<CommSnapshot>,
    /// `TelemetrySnapshot::latency_json()` — `{}` when no registry was
    /// captured for this row.
    latency: String,
    /// Per-backend reclamation counters, pre-rendered as a JSON object —
    /// only A8 rows carry one (null elsewhere).
    reclaim: Option<String>,
    /// Per-structure shard-routing counters, pre-rendered as a JSON
    /// object — only A11 sharded rows carry one (null elsewhere).
    shard: Option<String>,
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

fn row(label: &str, x_name: &str, x: usize, extra: &str, s: Sample) {
    row_full(label, x_name, x, extra, s, None);
}

/// A row whose runtime exposed a [`TelemetrySnapshot`]: records the AM
/// total, the full counter snapshot, and the per-class latency summary
/// alongside the timing.
fn row_comm(label: &str, x_name: &str, x: usize, extra: &str, s: Sample, t: &TelemetrySnapshot) {
    row_full(label, x_name, x, extra, s, Some(t));
}

fn row_full(
    label: &str,
    x_name: &str,
    x: usize,
    extra: &str,
    s: Sample,
    telemetry: Option<&TelemetrySnapshot>,
) {
    say!(
        "{label:<34} {x_name}={x:<3} {extra:<18} vtime={:>12.3} ms  \
         ns/op={:>9.1}  mops={:>8.2}  wall={:>8.1} ms",
        s.vtime_ns as f64 / 1e6,
        s.ns_per_op(),
        s.mops(),
        s.wall_ns as f64 / 1e6,
    );
    // The series name is the label plus any *configuration* qualifier;
    // measured extras (`AMs=123`, `reclaimed=512`, ...) are data, not
    // identity, and stay out so a series keeps one stable name.
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
        engine: "sim",
        name,
        locales: x,
        vtime_ns: s.vtime_ns,
        ns_per_op: s.ns_per_op(),
        mops: s.mops(),
        am_count: telemetry.map(|t| t.comm.am_sent),
        comm: telemetry.map(|t| t.comm),
        latency: telemetry.map_or_else(|| "{}".to_string(), |t| t.latency_json()),
        reclaim: None,
        shard: None,
    });
}

/// An A11 row: like [`row_comm`] but carrying the sharded map's routing
/// counters as a `shard` JSON object (`validate_results` checks the
/// schema on every "A11 sharded" row; legacy rows pass `None`).
fn row_shard(
    label: &str,
    locales: usize,
    extra: &str,
    s: Sample,
    t: &TelemetrySnapshot,
    shard: Option<&pgas_nb::structures::ShardSnapshot>,
) {
    say!(
        "{label:<34} locales={locales:<3} {extra:<18} vtime={:>12.3} ms  \
         ns/op={:>9.1}  mops={:>8.2}  wall={:>8.1} ms",
        s.vtime_ns as f64 / 1e6,
        s.ns_per_op(),
        s.mops(),
        s.wall_ns as f64 / 1e6,
    );
    if let Some(sh) = shard {
        say!(
            "    └─ shard: local={} remote={} active={}",
            sh.local_ops,
            sh.remote_ops,
            sh.active_shards
        );
    }
    RECORDS.lock().unwrap().push(Record {
        engine: "sim",
        name: label.trim().to_string(),
        locales,
        vtime_ns: s.vtime_ns,
        ns_per_op: s.ns_per_op(),
        mops: s.mops(),
        am_count: Some(t.comm.am_sent),
        comm: Some(t.comm),
        latency: t.latency_json(),
        reclaim: None,
        shard: shard.map(|sh| sh.to_json()),
    });
}

/// An A8 row: timing plus the backend's reclamation counters, attached to
/// the record as a `reclaim` JSON object (`validate_results` checks the
/// schema on every "A8 " row).
fn row_reclaim(structure: A8Structure, locales: usize, r: &ReclaimAblation) {
    let stall_lbl = if r.stalled { "stalled_task" } else { "" };
    let label = format!("A8 {} {}", structure.label(), r.backend);
    say!(
        "{label:<34} locales={locales:<3} {stall_lbl:<18} vtime={:>12.3} ms  \
         ns/op={:>9.1}  mops={:>8.2}  wall={:>8.1} ms",
        r.sample.vtime_ns as f64 / 1e6,
        r.sample.ns_per_op(),
        r.sample.mops(),
        r.sample.wall_ns as f64 / 1e6,
    );
    if r.stalled {
        say!(
            "    └─ stalled: outstanding={} reclaimed-during-stall={}",
            r.stalled_outstanding,
            r.stalled_reclaimed
        );
    }
    let s = &r.reclaim;
    let reclaim_json = format!(
        "{{\"backend\": {}, \"retired\": {}, \"reclaimed\": {}, \
         \"scans\": {}, \"hazard_protects\": {}, \"stalled\": {}, \
         \"stalled_outstanding\": {}, \"stalled_reclaimed\": {}}}",
        jstr(r.backend),
        s.objects_deferred,
        s.objects_reclaimed,
        s.advances,
        s.hazard_protects,
        r.stalled,
        r.stalled_outstanding,
        r.stalled_reclaimed,
    );
    let mut name = label.trim().to_string();
    if !stall_lbl.is_empty() {
        name.push(' ');
        name.push_str(stall_lbl);
    }
    RECORDS.lock().unwrap().push(Record {
        engine: "sim",
        name,
        locales,
        vtime_ns: r.sample.vtime_ns,
        ns_per_op: r.sample.ns_per_op(),
        mops: r.sample.mops(),
        am_count: None,
        comm: None,
        latency: "{}".to_string(),
        reclaim: Some(reclaim_json),
        shard: None,
    });
}

fn write_results_json(path: &str) {
    let recs = RECORDS.lock().unwrap();
    if recs.is_empty() {
        // An empty array would replace the committed rows with nothing.
        say!("results: no rows measured, {path} left as it is");
        return;
    }
    let mut out = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        let chaos = r.comm.unwrap_or_default();
        out.push_str(&format!(
            "  {{\"name\": {}, \"engine\": {}, \"locales\": {}, \"vtime_ns\": {}, \
             \"ns_per_op\": {}, \"mops\": {}, \"am_count\": {}, \
             \"retries\": {}, \"gave_up\": {}, \"injected_drops\": {}, \
             \"injected_delays\": {}, \"injected_dups\": {}, \
             \"comm\": {}, \"latency\": {}, \"reclaim\": {}, \"shard\": {}}}{}\n",
            jstr(&r.name),
            jstr(r.engine),
            r.locales,
            r.vtime_ns,
            jnum(r.ns_per_op),
            jnum(r.mops),
            r.am_count.map_or("null".to_string(), |a| a.to_string()),
            chaos.retries,
            chaos.gave_up,
            chaos.injected_drops,
            chaos.injected_delays,
            chaos.injected_dups,
            r.comm.map_or("null".to_string(), |c| c.to_json()),
            r.latency,
            r.reclaim.as_deref().unwrap_or("null"),
            r.shard.as_deref().unwrap_or("null"),
            if i + 1 < recs.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    match std::fs::write(path, out) {
        Ok(()) => say!("results: {path} ({} rows)", recs.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
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
                row_comm(
                    variant.label(),
                    "tasks",
                    tasks,
                    net_lbl,
                    s,
                    &rt.total_telemetry(),
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
                row_comm(variant.label(), "locales", locales, net_lbl, s, &t);
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
            row_comm(name, "locales", locales, net_lbl, s, &t);
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
            row_comm(
                &format!("defer+clear remote={remote_pct}%"),
                "locales",
                locales,
                "net-atomics=on",
                s,
                &rt.total_telemetry(),
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
            row_comm("pin/unpin read-only", "locales", locales, net_lbl, s, &t);
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
            row_comm(
                if scatter {
                    "A1 scatter=on "
                } else {
                    "A1 scatter=off"
                },
                "locales",
                locales,
                &format!("AMs={}", t.comm.am_sent),
                s,
                &t,
            );
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
            row_comm(
                if privatized {
                    "privatized "
                } else {
                    "shared@L0  "
                },
                "locales",
                locales,
                "net-atomics=off",
                s,
                &rt.total_telemetry(),
            );
        }
    }

    say!("\n=== Ablation A3: reclamation election vs every-caller scans ===");
    for &locales in &[2usize, 4, 8] {
        for elected in [true, false] {
            let rt = runtime(locales, true);
            let s = ablate_election(&rt, sc.ablate_objects / 4, elected);
            row_comm(
                if elected {
                    "election=on "
                } else {
                    "election=off"
                },
                "locales",
                locales,
                "tryReclaim/iter",
                s,
                &rt.total_telemetry(),
            );
        }
    }

    say!("\n=== Ablation A5: LocalEpochManager vs EpochManager (single locale) ===");
    for local in [true, false] {
        let (s, advances) = ablate_local_manager(sc.ablate_objects, local);
        row(
            if local {
                "LocalEpochManager"
            } else {
                "EpochManager     "
            },
            "locales",
            1,
            &format!("advances={advances}"),
            s,
        );
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
            row(
                name,
                "hops",
                chain_len,
                &format!("reclaimed={reclaimed}"),
                s,
            );
        }
    }

    say!("\n=== Ablation A8: pluggable reclamation — EBR vs hazard pointers per structure ===");
    a8(sc);

    say!("\n=== Ablation A4: compressed pointers (RDMA) vs wide fallback (DCAS/AM) ===");
    for &locales in &[2usize, 4, 8] {
        for wide in [false, true] {
            let s = ablate_wide(locales, sc.fig3_ops / 4, wide);
            row(
                if wide { "wide (>2^16)" } else { "compressed " },
                "locales",
                locales,
                "net-atomics=on",
                s,
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
                row_comm(
                    &format!(
                        "A7 {} combining={}",
                        workload.label(),
                        if combining { "on" } else { "off" }
                    ),
                    "locales",
                    locales,
                    &format!("AMs={}", t.comm.am_sent),
                    s,
                    &t,
                );
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
/// and nothing for locally-owned keys. The harness asserts the sharded
/// tier's strict win on both ns/op and AM count at ≥4 locales inline, and
/// that its remote routing is honest (remote ops ⇒ AMs flowed), so a
/// routing regression fails the run before CI parses the JSON.
fn a11(sc: &Scale) {
    for &theta in &[0.9f64, 0.99] {
        for &read_pct in &[90u32, 50] {
            for &locales in &[1usize, 2, 4, 8] {
                let mut legacy: Option<(f64, u64)> = None;
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
                    row_shard(
                        &label,
                        locales,
                        &format!("AMs={}", cell.telemetry.comm.am_sent),
                        cell.sample,
                        &cell.telemetry,
                        cell.shard.as_ref(),
                    );
                    if sharded {
                        let sh = cell
                            .shard
                            .as_ref()
                            .expect("sharded rows carry a shard snapshot");
                        if locales >= 2 {
                            assert!(
                                sh.remote_ops > 0 && cell.telemetry.comm.am_sent > 0,
                                "A11 zipf={theta} {read_pct}% @{locales}: remote-shard ops \
                                 must pay AMs ({} remote ops, {} AMs)",
                                sh.remote_ops,
                                cell.telemetry.comm.am_sent
                            );
                        }
                        if locales >= 4 {
                            let (l_ns, l_ams) =
                                legacy.expect("legacy tier measured before sharded");
                            assert!(
                                cell.sample.ns_per_op() < l_ns,
                                "A11 zipf={theta} {read_pct}% @{locales}: sharded must beat \
                                 legacy on ns/op ({:.1} vs {:.1})",
                                cell.sample.ns_per_op(),
                                l_ns
                            );
                            assert!(
                                cell.telemetry.comm.am_sent < l_ams,
                                "A11 zipf={theta} {read_pct}% @{locales}: sharded must beat \
                                 legacy on AM count ({} vs {})",
                                cell.telemetry.comm.am_sent,
                                l_ams
                            );
                        }
                    } else {
                        legacy = Some((cell.sample.ns_per_op(), cell.telemetry.comm.am_sent));
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
    for structure in A8Structure::ALL {
        for &locales in &[1usize, 2, 4, 8] {
            let ebr = ablate_reclaimer::<EpochManager>(locales, structure, ops, false);
            row_reclaim(structure, locales, &ebr);
            let hp = ablate_reclaimer::<HazardReclaimer>(locales, structure, ops, false);
            row_reclaim(structure, locales, &hp);
        }
        // Stalled-task variant: one guard pins before the churn and never
        // unpins until it ends.
        let ebr = ablate_reclaimer::<EpochManager>(4, structure, ops, true);
        row_reclaim(structure, 4, &ebr);
        let hp = ablate_reclaimer::<HazardReclaimer>(4, structure, ops, true);
        row_reclaim(structure, 4, &hp);
        assert_eq!(
            ebr.stalled_reclaimed,
            0,
            "A8 {}: EBR cannot reclaim behind a stalled pin",
            structure.label()
        );
        assert!(
            hp.stalled_reclaimed > 0,
            "A8 {}: HP must keep reclaiming despite the stall",
            structure.label()
        );
        assert!(
            hp.stalled_outstanding < ebr.stalled_outstanding.max(1),
            "A8 {}: HP garbage must stay below EBR's limbo ({} vs {})",
            structure.label(),
            hp.stalled_outstanding,
            ebr.stalled_outstanding
        );
    }
}

/// Ablation A10: read-mostly ABA mixes (90% and 99% read) across the
/// locale sweep with the versioned fast-read path off vs on. With the
/// fast path on, reads cost one validated one-sided GET instead of a DCAS
/// AM round trip, so the on rows must win wherever reads are actually
/// remote (≥2 locales); writes keep the DCAS either way. The harness
/// asserts the win inline at 4+ locales and that fallbacks stay bounded
/// by retries, so a regression fails the run before CI even parses
/// `BENCH_results.json`.
fn a10(sc: &Scale) {
    let ops = (sc.fig3_ops / 4).max(1024);
    for read_pct in [90u32, 99] {
        for &locales in &[1usize, 2, 4, 8] {
            let mut off_ns = f64::INFINITY;
            for fast in [false, true] {
                let (s, t) = ablate_vread(locales, ops, read_pct, fast);
                let label = format!(
                    "A10 {read_pct}% read vread={}",
                    if fast { "on" } else { "off" }
                );
                row_comm(
                    &label,
                    "locales",
                    locales,
                    &format!("AMs={}", t.comm.am_sent),
                    s,
                    &t,
                );
                if fast {
                    assert!(
                        t.comm.vread_fallbacks <= t.comm.vread_retries,
                        "A10 {read_pct}% @{locales}: every fallback needs a torn \
                         window first ({} fallbacks vs {} retries)",
                        t.comm.vread_fallbacks,
                        t.comm.vread_retries
                    );
                    assert!(
                        t.comm.vread_fast > t.comm.vread_fallbacks,
                        "A10 {read_pct}% @{locales}: fast path barely validates \
                         ({} fast vs {} fallbacks)",
                        t.comm.vread_fast,
                        t.comm.vread_fallbacks
                    );
                    if locales >= 4 {
                        assert!(
                            s.ns_per_op() < off_ns,
                            "A10 {read_pct}% @{locales}: fast path must beat DCAS \
                             reads ({:.1} vs {:.1} ns/op)",
                            s.ns_per_op(),
                            off_ns
                        );
                    }
                } else {
                    off_ns = s.ns_per_op();
                    assert_eq!(
                        (
                            t.comm.vread_fast,
                            t.comm.vread_retries,
                            t.comm.vread_fallbacks
                        ),
                        (0, 0, 0),
                        "A10 {read_pct}% @{locales}: vread counters must stay zero \
                         with the fast path off"
                    );
                }
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
    match std::fs::write("BENCH_results.json", doc) {
        Ok(()) => say!("results: BENCH_results.json ({} rows)", rows.len()),
        Err(e) => {
            eprintln!("could not write BENCH_results.json: {e}");
            std::process::exit(1);
        }
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
    write_results_json("BENCH_results.json");
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
}
