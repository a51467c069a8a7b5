//! The figure harness: regenerates every table/figure of the paper's
//! evaluation section (§III, Figures 3–7) plus the DESIGN.md ablations.
//!
//! ```text
//! cargo run -p pgas-bench --release --bin harness -- all
//! cargo run -p pgas-bench --release --bin harness -- fig3
//! cargo run -p pgas-bench --release --bin harness -- fig4 fig5 fig6 fig7
//! cargo run -p pgas-bench --release --bin harness -- ablations
//! cargo run -p pgas-bench --release --bin harness -- --quick a8 a11
//! cargo run -p pgas-bench --release --bin harness -- --quick --trace target/trace.jsonl ablations
//! ```
//!
//! Every section is one entry of `SCENARIOS`, in the order the harness
//! runs them, and its selector is the entry's name (`fig3` … `fig7`,
//! `a1` … `a11`). `ablations` (or any word starting with `ablate`) selects
//! every ablation; `all`, or no selector, runs everything.
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

use pgas_nb::prelude::{EpochManager, HazardReclaimer, LocalEpochManager};
use pgas_nb::sim::telemetry::JsonLinesSink;

use pgas_bench::guard::{self, Record};
use pgas_bench::{
    ablate_combining, ablate_election, ablate_globalview, ablate_local_manager,
    ablate_privatization, ablate_reclaimer, ablate_reclamation_scheme, ablate_scatter,
    ablate_vread, ablate_wide, comm_breakdown, fig3_dist, fig3_shared, fig7_read_only,
    fig_deletion, A8Structure, Cell, CombineWorkload, Variant, LOCALE_SWEEP, TASK_SWEEP,
};

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

/// Where a scenario hands over each measured row: its series label, the
/// configuration qualifier that joins the label in the series name
/// (`net-atomics=on`, `stalled_task`, or empty), its sweep coordinate
/// (tasks, locales or hops) and the measurement.
type Row<'a> = dyn FnMut(&str, &str, usize, Cell) + 'a;

/// One section of the evaluation: its header and the rows it sweeps.
struct Scenario {
    /// The command-line selector that runs it (shared by Fig. 3's panels).
    selector: &'static str,
    /// Printed before the first row.
    title: &'static str,
    /// What the sweep coordinate counts.
    x_name: &'static str,
    /// The coordinate whose rows get the comm breakdown printed beneath.
    comm_at: Option<usize>,
    /// Measure the rows, in order, handing each to the `Row` callback.
    rows: fn(&Scale, &mut Row),
}

/// Network atomics on and off, with the qualifier that names each.
const NETS: [(bool, &str); 2] = [(true, "net-atomics=on"), (false, "net-atomics=off")];
/// The locale counts most ablations sweep.
const ABLATION_LOCALES: [usize; 3] = [2, 4, 8];

/// Figs. 4 and 5: the deletion loop over both network modes.
fn deletion_rows(row: &mut Row, label: &str, objects: usize, per_iter: u64) {
    for (net, q) in NETS {
        for l in LOCALE_SWEEP {
            let cell = fig_deletion(l, net, objects, Some(per_iter), 50);
            row(label, q, l, cell);
        }
    }
}

/// Every section, in the order `harness all` runs and records them:
/// Figures 3–7, then A1, A2, A3, A5, A6, A8, A4, A10, A7, A11.
const SCENARIOS: [Scenario; 16] = [
    Scenario {
        selector: "fig3",
        title:
            "\n=== Figure 3: AtomicObject vs atomic int (25/25/25/25 read/write/CAS/exchange) ===\n\
             --- shared memory: strong scaling over tasks, 1 locale ---",
        x_name: "tasks",
        comm_at: None,
        rows: |sc, row| {
            for (net, q) in NETS {
                for v in Variant::ALL {
                    for t in TASK_SWEEP {
                        row(v.label(), q, t, fig3_shared(t, sc.fig3_ops, v, net));
                    }
                }
            }
        },
    },
    Scenario {
        selector: "fig3",
        title: "--- distributed: strong scaling over locales, 4 tasks/locale ---",
        x_name: "locales",
        comm_at: Some(16),
        rows: |sc, row| {
            for (net, q) in NETS {
                for v in Variant::ALL {
                    for l in LOCALE_SWEEP {
                        row(v.label(), q, l, fig3_dist(l, 4, sc.fig3_ops, v, net));
                    }
                }
            }
        },
    },
    Scenario {
        selector: "fig4",
        title: "\n=== Figure 4: deletion, tryReclaim every 1024 iterations ===",
        x_name: "locales",
        comm_at: Some(16),
        rows: |sc, row| deletion_rows(row, "deferDelete+tryReclaim/1024", sc.fig4_objects, 1024),
    },
    Scenario {
        selector: "fig5",
        title: "\n=== Figure 5: deletion, tryReclaim every iteration ===",
        x_name: "locales",
        comm_at: Some(16),
        rows: |sc, row| deletion_rows(row, "deferDelete+tryReclaim/1", sc.fig5_objects, 1),
    },
    Scenario {
        selector: "fig6",
        title: "\n=== Figure 6: deletion, reclamation only at end; remote ratio 0/50/100% ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for pct in [0u32, 50, 100] {
                for l in LOCALE_SWEEP {
                    let label = format!("defer+clear remote={pct}%");
                    let cell = fig_deletion(l, true, sc.fig6_objects, None, pct);
                    row(&label, "net-atomics=on", l, cell);
                }
            }
        },
    },
    Scenario {
        selector: "fig7",
        title: "\n=== Figure 7: read-only workload (pin/unpin), no deletion ===",
        x_name: "locales",
        comm_at: Some(16),
        rows: |sc, row| {
            for (net, q) in NETS {
                for l in LOCALE_SWEEP {
                    let cell = fig7_read_only(l, net, 4, sc.fig7_iters);
                    row("pin/unpin read-only", q, l, cell);
                }
            }
        },
    },
    Scenario {
        selector: "a1",
        title: "\n=== Ablation A1: scatter-list bulk free vs per-object remote frees ===",
        x_name: "locales",
        comm_at: Some(8),
        rows: |sc, row| {
            for l in ABLATION_LOCALES {
                for (label, on) in [("A1 scatter=on", true), ("A1 scatter=off", false)] {
                    row(label, "", l, ablate_scatter(l, sc.ablate_objects, on));
                }
            }
        },
    },
    Scenario {
        selector: "a2",
        title: "\n=== Ablation A2: privatized instance vs single shared instance ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for l in ABLATION_LOCALES {
                for (label, privatized) in [("privatized", true), ("shared@L0", false)] {
                    let cell = ablate_privatization(l, sc.fig7_iters, privatized);
                    row(label, "net-atomics=off", l, cell);
                }
            }
        },
    },
    Scenario {
        selector: "a3",
        title: "\n=== Ablation A3: reclamation election vs every-caller scans ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for l in ABLATION_LOCALES {
                for (label, on) in [("election=on", true), ("election=off", false)] {
                    let cell = ablate_election(l, sc.ablate_objects / 4, on);
                    row(label, "tryReclaim/iter", l, cell);
                }
            }
        },
    },
    Scenario {
        selector: "a5",
        title: "\n=== Ablation A5: LocalEpochManager vs EpochManager (single locale) ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            let local = ablate_local_manager::<LocalEpochManager>(sc.ablate_objects);
            row("LocalEpochManager", "", 1, local);
            let global = ablate_local_manager::<EpochManager>(sc.ablate_objects);
            row("EpochManager", "", 1, global);
        },
    },
    Scenario {
        selector: "a6",
        title: "\n=== Ablation A6: epoch-based reclamation vs hazard pointers ===",
        x_name: "hops",
        comm_at: None,
        rows: |sc, row| {
            let ops = sc.fig3_ops / 16;
            for hops in [1usize, 8, 32] {
                let ebr = ablate_reclamation_scheme::<LocalEpochManager>(ops, hops, 64);
                row("EBR (pin/unpin)", "", hops, ebr);
                let hp = ablate_reclamation_scheme::<HazardReclaimer>(ops, hops, 64);
                row("hazard pointers", "", hops, hp);
            }
        },
    },
    Scenario {
        selector: "a8",
        title:
            "\n=== Ablation A8: pluggable reclamation — EBR vs hazard pointers per structure ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            let ops = (sc.ablate_objects as u64 / 4).max(256);
            for s in A8Structure::ALL {
                // The locale sweep, then the stalled-task variant at 4
                // locales: one guard pins before the churn and never
                // unpins until it ends.
                for (l, stalled) in [(1, false), (2, false), (4, false), (8, false), (4, true)] {
                    let q = if stalled { "stalled_task" } else { "" };
                    let ebr = ablate_reclaimer::<EpochManager>(l, s, ops, stalled);
                    row(&format!("A8 {} ebr", s.label()), q, l, ebr);
                    let hp = ablate_reclaimer::<HazardReclaimer>(l, s, ops, stalled);
                    row(&format!("A8 {} hp", s.label()), q, l, hp);
                }
            }
        },
    },
    Scenario {
        selector: "a4",
        title: "\n=== Ablation A4: compressed pointers (RDMA) vs wide fallback (DCAS/AM) ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for l in ABLATION_LOCALES {
                for (label, wide) in [("compressed", false), ("wide (>2^16)", true)] {
                    let cell = ablate_wide(l, sc.fig3_ops / 4, wide);
                    row(label, "net-atomics=on", l, cell);
                }
            }
        },
    },
    Scenario {
        selector: "a10",
        title: "\n=== Ablation A10: versioned fast reads vs DCAS reads (read-mostly ABA mixes) ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            let ops = (sc.fig3_ops / 4).max(1024);
            for pct in [90u32, 99] {
                for l in [1usize, 2, 4, 8] {
                    for (fast, on) in [(false, "off"), (true, "on")] {
                        let label = format!("A10 {pct}% read vread={on}");
                        row(&label, "", l, ablate_vread(l, ops, pct, fast));
                    }
                }
            }
        },
    },
    Scenario {
        selector: "a7",
        title: "\n=== Ablation A7: remote-op combining ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for w in CombineWorkload::ALL {
                for l in ABLATION_LOCALES {
                    for (on, o) in [(false, "off"), (true, "on")] {
                        let label = format!("A7 {} combining={o}", w.label());
                        row(&label, "", l, ablate_combining(l, sc.fig3_ops / 4, w, on));
                    }
                }
            }
        },
    },
    Scenario {
        selector: "a11",
        title:
            "\n=== Ablation A11: global-view sharded map vs legacy flat map (Zipfian point ops) ===",
        x_name: "locales",
        comm_at: None,
        rows: |sc, row| {
            for theta in [0.9f64, 0.99] {
                for pct in [90u32, 50] {
                    for l in [1usize, 2, 4, 8] {
                        for (tier, sharded) in [("legacy", false), ("sharded", true)] {
                            let label = format!("A11 {tier} zipf={theta} mix={pct}/{}", 100 - pct);
                            let cell =
                                ablate_globalview(l, sc.a11_keys, theta, pct, sc.a11_ops, sharded);
                            row(&label, "", l, cell);
                        }
                    }
                }
            }
        },
    },
];

/// Measure every row of the `selected` scenarios in table order, printing
/// each with its detail lines as it lands, and return the rows for
/// `BENCH_results.json`.
fn run(sc: &Scale, selected: impl Fn(&Scenario) -> bool) -> Vec<Record> {
    let mut records = Vec::new();
    for scenario in SCENARIOS.iter().filter(|s| selected(s)) {
        say!("{}", scenario.title);
        (scenario.rows)(sc, &mut |label, qualifier, x, cell| {
            let s = cell.sample;
            // A measured note is data, not identity: it is printed but
            // stays out of the series name, so a series keeps one name.
            let extra = format!("{qualifier} {}", cell.note);
            say!(
                "{label:<34} {}={x:<3} {:<18} vtime={:>12.3} ms  \
                 ns/op={:>9.1}  mops={:>8.2}  wall={:>8.1} ms",
                scenario.x_name,
                extra.trim(),
                s.vtime_ns as f64 / 1e6,
                s.ns_per_op(),
                s.mops(),
                s.wall_ns as f64 / 1e6,
            );
            let t = cell.telemetry.as_ref();
            if let Some(t) = t.filter(|_| scenario.comm_at == Some(x)) {
                say!("    └─ comm @{x} locales: {}", comm_breakdown(t));
            }
            if let Some(r) = cell.reclaim.as_ref().filter(|r| r.stalled) {
                say!(
                    "    └─ stalled: outstanding={} reclaimed-during-stall={}",
                    r.stalled_outstanding,
                    r.stalled_reclaimed
                );
            }
            if let Some(sh) = &cell.shard {
                say!(
                    "    └─ shard: local={} remote={}",
                    sh.local_ops,
                    sh.remote_ops
                );
            }
            records.push(Record {
                name: format!("{label} {qualifier}").trim_end().to_string(),
                locales: x,
                vtime_ns: s.vtime_ns,
                ns_per_op: s.ns_per_op(),
                mops: s.mops(),
                comm: t.map(|t| t.comm),
                latency: t.map_or_else(|| "{}".to_string(), |t| t.latency_json()),
                reclaim: cell.reclaim.as_ref().map(|r| r.to_json()),
                shard: cell.shard.as_ref().map(|sh| sh.to_json()),
            });
        });
    }
    records
}

/// Write `records` to `path` if they pass the results guard; otherwise
/// name the failing rule and leave the file as it is. Returns `false` when
/// the rows were refused or could not be written.
fn write_results(path: &str, records: &[Record]) -> bool {
    let doc = guard::render(records);
    if let Err(e) = guard::check_results(&doc) {
        eprintln!("harness: results guard failed, {path} left as it is: {e}");
        return false;
    }
    match std::fs::write(path, &doc) {
        Ok(()) => {
            say!("results: {path} ({} rows)", records.len());
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// Whether selector `a` runs `s`: its own name, `all`, or — for every
/// section but the figures — `ablations` or any word starting `ablate`.
fn selects(a: &str, s: &Scenario) -> bool {
    a == "all"
        || a == s.selector
        || (!s.selector.starts_with("fig") && (a == "ablations" || a.starts_with("ablate")))
}

fn main() {
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut selectors: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace_path = Some(args.next().expect("--trace takes a path")),
            _ => selectors.push(a),
        }
    }
    // A selector that matches nothing would run nothing and still rewrite
    // the results file: refuse it before any work.
    if let Some(bad) = selectors
        .iter()
        .find(|a| !SCENARIOS.iter().any(|s| selects(a, s)))
    {
        let mut names: Vec<&str> = SCENARIOS.iter().map(|s| s.selector).collect();
        names.dedup();
        eprintln!(
            "harness: unknown selector {bad:?}; expected any of {}, ablations (or ablate*) \
             or all (none runs all)",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let selected = |s: &Scenario| selectors.is_empty() || selectors.iter().any(|a| selects(a, s));

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
    let records = run(if quick { &QUICK } else { &FULL }, selected);
    let written = write_results("BENCH_results.json", &records);
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

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_bench::json::{parse, Value};

    /// Every scenario, small enough for a debug build.
    const TINY: Scale = Scale {
        fig3_ops: 1 << 8,
        fig4_objects: 1 << 7,
        fig5_objects: 1 << 6,
        fig6_objects: 1 << 7,
        fig7_iters: 1 << 5,
        ablate_objects: 1 << 6,
        a11_keys: 1 << 8,
        a11_ops: 1 << 4,
    };

    /// No guard rule pins a Fig. 3–7 or A2–A6 series name, so a renamed,
    /// dropped or reordered series would pass every other check.
    #[test]
    fn every_scenario_emits_the_committed_series_in_order() {
        let got: Vec<(String, usize)> = run(&TINY, |_| true)
            .into_iter()
            .map(|r| (r.name, r.locales))
            .collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
        let text = std::fs::read_to_string(path).expect("reading the committed BENCH_results.json");
        let doc = parse(&text).expect("the committed file parses");
        let field = |r: &Value, k: &str| r.get(k).cloned().expect("name and locales on every row");
        let want: Vec<(String, usize)> = doc
            .as_arr()
            .expect("an array of rows")
            .iter()
            .map(|r| {
                let name = field(r, "name")
                    .as_str()
                    .expect("a string name")
                    .to_string();
                (
                    name,
                    field(r, "locales").as_num().expect("numeric locales") as usize,
                )
            })
            .collect();
        assert_eq!(got.len(), want.len(), "row count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "row {i}");
        }
    }
}
