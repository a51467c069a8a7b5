//! Workload implementations for the paper's evaluation (Figures 3–7) and
//! the DESIGN.md ablations, run by the `harness` binary.
//!
//! Because the host machine is not a 64-node Cray, scaling curves are
//! reported in **virtual time** (see `pgas_sim::vtime`): a deterministic
//! discrete-event cost model with Aries-class constants, driven by the
//! real concurrent execution of the algorithms. Wall-clock time is also
//! reported as a secondary column.
//!
//! Every workload returns one [`Cell`], measured by one private runner: it
//! builds the traced runtime, runs the workload's setup, times its body,
//! checks that every object was reclaimed and takes the telemetry snapshot.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pgas_nb::prelude::*;
use pgas_nb::sim::telemetry::Sink;
use pgas_nb::sim::vtime;
use pgas_nb::sim::TelemetrySnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod guard;
pub mod json;
pub mod procrun;
pub mod trace;
pub mod zipf;

/// Process-wide span sink installed on every runtime the workloads build
/// (the harness's `--trace` flag). Must be set before the first
/// measurement; later calls return `false` and change nothing.
static TRACE_SINK: OnceLock<Arc<dyn Sink>> = OnceLock::new();

/// Install `sink` as the span sink for every runtime subsequently built by
/// this crate's workload constructors. Returns whether this call installed
/// it (first install wins).
pub fn set_trace_sink(sink: Arc<dyn Sink>) -> bool {
    TRACE_SINK.set(sink).is_ok()
}

/// Flush the process-wide trace sink, if one is installed. The static
/// holding the sink is never dropped, so buffered writers (e.g.
/// `JsonLinesSink`) must be flushed explicitly before the process exits.
pub fn flush_trace_sink() {
    if let Some(s) = TRACE_SINK.get() {
        s.flush();
    }
}

/// Which atomic implementation a Fig. 3 measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Chapel's `atomic int` baseline.
    AtomicInt,
    /// `AtomicObject` without ABA protection (64-bit compressed pointer).
    AtomicObject,
    /// `AtomicObject` with ABA protection (128-bit DCAS).
    AtomicObjectAba,
}

impl Variant {
    pub const ALL: [Variant; 3] = [
        Variant::AtomicInt,
        Variant::AtomicObject,
        Variant::AtomicObjectAba,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Variant::AtomicInt => "atomic-int",
            Variant::AtomicObject => "AtomicObject",
            Variant::AtomicObjectAba => "AtomicObject(ABA)",
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual makespan of the measured region, nanoseconds.
    pub vtime_ns: u64,
    /// Wall-clock duration of the measured region, nanoseconds.
    pub wall_ns: u64,
    /// Operations performed in the measured region.
    pub ops: u64,
}

impl Sample {
    /// Millions of operations per second of *virtual* time.
    pub fn mops(&self) -> f64 {
        if self.vtime_ns == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 * 1e3 / self.vtime_ns as f64
    }

    /// Virtual nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.vtime_ns as f64 / self.ops.max(1) as f64
    }
}

/// One measured row of the evaluation: what every workload returns.
pub struct Cell {
    /// Timing of the measured body.
    pub sample: Sample,
    /// Comm counters and per-class latency registry, over the whole run
    /// (Figs 3–7, A2, A3) or over the measured body alone (A1, A7, A10,
    /// A11); `None` for rows that record timing only (A4–A6, A8).
    pub telemetry: Option<TelemetrySnapshot>,
    /// A8: the backend's reclamation counters.
    pub reclaim: Option<ReclaimAblation>,
    /// A11 sharded rows: the map's routing counters over the measured body
    /// (preload traffic excluded).
    pub shard: Option<ShardSnapshot>,
    /// What the row measured beside its timing, printed next to it:
    /// `AMs=…`, `advances=…`, `reclaimed=…`, or the Figs 4–6 manager's
    /// counters. Data, not part of the series name.
    pub note: String,
}

impl From<Sample> for Cell {
    fn from(sample: Sample) -> Cell {
        Cell {
            sample,
            telemetry: None,
            reclaim: None,
            shard: None,
            note: String::new(),
        }
    }
}

/// Which of the runtime's traffic a cell's telemetry covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Counted {
    /// None: the row records timing only.
    Nothing,
    /// Everything the run did, setup and teardown included.
    Run,
    /// The measured body alone: metrics are reset after setup and
    /// snapshotted before teardown. The row's note is its AM count.
    Body,
}

/// Hands a workload its measured region (see [`measure`]).
struct Meter<'a> {
    rt: &'a Runtime,
    counted: Counted,
    telemetry: Option<TelemetrySnapshot>,
}

impl Meter<'_> {
    /// Run `body` as the measured region of `ops` operations, timed on the
    /// wall clock and on the calling task's virtual clock.
    fn time(&mut self, ops: u64, body: impl FnOnce()) -> Sample {
        if self.counted == Counted::Body {
            self.rt.reset_metrics();
        }
        let wall = Instant::now();
        let t0 = vtime::now();
        body();
        let sample = Sample {
            vtime_ns: vtime::now() - t0,
            wall_ns: wall.elapsed().as_nanos() as u64,
            ops,
        };
        if self.counted == Counted::Body {
            self.telemetry = Some(self.rt.total_telemetry());
        }
        sample
    }
}

/// The one runner: build a runtime from `cfg` with the process-wide trace
/// sink (if any) installed, run `workload` inside it (its setup, one
/// [`Meter::time`] call, its teardown), check that every object it
/// allocated was reclaimed, and attach the telemetry `counted` selects.
fn measure(
    cfg: RuntimeConfig,
    counted: Counted,
    workload: impl FnOnce(&Runtime, &mut Meter) -> Cell,
) -> Cell {
    let rt = Runtime::new(cfg);
    if let Some(s) = TRACE_SINK.get() {
        rt.set_telemetry_sink(Arc::clone(s));
    }
    let mut meter = Meter {
        rt: &rt,
        counted,
        telemetry: None,
    };
    let mut cell = rt.run(|| workload(&rt, &mut meter));
    assert_eq!(rt.live_objects(), 0, "reclamation must be complete");
    cell.telemetry = match counted {
        Counted::Nothing => None,
        Counted::Run => Some(rt.total_telemetry()),
        Counted::Body => {
            let t = meter.telemetry.expect("the workload timed its body");
            cell.note = format!("AMs={}", t.comm.am_sent);
            Some(t)
        }
    };
    cell
}

/// The cluster configuration of the Figs 3–7 and A1–A3 measurements.
fn cluster(locales: usize, network_atomics: bool) -> RuntimeConfig {
    let cfg = RuntimeConfig::cluster(locales);
    if network_atomics {
        cfg
    } else {
        cfg.without_network_atomics()
    }
}

/// One-line per-op-class breakdown of a telemetry snapshot, printed by the
/// harness under selected figure rows. The counter half shows how traffic
/// split between paths (RDMA vs AM vs batched AM); the latency half lists
/// every op class that recorded samples with its p50/p99/max — rendered
/// straight from the registry snapshot instead of hand-picked fields.
pub fn comm_breakdown(t: &TelemetrySnapshot) -> String {
    let s = &t.comm;
    let mut out = format!(
        "rdma={} cpu={} dcas={} am={} batched={}({} items) puts={} gets={} net-events={}",
        s.rdma_atomics,
        s.cpu_atomics,
        s.cpu_dcas,
        s.am_sent,
        s.am_batches,
        s.am_batch_items,
        s.puts,
        s.gets,
        s.network_events(),
    );
    for (class, h) in t.nonempty() {
        out.push_str(&format!(
            "\n       {class}: n={} p50={} p99={} max={}",
            h.count(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.max(),
        ));
    }
    out
}

/// The 25/25/25/25 read/write/CAS/exchange mix from §III-A, one task, on a
/// task-private cell owned by `owner`. Fig. 3 keeps it on the task's own
/// locale (the paper's overhead microbenchmark: independent cells isolate
/// abstraction overhead from contention); A7 puts it on the next locale.
fn mixed_ops(variant: Variant, ops: u64, owner: LocaleId) {
    // The loop, the same for every variant but for the cell type and its
    // method names: op `i` reads, writes `$value(i)`, reads then CASes to
    // it, or exchanges it.
    macro_rules! mix {
        ($cell:expr, $value:expr, $read:ident, $write:ident, $cas:ident, $xchg:ident) => {{
            let cell = $cell;
            for i in 0..ops {
                let v = $value(i);
                match i % 4 {
                    0 => {
                        let _ = cell.$read();
                    }
                    1 => cell.$write(v),
                    2 => {
                        let cur = cell.$read();
                        let _ = cell.$cas(cur, v);
                    }
                    _ => {
                        let _ = cell.$xchg(v);
                    }
                }
            }
        }};
    }
    let rt = current_runtime();
    if variant == Variant::AtomicInt {
        let cell = AtomicInt::new_on(owner, 0);
        return mix!(cell, |i| i, read, write, compare_and_swap, exchange);
    }
    let (a, b) = (alloc_local(&rt, 0u64), alloc_local(&rt, 1u64));
    let target = |i: u64| if i.is_multiple_of(2) { a } else { b };
    if variant == Variant::AtomicObject {
        let cell = AtomicObject::new_on(owner, a);
        mix!(cell, target, read, write, compare_and_swap, exchange);
    } else {
        let cell = AtomicAbaObject::new_on(owner, a);
        mix!(
            cell,
            target,
            read_aba,
            write_aba,
            compare_and_swap_aba,
            exchange_aba
        );
    }
    // SAFETY: `a` and `b` were allocated above and are freed once; the
    // cell that held them is no longer used.
    unsafe {
        free(&rt, a);
        free(&rt, b);
    }
}

/// A4's loop, also A7's `wide dcas` traffic: `AtomicObject`
/// read/write/exchange on a fresh cell owned by `owner`.
fn read_write_exchange(owner: LocaleId, ops: u64) {
    let cell = AtomicObject::<u64>::new_on(owner, GlobalPtr::null());
    for i in 0..ops {
        match i % 3 {
            0 => {
                let _ = cell.read();
            }
            1 => cell.write(GlobalPtr::null()),
            _ => {
                let _ = cell.exchange(GlobalPtr::null());
            }
        }
    }
}

/// The locale after `l`, wrapping: where the ablations put remote cells.
fn next_locale(rt: &Runtime, l: LocaleId) -> LocaleId {
    ((l as usize + 1) % rt.num_locales()) as LocaleId
}

/// The measured region of the AM-heavy ablations (A4, A7, A10): `tasks`
/// tasks on every locale each run `op(owner, per_task)`, `owner` being the
/// next locale and `per_task` an even share (at least one) of `total_ops`.
fn on_next_locale(
    m: &mut Meter,
    tasks: usize,
    total_ops: u64,
    op: impl Fn(LocaleId, u64) + Sync,
) -> Sample {
    let rt = m.rt;
    let n_tasks = (rt.num_locales() * tasks) as u64;
    let per_task = (total_ops / n_tasks).max(1);
    m.time(per_task * n_tasks, || {
        rt.coforall_locales(|l| {
            let owner = next_locale(rt, l);
            rt.coforall_tasks(tasks, |_| op(owner, per_task));
        });
    })
}

/// `n` objects for a deletion workload, object `i` allocated on `on(i)`.
fn objects(rt: &Runtime, n: usize, mut on: impl FnMut(usize) -> LocaleId) -> Vec<GlobalPtr<u64>> {
    (0..n).map(|i| alloc_on(rt, on(i), i as u64)).collect()
}

/// Fig. 3, shared-memory panel: strong scaling over `tasks` on one
/// locale; `total_ops` divided among the tasks.
pub fn fig3_shared(tasks: usize, total_ops: u64, variant: Variant, network_atomics: bool) -> Cell {
    let per_task = total_ops / tasks as u64;
    measure(cluster(1, network_atomics), Counted::Run, |rt, m| {
        m.time(per_task * tasks as u64, || {
            rt.coforall_tasks(tasks, |_| mixed_ops(variant, per_task, here()));
        })
        .into()
    })
}

/// Fig. 3, distributed panel: strong scaling over `locales` with
/// `tasks_per_locale` tasks each; `total_ops` divided among all tasks.
pub fn fig3_dist(
    locales: usize,
    tasks_per_locale: usize,
    total_ops: u64,
    variant: Variant,
    network_atomics: bool,
) -> Cell {
    let n_tasks = (locales * tasks_per_locale) as u64;
    let per_task = total_ops / n_tasks;
    measure(cluster(locales, network_atomics), Counted::Run, |rt, m| {
        m.time(per_task * n_tasks, || {
            rt.coforall_locales(|_| {
                rt.coforall_tasks(tasks_per_locale, |_| mixed_ops(variant, per_task, here()));
            });
        })
        .into()
    })
}

/// Figs. 4 & 5 (Listing 5): distributed objects, each task pins, defers
/// the visited object, unpins, and calls `tryReclaim` every
/// `per_iteration` operations (`None` = never during the loop — Fig. 6's
/// regime). The sample covers the deletion loop plus the final `clear`,
/// excluding allocation; the note is the manager's counters.
pub fn fig_deletion(
    locales: usize,
    network_atomics: bool,
    num_objects: usize,
    per_iteration: Option<u64>,
    remote_percent: u32,
) -> Cell {
    measure(cluster(locales, network_atomics), Counted::Run, |rt, m| {
        let em = EpochManager::new();
        // Pre-allocate objects. Index i is visited by a task on locale
        // i % L (cyclic); with probability remote_percent/100 the object
        // lives on a random *other* locale, else on the visiting locale.
        let mut rng = StdRng::seed_from_u64(0xF16);
        let objs = objects(rt, num_objects, |i| {
            let visiting = (i % locales) as LocaleId;
            if locales > 1 && rng.gen_range(0u32..100) < remote_percent {
                let mut o = rng.gen_range(0..locales) as LocaleId;
                while o == visiting {
                    o = rng.gen_range(0..locales) as LocaleId;
                }
                o
            } else {
                visiting
            }
        });

        let sample = m.time(num_objects as u64, || {
            rt.forall_dist(
                num_objects,
                |_, _| (em.register(), 0u64),
                |(tok, done), i| {
                    tok.pin();
                    tok.defer_delete(objs[i]);
                    tok.unpin();
                    *done += 1;
                    if let Some(k) = per_iteration {
                        if *done % k == 0 {
                            tok.try_reclaim();
                        }
                    }
                },
            );
            em.clear();
        });
        Cell {
            note: em.stats().to_string(),
            ..sample.into()
        }
    })
}

/// Fig. 7: read-only workload — pin/unpin per iteration, no deletion.
/// Weak scaling: `iters_per_task` per task on every locale.
pub fn fig7_read_only(
    locales: usize,
    network_atomics: bool,
    tasks_per_locale: usize,
    iters_per_task: u64,
) -> Cell {
    let ops = (locales * tasks_per_locale) as u64 * iters_per_task;
    measure(cluster(locales, network_atomics), Counted::Run, |rt, m| {
        m.time(ops, || {
            let em = EpochManager::new();
            rt.coforall_locales(|_| {
                rt.coforall_tasks(tasks_per_locale, |_| {
                    let tok = em.register();
                    for _ in 0..iters_per_task {
                        tok.pin();
                        tok.unpin();
                    }
                });
            });
        })
        .into()
    })
}

/// Ablation A1: the Fig. 6 workload at 100% remote objects, with the
/// scatter-list bulk free disabled (one active message per object).
pub fn ablate_scatter(locales: usize, num_objects: usize, scatter: bool) -> Cell {
    measure(cluster(locales, true), Counted::Body, |rt, m| {
        let em = EpochManager::new();
        em.set_scatter(scatter);
        // Object i is visited from locale i % L and lives on the next one.
        let objs = objects(rt, num_objects, |i| {
            next_locale(rt, (i % locales) as LocaleId)
        });
        {
            let tok = em.register();
            tok.pin();
            for &o in &objs {
                tok.defer_delete(o);
            }
            tok.unpin();
        }
        m.time(num_objects as u64, || em.clear()).into()
    })
}

/// Ablation A2: privatized (zero-communication) epoch-cache access vs a
/// single shared instance on locale 0 that every pin consults remotely.
pub fn ablate_privatization(locales: usize, iters_per_task: u64, privatized: bool) -> Cell {
    let tasks = 2;
    measure(cluster(locales, false), Counted::Run, |rt, m| {
        // Setup (instance construction) is excluded from the measurement.
        let caches = pgas_nb::sim::Privatized::new(&current_runtime(), |l| AtomicInt::new_on(l, 1));
        let shared = AtomicInt::new_on(0, 1);
        m.time((locales * tasks) as u64 * iters_per_task, || {
            rt.coforall_locales(|_| {
                rt.coforall_tasks(tasks, |_| {
                    for _ in 0..iters_per_task {
                        let _ = if privatized {
                            // One epoch cache per locale (the EpochManager way).
                            caches.get().read()
                        } else {
                            // A single instance on locale 0 everyone consults.
                            shared.read()
                        };
                    }
                });
            });
        })
        .into()
    })
}

/// Ablation A3: the Fig. 5 regime (tryReclaim every iteration) with the
/// first-come-first-serve election enabled vs disabled (every caller
/// scans).
pub fn ablate_election(locales: usize, num_objects: usize, elected: bool) -> Cell {
    measure(cluster(locales, true), Counted::Run, |rt, m| {
        let em = EpochManager::new();
        let objs = objects(rt, num_objects, |_| here());
        m.time(num_objects as u64, || {
            rt.forall_dist(
                num_objects,
                |_, _| em.register(),
                |tok, i| {
                    tok.pin();
                    tok.defer_delete(objs[i]);
                    tok.unpin();
                    if elected {
                        em.try_reclaim();
                    } else {
                        em.try_reclaim_unelected();
                    }
                },
            );
            em.clear();
        })
        .into()
    })
}

/// A chain node for the reclamation-scheme ablation.
pub struct ChainNode {
    /// Payload (read by traversals).
    pub value: u64,
    /// Next link.
    pub next: AtomicObject<ChainNode>,
}

/// Ablation A6: EBR vs hazard pointers on a *linked traversal* — the
/// Hart et al. trade-off the paper's §I invokes. Each operation walks a
/// chain of `chain_len` nodes; EBR (`R = LocalEpochManager`) pays one
/// pin/unpin per traversal, hazard pointers (`R = HazardReclaimer`, on the
/// same one-locale runtime) pay a fenced publication + validation per
/// *hop*. Every `writes_every` traversals the head node is replaced and the
/// old one retired. The note is the objects reclaimed.
pub fn ablate_reclamation_scheme<R: Reclaimer>(
    traversals: u64,
    chain_len: usize,
    writes_every: u64,
) -> Cell {
    measure(RuntimeConfig::shared_memory(), Counted::Nothing, |_, m| {
        let rt_h = current_runtime();
        // Build the chain back to front.
        let mut head = GlobalPtr::null();
        for i in (0..chain_len).rev() {
            let node = alloc_local(
                &rt_h,
                ChainNode {
                    value: i as u64,
                    next: AtomicObject::new(head),
                },
            );
            head = node;
        }
        let head_cell = AtomicObject::new(head);

        let mut reclaimed = 0;
        let sample = m.time(traversals, || {
            let em = R::new_in_runtime();
            let tok = em.register();
            for i in 0..traversals {
                tok.pin();
                // Hand-over-hand protection, alternating two slots. Under a
                // pin these are the plain reads of an EBR traversal; a
                // hazard-pointer guard publishes and validates every hop.
                // Nobody unlinks concurrently, so a validation never fails.
                let mut slot = 0;
                let mut cur = tok.protect_root(slot, &head_cell);
                while !cur.is_null() {
                    let node = unsafe { cur.deref() };
                    std::hint::black_box(node.value);
                    slot ^= 1;
                    let next = node.next.read();
                    let valid = tok.protect_ptr(slot, next, || node.next.read() == next);
                    debug_assert!(valid);
                    cur = next;
                }
                tok.release(0);
                tok.release(1);
                if i % writes_every == 0 {
                    let old_head = head_cell.read();
                    let next = unsafe { old_head.deref() }.next.read();
                    let fresh = alloc_local(
                        &rt_h,
                        ChainNode {
                            value: i,
                            next: AtomicObject::new(next),
                        },
                    );
                    head_cell.write(fresh);
                    tok.defer_delete(old_head);
                }
                tok.unpin();
                if i % 64 == 0 {
                    em.try_reclaim();
                }
            }
            drop(tok);
            em.clear();
            reclaimed = em.stats().objects_reclaimed;
            // Quiescent teardown: free the remaining chain.
            let mut cur = head_cell.read();
            while !cur.is_null() {
                let next = unsafe { cur.deref() }.next.read();
                unsafe { pgas_nb::sim::free(&rt_h, cur) };
                cur = next;
            }
        });
        Cell {
            note: format!("reclaimed={reclaimed}"),
            ..sample.into()
        }
    })
}

/// Ablation A5: `LocalEpochManager` vs `EpochManager` (`R`) on a
/// single-locale workload — what the shared-memory-optimized variant saves
/// (no global epoch object, no cross-locale scan). The note is the
/// backend's epoch advances.
pub fn ablate_local_manager<R: Reclaimer>(num_objects: usize) -> Cell {
    measure(RuntimeConfig::cluster(1), Counted::Nothing, |rt, m| {
        let objs = objects(rt, num_objects, |_| here());
        let mut advances = 0;
        let sample = m.time(num_objects as u64, || {
            let em = R::new_in_runtime();
            let tok = em.register();
            for (i, &o) in objs.iter().enumerate() {
                tok.pin();
                tok.defer_delete(o);
                tok.unpin();
                if i % 64 == 0 {
                    em.try_reclaim();
                }
            }
            drop(tok);
            em.clear();
            advances = em.stats().advances;
        });
        Cell {
            note: format!("advances={advances}"),
            ..sample.into()
        }
    })
}

/// Ablation A4: *remote* `AtomicObject` operations under forced wide
/// pointers (the > 2^16-locale fallback, DCAS + active messages) vs the
/// compressed representation (single-word RDMA atomics). Each locale's
/// tasks hammer cells owned by the *next* locale, so the wide variant
/// funnels through progress threads while the compressed one rides the
/// NIC one-sidedly.
pub fn ablate_wide(locales: usize, total_ops: u64, wide: bool) -> Cell {
    let cfg = if wide {
        RuntimeConfig::cluster(locales).with_wide_pointers()
    } else {
        RuntimeConfig::cluster(locales)
    };
    measure(cfg, Counted::Nothing, |_, m| {
        on_next_locale(m, 2, total_ops, read_write_exchange).into()
    })
}

/// Which AM-heavy traffic pattern the combining ablation (A7) drives.
/// All three funnel every remote operation through active messages — the
/// regime where coalescing concurrent same-destination operations into one
/// round trip (see `pgas_sim::engine::combine`) can pay off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineWorkload {
    /// Fig. 3's distributed mixed-ops loop with network atomics disabled
    /// and every cell owned by the *next* locale: each op is one AM.
    Fig3DistAm,
    /// A4's wide-pointer traffic: `AtomicObject` read/write/exchange on
    /// next-locale cells under forced wide pointers (DCAS via AM).
    WideDcas,
    /// Every locale's tasks hammering a single shared `AtomicInt` homed
    /// on locale 0 — maximum destination contention.
    SharedAtL0,
}

impl CombineWorkload {
    pub const ALL: [CombineWorkload; 3] = [
        CombineWorkload::Fig3DistAm,
        CombineWorkload::WideDcas,
        CombineWorkload::SharedAtL0,
    ];

    pub fn label(self) -> &'static str {
        match self {
            CombineWorkload::Fig3DistAm => "fig3-dist am",
            CombineWorkload::WideDcas => "wide dcas",
            CombineWorkload::SharedAtL0 => "shared@L0",
        }
    }
}

/// Ablation A7: remote-operation combining on vs off over the AM-heavy
/// workloads of [`CombineWorkload`]. Four tasks per locale issue
/// `total_ops` operations in aggregate; with combining enabled, concurrent
/// same-destination operations coalesce into single bulk active messages
/// (strictly fewer `am_sent`, lower virtual time at scale).
pub fn ablate_combining(
    locales: usize,
    total_ops: u64,
    workload: CombineWorkload,
    combining: bool,
) -> Cell {
    let cfg = match workload {
        CombineWorkload::Fig3DistAm | CombineWorkload::SharedAtL0 => {
            RuntimeConfig::cluster(locales).without_network_atomics()
        }
        CombineWorkload::WideDcas => RuntimeConfig::cluster(locales).with_wide_pointers(),
    }
    .with_combining(combining);
    measure(cfg, Counted::Body, |_, m| {
        let shared = AtomicInt::new_on(0, 0);
        let op = |owner, ops| match workload {
            CombineWorkload::Fig3DistAm => mixed_ops(Variant::AtomicInt, ops, owner),
            CombineWorkload::WideDcas => read_write_exchange(owner, ops),
            CombineWorkload::SharedAtL0 => {
                for _ in 0..ops {
                    let _ = shared.read();
                }
            }
        };
        on_next_locale(m, 4, total_ops, op).into()
    })
}

/// Ablation A10: the versioned (seqlock) fast-read path on read-mostly
/// ABA mixes, fast path on vs off.
///
/// Each locale's tasks hammer a *shared* `AtomicAbaObject` owned by the
/// next locale (so readers genuinely race writers and torn windows /
/// fallbacks can occur): `read_pct`% of operations are `read_aba`, the
/// rest alternate an ABA compare-and-swap (snapshot + CAS) with a
/// `write_aba`. With the fast path off every read is a full DCAS round
/// trip (remote: an AM through the owner's progress service); with it on,
/// validated reads ride the one-sided GET cost model and only the writes
/// keep the DCAS — the `vread_fast`/`vread_retries`/`vread_fallbacks`
/// counters in the telemetry tell the story.
pub fn ablate_vread(locales: usize, total_ops: u64, read_pct: u32, fast: bool) -> Cell {
    assert!((1..100).contains(&read_pct), "read_pct must be 1..=99");
    let cfg = RuntimeConfig::cluster(locales).with_vread_fastpath(fast);
    // 90% read → every 10th op writes; 99% → every 100th.
    let period = (100 / (100 - read_pct)) as u64;
    measure(cfg, Counted::Body, |rt, m| {
        // One cell per owner locale, shared by every task targeting it.
        let cells: Vec<AtomicAbaObject<u64>> = (0..rt.num_locales())
            .map(|o| AtomicAbaObject::new_on(o as LocaleId, GlobalPtr::null()))
            .collect();
        let op = |owner: LocaleId, ops| {
            let cell = &cells[owner as usize];
            for i in 0..ops {
                if i % period == period - 1 {
                    if (i / period).is_multiple_of(2) {
                        let snap = cell.read_aba();
                        let _ = cell.compare_and_swap_aba(snap, GlobalPtr::null());
                    } else {
                        cell.write_aba(GlobalPtr::null());
                    }
                } else {
                    let _ = cell.read_aba();
                }
            }
        };
        on_next_locale(m, 4, total_ops, op).into()
    })
}

/// Which structure an A8 (pluggable-reclamation) measurement churns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A8Structure {
    /// Treiber stack (`LockFreeStack`).
    Stack,
    /// Michael–Scott queue (`MsQueue`).
    Queue,
    /// Harris ordered list (`LockFreeList`).
    List,
    /// Distributed hash map (`DistHashMap`).
    Map,
    /// Skip list (`LockFreeSkipList`; towers collapse to 1 under HP).
    SkipList,
    /// RCU resizable array (`RcuArray`; grow retires tables).
    RcuArray,
}

impl A8Structure {
    pub const ALL: [A8Structure; 6] = [
        A8Structure::Stack,
        A8Structure::Queue,
        A8Structure::List,
        A8Structure::Map,
        A8Structure::SkipList,
        A8Structure::RcuArray,
    ];

    pub fn label(self) -> &'static str {
        match self {
            A8Structure::Stack => "stack",
            A8Structure::Queue => "queue",
            A8Structure::List => "list",
            A8Structure::Map => "map",
            A8Structure::SkipList => "skiplist",
            A8Structure::RcuArray => "rcu-array",
        }
    }
}

/// The reclamation counters of one A8 measurement, and — for `stalled`
/// runs — how much garbage was outstanding while a task sat
/// forever-pinned (the number that separates HP from EBR).
pub struct ReclaimAblation {
    /// `Reclaimer::backend_name()` ("ebr" / "hp").
    pub backend: &'static str,
    /// Final counters after the quiescent `clear`.
    pub reclaim: pgas_nb::epoch::ReclaimSnapshot,
    /// Whether a stalled (forever-pinned) task was held during churn.
    pub stalled: bool,
    /// Deferred-but-not-reclaimed objects at the end of churn, while the
    /// staller was still pinned (0 for non-stalled runs).
    pub stalled_outstanding: u64,
    /// Objects reclaimed during churn despite the staller (0 for
    /// non-stalled runs).
    pub stalled_reclaimed: u64,
}

impl ReclaimAblation {
    /// The counters as the JSON object a `BENCH_results.json` A8 row
    /// carries under `reclaim`.
    pub fn to_json(&self) -> String {
        let s = &self.reclaim;
        format!(
            "{{\"backend\": {}, \"retired\": {}, \"reclaimed\": {}, \
             \"scans\": {}, \"hazard_protects\": {}, \"stalled\": {}, \
             \"stalled_outstanding\": {}, \"stalled_reclaimed\": {}}}",
            json::jstr(self.backend),
            s.objects_deferred,
            s.objects_reclaimed,
            s.advances,
            s.hazard_protects,
            self.stalled,
            self.stalled_outstanding,
            self.stalled_reclaimed,
        )
    }
}

/// The churn every A8 arm runs on a structure whose reclaimer is `em`.
/// With `stalled`, one guard pins before the churn and stays pinned until
/// the counters are read after it. Two tasks per locale each run
/// `op(guard, task, i, key)` for `i` in `0..ops_per_task` (`key` from a
/// deterministic per-task xorshift stream), with a `try_reclaim` every 32
/// ops. Afterwards `drain` empties the structure and `em` is cleared.
fn a8_churn<R: Reclaimer>(
    m: &mut Meter,
    em: &R,
    ops_per_task: u64,
    stalled: bool,
    drain: Option<&dyn Fn()>,
    op: impl Fn(&R::Guard<'_>, usize, u64, u16) + Sync,
) -> Cell {
    let (rt, tasks) = (m.rt, 2usize);
    let staller = stalled.then(|| {
        let g = em.register();
        g.pin();
        g
    });
    let sample = m.time(ops_per_task * (rt.num_locales() * tasks) as u64, || {
        rt.coforall_locales(|l| {
            rt.coforall_tasks(tasks, |t| {
                let t = l as usize * tasks + t;
                let tok = em.register();
                let mut h = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for i in 0..ops_per_task {
                    h ^= h << 13;
                    h ^= h >> 7;
                    h ^= h << 17;
                    op(&tok, t, i, (h.wrapping_add(t as u64) % 192) as u16);
                    if i % 32 == 0 {
                        em.try_reclaim();
                    }
                }
            });
        });
    });
    let (mut stalled_outstanding, mut stalled_reclaimed) = (0, 0);
    if let Some(g) = staller {
        let s = em.stats();
        stalled_outstanding = s.objects_deferred - s.objects_reclaimed;
        stalled_reclaimed = s.objects_reclaimed;
        g.unpin();
    }
    if let Some(drain) = drain {
        drain();
    }
    em.clear();
    let reclaim = em.stats();
    let backend = em.backend_name();
    assert_eq!(
        reclaim.objects_deferred, reclaim.objects_reclaimed,
        "A8 {backend}: conservation after clear"
    );
    Cell {
        reclaim: Some(ReclaimAblation {
            backend,
            reclaim,
            stalled,
            stalled_outstanding,
            stalled_reclaimed,
        }),
        ..sample.into()
    }
}

/// Ablation A8: the same churn workload on every structure under EBR vs
/// distributed hazard pointers. Two tasks per locale; each task performs
/// `ops_per_task` operations with periodic `try_reclaim` calls. With
/// `stalled`, one extra guard pins before the churn and never unpins
/// until it ends — EBR's limbo lists grow unboundedly behind it, while
/// HP keeps reclaiming everything unprotected (the per-structure,
/// multi-locale version of the Hart et al. trade-off A6 measures on a
/// plain chain).
pub fn ablate_reclaimer<R: Reclaimer>(
    locales: usize,
    structure: A8Structure,
    ops_per_task: u64,
    stalled: bool,
) -> Cell {
    let n = ops_per_task;
    measure(
        RuntimeConfig::cluster(locales),
        Counted::Nothing,
        |_, m| match structure {
            A8Structure::Stack => {
                let s = LockFreeStack::<u64, R>::with_reclaimer();
                let drain = || {
                    let tok = s.register();
                    while s.pop(&tok).is_some() {}
                };
                a8_churn(
                    m,
                    s.reclaimer(),
                    n,
                    stalled,
                    Some(&drain),
                    |tok, t, i, _| {
                        s.push(tok, t as u64 * n + i);
                        if i % 2 == 0 {
                            let _ = s.pop(tok);
                        }
                    },
                )
            }
            A8Structure::Queue => {
                let q = MsQueue::<u64, R>::with_reclaimer();
                let drain = || {
                    let tok = q.register();
                    while q.dequeue(&tok).is_some() {}
                };
                a8_churn(
                    m,
                    q.reclaimer(),
                    n,
                    stalled,
                    Some(&drain),
                    |tok, t, i, _| {
                        q.enqueue(tok, t as u64 * n + i);
                        if i % 2 == 0 {
                            let _ = q.dequeue(tok);
                        }
                    },
                )
            }
            A8Structure::List => {
                let l = LockFreeList::<u16, R>::with_reclaimer();
                a8_churn(m, l.reclaimer(), n, stalled, None, |tok, _, i, k| {
                    if i % 2 == 0 {
                        l.insert(tok, k);
                    } else {
                        l.remove(tok, k);
                    }
                })
            }
            A8Structure::Map => {
                let map = DistHashMap::<u16, u64, R>::with_reclaimer(32);
                a8_churn(m, map.reclaimer(), n, stalled, None, |tok, _, i, k| {
                    if i % 2 == 0 {
                        map.insert(tok, k, i);
                    } else {
                        map.remove(tok, &k);
                    }
                })
            }
            A8Structure::SkipList => {
                let s = LockFreeSkipList::<u16, R>::with_reclaimer();
                a8_churn(m, s.reclaimer(), n, stalled, None, |tok, _, i, k| {
                    if i % 2 == 0 {
                        s.insert(tok, k);
                    } else {
                        s.remove(tok, k);
                    }
                })
            }
            A8Structure::RcuArray => {
                let a = RcuArray::<R>::with_reclaimer(16, 256);
                a8_churn(m, a.reclaimer(), n, stalled, None, |tok, t, i, _| {
                    let idx = (i as usize * 7 + t) % 256;
                    if i % 16 == 0 {
                        a.grow(tok, a.len() + 8);
                    } else if i % 4 == 0 {
                        a.write(tok, idx, i);
                    } else {
                        let _ = a.read(tok, idx);
                    }
                })
            }
        },
    )
}

/// The point operations A11 preloads and drives, the same on both tiers.
trait PointMap: Sync {
    fn register(&self) -> Token<'_>;
    fn insert_bulk(&self, pairs: Vec<(u64, u64)>) -> usize;
    fn get(&self, tok: &Token<'_>, key: &u64) -> Option<u64>;
    fn insert(&self, tok: &Token<'_>, key: u64, value: u64) -> bool;
    fn remove(&self, tok: &Token<'_>, key: &u64) -> bool;
}

macro_rules! point_map {
    ($($map:ty),*) => {$(
        impl PointMap for $map {
            fn register(&self) -> Token<'_> {
                <$map>::register(self)
            }
            fn insert_bulk(&self, pairs: Vec<(u64, u64)>) -> usize {
                <$map>::insert_bulk(self, pairs)
            }
            fn get(&self, tok: &Token<'_>, key: &u64) -> Option<u64> {
                <$map>::get(self, tok, key)
            }
            fn insert(&self, tok: &Token<'_>, key: u64, value: u64) -> bool {
                <$map>::insert(self, tok, key, value)
            }
            fn remove(&self, tok: &Token<'_>, key: &u64) -> bool {
                <$map>::remove(self, tok, key)
            }
        }
    )*};
}

point_map!(ShardedHashMap<u64, u64>, DistHashMap<u64, u64>);

/// A11's preload: `keys` entries through the bulk path, in bounded
/// chunks so no tier holds a keys-sized `Vec`.
fn a11_preload(map: &impl PointMap, keys: u64) {
    const CHUNK: u64 = 1 << 16;
    for lo in (0..keys).step_by(CHUNK as usize) {
        map.insert_bulk((lo..(lo + CHUNK).min(keys)).map(|k| (k, k)).collect());
    }
}

/// A11's measured phase: two tasks per locale each issue `ops_per_task`
/// operations on `zipf`-sampled keys, `read_pct`% `get`, the rest
/// alternating `insert`/`remove` so the population stays put.
fn a11_drive(
    m: &mut Meter,
    map: &impl PointMap,
    zipf: &zipf::ZipfSampler,
    read_pct: u32,
    ops_per_task: u64,
) -> Sample {
    let (rt, tasks) = (m.rt, 2usize);
    m.time(ops_per_task * (rt.num_locales() * tasks) as u64, || {
        rt.coforall_locales(|l| {
            rt.coforall_tasks(tasks, |t| {
                let tok = map.register();
                let mut rng = StdRng::seed_from_u64(0xA11_0000 + ((l as u64) << 8) + t as u64);
                let mut toggle = false;
                for i in 0..ops_per_task {
                    let k = zipf.sample(&mut rng);
                    if rng.gen_range(0u32..100) < read_pct {
                        let _ = map.get(&tok, &k);
                    } else if toggle {
                        let _ = map.remove(&tok, &k);
                        toggle = false;
                    } else {
                        let _ = map.insert(&tok, k, i);
                        toggle = true;
                    }
                }
            });
        });
    })
}

/// Ablation A11: the global-view map tier vs the legacy flat map under
/// Zipfian point workloads.
///
/// Both tiers preload `keys` entries through their bulk path, then run a
/// mixed phase: two tasks on every locale each issue `ops_per_task`
/// operations on Zipf(θ)-sampled keys — `read_pct`% `get`, the rest
/// alternating `remove`/`insert` so the population stays put. Network
/// atomics are off and combining is on, which is the contrast the
/// follow-up paper draws: the legacy map's remote chain hops each pay an
/// AM round trip, while the sharded map runs locally-owned keys on CPU
/// atomics and ships exactly one combined AM per remote op. The bucket
/// budget is equal (legacy's table == sum of the sharded per-locale
/// tables), so the only variable is placement + routing. Sharded rows
/// carry the map's routing counters over the measured phase.
pub fn ablate_globalview(
    locales: usize,
    keys: u64,
    theta: f64,
    read_pct: u32,
    ops_per_task: u64,
    sharded: bool,
) -> Cell {
    let cfg = RuntimeConfig::cluster(locales)
        .without_network_atomics()
        .with_combining(true);
    let buckets_total = ((keys / 8).max(16) as usize).next_power_of_two();
    let zipf = zipf::ZipfSampler::new(keys, theta);
    measure(cfg, Counted::Body, |_, m| {
        if sharded {
            let map = ShardedHashMap::new((buckets_total / locales).max(1));
            a11_preload(&map, keys);
            let pre = map.shard_snapshot();
            let sample = a11_drive(m, &map, &zipf, read_pct, ops_per_task);
            let post = map.shard_snapshot();
            Cell {
                shard: Some(ShardSnapshot {
                    local_ops: post.local_ops - pre.local_ops,
                    remote_ops: post.remote_ops - pre.remote_ops,
                    bulk_local_items: post.bulk_local_items - pre.bulk_local_items,
                    bulk_remote_items: post.bulk_remote_items - pre.bulk_remote_items,
                }),
                ..sample.into()
            }
        } else {
            let map = DistHashMap::new(buckets_total);
            a11_preload(&map, keys);
            a11_drive(m, &map, &zipf, read_pct, ops_per_task).into()
        }
    })
}

/// The locale counts swept by the distributed figures.
pub const LOCALE_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
/// The task counts swept by the shared-memory panel of Fig. 3.
pub const TASK_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a11_sharded_beats_legacy_on_ams_and_time() {
        let keys = 1u64 << 12;
        let sharded = ablate_globalview(4, keys, 0.99, 90, 256, true);
        let legacy = ablate_globalview(4, keys, 0.99, 90, 256, false);
        let (s_ams, l_ams) = (
            sharded.telemetry.as_ref().expect("telemetry").comm.am_sent,
            legacy.telemetry.as_ref().expect("telemetry").comm.am_sent,
        );
        assert!(
            s_ams < l_ams,
            "sharded must send fewer AMs: {s_ams} vs {l_ams}"
        );
        assert_eq!(sharded.note, format!("AMs={s_ams}"));
        assert!(
            sharded.sample.vtime_ns < legacy.sample.vtime_ns,
            "sharded must be faster: {} vs {} vns",
            sharded.sample.vtime_ns,
            legacy.sample.vtime_ns
        );
        let snap = sharded.shard.expect("sharded rows carry a shard snapshot");
        assert!(snap.local_ops > 0 && snap.remote_ops > 0);
        // Measured phase only: the preload's bulk traffic is excluded.
        assert_eq!(snap.bulk_local_items + snap.bulk_remote_items, 0);
        assert_eq!(snap.local_ops + snap.remote_ops, sharded.sample.ops);
        assert!(legacy.shard.is_none());
    }

    #[test]
    fn fig3_samples_have_expected_costs() {
        let s = fig3_shared(2, 1024, Variant::AtomicInt, true).sample;
        assert_eq!(s.ops, 1024);
        // 512 ops/task in parallel: makespan ≈ ops-per-task × (nic + extra
        // read for CAS ops).
        let nic = RuntimeConfig::cluster(1).network.nic_atomic_ns;
        assert!(s.vtime_ns >= 512 * nic);
    }

    #[test]
    fn fig3_aba_is_cpu_bound_locally() {
        let aba = fig3_shared(1, 512, Variant::AtomicObjectAba, true).sample;
        let int = fig3_shared(1, 512, Variant::AtomicInt, true).sample;
        assert!(
            aba.vtime_ns < int.vtime_ns,
            "ABA opts out of the NIC: {} vs {}",
            aba.vtime_ns,
            int.vtime_ns
        );
    }

    #[test]
    fn fig_deletion_reclaims_everything() {
        let c = fig_deletion(2, true, 256, Some(64), 50);
        assert_eq!(c.sample.ops, 256);
        assert!(c.note.contains("reclaimed=256"), "{}", c.note);
    }

    #[test]
    fn fig7_is_flat_across_locales() {
        let s1 = fig7_read_only(1, true, 2, 512).sample;
        let s4 = fig7_read_only(4, true, 2, 512).sample;
        let ratio = s4.ns_per_op() / s1.ns_per_op();
        assert!(
            ratio < 1.5,
            "read-only per-op cost should be stable across locales \
             (got {:.2}x)",
            ratio
        );
    }

    #[test]
    fn scatter_beats_per_object_frees() {
        let with = ablate_scatter(4, 512, true);
        let without = ablate_scatter(4, 512, false);
        let (t_with, t_without) = (with.telemetry.unwrap(), without.telemetry.unwrap());
        assert!(t_with.comm.am_sent < t_without.comm.am_sent / 10);
        assert!(with.sample.vtime_ns < without.sample.vtime_ns);
        // The registry's latency half must have seen the drained lists.
        use pgas_nb::sim::telemetry::OpClass;
        assert!(t_with.class(OpClass::LimboDepth).count() > 0);
        assert!(t_with.class(OpClass::Reclaim).count() > 0);
    }

    #[test]
    fn combining_coalesces_am_traffic() {
        let combine = |on| {
            let c = ablate_combining(4, 2048, CombineWorkload::SharedAtL0, on);
            (c.sample, c.telemetry.expect("A7 rows carry telemetry"))
        };
        let (on, t_on) = combine(true);
        let (off, t_off) = combine(false);
        let (comm_on, comm_off) = (&t_on.comm, &t_off.comm);
        assert!(comm_on.combined_ops > 0, "combining layer must engage");
        assert!(
            comm_on.am_sent < comm_off.am_sent,
            "combining must coalesce AMs: {} vs {}",
            comm_on.am_sent,
            comm_off.am_sent
        );
        // Fewer is not enough: four tasks must keep forming real batches.
        // Every batch full reads 4.0; a combiner whose riders stop boarding
        // stays near 2 run after run. One run on a loaded two-core host
        // (this suite runs its tests in parallel) can dip below 2.5 while
        // batching works, so the median of three is judged.
        let mut ams = [comm_on.am_sent, 0, 0];
        for am in &mut ams[1..] {
            *am = combine(true).1.comm.am_sent;
        }
        ams.sort_unstable();
        let ratio = comm_off.am_sent as f64 / ams[1] as f64;
        assert!(
            ratio >= 2.5,
            "combining must cut AMs by 2.5x or more: {} off vs {:?} on ({ratio:.2}x)",
            comm_off.am_sent,
            ams
        );
        // Occupancy histograms come from the combining layer itself.
        use pgas_nb::sim::telemetry::OpClass;
        assert!(t_on.class(OpClass::CombineOccupancy).count() > 0);
        assert!(t_off.class(OpClass::CombineOccupancy).is_empty());
        assert!(
            on.vtime_ns < off.vtime_ns,
            "combining must be cheaper in virtual time: {} vs {}",
            on.vtime_ns,
            off.vtime_ns
        );
    }

    #[test]
    fn a8_hp_reclaims_under_stall_while_ebr_limbo_grows() {
        use pgas_nb::epoch::HazardReclaimer;
        let ebr = ablate_reclaimer::<EpochManager>(2, A8Structure::Stack, 256, true)
            .reclaim
            .expect("A8 rows carry reclaim counters");
        let hp = ablate_reclaimer::<HazardReclaimer>(2, A8Structure::Stack, 256, true)
            .reclaim
            .expect("A8 rows carry reclaim counters");
        assert_eq!(ebr.backend, "ebr");
        assert_eq!(hp.backend, "hp");
        assert_eq!(
            ebr.stalled_reclaimed, 0,
            "a forever-pinned task blocks every EBR advance"
        );
        assert!(
            ebr.stalled_outstanding > 0,
            "EBR limbo grows behind the stall"
        );
        assert!(
            hp.stalled_reclaimed > 0,
            "HP keeps reclaiming despite the stalled guard"
        );
        assert!(
            hp.stalled_outstanding < ebr.stalled_outstanding,
            "HP garbage stays bounded: {} vs EBR {}",
            hp.stalled_outstanding,
            ebr.stalled_outstanding
        );
        // Conservation holds for both (asserted inside the workload too).
        assert_eq!(ebr.reclaim.objects_deferred, ebr.reclaim.objects_reclaimed);
        assert!(hp.reclaim.hazard_protects > 0, "pops validated hazards");
    }

    #[test]
    fn a8_every_structure_runs_on_both_backends() {
        use pgas_nb::epoch::HazardReclaimer;
        let retired = |c: Cell| {
            c.reclaim
                .expect("reclaim counters")
                .reclaim
                .objects_deferred
        };
        for s in A8Structure::ALL {
            let e = retired(ablate_reclaimer::<EpochManager>(1, s, 64, false));
            let h = retired(ablate_reclaimer::<HazardReclaimer>(1, s, 64, false));
            assert!(e > 0, "{} ebr retires", s.label());
            assert!(h > 0, "{} hp retires", s.label());
        }
    }

    #[test]
    fn privatized_access_is_cheaper_distributed() {
        // Without network atomics the gap is local CPU read vs remote AM.
        let p = ablate_privatization(4, 256, true).sample;
        let s = ablate_privatization(4, 256, false).sample;
        assert!(
            p.vtime_ns * 10 <= s.vtime_ns,
            "privatized access should be far cheaper: {} vs {}",
            p.vtime_ns,
            s.vtime_ns
        );
    }
}
