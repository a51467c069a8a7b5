//! Workload implementations for the paper's evaluation (Figures 3–7) and
//! the DESIGN.md ablations, run by the `harness` binary.
//!
//! Because the host machine is not a 64-node Cray, scaling curves are
//! reported in **virtual time** (see `pgas_sim::vtime`): a deterministic
//! discrete-event cost model with Aries-class constants, driven by the
//! real concurrent execution of the algorithms. Wall-clock time is also
//! reported as a secondary column.

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

/// Wire the process-wide trace sink (if any) into a freshly built runtime.
fn traced(rt: Runtime) -> Runtime {
    if let Some(s) = TRACE_SINK.get() {
        rt.set_telemetry_sink(Arc::clone(s));
    }
    rt
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

/// Run `body` as the measured region of a workload of `ops` operations,
/// timed on the wall clock and on the calling task's virtual clock.
fn timed(ops: u64, body: impl FnOnce()) -> Sample {
    let wall = Instant::now();
    let t0 = vtime::now();
    body();
    Sample {
        vtime_ns: vtime::now() - t0,
        wall_ns: wall.elapsed().as_nanos() as u64,
        ops,
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

/// The 25/25/25/25 read/write/CAS/exchange mix from §III-A, one task,
/// operating on task-private local cells (the paper's overhead
/// microbenchmark: independent cells isolate abstraction overhead from
/// contention).
fn mixed_ops(variant: Variant, ops: u64) {
    let rt = current_runtime();
    match variant {
        Variant::AtomicInt => {
            let cell = AtomicInt::new(0);
            for i in 0..ops {
                match i % 4 {
                    0 => {
                        let _ = cell.read();
                    }
                    1 => cell.write(i),
                    2 => {
                        let cur = cell.read();
                        let _ = cell.compare_and_swap(cur, i);
                    }
                    _ => {
                        let _ = cell.exchange(i);
                    }
                }
            }
        }
        Variant::AtomicObject => {
            let a = alloc_local(&rt, 0u64);
            let b = alloc_local(&rt, 1u64);
            let cell = AtomicObject::new(a);
            for i in 0..ops {
                let target = if i % 2 == 0 { a } else { b };
                match i % 4 {
                    0 => {
                        let _ = cell.read();
                    }
                    1 => cell.write(target),
                    2 => {
                        let cur = cell.read();
                        let _ = cell.compare_and_swap(cur, target);
                    }
                    _ => {
                        let _ = cell.exchange(target);
                    }
                }
            }
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        }
        Variant::AtomicObjectAba => {
            let a = alloc_local(&rt, 0u64);
            let b = alloc_local(&rt, 1u64);
            let cell = AtomicAbaObject::new(a);
            for i in 0..ops {
                let target = if i % 2 == 0 { a } else { b };
                match i % 4 {
                    0 => {
                        let _ = cell.read_aba();
                    }
                    1 => cell.write_aba(target),
                    2 => {
                        let cur = cell.read_aba();
                        let _ = cell.compare_and_swap_aba(cur, target);
                    }
                    _ => {
                        let _ = cell.exchange_aba(target);
                    }
                }
            }
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        }
    }
}

/// Fig. 3, shared-memory panel: strong scaling over `tasks` on one
/// locale; `total_ops` divided among the tasks.
pub fn fig3_shared(rt: &Runtime, tasks: usize, total_ops: u64, variant: Variant) -> Sample {
    let per_task = total_ops / tasks as u64;
    rt.run(|| {
        timed(per_task * tasks as u64, || {
            rt.coforall_tasks(tasks, |_| mixed_ops(variant, per_task));
        })
    })
}

/// Fig. 3, distributed panel: strong scaling over the runtime's locales
/// with `tasks_per_locale` tasks each; `total_ops` divided among all
/// tasks.
pub fn fig3_dist(
    rt: &Runtime,
    tasks_per_locale: usize,
    total_ops: u64,
    variant: Variant,
) -> Sample {
    let n_tasks = (rt.num_locales() * tasks_per_locale) as u64;
    let per_task = total_ops / n_tasks;
    rt.run(|| {
        timed(per_task * n_tasks, || {
            rt.coforall_locales(|_| {
                rt.coforall_tasks(tasks_per_locale, |_| mixed_ops(variant, per_task));
            });
        })
    })
}

/// Figs. 4 & 5 (Listing 5): distributed objects, each task pins, defers
/// the visited object, unpins, and calls `tryReclaim` every
/// `per_iteration` operations (`None` = never during the loop — Fig. 6's
/// regime). Returns the sample over the deletion loop plus the final
/// `clear`, excluding allocation.
pub fn fig_deletion(
    rt: &Runtime,
    num_objects: usize,
    per_iteration: Option<u64>,
    remote_percent: u32,
) -> (Sample, pgas_nb::epoch::ReclaimSnapshot) {
    let locales = rt.num_locales();
    rt.run(|| {
        let em = EpochManager::new();
        let rt_h = current_runtime();
        // Pre-allocate objects. Index i is visited by a task on locale
        // i % L (cyclic); with probability remote_percent/100 the object
        // lives on a random *other* locale, else on the visiting locale.
        let mut rng = StdRng::seed_from_u64(0xF16);
        let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
            .map(|i| {
                let visiting = (i % locales) as LocaleId;
                let owner = if locales > 1 && rng.gen_range(0u32..100) < remote_percent {
                    let mut o = rng.gen_range(0..locales) as LocaleId;
                    while o == visiting {
                        o = rng.gen_range(0..locales) as LocaleId;
                    }
                    o
                } else {
                    visiting
                };
                alloc_on(&rt_h, owner, i as u64)
            })
            .collect();

        let sample = timed(num_objects as u64, || {
            rt.forall_dist(
                num_objects,
                |_, _| (em.register(), 0u64),
                |(tok, m), i| {
                    tok.pin();
                    tok.defer_delete(objs[i]);
                    tok.unpin();
                    *m += 1;
                    if let Some(k) = per_iteration {
                        if *m % k == 0 {
                            tok.try_reclaim();
                        }
                    }
                },
            );
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0, "reclamation must be complete");
        (sample, em.stats())
    })
}

/// Fig. 7: read-only workload — pin/unpin per iteration, no deletion.
/// Weak scaling: `iters_per_task` per task on every locale.
pub fn fig7_read_only(rt: &Runtime, tasks_per_locale: usize, iters_per_task: u64) -> Sample {
    let ops = (rt.num_locales() * tasks_per_locale) as u64 * iters_per_task;
    rt.run(|| {
        timed(ops, || {
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
    })
}

/// Ablation A1: the Fig. 6 workload at 100% remote objects, with the
/// scatter-list bulk free disabled (one active message per object).
pub fn ablate_scatter(
    rt: &Runtime,
    num_objects: usize,
    scatter: bool,
) -> (Sample, TelemetrySnapshot) {
    let locales = rt.num_locales();
    rt.run(|| {
        let em = EpochManager::new();
        em.set_scatter(scatter);
        let rt_h = current_runtime();
        let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
            .map(|i| {
                let visiting = (i % locales) as LocaleId;
                let owner = ((visiting as usize + 1) % locales) as LocaleId; // always remote
                alloc_on(&rt_h, owner, i as u64)
            })
            .collect();
        {
            let tok = em.register();
            tok.pin();
            for &o in &objs {
                tok.defer_delete(o);
            }
            tok.unpin();
        }
        rt.reset_metrics();
        let sample = timed(num_objects as u64, || em.clear());
        assert_eq!(rt.live_objects(), 0);
        (sample, rt.total_telemetry())
    })
}

/// Ablation A2: privatized (zero-communication) epoch-cache access vs a
/// single shared instance on locale 0 that every pin consults remotely.
pub fn ablate_privatization(rt: &Runtime, iters_per_task: u64, privatized: bool) -> Sample {
    let tasks = 2;
    rt.run(|| {
        // Setup (instance construction) is excluded from the measurement.
        let caches = pgas_nb::sim::Privatized::new(&current_runtime(), |l| AtomicInt::new_on(l, 1));
        let shared = AtomicInt::new_on(0, 1);
        timed((rt.num_locales() * tasks) as u64 * iters_per_task, || {
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
    })
}

/// Ablation A3: the Fig. 5 regime (tryReclaim every iteration) with the
/// first-come-first-serve election enabled vs disabled (every caller
/// scans).
pub fn ablate_election(rt: &Runtime, num_objects: usize, elected: bool) -> Sample {
    rt.run(|| {
        let em = EpochManager::new();
        let rt_h = current_runtime();
        let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
            .map(|i| alloc_local(&rt_h, i as u64))
            .collect();
        let sample = timed(num_objects as u64, || {
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
        });
        assert_eq!(rt.live_objects(), 0);
        sample
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
/// old one retired.
pub fn ablate_reclamation_scheme<R: Reclaimer>(
    traversals: u64,
    chain_len: usize,
    writes_every: u64,
) -> (Sample, u64) {
    let rt = traced(Runtime::new(RuntimeConfig::shared_memory()));
    rt.run(|| {
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
        let sample = timed(traversals, || {
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
            // A hazard-pointer backend keeps its participant records on the
            // runtime's heap until it is dropped.
            drop(em);
            // Quiescent teardown: free the remaining chain.
            let mut cur = head_cell.read();
            while !cur.is_null() {
                let next = unsafe { cur.deref() }.next.read();
                unsafe { pgas_nb::sim::free(&rt_h, cur) };
                cur = next;
            }
        });
        assert_eq!(rt.live_objects(), 0);
        (sample, reclaimed)
    })
}

/// Ablation A5: `LocalEpochManager` vs `EpochManager` (`R`) on a
/// single-locale workload — what the shared-memory-optimized variant saves
/// (no global epoch object, no cross-locale scan). Returns the sample and
/// the backend's epoch advances.
pub fn ablate_local_manager<R: Reclaimer>(num_objects: usize) -> (Sample, u64) {
    let rt = traced(Runtime::new(RuntimeConfig::cluster(1)));
    rt.run(|| {
        let rt_h = current_runtime();
        let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
            .map(|i| alloc_local(&rt_h, i as u64))
            .collect();
        let mut advances = 0;
        let sample = timed(num_objects as u64, || {
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
        assert_eq!(rt.live_objects(), 0);
        (sample, advances)
    })
}

/// Ablation A4: *remote* `AtomicObject` operations under forced wide
/// pointers (the > 2^16-locale fallback, DCAS + active messages) vs the
/// compressed representation (single-word RDMA atomics). Each locale's
/// tasks hammer cells owned by the *next* locale, so the wide variant
/// funnels through progress threads while the compressed one rides the
/// NIC one-sidedly.
pub fn ablate_wide(locales: usize, total_ops: u64, wide: bool) -> Sample {
    let cfg = if wide {
        RuntimeConfig::cluster(locales).with_wide_pointers()
    } else {
        RuntimeConfig::cluster(locales)
    };
    let rt = traced(Runtime::new(cfg));
    let tasks = 2usize;
    let n_tasks = (locales * tasks) as u64;
    let per_task = (total_ops / n_tasks).max(1);
    rt.run(|| {
        timed(per_task * n_tasks, || {
            rt.coforall_locales(|l| {
                let owner = ((l as usize + 1) % rt.num_locales()) as LocaleId;
                rt.coforall_tasks(tasks, |_| {
                    let cell = AtomicObject::<u64>::new_on(owner, GlobalPtr::null());
                    for i in 0..per_task {
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
                });
            });
        })
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
) -> (Sample, TelemetrySnapshot) {
    let cfg = match workload {
        CombineWorkload::Fig3DistAm | CombineWorkload::SharedAtL0 => {
            RuntimeConfig::cluster(locales).without_network_atomics()
        }
        CombineWorkload::WideDcas => RuntimeConfig::cluster(locales).with_wide_pointers(),
    }
    .with_combining(combining);
    let rt = traced(Runtime::new(cfg));
    let tasks = 4usize;
    let n_tasks = (locales * tasks) as u64;
    let per_task = (total_ops / n_tasks).max(1);
    rt.run(|| {
        let shared = AtomicInt::new_on(0, 0);
        rt.reset_metrics();
        let sample = timed(per_task * n_tasks, || {
            rt.coforall_locales(|l| {
                let owner = ((l as usize + 1) % rt.num_locales()) as LocaleId;
                rt.coforall_tasks(tasks, |_| match workload {
                    CombineWorkload::Fig3DistAm => {
                        let cell = AtomicInt::new_on(owner, 0);
                        for i in 0..per_task {
                            match i % 4 {
                                0 => {
                                    let _ = cell.read();
                                }
                                1 => cell.write(i),
                                2 => {
                                    let cur = cell.read();
                                    let _ = cell.compare_and_swap(cur, i);
                                }
                                _ => {
                                    let _ = cell.exchange(i);
                                }
                            }
                        }
                    }
                    CombineWorkload::WideDcas => {
                        let cell = AtomicObject::<u64>::new_on(owner, GlobalPtr::null());
                        for i in 0..per_task {
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
                    CombineWorkload::SharedAtL0 => {
                        for _ in 0..per_task {
                            let _ = shared.read();
                        }
                    }
                });
            });
        });
        (sample, rt.total_telemetry())
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
/// counters in the returned snapshot tell the story.
pub fn ablate_vread(
    locales: usize,
    total_ops: u64,
    read_pct: u32,
    fast: bool,
) -> (Sample, TelemetrySnapshot) {
    assert!((1..100).contains(&read_pct), "read_pct must be 1..=99");
    let cfg = RuntimeConfig::cluster(locales).with_vread_fastpath(fast);
    let rt = traced(Runtime::new(cfg));
    let tasks = 4usize;
    let n_tasks = (locales * tasks) as u64;
    let per_task = (total_ops / n_tasks).max(1);
    // 90% read → every 10th op writes; 99% → every 100th.
    let period = (100 / (100 - read_pct)) as u64;
    rt.run(|| {
        // One cell per owner locale, shared by every task targeting it.
        let cells: Vec<AtomicAbaObject<u64>> = (0..rt.num_locales())
            .map(|o| AtomicAbaObject::new_on(o as LocaleId, GlobalPtr::null()))
            .collect();
        rt.reset_metrics();
        let sample = timed(per_task * n_tasks, || {
            rt.coforall_locales(|l| {
                let owner = (l as usize + 1) % rt.num_locales();
                let cell = &cells[owner];
                rt.coforall_tasks(tasks, |_| {
                    for i in 0..per_task {
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
                });
            });
        });
        (sample, rt.total_telemetry())
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

/// Result of one A8 measurement: timing plus the backend's reclamation
/// counters, and — for `stalled` runs — how much garbage was outstanding
/// while a task sat forever-pinned (the number that separates HP from
/// EBR).
pub struct ReclaimAblation {
    pub sample: Sample,
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

/// Churn phase shared by every A8 arm: optionally park a forever-pinned
/// guard, run `churn` on every task, and snapshot the backend's counters
/// *while the staller is still pinned*.
fn a8_drive<R: Reclaimer>(
    rt: &Runtime,
    em: &R,
    tasks: usize,
    ops: u64,
    stalled: bool,
    churn: impl Fn(usize) + Sync,
) -> (Sample, u64, u64) {
    let staller = if stalled {
        let g = em.register();
        g.pin();
        Some(g)
    } else {
        None
    };
    let sample = timed(ops, || {
        rt.coforall_locales(|l| {
            rt.coforall_tasks(tasks, |t| churn(l as usize * tasks + t));
        });
    });
    let (mut outstanding, mut reclaimed_during) = (0, 0);
    if stalled {
        let s = em.stats();
        outstanding = s.objects_deferred - s.objects_reclaimed;
        reclaimed_during = s.objects_reclaimed;
    }
    if let Some(g) = staller {
        g.unpin();
        drop(g);
    }
    (sample, outstanding, reclaimed_during)
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
) -> ReclaimAblation {
    let rt = traced(Runtime::new(RuntimeConfig::cluster(locales)));
    let tasks = 2usize;
    let total_ops = ops_per_task * (locales * tasks) as u64;
    // Deterministic per-task key stream (xorshift on the task index).
    let key = |t: usize, h: &mut u64| -> u16 {
        *h ^= *h << 13;
        *h ^= *h >> 7;
        *h ^= *h << 17;
        ((*h).wrapping_add(t as u64) % 192) as u16
    };
    let r = rt.run(|| {
        let (sample, outstanding, during, backend, reclaim);
        match structure {
            A8Structure::Stack => {
                let s = LockFreeStack::<u64, R>::with_reclaimer();
                (sample, outstanding, during) =
                    a8_drive(&rt, s.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = s.register();
                        for i in 0..ops_per_task {
                            s.push(&tok, t as u64 * ops_per_task + i);
                            if i % 2 == 0 {
                                let _ = s.pop(&tok);
                            }
                            if i % 32 == 0 {
                                s.try_reclaim();
                            }
                        }
                    });
                {
                    let tok = s.register();
                    while s.pop(&tok).is_some() {}
                }
                s.clear_reclaim();
                backend = s.reclaimer().backend_name();
                reclaim = s.reclaimer().stats();
            }
            A8Structure::Queue => {
                let q = MsQueue::<u64, R>::with_reclaimer();
                (sample, outstanding, during) =
                    a8_drive(&rt, q.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = q.register();
                        for i in 0..ops_per_task {
                            q.enqueue(&tok, t as u64 * ops_per_task + i);
                            if i % 2 == 0 {
                                let _ = q.dequeue(&tok);
                            }
                            if i % 32 == 0 {
                                q.try_reclaim();
                            }
                        }
                    });
                {
                    let tok = q.register();
                    while q.dequeue(&tok).is_some() {}
                }
                q.clear_reclaim();
                backend = q.reclaimer().backend_name();
                reclaim = q.reclaimer().stats();
            }
            A8Structure::List => {
                let l = LockFreeList::<u16, R>::with_reclaimer();
                (sample, outstanding, during) =
                    a8_drive(&rt, l.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = l.register();
                        let mut h = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..ops_per_task {
                            let k = key(t, &mut h);
                            if i % 2 == 0 {
                                l.insert(&tok, k);
                            } else {
                                l.remove(&tok, k);
                            }
                            if i % 32 == 0 {
                                l.try_reclaim();
                            }
                        }
                    });
                l.clear_reclaim();
                backend = l.reclaimer().backend_name();
                reclaim = l.reclaimer().stats();
            }
            A8Structure::Map => {
                let m = DistHashMap::<u16, u64, R>::with_reclaimer(32);
                (sample, outstanding, during) =
                    a8_drive(&rt, m.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = m.register();
                        let mut h = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..ops_per_task {
                            let k = key(t, &mut h);
                            if i % 2 == 0 {
                                m.insert(&tok, k, i);
                            } else {
                                m.remove(&tok, &k);
                            }
                            if i % 32 == 0 {
                                m.try_reclaim();
                            }
                        }
                    });
                m.clear_reclaim();
                backend = m.reclaimer().backend_name();
                reclaim = m.reclaimer().stats();
            }
            A8Structure::SkipList => {
                let s = LockFreeSkipList::<u16, R>::with_reclaimer();
                (sample, outstanding, during) =
                    a8_drive(&rt, s.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = s.register();
                        let mut h = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..ops_per_task {
                            let k = key(t, &mut h);
                            if i % 2 == 0 {
                                s.insert(&tok, k);
                            } else {
                                s.remove(&tok, k);
                            }
                            if i % 32 == 0 {
                                s.try_reclaim();
                            }
                        }
                    });
                s.clear_reclaim();
                backend = s.reclaimer().backend_name();
                reclaim = s.reclaimer().stats();
            }
            A8Structure::RcuArray => {
                let a = RcuArray::<R>::with_reclaimer(16, 256);
                (sample, outstanding, during) =
                    a8_drive(&rt, a.reclaimer(), tasks, total_ops, stalled, |t| {
                        let tok = a.register();
                        for i in 0..ops_per_task {
                            let idx = (i as usize * 7 + t) % 256;
                            if i % 16 == 0 {
                                a.grow(&tok, a.len() + 8);
                            } else if i % 4 == 0 {
                                a.write(&tok, idx, i);
                            } else {
                                let _ = a.read(&tok, idx);
                            }
                            if i % 32 == 0 {
                                a.try_reclaim();
                            }
                        }
                    });
                a.clear_reclaim();
                backend = a.reclaimer().backend_name();
                reclaim = a.reclaimer().stats();
            }
        }
        assert_eq!(
            reclaim.objects_deferred,
            reclaim.objects_reclaimed,
            "A8 {} {backend}: conservation after clear",
            structure.label()
        );
        ReclaimAblation {
            sample,
            backend,
            reclaim,
            stalled,
            stalled_outstanding: outstanding,
            stalled_reclaimed: during,
        }
    });
    assert_eq!(rt.live_objects(), 0, "A8 {} leaked", structure.label());
    r
}

/// One measured A11 cell: timing, full telemetry, and (for the sharded
/// tier) the map's routing counters over the measured phase only.
pub struct GlobalViewCell {
    /// Virtual/wall timing of the measured mixed phase.
    pub sample: Sample,
    /// Comm counters + per-class latency registry for the measured phase.
    pub telemetry: TelemetrySnapshot,
    /// Sharded rows: the [`ShardSnapshot`] delta across the measured
    /// phase (preload traffic excluded). `None` for the legacy tier.
    pub shard: Option<ShardSnapshot>,
}

/// Ablation A11: the global-view map tier vs the legacy flat map under
/// Zipfian point workloads.
///
/// Both tiers preload `keys` entries through their bulk path, then run a
/// mixed phase: `tasks_per_locale` tasks on every locale each issue
/// `ops_per_task` operations on Zipf(θ)-sampled keys — `read_pct`% `get`,
/// the rest alternating `remove`/`insert` so the population stays put.
/// Network atomics are off and combining is on, which is the contrast the
/// follow-up paper draws: the legacy map's remote chain hops each pay an
/// AM round trip, while the sharded map runs locally-owned keys on CPU
/// atomics and ships exactly one combined AM per remote op. The bucket
/// budget is equal (legacy's table == sum of the sharded per-locale
/// tables), so the only variable is placement + routing.
pub fn ablate_globalview(
    locales: usize,
    keys: u64,
    theta: f64,
    read_pct: u32,
    ops_per_task: u64,
    sharded: bool,
) -> GlobalViewCell {
    let rt = traced(Runtime::new(
        RuntimeConfig::cluster(locales)
            .without_network_atomics()
            .with_combining(true),
    ));
    let tasks = 2usize;
    let buckets_total = ((keys / 8).max(16) as usize).next_power_of_two();
    let zipf = Arc::new(zipf::ZipfSampler::new(keys, theta));
    // The measured per-task loop, identical for both tiers: only the
    // get/insert/remove closures differ.
    let drive = |l: LocaleId,
                 t: usize,
                 get: &dyn Fn(u64),
                 insert: &dyn Fn(u64, u64),
                 remove: &dyn Fn(u64)| {
        let mut rng = StdRng::seed_from_u64(0xA11_0000 + ((l as u64) << 8) + t as u64);
        let mut toggle = false;
        for i in 0..ops_per_task {
            let k = zipf.sample(&mut rng);
            if rng.gen_range(0u32..100) < read_pct {
                get(k);
            } else if toggle {
                remove(k);
                toggle = false;
            } else {
                insert(k, i);
                toggle = true;
            }
        }
    };
    let ops = ops_per_task * (locales * tasks) as u64;
    let cell = rt.run(|| {
        // Preload in bounded chunks so no tier holds a keys-sized Vec.
        let chunk = 1usize << 16;
        if sharded {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new((buckets_total / locales).max(1));
            let mut next = 0u64;
            while next < keys {
                let hi = (next + chunk as u64).min(keys);
                m.insert_bulk((next..hi).map(|k| (k, k)).collect());
                next = hi;
            }
            let pre = m.shard_snapshot();
            rt.reset_metrics();
            let sample = timed(ops, || {
                rt.coforall_locales(|l| {
                    rt.coforall_tasks(tasks, |t| {
                        let tok = m.register();
                        drive(
                            l,
                            t,
                            &|k| {
                                let _ = m.get(&tok, &k);
                            },
                            &|k, v| {
                                let _ = m.insert(&tok, k, v);
                            },
                            &|k| {
                                let _ = m.remove(&tok, &k);
                            },
                        );
                    });
                });
            });
            let post = m.shard_snapshot();
            let cell = GlobalViewCell {
                sample,
                telemetry: rt.total_telemetry(),
                shard: Some(ShardSnapshot {
                    local_ops: post.local_ops - pre.local_ops,
                    remote_ops: post.remote_ops - pre.remote_ops,
                    bulk_local_items: post.bulk_local_items - pre.bulk_local_items,
                    bulk_remote_items: post.bulk_remote_items - pre.bulk_remote_items,
                    rebalances: post.rebalances - pre.rebalances,
                    moved_keys: post.moved_keys - pre.moved_keys,
                    active_shards: post.active_shards,
                    generation: post.generation,
                }),
            };
            m.clear_reclaim();
            cell
        } else {
            let m: DistHashMap<u64, u64> = DistHashMap::new(buckets_total);
            let mut next = 0u64;
            while next < keys {
                let hi = (next + chunk as u64).min(keys);
                m.insert_bulk((next..hi).map(|k| (k, k)).collect());
                next = hi;
            }
            rt.reset_metrics();
            let sample = timed(ops, || {
                rt.coforall_locales(|l| {
                    rt.coforall_tasks(tasks, |t| {
                        let tok = m.register();
                        drive(
                            l,
                            t,
                            &|k| {
                                let _ = m.get(&tok, &k);
                            },
                            &|k, v| {
                                let _ = m.insert(&tok, k, v);
                            },
                            &|k| {
                                let _ = m.remove(&tok, &k);
                            },
                        );
                    });
                });
            });
            let cell = GlobalViewCell {
                sample,
                telemetry: rt.total_telemetry(),
                shard: None,
            };
            m.clear_reclaim();
            cell
        }
    });
    assert_eq!(rt.live_objects(), 0, "A11 leaked objects");
    cell
}

/// Build a runtime for a figure measurement.
pub fn runtime(locales: usize, network_atomics: bool) -> Runtime {
    let cfg = if network_atomics {
        RuntimeConfig::cluster(locales)
    } else {
        RuntimeConfig::cluster(locales).without_network_atomics()
    };
    traced(Runtime::new(cfg))
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
        assert!(
            sharded.telemetry.comm.am_sent < legacy.telemetry.comm.am_sent,
            "sharded must send fewer AMs: {} vs {}",
            sharded.telemetry.comm.am_sent,
            legacy.telemetry.comm.am_sent
        );
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
        let rt = runtime(1, true);
        let s = fig3_shared(&rt, 2, 1024, Variant::AtomicInt);
        assert_eq!(s.ops, 1024);
        // 512 ops/task in parallel: makespan ≈ ops-per-task × (nic + extra
        // read for CAS ops).
        assert!(s.vtime_ns >= 512 * rt.config.network.nic_atomic_ns);
    }

    #[test]
    fn fig3_aba_is_cpu_bound_locally() {
        let rt = runtime(1, true);
        let aba = fig3_shared(&rt, 1, 512, Variant::AtomicObjectAba);
        let int = fig3_shared(&rt, 1, 512, Variant::AtomicInt);
        assert!(
            aba.vtime_ns < int.vtime_ns,
            "ABA opts out of the NIC: {} vs {}",
            aba.vtime_ns,
            int.vtime_ns
        );
    }

    #[test]
    fn fig_deletion_reclaims_everything() {
        let rt = runtime(2, true);
        let (s, stats) = fig_deletion(&rt, 256, Some(64), 50);
        assert_eq!(s.ops, 256);
        assert_eq!(stats.objects_reclaimed, 256);
    }

    #[test]
    fn fig7_is_flat_across_locales() {
        let s1 = fig7_read_only(&runtime(1, true), 2, 512);
        let s4 = fig7_read_only(&runtime(4, true), 2, 512);
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
        let rt = runtime(4, true);
        let (with, t_with) = ablate_scatter(&rt, 512, true);
        let rt = runtime(4, true);
        let (without, t_without) = ablate_scatter(&rt, 512, false);
        assert!(t_with.comm.am_sent < t_without.comm.am_sent / 10);
        assert!(with.vtime_ns < without.vtime_ns);
        // The registry's latency half must have seen the drained lists.
        use pgas_nb::sim::telemetry::OpClass;
        assert!(t_with.class(OpClass::LimboDepth).count() > 0);
        assert!(t_with.class(OpClass::Reclaim).count() > 0);
    }

    #[test]
    fn combining_coalesces_am_traffic() {
        let (on, t_on) = ablate_combining(4, 2048, CombineWorkload::SharedAtL0, true);
        let (off, t_off) = ablate_combining(4, 2048, CombineWorkload::SharedAtL0, false);
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
            *am = ablate_combining(4, 2048, CombineWorkload::SharedAtL0, true)
                .1
                .comm
                .am_sent;
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
        let ebr = ablate_reclaimer::<EpochManager>(2, A8Structure::Stack, 256, true);
        let hp = ablate_reclaimer::<HazardReclaimer>(2, A8Structure::Stack, 256, true);
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
        for s in A8Structure::ALL {
            let e = ablate_reclaimer::<EpochManager>(1, s, 64, false);
            let h = ablate_reclaimer::<HazardReclaimer>(1, s, 64, false);
            assert!(e.reclaim.objects_deferred > 0, "{} ebr retires", s.label());
            assert!(h.reclaim.objects_deferred > 0, "{} hp retires", s.label());
        }
    }

    #[test]
    fn privatized_access_is_cheaper_distributed() {
        // Without network atomics the gap is local CPU read vs remote AM.
        let rt = runtime(4, false);
        let p = ablate_privatization(&rt, 256, true);
        let rt = runtime(4, false);
        let s = ablate_privatization(&rt, 256, false);
        assert!(
            p.vtime_ns * 10 <= s.vtime_ns,
            "privatized access should be far cheaper: {} vs {}",
            p.vtime_ns,
            s.vtime_ns
        );
    }
}
