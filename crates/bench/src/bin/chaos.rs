//! Chaos harness: runs the non-blocking structures under seeded fault
//! plans and checks the progress/safety invariants the paper's algorithms
//! promise (no lost or reordered operations, no use-after-free, monotone
//! ABA counters, progress despite a stalled pinned task).
//!
//! ```text
//! cargo run -p pgas-bench --release --bin chaos -- --seed 42
//! cargo run -p pgas-bench --release --bin chaos -- --seed 7 --workloads queue,map,smap --quick
//! ```
//!
//! `map` drives the one-sided `DistHashMap`, whose operations run where
//! they are called; `smap` drives the same script on a `ShardedHashMap`,
//! whose remote operations run as handlers on the owner's progress thread
//! under its standing reclaimer registration.
//!
//! Every cell of the plan × workload matrix prints one row with the
//! injection counters and a verdict; the binary exits nonzero if any cell
//! fails. Same-seed reruns inject at identical decision points, so a
//! failing cell reproduces with its printed seed (see DESIGN.md, "Fault
//! model & invariants"). A failing cell additionally dumps its buffered
//! span trace to `target/chaos_trace_<plan>_<workload>_seed<N>.jsonl`
//! (most recent `TRACE_RING_CAPACITY` spans), ready for
//! `trace_analyze`.
//!
//! `--reclaimer ebr|hp` swaps the memory-reclamation backend under every
//! workload (default: epoch-based). The stalled-task plan checks opposite
//! invariants per backend: EBR must be *holding* garbage behind the pin,
//! HP must have kept *reclaiming* despite it.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pgas_nb::epoch::ReclaimSnapshot;
use pgas_nb::prelude::*;
use pgas_nb::sim::faults::invariants::InvariantChecker;
use pgas_nb::sim::{faults, telemetry, FaultPlan, RetryClass, RetryPolicy, TelemetrySnapshot};

const LOCALES: usize = 4;
const TASKS_PER_LOCALE: usize = 2;
const WORKERS: u64 = (LOCALES * TASKS_PER_LOCALE) as u64;
/// Consumer id used for the single-task drain at the end of a queue cell.
const DRAIN_CONSUMER: u64 = 0xFFFF;
/// Spans buffered per cell for the failure dump (oldest evicted first).
const TRACE_RING_CAPACITY: usize = 65_536;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Queue,
    Stack,
    Map,
    ShardedMap,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Queue,
        Workload::Stack,
        Workload::Map,
        Workload::ShardedMap,
    ];

    fn label(self) -> &'static str {
        match self {
            Workload::Queue => "queue",
            Workload::Stack => "stack",
            Workload::Map => "map",
            Workload::ShardedMap => "smap",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Ebr,
    Hp,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Ebr => "ebr",
            Backend::Hp => "hp",
        }
    }
}

struct Scale {
    /// Structure operations per worker task.
    ops: u64,
    /// Iterations of the deterministic fingerprint cell.
    repro_ops: u64,
}

const FULL: Scale = Scale {
    ops: 400,
    repro_ops: 400,
};
const QUICK: Scale = Scale {
    ops: 120,
    repro_ops: 200,
};

/// The adversarial plans. Each gets a distinct seed offset so "--seed N"
/// reseeds the whole matrix coherently.
fn build_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "delay",
            FaultPlan::seeded(seed.wrapping_add(1)).with_delays(300, 5_000),
        ),
        (
            "drop+retry",
            FaultPlan::seeded(seed.wrapping_add(2))
                .with_drops(250)
                .with_retry(RetryPolicy {
                    timeout_ns: 10_000,
                    max_attempts: 4,
                    backoff_base_ns: 500,
                    backoff_cap_ns: 8_000,
                }),
        ),
        (
            "dup",
            FaultPlan::seeded(seed.wrapping_add(3)).with_dups(300),
        ),
        (
            "straggler",
            FaultPlan::seeded(seed.wrapping_add(4))
                .with_straggler(1, 8)
                .with_delays(100, 2_000),
        ),
        (
            "stall",
            FaultPlan::seeded(seed.wrapping_add(5))
                .with_stalled_task(1)
                .with_delays(200, 3_000),
        ),
    ]
}

fn cfg(plan: &FaultPlan) -> RuntimeConfig {
    // Network atomics off: every remote operation takes the AM path, which
    // is where drops/dups/delays bite hardest. The versioned fast-read
    // path stays on so every `read_aba` in the matrix exercises the
    // optimistic two-load window under injected drops/delays/dups too
    // (its attempts are Idempotent-class, so the retry machinery applies).
    RuntimeConfig::cluster(LOCALES)
        .without_network_atomics()
        .with_vread_fastpath(true)
        .with_faults(plan.clone())
}

struct CellOutcome {
    ops: u64,
    telemetry: TelemetrySnapshot,
    reclaim: ReclaimSnapshot,
    failures: Vec<String>,
    /// The cell's buffered span trace, oldest first — dumped to disk when
    /// the verdict is FAIL so the causal history is not lost.
    trace: Vec<telemetry::Span>,
}

type FailLog = Mutex<Vec<String>>;

fn fail(log: &FailLog, msg: String) {
    log.lock().unwrap().push(msg);
}

/// Run the worker topology: `TASKS_PER_LOCALE` tasks on every locale, plus
/// (when the plan asks for it) one extra task on the stalled locale that
/// registers a guard, pins it, and holds the pin until every worker has
/// finished — the paper's "one task stops cooperating" scenario. Returns
/// `(live, reclaimed)` sampled while the pin was still held: the number
/// of live (deferred, unreclaimed) objects, and how many objects the
/// backend managed to reclaim despite the stall.
fn drive<R: Reclaimer>(
    rt: &Runtime,
    plan: &FaultPlan,
    em: &R,
    work: impl Fn(u64) + Send + Sync,
) -> (u64, u64) {
    let done = AtomicU64::new(0);
    let live_while_stalled = AtomicU64::new(0);
    let reclaimed_while_stalled = AtomicU64::new(0);
    rt.coforall_locales(|lid| {
        let stall_here = plan.stalled_task == Some(lid);
        let tasks = TASKS_PER_LOCALE + usize::from(stall_here);
        rt.coforall_tasks(tasks, |t| {
            if stall_here && t == TASKS_PER_LOCALE {
                let tok = em.register();
                tok.pin();
                while done.load(Ordering::Acquire) < WORKERS {
                    std::thread::yield_now();
                }
                // Everyone else is finished while this pin was held the
                // whole time. Under EBR the pin blocks epoch advancement
                // and their garbage must still be visible; under HP the
                // idle guard protects nothing and reclamation continues.
                live_while_stalled.store(rt.live_objects().max(0) as u64, Ordering::Relaxed);
                reclaimed_while_stalled.store(em.stats().objects_reclaimed, Ordering::Relaxed);
                tok.unpin();
            } else {
                work(lid as u64 * TASKS_PER_LOCALE as u64 + t as u64);
                done.fetch_add(1, Ordering::Release);
            }
        });
    });
    (
        live_while_stalled.load(Ordering::Relaxed),
        reclaimed_while_stalled.load(Ordering::Relaxed),
    )
}

/// Periodic hammer on a shared ABA-protected object: reads feed the
/// checker's per-task monotonicity streams, exchanges force stamp bumps.
fn hammer_aba(aba: &AtomicAbaObject<u64>, checker: &InvariantChecker, task: u64, i: u64) {
    if i.is_multiple_of(7) {
        checker.record_aba(task, aba.read_aba().get_aba_count());
        let next = if i.is_multiple_of(14) {
            GlobalPtr::null()
        } else {
            GlobalPtr::new(0, 0x40)
        };
        aba.exchange_aba(next);
    }
}

fn queue_cell<R: Reclaimer>(
    rt: &Runtime,
    plan: &FaultPlan,
    checker: &Arc<InvariantChecker>,
    sc: &Scale,
    ops: &AtomicU64,
    log: &FailLog,
) -> (u64, u64, ReclaimSnapshot) {
    let q = MsQueue::<u64, R>::with_reclaimer();
    q.reclaimer().set_observer(checker.clone());
    let aba = AtomicAbaObject::<u64>::new_on(0, GlobalPtr::null());
    let dequeued = AtomicU64::new(0);
    let stalled = drive(rt, plan, q.reclaimer(), |task| {
        let tok = q.register();
        for i in 0..sc.ops {
            q.enqueue(&tok, task << 32 | i);
            if let Some(v) = q.dequeue(&tok) {
                // Per-(producer, consumer) dequeue order must follow
                // enqueue order — FIFO survives retry and duplication.
                checker.record_fifo((v >> 32) << 16 | task, v & 0xffff_ffff);
                dequeued.fetch_add(1, Ordering::Relaxed);
            }
            hammer_aba(&aba, checker, task, i);
            if i.is_multiple_of(64) {
                q.try_reclaim();
            }
            ops.fetch_add(1, Ordering::Relaxed);
        }
    });
    let tok = q.register();
    let mut drained = 0u64;
    while let Some(v) = q.dequeue(&tok) {
        checker.record_fifo((v >> 32) << 16 | DRAIN_CONSUMER, v & 0xffff_ffff);
        drained += 1;
    }
    drop(tok);
    let total = dequeued.load(Ordering::Relaxed) + drained;
    if total != WORKERS * sc.ops {
        fail(
            log,
            format!(
                "queue lost or invented items: enqueued {} but saw {total}",
                WORKERS * sc.ops
            ),
        );
    }
    q.try_reclaim();
    q.try_reclaim();
    q.clear_reclaim();
    (stalled.0, stalled.1, q.reclaimer().stats())
}

fn stack_cell<R: Reclaimer>(
    rt: &Runtime,
    plan: &FaultPlan,
    checker: &Arc<InvariantChecker>,
    sc: &Scale,
    ops: &AtomicU64,
    log: &FailLog,
) -> (u64, u64, ReclaimSnapshot) {
    let s = LockFreeStack::<u64, R>::with_reclaimer();
    s.reclaimer().set_observer(checker.clone());
    let aba = AtomicAbaObject::<u64>::new_on(0, GlobalPtr::null());
    let popped = AtomicU64::new(0);
    let stalled = drive(rt, plan, s.reclaimer(), |task| {
        let tok = s.register();
        for i in 0..sc.ops {
            s.push(&tok, task << 32 | i);
            if s.pop(&tok).is_some() {
                popped.fetch_add(1, Ordering::Relaxed);
            }
            hammer_aba(&aba, checker, task, i);
            if i.is_multiple_of(64) {
                s.try_reclaim();
            }
            ops.fetch_add(1, Ordering::Relaxed);
        }
    });
    let tok = s.register();
    let mut drained = 0u64;
    while s.pop(&tok).is_some() {
        drained += 1;
    }
    drop(tok);
    let total = popped.load(Ordering::Relaxed) + drained;
    if total != WORKERS * sc.ops {
        fail(
            log,
            format!(
                "stack lost or invented items: pushed {} but saw {total}",
                WORKERS * sc.ops
            ),
        );
    }
    s.try_reclaim();
    s.try_reclaim();
    s.clear_reclaim();
    (stalled.0, stalled.1, s.reclaimer().stats())
}

/// What the map cell drives: the operations `DistHashMap` and
/// `ShardedHashMap` share, so both run one script.
trait CellMap<R: Reclaimer>: Sync {
    fn build() -> Self;
    fn reclaimer(&self) -> &R;
    fn register(&self) -> R::Guard<'_>;
    fn insert(&self, tok: &R::Guard<'_>, k: u64, v: u64) -> bool;
    fn get(&self, tok: &R::Guard<'_>, k: &u64) -> Option<u64>;
    fn remove(&self, tok: &R::Guard<'_>, k: &u64) -> bool;
    fn try_reclaim(&self) -> bool;
    fn is_empty(&self) -> bool;
    fn len(&self) -> usize;
    fn clear_reclaim(&self);
}

macro_rules! cell_map {
    ($map:ident) => {
        impl<R: Reclaimer> CellMap<R> for $map<u64, u64, R> {
            fn build() -> Self {
                $map::with_reclaimer(32)
            }
            fn reclaimer(&self) -> &R {
                $map::reclaimer(self)
            }
            fn register(&self) -> R::Guard<'_> {
                $map::register(self)
            }
            fn insert(&self, tok: &R::Guard<'_>, k: u64, v: u64) -> bool {
                $map::insert(self, tok, k, v)
            }
            fn get(&self, tok: &R::Guard<'_>, k: &u64) -> Option<u64> {
                $map::get(self, tok, k)
            }
            fn remove(&self, tok: &R::Guard<'_>, k: &u64) -> bool {
                $map::remove(self, tok, k)
            }
            fn try_reclaim(&self) -> bool {
                $map::try_reclaim(self)
            }
            fn is_empty(&self) -> bool {
                $map::is_empty(self)
            }
            fn len(&self) -> usize {
                $map::len(self)
            }
            fn clear_reclaim(&self) {
                $map::clear_reclaim(self)
            }
        }
    };
}

cell_map!(DistHashMap);
cell_map!(ShardedHashMap);

fn map_cell<R: Reclaimer, M: CellMap<R>>(
    rt: &Runtime,
    plan: &FaultPlan,
    checker: &Arc<InvariantChecker>,
    sc: &Scale,
    ops: &AtomicU64,
    log: &FailLog,
) -> (u64, u64, ReclaimSnapshot) {
    let m = M::build();
    m.reclaimer().set_observer(checker.clone());
    let aba = AtomicAbaObject::<u64>::new_on(0, GlobalPtr::null());
    let stalled = drive(rt, plan, m.reclaimer(), |task| {
        let tok = m.register();
        for i in 0..sc.ops {
            let k = task << 32 | i;
            if !m.insert(&tok, k, i) {
                fail(log, format!("map insert of fresh key {k:#x} reported dup"));
            }
            if m.get(&tok, &k) != Some(i) {
                fail(log, format!("map lost its own write for key {k:#x}"));
            }
            if i % 2 == 1 && !m.remove(&tok, &k) {
                fail(log, format!("map remove of present key {k:#x} failed"));
            }
            hammer_aba(&aba, checker, task, i);
            if i.is_multiple_of(64) {
                m.try_reclaim();
            }
            ops.fetch_add(1, Ordering::Relaxed);
        }
        // Each task deletes the keys it kept; the map must end empty.
        for i in (0..sc.ops).step_by(2) {
            let k = task << 32 | i;
            if !m.remove(&tok, &k) {
                fail(
                    log,
                    format!("map lost surviving key {k:#x} before teardown"),
                );
            }
        }
    });
    if !m.is_empty() {
        fail(log, format!("map should be empty, has {} entries", m.len()));
    }
    m.try_reclaim();
    m.try_reclaim();
    m.clear_reclaim();
    (stalled.0, stalled.1, m.reclaimer().stats())
}

fn run_cell<R: Reclaimer>(plan: &FaultPlan, wl: Workload, sc: &Scale) -> CellOutcome {
    let rt = Runtime::new(cfg(plan));
    // Buffer the cell's spans so a failing verdict can ship its causal
    // history to disk. Installing a sink turns tracing on for this
    // runtime only; the repro-fingerprint cells stay sink-free.
    let ring = Arc::new(telemetry::RingSink::new(TRACE_RING_CAPACITY));
    rt.set_telemetry_sink(ring.clone());
    let checker = InvariantChecker::new();
    let ops = AtomicU64::new(0);
    let log: FailLog = Mutex::new(Vec::new());
    let (live_stalled, reclaimed_stalled, reclaim) = rt.run(|| match wl {
        Workload::Queue => queue_cell::<R>(&rt, plan, &checker, sc, &ops, &log),
        Workload::Stack => stack_cell::<R>(&rt, plan, &checker, sc, &ops, &log),
        Workload::Map => {
            map_cell::<R, DistHashMap<u64, u64, R>>(&rt, plan, &checker, sc, &ops, &log)
        }
        Workload::ShardedMap => {
            map_cell::<R, ShardedHashMap<u64, u64, R>>(&rt, plan, &checker, sc, &ops, &log)
        }
    });
    let mut failures = log.into_inner().unwrap();
    let telemetry = rt.total_telemetry();
    let comm = telemetry.comm;
    let ops = ops.load(Ordering::Relaxed);

    // Progress: every worker must have completed its full loop even with a
    // stalled pinned task parked on one locale.
    if ops != WORKERS * sc.ops {
        failures.push(format!(
            "only {ops}/{} worker ops completed",
            WORKERS * sc.ops
        ));
    }
    // The stalled-task scenario proves opposite properties per backend:
    // an EBR pin must have held garbage live the whole time, while an HP
    // guard that protects nothing must not have blocked reclamation.
    if plan.stalled_task.is_some() {
        if live_stalled == 0 {
            failures.push("stalled pin held no garbage live (scenario did not bite)".into());
        }
        if R::NEEDS_PROTECT && reclaimed_stalled == 0 {
            failures.push("hazard backend reclaimed nothing behind the stalled guard".into());
        }
    }
    // Whole-cell reclamation conservation: after the teardown clear,
    // everything the structure retired must have been freed.
    if reclaim.objects_deferred != reclaim.objects_reclaimed {
        failures.push(format!(
            "reclaim conservation broken: retired {} but reclaimed {}",
            reclaim.objects_deferred, reclaim.objects_reclaimed
        ));
    }
    if rt.live_objects() != 0 {
        failures.push(format!(
            "{} objects leaked after teardown",
            rt.live_objects()
        ));
    }
    // Each configured fault class must actually have fired, and no class
    // the plan did not configure may fire.
    for (name, per_mille, count) in [
        ("drops", plan.drop_per_mille, comm.injected_drops),
        ("delays", plan.delay_per_mille, comm.injected_delays),
        ("dups", plan.dup_per_mille, comm.injected_dups),
    ] {
        if per_mille > 0 && count == 0 {
            failures.push(format!("plan configures {name} but none were injected"));
        }
        if per_mille == 0 && count != 0 {
            failures.push(format!("{count} uninvited {name} injected"));
        }
    }
    // The telemetry registry must agree with the counters: every retry
    // the counter half saw must have left exactly one backoff sample in
    // the latency half (they are incremented together at the charge
    // points).
    let retry_samples = telemetry.class(telemetry::OpClass::Retry).count();
    if retry_samples != comm.retries {
        failures.push(format!(
            "retry telemetry drifted from the retries counter: \
             {retry_samples} samples vs {} retries",
            comm.retries
        ));
    }
    if let Err(violations) = checker.check() {
        failures.extend(violations);
    }
    CellOutcome {
        ops,
        telemetry,
        reclaim,
        failures,
        trace: ring.take(),
    }
}

/// Write `spans` as JSON-lines to `path` — the same format the harness's
/// `--trace` flag produces, so `trace_analyze` consumes it directly.
fn dump_trace(path: &str, spans: &[telemetry::Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 160);
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// A deterministic, contention-free cell: one task issuing a fixed
/// alternating sequence of idempotent and non-idempotent remote calls.
/// Its injection counters are a pure function of the plan's seed, so two
/// runs must agree bit-for-bit — the reproducibility contract.
fn injection_fingerprint(plan: &FaultPlan, sc: &Scale) -> (u64, u64, u64, u64) {
    let rt = Runtime::new(cfg(plan));
    rt.run(|| {
        for i in 0..sc.repro_ops {
            if i.is_multiple_of(2) {
                faults::with_class(RetryClass::Idempotent, || rt.on(1, || {}));
            } else {
                rt.on(1, || {});
            }
        }
    });
    let c = rt.total_comm();
    (
        c.injected_drops,
        c.injected_delays,
        c.injected_dups,
        c.retries,
    )
}

/// Prove the invariant checker can actually catch a broken reclaimer: free
/// the *current* epoch's limbo list (a planted use-after-free bug) and
/// require the checker to flag it.
fn checker_self_test() -> Result<(), String> {
    let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
    rt.run(|| {
        let em = EpochManager::new();
        let checker = InvariantChecker::new();
        em.set_observer(checker.clone());
        let tok = em.register();
        tok.pin();
        tok.defer_delete(alloc_local(&current_runtime(), 1u64));
        tok.unpin();
        let freed = em.debug_reclaim_current_epoch_early();
        em.clear();
        drop(tok);
        if freed == 0 {
            return Err("early-free hook reclaimed nothing".to_string());
        }
        if checker.check().is_ok() {
            return Err("planted early free was NOT caught by the checker".to_string());
        }
        Ok(())
    })
}

/// The hazard-pointer twin of [`checker_self_test`]: retire an object that
/// another guard holds a validated hazard on, run the planted buggy scan
/// that ignores hazard slots, and require the checker to flag the
/// violation.
fn checker_self_test_hp() -> Result<(), String> {
    let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
    rt.run(|| {
        let dom = HazardReclaimer::new();
        let checker = InvariantChecker::new();
        dom.set_observer(checker.clone());
        let reader = dom.register();
        let writer = dom.register();
        let cell = AtomicObject::new(alloc_local(&current_runtime(), 11u64));
        let held = reader.protect_root(0, &cell);
        if held.is_null() {
            return Err("hazard publication failed".to_string());
        }
        let fresh = alloc_local(&current_runtime(), 12u64);
        writer.defer_delete(cell.exchange(fresh));
        // A correct scan keeps the protected object alive.
        dom.try_reclaim();
        if checker.check().is_err() {
            return Err("correct scan was flagged as a violation".to_string());
        }
        // The planted bug frees it anyway; the checker must object.
        dom.debug_scan_ignoring_hazards();
        let caught = checker
            .check()
            .is_err_and(|errs| errs.iter().any(|e| e.contains("hazard violation")));
        // Teardown: the protected object was (incorrectly) freed by the
        // planted bug; only the current cell object remains.
        writer.defer_delete(cell.read());
        drop(reader);
        drop(writer);
        dom.clear();
        if !caught {
            return Err("planted hazard violation was NOT caught by the checker".to_string());
        }
        Ok(())
    })
}

/// The versioned-read twin of [`checker_self_test`]: a writer churns an
/// ABA cell so it always holds a self-consistent `{pointer == count *
/// MULT}` pair while readers take fast reads. With the planted
/// `debug_vread_skip_validate` bug the unvalidated (and deliberately
/// widened) two-load window must surface at least one mixed pair; a clean
/// control round must surface none — proving the torn-read oracle has
/// teeth and validation is load-bearing.
fn checker_self_test_vread() -> Result<(), String> {
    const MULT: u64 = 0x9E37_79B9;
    let torn_pairs = |planted: bool| -> u64 {
        let prev = pgas_nb::sim::engine::debug_vread_skip_validate(planted);
        let rt = Runtime::new(
            RuntimeConfig::cluster(2)
                .with_vread_fastpath(true)
                .with_vread_max_tries(8),
        );
        let torn = rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            let torn = AtomicU64::new(0);
            rt.coforall_tasks(3, |t| {
                if t == 0 {
                    for k in 1..=256u64 {
                        cell.write_aba(GlobalPtr::from_bits(k.wrapping_mul(MULT)));
                    }
                } else {
                    for _ in 0..1024 {
                        let snap = cell.read_aba();
                        if snap.get_object().into_bits() != snap.get_aba_count().wrapping_mul(MULT)
                        {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            torn.load(Ordering::Relaxed)
        });
        pgas_nb::sim::engine::debug_vread_skip_validate(prev);
        torn
    };
    if torn_pairs(false) != 0 {
        return Err("validated fast reads surfaced a torn pair".to_string());
    }
    // The tear is a real-thread race; retry a few rounds so the planted
    // bug is caught deterministically.
    for _ in 0..50 {
        if torn_pairs(true) > 0 {
            return Ok(());
        }
    }
    Err("planted validation skip was NOT caught by the torn-read oracle".to_string())
}

fn print_row(plan: &str, workload: &str, detail: &str, ok: bool) {
    println!(
        "{plan:<12} {workload:<9} {detail:<58} {}",
        if ok { "ok" } else { "FAIL" }
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sc = if quick { &QUICK } else { &FULL };
    let mut seed = 42u64;
    let mut workloads: Vec<Workload> = Workload::ALL.to_vec();
    let mut backend = Backend::Ebr;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--workloads" => {
                let list = it.next().expect("--workloads takes a comma list");
                workloads = list
                    .split(',')
                    .map(|w| match w {
                        "queue" => Workload::Queue,
                        "stack" => Workload::Stack,
                        "map" => Workload::Map,
                        "smap" => Workload::ShardedMap,
                        other => panic!("unknown workload {other:?} (queue|stack|map|smap)"),
                    })
                    .collect();
            }
            "--reclaimer" => {
                backend = match it.next().expect("--reclaimer takes ebr|hp").as_str() {
                    "ebr" => Backend::Ebr,
                    "hp" => Backend::Hp,
                    other => panic!("unknown reclaimer {other:?} (ebr|hp)"),
                };
            }
            "--quick" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    println!(
        "chaos harness: seed={seed} locales={LOCALES} workers={WORKERS} \
         ops/worker={} reclaimer={} ({})",
        sc.ops,
        backend.label(),
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<12} {:<9} {:<58} verdict",
        "plan", "workload", "injections"
    );

    let mut failed = 0u32;
    for (pname, plan) in build_plans(seed) {
        for &wl in &workloads {
            let out = match backend {
                Backend::Ebr => run_cell::<EpochManager>(&plan, wl, sc),
                Backend::Hp => run_cell::<HazardReclaimer>(&plan, wl, sc),
            };
            let comm = &out.telemetry.comm;
            let detail = format!(
                "ops={} drops={} delays={} dups={} retries={} gave_up={}",
                out.ops,
                comm.injected_drops,
                comm.injected_delays,
                comm.injected_dups,
                comm.retries,
                comm.gave_up,
            );
            let ok = out.failures.is_empty();
            print_row(pname, wl.label(), &detail, ok);
            println!(
                "    └─ reclaim[{}]: retired={} reclaimed={} scans={} protects={}",
                backend.label(),
                out.reclaim.objects_deferred,
                out.reclaim.objects_reclaimed,
                out.reclaim.advances,
                out.reclaim.hazard_protects,
            );
            if !ok {
                // Full registry snapshot for the failing cell — rendered,
                // not hand-picked, so nothing is missing when debugging.
                println!("    comm: {}", comm.to_json());
                println!("    latency: {}", out.telemetry.latency_json());
                // Seed-stamped span dump: the failing cell's causal
                // history, replayable through trace_analyze.
                let path = format!("target/chaos_trace_{pname}_{}_seed{seed}.jsonl", wl.label());
                match dump_trace(&path, &out.trace) {
                    Ok(()) => println!("    trace: {} spans -> {path}", out.trace.len()),
                    Err(e) => println!("    trace: dump to {path} failed: {e}"),
                }
            }
            for f in &out.failures {
                println!("    !! {f}");
                failed += 1;
            }
        }
        let a = injection_fingerprint(&plan, sc);
        let b = injection_fingerprint(&plan, sc);
        let ok = a == b;
        print_row(pname, "repro", &format!("run1={a:?} run2={b:?}"), ok);
        if !ok {
            println!("    !! same-seed reruns diverged");
            failed += 1;
        }
    }

    match checker_self_test() {
        Ok(()) => print_row("self-test", "ebr", "planted early free caught", true),
        Err(e) => {
            print_row("self-test", "ebr", &e, false);
            failed += 1;
        }
    }
    match checker_self_test_hp() {
        Ok(()) => print_row("self-test", "hp", "planted hazard violation caught", true),
        Err(e) => {
            print_row("self-test", "hp", &e, false);
            failed += 1;
        }
    }
    match checker_self_test_vread() {
        Ok(()) => print_row("self-test", "vread", "planted validation skip caught", true),
        Err(e) => {
            print_row("self-test", "vread", &e, false);
            failed += 1;
        }
    }

    if failed > 0 {
        println!("\nchaos: {failed} failure(s)");
        ExitCode::FAILURE
    } else {
        println!("\nchaos: all cells passed");
        ExitCode::SUCCESS
    }
}
