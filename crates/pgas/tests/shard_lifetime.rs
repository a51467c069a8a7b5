//! Lifetime and steady-state cost of the per-thread telemetry shards
//! (`pgas_sim::per_thread`), through the runtime's own stat blocks.
//!
//! * task churn: ten thousand short-lived tasks leave a shard list bounded
//!   by the threads alive, and exact totals (a thread's exit folds its
//!   shard);
//! * a runtime dropped under a thread that recorded on it is neither kept
//!   alive nor touched again, and the thread lets go of the dead shards;
//! * runtimes built one after another (the harness builds one per data
//!   point, and the allocator hands the old addresses back) start from zero
//!   and do not pile shards up on the thread that drives them;
//! * a warm `record` + `add`, and a warm charged atomic, root span or
//!   epoch pin, allocates nothing — this binary installs a counting
//!   allocator for that. (That the warm path takes no lock is pinned where
//!   the lock is reachable: `per_thread`'s unit test holds it across a
//!   record.)
//! * nested contexts — a handler's `run_on`, an inline `on`, a second
//!   runtime's `run` — each charge their own locale's registry through the
//!   shard their context record caches, and leaving one puts the outer
//!   context back whole.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{mpsc, Arc};

use pgas_atomics::{AtomicInt, AtomicObject};
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::faults::{self, RetryClass};
use pgas_sim::per_thread::shards_held_by_thread;
use pgas_sim::stats::{CommSnapshot, Counter};
use pgas_sim::telemetry::{opkind, HistSnapshot, OpClass, OpSpan, Registry};
use pgas_sim::{alloc_local, ctx, engine, free, here, vtime, GlobalPtr, Runtime, RuntimeConfig};

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without a
    /// destructor, so touching it from inside the allocator allocates
    /// nothing and is valid for the thread's whole life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the count is a plain
// thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn warm_record_and_add_allocate_nothing() {
    let rt = Runtime::cluster(2);
    rt.run(|| {
        let stats = &rt.locale(0).stats;
        let other = &rt.locale(1).stats;
        // First touch registers this thread's shards (allocates, locks).
        stats.add(Counter::CpuAtomics, 1);
        other.record(OpClass::Get, 1);
        let before = allocs();
        for i in 0..100_000u64 {
            stats.add(Counter::CpuAtomics, 1);
            stats.record(OpClass::CpuAtomic, 26);
            stats.record(OpClass::AtomicObjectOp, i);
            // Alternating blocks must stay warm too.
            other.add(Counter::Gets, 1);
        }
        assert_eq!(allocs() - before, 0, "steady-state recording allocated");
        let t = stats.telemetry_snapshot();
        assert_eq!(t.comm.cpu_atomics, 100_001);
        assert_eq!(t.class(OpClass::AtomicObjectOp).count(), 100_000);
        assert_eq!(t.class(OpClass::AtomicObjectOp).max(), 99_999);
    });
}

#[test]
fn warm_charged_atomics_and_pins_allocate_nothing() {
    let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
    rt.run(|| {
        let int = AtomicInt::new(7);
        let obj = AtomicObject::<u64>::new(GlobalPtr::null());
        let manager = EpochManager::new();
        let token = manager.register();
        let warm = || {
            assert_eq!(int.read(), 7);
            assert!(obj.read().is_null());
            token.pin();
            token.unpin();
        };
        // The first round resolves the context's shard and registers it.
        warm();
        let before = allocs();
        let t0 = rt.locale(0).stats.telemetry_snapshot();
        for _ in 0..10_000 {
            warm();
        }
        assert_eq!(allocs() - before, 0, "a warm charged operation allocated");
        let t = rt.locale(0).stats.telemetry_snapshot();
        // Per round: the two reads and the pin's cached-epoch read, pin and
        // unpin are CPU atomics; the object read is one root span.
        assert_eq!(t.comm.cpu_atomics - t0.comm.cpu_atomics, 10_000 * 5);
        let spans = t.class(OpClass::AtomicObjectOp).count();
        assert_eq!(spans - t0.class(OpClass::AtomicObjectOp).count(), 10_000);
        drop(token);
    });
}

#[test]
fn ten_thousand_short_lived_tasks_leave_bounded_shards_and_exact_totals() {
    const ROUNDS: usize = 100;
    const TASKS: usize = 50;
    let rt = Runtime::cluster(2);
    rt.run(|| {
        for _ in 0..ROUNDS {
            rt.coforall_locales(|_| {
                rt.coforall_tasks(TASKS, |t| {
                    let locale = rt.locale(here());
                    locale.stats.add(Counter::Puts, 1);
                    locale.stats.record(OpClass::Put, t as u64);
                    let p = alloc_local(&rt, t);
                    // SAFETY: allocated just above, never shared.
                    unsafe { free(&rt, p) };
                });
            });
            // Every task of the round has exited: what is still listed
            // belongs to this thread and the locale's progress thread.
            for l in rt.locales() {
                assert!(
                    l.stats.live_shards() <= 2,
                    "{} shards",
                    l.stats.live_shards()
                );
            }
        }
    });
    let tasks = (2 * ROUNDS * TASKS) as u64;
    let t = rt.total_telemetry();
    assert_eq!(t.comm.puts, tasks);
    assert_eq!(t.class(OpClass::Put).count(), tasks);
    assert_eq!(t.class(OpClass::Put).max(), TASKS as u64 - 1);
    assert_eq!(
        t.class(OpClass::Put).sum(),
        (2 * ROUNDS) as u64 * (0..TASKS as u64).sum::<u64>()
    );
    assert_eq!(rt.live_objects(), 0);
    let allocated: u64 = rt.locales().map(|l| l.heap.allocations()).sum();
    assert_eq!(allocated, tasks);
}

#[test]
fn a_runtime_dropped_under_a_live_recording_thread_is_let_go() {
    // A thread that outlives the runtimes it records on, fed one runtime at
    // a time and reporting how many shards it still holds.
    let (work, inbox) = mpsc::channel::<Arc<Runtime>>();
    let (report, held) = mpsc::channel::<usize>();
    let recorder = std::thread::spawn(move || {
        for rt in inbox {
            rt.run(|| {
                rt.locale(0).stats.add(Counter::Gets, 3);
                rt.locale(1).stats.record(OpClass::Get, 7);
            });
            drop(rt);
            report.send(shards_held_by_thread()).unwrap();
        }
    });

    let a = Arc::new(Runtime::cluster(2));
    work.send(a.clone()).unwrap();
    assert_eq!(
        held.recv().unwrap(),
        2,
        "one shard per registry it recorded on"
    );
    assert_eq!(a.total_comm().gets, 3);
    let a_core = Arc::downgrade(&a);
    drop(a);
    assert_eq!(
        a_core.strong_count(),
        0,
        "the recorder's shards keep no runtime alive"
    );

    // Recording on the next runtime registers new shards, which is when the
    // thread drops the dead runtime's: still two held, not four.
    let b = Arc::new(Runtime::cluster(2));
    work.send(b.clone()).unwrap();
    assert_eq!(held.recv().unwrap(), 2, "a's shards were pruned");
    let t = b.total_telemetry();
    assert_eq!(t.comm.gets, 3, "b counts its own traffic only");
    assert_eq!(t.class(OpClass::Get).count(), 1);
    drop(work);
    recorder.join().unwrap();
    assert_eq!(b.locale(0).stats.live_shards(), 0, "recorder exit folded");
    assert_eq!(b.total_comm().gets, 3, "…into totals that survive it");
}

#[test]
fn runtimes_built_in_sequence_start_from_zero_and_do_not_pile_up_shards() {
    let mut most_held = 0;
    for i in 0..60u64 {
        // Same size, dropped before the next is built: the allocator hands
        // the same addresses back, which must not resurrect old shards —
        // neither the thread's shard list nor its context record's cache.
        let rt = Runtime::cluster(2);
        assert!(rt.total_comm().is_zero(), "runtime {i} inherited counts");
        assert!(rt.total_telemetry().nonempty().next().is_none());
        rt.run(|| {
            rt.on(1, || {});
            rt.locale(0).stats.add(Counter::Puts, i);
            // Network atomics on: a local charged atomic is one NIC atomic.
            charge_here(i % 3 + 1);
        });
        let c = rt.total_comm();
        assert_eq!(
            (c.am_sent, c.am_handled, c.puts, c.rdma_atomics),
            (1, 1, i, i % 3 + 1)
        );
        most_held = most_held.max(shards_held_by_thread());
    }
    assert!(
        most_held <= 8,
        "driver thread held {most_held} shards at once"
    );
}

#[test]
fn a_registry_outlived_by_its_writers_folds_nothing_into_thin_air() {
    // The registry goes first, the writer thread exits afterwards: its
    // exit must find the block gone and skip the fold.
    let (go, wait) = mpsc::channel::<()>();
    let (recorded, ready) = mpsc::channel::<()>();
    let r = Arc::new(Registry::default());
    let r2 = r.clone();
    let writer = std::thread::spawn(move || {
        r2.add(Counter::Puts, 1);
        drop(r2);
        recorded.send(()).unwrap();
        wait.recv().unwrap();
    });
    ready.recv().unwrap();
    assert_eq!(r.snapshot().puts, 1);
    assert_eq!(r.live_shards(), 1);
    drop(r);
    go.send(()).unwrap();
    writer.join().unwrap();
}

/// Charge `n` 64-bit atomics on a cell of the current locale through the
/// routing path ([`engine::atomic_u64`]).
fn charge_here(n: u64) {
    for _ in 0..n {
        ctx::with_core(|core, here| engine::atomic_u64(core, here, here, || ()));
    }
}

/// `n` CPU atomics of `ns` each and the root spans of `spans` — what one
/// locale's registry must hold, exactly.
fn expected(n: u64, ns: u64, spans: &[u64]) -> (CommSnapshot, Vec<(OpClass, HistSnapshot)>) {
    let comm = CommSnapshot {
        cpu_atomics: n,
        ..CommSnapshot::default()
    };
    let mut hists = Vec::new();
    if n > 0 {
        let mut h = HistSnapshot::default();
        (0..n).for_each(|_| h.record(ns));
        hists.push((OpClass::CpuAtomic, h));
    }
    if !spans.is_empty() {
        let mut h = HistSnapshot::default();
        spans.iter().for_each(|&v| h.record(v));
        hists.push((OpClass::AtomicObjectOp, h));
    }
    (comm, hists)
}

#[test]
fn nested_contexts_charge_their_own_locale_and_restore_the_outer_one() {
    let cfg = RuntimeConfig::cluster(2).without_network_atomics();
    let (a, b) = (Runtime::new(cfg.clone()), Runtime::new(cfg));
    let ns = a.config.network.cpu_atomic_ns;
    let class = faults::current_class;
    a.run(|| {
        let outer = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
        charge_here(1);
        faults::with_class(RetryClass::Idempotent, || {
            // How a handler enters its locale.
            a.run_on(1, || {
                assert_eq!(here(), 1);
                assert_eq!(class(), RetryClass::Idempotent, "entering keeps the class");
                let span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
                charge_here(2);
                // Already on 1: inline, in the same context.
                a.on(1, || charge_here(3));
                b.run(|| {
                    assert_eq!(here(), 0);
                    let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
                    charge_here(4);
                });
                assert_eq!(here(), 1, "b's guard put a's locale 1 back");
                charge_here(5);
                drop(span);
            });
            assert_eq!(class(), RetryClass::Idempotent, "leaving keeps the class");
        });
        assert_eq!(class(), RetryClass::NonIdempotent, "with_class restores it");
        assert_eq!(here(), 0, "the handler's guard put locale 0 back");
        charge_here(6);
        drop(outer);
        // One clock per thread: no entry reset it (none was fresh), no exit
        // rolled it back.
        assert_eq!(vtime::now(), 21 * ns);
    });
    let cases = [
        (&a, 0, expected(7, ns, &[21 * ns])),
        (&a, 1, expected(10, ns, &[14 * ns])),
        (&b, 0, expected(4, ns, &[4 * ns])),
        (&b, 1, expected(0, ns, &[])),
    ];
    for (rt, l, (comm, hists)) in cases {
        let t = rt.locale(l).stats.telemetry_snapshot();
        assert_eq!(t.comm, comm, "locale {l}");
        let got: Vec<_> = t.nonempty().map(|(c, h)| (c, *h)).collect();
        assert_eq!(got, hists, "locale {l}");
    }
}
