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
//! * a warm `record` + `add` allocates nothing — this binary installs a
//!   counting allocator for that. (That the warm path takes no lock is
//!   pinned where the lock is reachable: `per_thread`'s unit test holds it
//!   across a record.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{mpsc, Arc};

use pgas_sim::per_thread::shards_held_by_thread;
use pgas_sim::stats::Counter;
use pgas_sim::telemetry::{OpClass, Registry};
use pgas_sim::{alloc_local, free, here, Runtime};

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
        // the same addresses back, which must not resurrect old shards.
        let rt = Runtime::cluster(2);
        assert!(rt.total_comm().is_zero(), "runtime {i} inherited counts");
        assert!(rt.total_telemetry().nonempty().next().is_none());
        rt.run(|| {
            rt.on(1, || {});
            rt.locale(0).stats.add(Counter::Puts, i);
        });
        let c = rt.total_comm();
        assert_eq!((c.am_sent, c.am_handled, c.puts), (1, 1, i));
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
