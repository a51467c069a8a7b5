//! Heap allocations of a warm combined remote operation
//! (`RuntimeCore::on_combining` with combining on), counted by a global
//! allocator this binary installs:
//!
//! * a lone publisher allocates its closure box and the one posted message,
//!   nothing else — no batch buffer, and its completion cell is on its stack;
//! * a chunk of four riders costs their four closure boxes plus one posted
//!   message: nothing per rider or per chunk beyond that.
//!
//! Counts are per thread, so only the publishing tasks' allocations are
//! seen; the progress thread that runs the chunk is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use pgas_sim::telemetry::OpClass;
use pgas_sim::{Runtime, RuntimeConfig};

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

fn combining_cluster() -> Runtime {
    Runtime::new(
        RuntimeConfig::cluster(2)
            .without_network_atomics()
            .with_combining(true),
    )
}

#[test]
fn a_warm_singleton_allocates_its_closure_and_one_message() {
    let rt = combining_cluster();
    rt.run(|| {
        for _ in 0..16 {
            rt.on_combining(1, || ());
        }
        let mut most = 0;
        for i in 0..1000u64 {
            let before = allocs();
            assert_eq!(rt.on_combining(1, move || i), i);
            most = most.max(allocs() - before);
        }
        assert!(most <= 2, "a warm singleton allocated {most} times");
        let c = rt.total_comm();
        assert_eq!(c.am_sent, c.combines, "every op went through the combiner");
    });
}

#[test]
fn a_warm_four_rider_chunk_allocates_one_message_beyond_its_closures() {
    const RIDERS: u64 = 4;
    const WARM: usize = 3;
    const ROUNDS: usize = 20;
    let rt = combining_cluster();
    // Task 0 holds the combiner role with an operation that runs until the
    // four riders have announced behind it; one of them then ships all
    // four in one chunk. Announcing is not observable from here, so the
    // operation also sleeps a little: a round whose riders split over two
    // chunks is still checked (against its own chunk count), and the test
    // only needs one round to have formed a single chunk.
    let round_start = Barrier::new(1 + RIDERS as usize);
    let round_end = Barrier::new(1 + RIDERS as usize);
    let holding = AtomicBool::new(false);
    let announcing = AtomicU64::new(0);
    let spent = AtomicU64::new(0);
    let combines = AtomicU64::new(0);
    // Checked after the join: a panic between barriers would hang the rest.
    let (excess, single_chunk_rounds) = (AtomicU64::new(0), AtomicU64::new(0));
    rt.run(|| {
        rt.coforall_tasks(1 + RIDERS as usize, |t| {
            // Every task combines alone once first, which registers its
            // telemetry shards: the first record of a thread allocates.
            for turn in 0..=RIDERS as usize {
                round_start.wait();
                if turn == t {
                    rt.on_combining(1, || ());
                }
            }
            round_start.wait();
            if t == 0 {
                combines.store(rt.total_comm().combines, Ordering::SeqCst);
            }
            for round in 0..WARM + ROUNDS {
                round_start.wait();
                if t == 0 {
                    rt.on_combining(1, || {
                        holding.store(true, Ordering::SeqCst);
                        while announcing.load(Ordering::SeqCst) < RIDERS {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    });
                } else {
                    while !holding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    announcing.fetch_add(1, Ordering::SeqCst);
                    let before = allocs();
                    rt.on_combining(1, || ());
                    spent.fetch_add(allocs() - before, Ordering::SeqCst);
                }
                round_end.wait();
                if t == 0 {
                    // Exact: the combiners that bumped it are past the barrier.
                    let now = rt.total_comm().combines;
                    let riders_chunks = now - combines.swap(now, Ordering::SeqCst) - 1;
                    let spent = spent.swap(0, Ordering::SeqCst);
                    if round >= WARM {
                        excess.fetch_max(
                            spent.saturating_sub(RIDERS + riders_chunks),
                            Ordering::SeqCst,
                        );
                        single_chunk_rounds
                            .fetch_add((riders_chunks == 1) as u64, Ordering::SeqCst);
                    }
                    holding.store(false, Ordering::SeqCst);
                    announcing.store(0, Ordering::SeqCst);
                }
            }
        });
    });
    assert_eq!(
        excess.load(Ordering::SeqCst),
        0,
        "a round allocated beyond its {RIDERS} closures and one message per chunk"
    );
    assert!(
        single_chunk_rounds.load(Ordering::SeqCst) > 0,
        "no round formed a four-rider chunk"
    );
    let occupancy = rt.total_telemetry();
    assert_eq!(occupancy.class(OpClass::CombineOccupancy).max(), RIDERS);
}
