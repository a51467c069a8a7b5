//! Per-thread sharded statistic cells — the one primitive under every
//! always-on stat block ([`crate::telemetry::Registry`],
//! [`crate::stats::HeapStats`], the epoch crate's `ReclaimStats`, the
//! sharded map's routing counters).
//!
//! A [`PerThread`] is a fixed-length block of `u64` cells of which every
//! recording thread owns a private copy (a *shard*). The first time a
//! thread records on a block it registers a shard under the block's mutex;
//! from then on recording is a thread-local lookup plus a plain
//! `load` + `store` on a cell no other thread writes — no lock-prefixed
//! instruction, no lock, no allocation. Reading merges the shards (cells
//! below `sums` with wrapping `+`, the rest with `max`), and a thread's
//! exit folds its shard into the block's `retired` totals, so the shard
//! list is bounded by the threads alive, not by the threads that ever ran.
//!
//! **Single-writer argument.** A shard is reachable for writing only
//! through the registering thread's thread-local entry, so `load` + `store`
//! (`Relaxed`) loses no update. Other threads touch a shard's cells in two
//! places, both excluded from concurrent recording by contract: [`read`]
//! only loads, and [`reset`] stores zeros under the callers' quiescence
//! guarantee (the same one the shared-RMW counters needed for an exact
//! zero).
//!
//! **Visibility.** A read is exact for everything that happens-before it
//! (a thread join, an AM reply, a barrier — each is a release/acquire
//! pair, and a folded shard is published by the block's mutex);
//! concurrent recording is seen partially, as with any relaxed counter.
//!
//! Blocks are keyed by a process-unique id, never by address: a block
//! allocated where a dropped one lived does not inherit its shards. A
//! thread drops its shards of dead blocks the next time it registers
//! anywhere, and at exit.
//!
//! **The cached shard.** Finding a shard searches the thread's shard
//! list. The charge path skips the search: the thread's context record
//! ([`crate::ctx`]) caches a pointer to its shard of the context locale's
//! [`crate::telemetry::Registry`], resolved on the context's first charge
//! and dropped or restored with the context. The pointer is valid for as
//! long as the context is current:
//!
//! * it points into an `Arc` that this thread's `SHARDS` entry holds;
//! * the entry goes only at thread exit, or when the thread's own
//!   registration prunes a dead block — and the block cannot be dead while
//!   its core's context is current, because the context keeps the core
//!   (and so its registries) alive;
//! * no context is current across the destruction of `SHARDS` (contexts are
//!   guards on the stack; a thread-local destructor that enters one
//!   resolves afresh), and once `SHARDS` is destroyed a resolution finds no
//!   shard, so every charge takes [`PerThread::with`]'s scratch shard, as
//!   other recording does.
//!
//! A pointer cached for one runtime is never reused for another, also one
//! built where a dropped one lived: entering a context clears the cache.
//!
//! [`read`]: PerThread::read
//! [`reset`]: PerThread::reset

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

type Cells = Arc<[AtomicU64]>;

/// `cell += n` by the cell's only writer.
#[inline]
pub fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// `cell = max(cell, v)` by the cell's only writer.
#[inline]
pub fn raise(cell: &AtomicU64, v: u64) {
    if v > cell.load(Relaxed) {
        cell.store(v, Relaxed);
    }
}

/// A block of `u64` statistic cells sharded per recording thread (see the
/// module docs).
pub struct PerThread {
    id: u64,
    len: usize,
    block: Arc<Block>,
}

struct Block {
    /// Cells `[0, sums)` merge with wrapping `+`, cells `[sums, len)` with
    /// `max`.
    sums: usize,
    state: Mutex<State>,
}

struct State {
    /// Shards of threads that are still alive.
    live: Vec<Cells>,
    /// Merged shards of threads that have exited.
    retired: Box<[u64]>,
}

/// One thread's shard of one block.
struct Entry {
    id: u64,
    cells: Cells,
    block: Weak<Block>,
}

/// The calling thread's shards; dropped (folded) when the thread exits.
struct Shards(RefCell<Vec<Entry>>);

thread_local! {
    static SHARDS: Shards = const { Shards(RefCell::new(Vec::new())) };
}

impl Drop for Shards {
    fn drop(&mut self) {
        for e in self.0.get_mut().drain(..) {
            if let Some(block) = e.block.upgrade() {
                block.retire(&e.cells);
            }
        }
    }
}

impl Block {
    fn merge(&self, i: usize, into: &mut u64, v: u64) {
        *into = if i < self.sums {
            into.wrapping_add(v)
        } else {
            (*into).max(v)
        };
    }

    /// Fold an exiting thread's shard into `retired` and unlist it.
    fn retire(&self, cells: &Cells) {
        let mut st = self.state.lock();
        st.live.retain(|c| !Arc::ptr_eq(c, cells));
        for (i, c) in cells.iter().enumerate() {
            self.merge(i, &mut st.retired[i], c.load(Relaxed));
        }
    }
}

fn zeroed(len: usize) -> Cells {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl PerThread {
    /// A block of `sums` cells merged by wrapping addition followed by
    /// `maxes` cells merged by maximum, all zero.
    pub fn new(sums: usize, maxes: usize) -> PerThread {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let len = sums + maxes;
        PerThread {
            id: NEXT_ID.fetch_add(1, Relaxed),
            len,
            block: Arc::new(Block {
                sums,
                state: Mutex::new(State {
                    live: Vec::new(),
                    retired: vec![0; len].into(),
                }),
            }),
        }
    }

    /// Run `f` on the calling thread's shard; `f` is its only writer and
    /// should update cells with [`bump`] / [`raise`].
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&[AtomicU64]) -> R) -> R {
        match self.shard_ptr() {
            // SAFETY: the pointer is to the `len` cells of an `Arc` held by
            // this thread's entry, which is removed only by the thread's
            // own `register` (for dead blocks; `self` keeps ours alive) or
            // its exit — neither can run during `f`.
            Some(p) => f(unsafe { std::slice::from_raw_parts(p, self.len) }),
            None => self.with_scratch(f),
        }
    }

    /// The calling thread's shard (`len` cells), registered on first use;
    /// `None` once the thread's shard list is destroyed. The pointer stays
    /// valid as long as the block lives and the thread has not begun to
    /// exit (see the module docs).
    #[inline]
    pub(crate) fn shard_ptr(&self) -> Option<*const AtomicU64> {
        SHARDS
            .try_with(|s| {
                let hit =
                    s.0.borrow()
                        .iter()
                        .find(|e| e.id == self.id)
                        .map(|e| e.cells.as_ptr());
                hit.unwrap_or_else(|| self.register(&mut s.0.borrow_mut()))
            })
            .ok()
    }

    /// The thread is past its thread-local destructors: record into a
    /// scratch shard and fold it straight away.
    #[cold]
    fn with_scratch<R>(&self, f: impl FnOnce(&[AtomicU64]) -> R) -> R {
        let scratch = zeroed(self.len);
        let r = f(&scratch);
        self.block.retire(&scratch);
        r
    }

    /// First record of this thread on this block: list a new shard, and
    /// drop the thread's shards of blocks that no longer exist.
    #[cold]
    fn register(&self, shards: &mut Vec<Entry>) -> *const AtomicU64 {
        shards.retain(|e| e.block.strong_count() > 0);
        let cells = zeroed(self.len);
        self.block.state.lock().live.push(cells.clone());
        let p = cells.as_ptr();
        shards.push(Entry {
            id: self.id,
            cells,
            block: Arc::downgrade(&self.block),
        });
        p
    }

    /// `cell[i] += n` on the calling thread's shard.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.with(|cells| bump(&cells[i], n));
    }

    /// Merge cells `[start, start + out.len())` of every shard into `out`.
    pub fn read(&self, start: usize, out: &mut [u64]) {
        let st = self.block.state.lock();
        out.copy_from_slice(&st.retired[start..start + out.len()]);
        for shard in &st.live {
            for (i, o) in out.iter_mut().enumerate() {
                self.block
                    .merge(start + i, o, shard[start + i].load(Relaxed));
            }
        }
    }

    /// The merged value of cell `i`.
    pub fn get(&self, i: usize) -> u64 {
        let mut out = [0];
        self.read(i, &mut out);
        out[0]
    }

    /// Zero every cell of every shard. Callers must ensure quiescence: a
    /// thread recording concurrently may write its pre-reset value back.
    pub fn reset(&self) {
        let mut st = self.block.state.lock();
        st.retired.fill(0);
        for c in st.live.iter().flat_map(|shard| shard.iter()) {
            c.store(0, Relaxed);
        }
    }

    /// Shards currently listed — one per live thread that has recorded
    /// here. Diagnostic, for the bounded-under-churn tests.
    pub fn live_shards(&self) -> usize {
        self.block.state.lock().live.len()
    }
}

impl std::fmt::Debug for PerThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerThread")
            .field("id", &self.id)
            .field("len", &self.len)
            .finish()
    }
}

/// Shards the calling thread holds, dead blocks' included until its next
/// registration prunes them. Diagnostic, for the lifetime tests.
pub fn shards_held_by_thread() -> usize {
    SHARDS.with(|s| s.0.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_add_and_maxes_max_across_threads_and_exits() {
        let p = PerThread::new(2, 1);
        std::thread::scope(|s| {
            let threads: Vec<_> = (1..=4u64)
                .map(|t| {
                    let p = &p;
                    s.spawn(move || {
                        p.add(0, t);
                        p.with(|c| raise(&c[2], 10 * t));
                    })
                })
                .collect();
            // Joined explicitly: the scope's own wait ends when the closures
            // return, before the threads' exit folds their shards.
            for t in threads {
                t.join().unwrap();
            }
        });
        p.add(1, u64::MAX);
        p.add(1, 2); // wraps, like the shared counter did
        let mut out = [0; 3];
        p.read(0, &mut out);
        assert_eq!(out, [10, 1, 40]);
        assert_eq!(p.live_shards(), 1, "exited threads folded their shards");
        p.reset();
        p.read(0, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn warm_record_takes_no_lock() {
        let p = PerThread::new(1, 0);
        p.add(0, 1); // registers this thread's shard
        let held = p.block.state.lock();
        p.add(0, 1); // would deadlock if the warm path locked
        drop(held);
        assert_eq!(p.get(0), 2);
    }

    #[test]
    fn dead_blocks_shards_are_pruned_and_ids_are_not_addresses() {
        std::thread::spawn(|| {
            let a = PerThread::new(1, 0);
            a.add(0, 7);
            let a_id = a.id;
            let a_block = Arc::as_ptr(&a.block);
            drop(a);
            assert_eq!(
                shards_held_by_thread(),
                1,
                "held until the next registration"
            );
            // Allocate blocks until one lands where `a` lived (the allocator
            // usually obliges at once); whether or not it does, the new
            // block starts from zero and under a fresh id.
            let mut keep = Vec::new();
            for _ in 0..64 {
                let b = PerThread::new(1, 0);
                assert_ne!(b.id, a_id);
                assert_eq!(b.get(0), 0);
                let same = Arc::as_ptr(&b.block) == a_block;
                keep.push(b);
                if same {
                    break;
                }
            }
            let b = keep.last().unwrap();
            b.add(0, 1);
            assert_eq!(b.get(0), 1);
            assert_eq!(
                shards_held_by_thread(),
                1,
                "a's shard pruned on registering b's"
            );
        })
        .join()
        .unwrap();
    }
}
