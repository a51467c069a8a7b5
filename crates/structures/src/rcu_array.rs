//! An RCU-like parallel-safe distributed resizable array.
//!
//! Modeled on RCUArray (Jenkins, IPDPSW'18 — reference \[15\] of the
//! paper, and one of the privatization-based structures the paper cites
//! as motivation). The array is a table of fixed-size *blocks*
//! distributed round-robin across locales. Reads and writes index
//! through the current table snapshot under the reclaimer's protection;
//! `grow` allocates additional blocks, publishes a **new table** with a
//! single `AtomicObject` CAS, and defers the old table to the
//! [`Reclaimer`] — readers concurrent with a grow keep using their
//! snapshot safely. Blocks themselves are never moved or freed until
//! the array drops, so element references remain stable across resizes
//! (the RCU property).
//!
//! The table cell is a *root*: protecting it under hazard pointers is
//! the simple published-then-revalidate loop (`protect_root`), with no
//! traversal validation subtleties — RCU-style single-indirection
//! structures are the friendliest case for HP.
//!
//! Elements are `u64` cells (the common case for index/descriptor
//! payloads); element reads/writes are atomic and charged as PGAS
//! GET/PUT when the block is remote.

#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_atomics::AtomicObject;
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, alloc_on, ctx, engine, GlobalPtr, LocaleId};

/// One fixed-size block of cells, owned by a single locale.
pub struct Block {
    cells: Box<[AtomicU64]>,
}

/// A snapshot table: the indirection layer that RCU swaps.
pub struct Table {
    blocks: Vec<GlobalPtr<Block>>,
    len: usize,
}

/// The resizable array, generic over its reclamation backend.
pub struct RcuArray<R: Reclaimer = EpochManager> {
    table: AtomicObject<Table>,
    em: R,
    block_size: usize,
}

// SAFETY: all shared state is atomics plus reclaimer-managed snapshots.
unsafe impl<R: Reclaimer> Send for RcuArray<R> {}
// SAFETY: as for `Send`.
unsafe impl<R: Reclaimer> Sync for RcuArray<R> {}

impl RcuArray {
    /// Create an array of `initial_len` zeroed cells using blocks of
    /// `block_size` elements, distributed over all locales, with the
    /// default epoch-based backend.
    pub fn new(block_size: usize, initial_len: usize) -> RcuArray {
        Self::with_reclaimer(block_size, initial_len)
    }

    /// The array's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<R: Reclaimer> RcuArray<R> {
    /// Create an array of `initial_len` zeroed cells using reclamation
    /// backend `R`.
    pub fn with_reclaimer(block_size: usize, initial_len: usize) -> RcuArray<R> {
        assert!(block_size >= 1, "block size must be at least 1");
        let rt = ctx::current_runtime();
        let n_blocks = initial_len.div_ceil(block_size);
        let blocks = (0..n_blocks)
            .map(|b| Self::alloc_block(b, block_size))
            .collect();
        let table = alloc_local(
            &rt,
            Table {
                blocks,
                len: initial_len,
            },
        );
        RcuArray {
            table: AtomicObject::new(table),
            em: R::default(),
            block_size,
        }
    }

    fn alloc_block(index: usize, block_size: usize) -> GlobalPtr<Block> {
        let rt = ctx::current_runtime();
        let owner = (index % rt.num_locales()) as LocaleId;
        alloc_on(
            &rt,
            owner,
            Block {
                cells: (0..block_size).map(|_| AtomicU64::new(0)).collect(),
            },
        )
    }

    /// Register the calling task for array operations.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Logical length of the current snapshot.
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::RcuArrayOp, opkind::LEN, 0);
        let g = self.em.register();
        g.pinned(1, || {
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            unsafe { g.protect_root(0, &self.table).deref() }.len
        })
    }

    /// True when the array has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The locale owning element `i`'s block.
    pub fn affinity(&self, i: usize) -> LocaleId {
        ctx::with_core(|core, _| ((i / self.block_size) % core.num_locales()) as LocaleId)
    }

    /// The block holding element `i`, looked up in the current snapshot
    /// under `tok`'s protection. Blocks outlive every snapshot, so the
    /// pointer stays valid after the unpin.
    ///
    /// # Panics
    /// If `i` is out of bounds of the current snapshot.
    fn block_of(&self, tok: &R::Guard<'_>, i: usize) -> GlobalPtr<Block> {
        tok.pinned(1, || {
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let t = unsafe { tok.protect_root(0, &self.table).deref() };
            assert!(i < t.len, "index {i} out of bounds (len {})", t.len);
            t.blocks[i / self.block_size]
        })
    }

    /// Read element `i` under the token's protection.
    ///
    /// # Panics
    /// If `i` is out of bounds of the current snapshot.
    pub fn read(&self, tok: &R::Guard<'_>, i: usize) -> u64 {
        let _span = OpSpan::start(OpClass::RcuArrayOp, opkind::READ, i as u64);
        let block = self.block_of(tok, i);
        ctx::with_core(|core, _| engine::get(core, block.locale(), 8));
        // SAFETY: blocks live until the array drops.
        unsafe { block.deref() }.cells[i % self.block_size].load(Ordering::SeqCst)
    }

    /// Write element `i` under the token's protection.
    ///
    /// # Panics
    /// If `i` is out of bounds of the current snapshot.
    pub fn write(&self, tok: &R::Guard<'_>, i: usize, v: u64) {
        let _span = OpSpan::start(OpClass::RcuArrayOp, opkind::WRITE, i as u64);
        let block = self.block_of(tok, i);
        ctx::with_core(|core, _| engine::put(core, block.locale(), 8));
        // SAFETY: blocks live until the array drops.
        unsafe { block.deref() }.cells[i % self.block_size].store(v, Ordering::SeqCst);
    }

    /// Grow the array to at least `new_len` cells. Lock-free: builds a
    /// new table (sharing all existing blocks), publishes it with one
    /// CAS, and defers the old table. Concurrent growers race; the loser
    /// retries on top of the winner's table. Returns the resulting
    /// length.
    pub fn grow(&self, tok: &R::Guard<'_>, new_len: usize) -> usize {
        let span = OpSpan::start(OpClass::RcuArrayOp, opkind::GROW, new_len as u64);
        tok.pinned(1, || loop {
            let cur_ptr = tok.protect_root(0, &self.table);
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let cur = unsafe { cur_ptr.deref() };
            if cur.len >= new_len {
                break cur.len;
            }
            let want_blocks = new_len.div_ceil(self.block_size);
            let mut blocks = cur.blocks.clone();
            while blocks.len() < want_blocks {
                blocks.push(Self::alloc_block(blocks.len(), self.block_size));
            }
            let fresh_from = cur.blocks.len();
            let rt = ctx::current_runtime();
            let new_table = alloc_local(
                &rt,
                Table {
                    blocks,
                    len: new_len,
                },
            );
            if self.table.compare_and_swap(cur_ptr, new_table) {
                tok.defer_delete(cur_ptr);
                break new_len;
            }
            // Lost the race: free our unpublished table and its *fresh*
            // blocks (shared older blocks belong to the winner's table).
            // SAFETY: never published, so nobody else can reach it.
            unsafe {
                let t = &*new_table.as_ptr();
                for &b in &t.blocks[fresh_from..] {
                    pgas_sim::free(&rt, b);
                }
                pgas_sim::free(&rt, new_table);
            }
            span.retry();
        })
    }

    /// Attempt an epoch advance / hazard scan (reclaims superseded
    /// tables). What it can free is stated at [`Reclaimer::try_reclaim`].
    pub fn try_reclaim(&self) -> bool {
        self.em.try_reclaim()
    }

    /// Reclaim everything; callers must guarantee quiescence.
    pub fn clear_reclaim(&self) {
        self.em.clear()
    }

    /// The array's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<R: Reclaimer> Drop for RcuArray<R> {
    fn drop(&mut self) {
        let teardown = || {
            let rt = ctx::current_runtime();
            let t_ptr = self.table.read();
            // SAFETY: quiescent teardown; the final table owns all blocks.
            unsafe {
                let t = &*t_ptr.as_ptr();
                for &b in &t.blocks {
                    pgas_sim::free(&rt, b);
                }
                pgas_sim::free(&rt, t_ptr);
            }
        };
        self.em.runtime().run_here_or_enter(teardown);
    }
}

impl<R: Reclaimer> std::fmt::Debug for RcuArray<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuArray")
            .field("len", &self.len())
            .field("block_size", &self.block_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::sync::atomic::AtomicUsize;

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn read_write_roundtrip() {
        let rt = zrt(2);
        rt.run(|| {
            let a = RcuArray::new(4, 10);
            let tok = a.register();
            assert_eq!(a.len(), 10);
            for i in 0..10 {
                assert_eq!(a.read(&tok, i), 0, "zero-initialized");
                a.write(&tok, i, i as u64 * 3);
            }
            for i in 0..10 {
                assert_eq!(a.read(&tok, i), i as u64 * 3);
            }
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn blocks_distributed_round_robin() {
        let rt = zrt(3);
        rt.run(|| {
            let a = RcuArray::new(2, 12); // 6 blocks over 3 locales
            assert_eq!(a.affinity(0), 0);
            assert_eq!(a.affinity(2), 1);
            assert_eq!(a.affinity(4), 2);
            assert_eq!(a.affinity(6), 0);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn grow_preserves_existing_elements() {
        let rt = zrt(2);
        rt.run(|| {
            let a = RcuArray::new(4, 8);
            let tok = a.register();
            for i in 0..8 {
                a.write(&tok, i, 100 + i as u64);
            }
            assert_eq!(a.grow(&tok, 20), 20);
            assert_eq!(a.len(), 20);
            for i in 0..8 {
                assert_eq!(a.read(&tok, i), 100 + i as u64, "stable across grow");
            }
            a.write(&tok, 19, 7);
            assert_eq!(a.read(&tok, 19), 7);
            drop(tok);
            a.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn grow_to_smaller_is_noop() {
        let rt = zrt(1);
        rt.run(|| {
            let a = RcuArray::new(4, 16);
            let tok = a.register();
            assert_eq!(a.grow(&tok, 8), 16);
            assert_eq!(a.len(), 16);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn readers_survive_concurrent_grows() {
        let rt = zrt(2);
        rt.run(|| {
            let a = RcuArray::new(8, 64);
            {
                let tok = a.register();
                for i in 0..64 {
                    a.write(&tok, i, i as u64);
                }
            }
            rt.coforall_tasks(4, |t| {
                let tok = a.register();
                if t == 0 {
                    for step in 1..=10 {
                        a.grow(&tok, 64 + step * 32);
                        a.try_reclaim();
                    }
                } else {
                    for _ in 0..300 {
                        let i = (t * 13) % 64;
                        assert_eq!(a.read(&tok, i), i as u64, "snapshot stays valid");
                    }
                }
            });
            assert_eq!(a.len(), 64 + 320);
            a.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn racing_growers_converge() {
        let rt = zrt(2);
        rt.run(|| {
            let a = RcuArray::new(4, 4);
            let grows = AtomicUsize::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = a.register();
                let target = 4 + (t + 1) * 16;
                a.grow(&tok, target);
                grows.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(a.len(), 4 + 4 * 16, "max target wins");
            a.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0, "losers' tables and blocks freed");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let rt = zrt(1);
        rt.run(|| {
            let a = RcuArray::new(4, 4);
            let tok = a.register();
            let _ = a.read(&tok, 4);
        });
    }

    #[test]
    fn an_out_of_bounds_read_leaves_the_caller_unpinned() {
        let rt = zrt(1);
        rt.run(|| {
            let a = RcuArray::new(4, 4);
            let tok = a.register();
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.read(&tok, 4)));
            assert!(got.is_err(), "the bounds assert fired");
            assert!(!tok.is_pinned());
            assert!(a.try_reclaim());
            assert!(
                a.try_reclaim(),
                "a token left pinned in the first epoch would block this advance"
            );
            assert_eq!(a.read(&tok, 3), 0, "the array still works");
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn remote_cells_charge_get_put() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let a = RcuArray::new(2, 8); // blocks alternate locales
            let tok = a.register();
            rt.reset_metrics();
            a.write(&tok, 2, 9); // block 1 → locale 1 (remote)
            let _ = a.read(&tok, 2);
            let s = rt.total_comm();
            assert_eq!(s.puts, 1);
            assert_eq!(s.gets, 1);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_grows_and_reclaims_tables() {
        use pgas_epoch::HazardReclaimer;
        let rt = zrt(2);
        rt.run(|| {
            let a = RcuArray::<HazardReclaimer>::with_reclaimer(8, 32);
            {
                let tok = a.register();
                for i in 0..32 {
                    a.write(&tok, i, i as u64 + 1);
                }
            }
            rt.coforall_tasks(4, |t| {
                let tok = a.register();
                if t == 0 {
                    for step in 1..=8 {
                        a.grow(&tok, 32 + step * 16);
                    }
                } else {
                    for r in 0..200 {
                        let i = (t * 7 + r) % 32;
                        assert_eq!(a.read(&tok, i), i as u64 + 1);
                    }
                }
            });
            assert_eq!(a.len(), 32 + 128);
            a.clear_reclaim();
            let snap = a.reclaimer().stats();
            assert_eq!(
                snap.objects_deferred, snap.objects_reclaimed,
                "every superseded table reclaimed"
            );
            assert_eq!(snap.objects_deferred, 8, "one table retired per grow");
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
