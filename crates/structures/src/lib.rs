//! # pgas-structures — non-blocking distributed data structures
//!
//! The structures the paper's introduction motivates ("even the most
//! primitive of non-blocking data structures, such as queues, stacks, and
//! linked lists") plus its announced first application (a concurrent hash
//! table), all built on `pgas-atomics` (`AtomicObject` / ABA) and
//! `pgas-epoch` (`EpochManager`):
//!
//! * [`LockFreeStack`] — Treiber stack, the paper's Listing 1.
//! * [`MsQueue`] — Michael–Scott FIFO queue.
//! * [`LockFreeList`] — Harris ordered set (mark bit in the compressed
//!   pointer): one chain.
//! * [`DistHashMap`] — hash map with buckets distributed across locales,
//!   the Interlocked-Hash-Table application from the paper's conclusion:
//!   many chains, each walked in place by whoever calls.
//! * [`LockFreeSkipList`] — ordered set with expected-logarithmic
//!   operations (Fraser's flagship EBR application).
//! * [`RcuArray`] — RCU-style distributed resizable array.
//!
//! On top of the flat structures sits the **global-view tier** (the
//! follow-up paper's privatization step): [`ShardedHashMap`] homes each
//! key's chain on its owning locale so locally-owned ops are
//! communication-free.
//!
//! The Harris chain protocol itself (search, insert, remove, the protected
//! read-only walk, teardown) is written once, in the private `chain`
//! module, together with the maps' bulk scatter/gather. The list and the
//! two maps are that module plus a policy for where chains live and who
//! runs an operation on them — the shared-memory algorithm and the
//! distribution policy kept apart, as the follow-up paper builds its
//! global-view structures. The skiplist keeps that shape for its towers:
//! one snipping search and one protected read-only walk.
//!
//! Every structure operation pins through one private lifecycle, which
//! clears the hazard slots the operation walked with and unpins on every
//! exit, unwinding included, so a panicking `K::cmp`, `V::clone` or bounds
//! assert never leaves a token pinned. The read-only accessors (`len`,
//! `is_empty`) are racy — exact only in quiescence — but pinned: each
//! registers a guard and reads under it, under either backend.
//!
//! All of them are usable from any locale; nodes carry the affinity of the
//! task that allocated them. Every structure is generic over its
//! reclamation backend (`R: Reclaimer`, defaulting to the epoch-based
//! `EpochManager`); substituting `HazardReclaimer` swaps in distributed
//! hazard pointers, whose per-pointer protection bounds garbage even
//! when a reader stalls forever (at the cost of charged hazard
//! publication on every traversal step).

#![warn(missing_docs)]

mod chain;
pub mod list;
pub mod map;
pub mod queue;
pub mod rcu_array;
pub mod sharded_map;
pub mod skiplist;
pub mod stack;

pub use list::LockFreeList;
pub use map::DistHashMap;
pub use queue::MsQueue;
pub use rcu_array::RcuArray;
pub use sharded_map::{ShardSnapshot, ShardedHashMap};
pub use skiplist::LockFreeSkipList;
pub use stack::LockFreeStack;

use pgas_epoch::ReclaimGuard;

/// Run `f` pinned; afterwards clear hazard slots `0..slots` (the ones the
/// operation walks with) and unpin, also when `f` unwinds: a user `K::cmp`,
/// a `V::clone` or a bounds assert may panic under the pin, and a token
/// left pinned would block every later advance. The one way a structure
/// operation pins.
pub(crate) fn pinned<G: ReclaimGuard, T>(tok: &G, slots: usize, f: impl FnOnce() -> T) -> T {
    struct Unpin<'g, G: ReclaimGuard>(&'g G, usize);
    impl<G: ReclaimGuard> Drop for Unpin<'_, G> {
        fn drop(&mut self) {
            (0..self.1).for_each(|slot| self.0.release(slot));
            self.0.unpin();
        }
    }
    tok.pin();
    let _unpin = Unpin(tok, slots);
    f()
}
