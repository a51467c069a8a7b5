//! A lock-free ordered set (Harris's linked list) over global pointers.
//!
//! Linked lists are the third structure the paper's introduction calls out
//! as blocked on object atomics. The algorithm — mark the outgoing link of
//! the doomed node, then unlink it; traversals snip marked nodes as they
//! pass; the mark lives in the low bit of the compressed global pointer,
//! the same word the NIC can CAS — is not written here: it is the crate's
//! `chain` module, which the hash maps' buckets run too. A list is one
//! chain homed on the creating locale with every `hash` 0 and no value, so
//! chain order `(hash, key)` is key order.
//!
//! Reclamation of unlinked nodes is deferred to the structure's
//! [`Reclaimer`] (epoch-based by default): a node is handed to
//! `defer_delete` by exactly the task whose CAS physically unlinked it.
//! Under hazard pointers the chain protects `pred`/`curr` hand-over-hand
//! in slots 0 and 1.

use std::hash::Hash;

use pgas_epoch::{EpochManager, Reclaimer};
use pgas_sim::telemetry::{key_hash64, opkind, OpClass, OpSpan};
use pgas_sim::{ctx, GlobalPtr};

use crate::chain::{
    alloc_sentinel, chain_count, chain_get, chain_insert, chain_remove, chain_teardown, Node,
};
use crate::pinned;

/// A lock-free sorted set keyed by `K`, generic over its reclamation
/// backend.
pub struct LockFreeList<K: Ord + Copy + Hash + Send, R: Reclaimer = EpochManager> {
    /// Sentinel node; never removed, its key is never examined.
    head: GlobalPtr<Node<K, ()>>,
    em: R,
}

// SAFETY: shared state is atomics + the reclaimer; keys are Copy + Send.
unsafe impl<K: Ord + Copy + Hash + Send, R: Reclaimer> Send for LockFreeList<K, R> {}
unsafe impl<K: Ord + Copy + Hash + Send, R: Reclaimer> Sync for LockFreeList<K, R> {}

impl<K: Ord + Copy + Hash + Send + 'static> LockFreeList<K> {
    /// Create an empty set homed on the current locale, with the default
    /// epoch-based backend.
    pub fn new() -> LockFreeList<K> {
        Self::with_reclaimer()
    }

    /// The list's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> LockFreeList<K, R> {
    /// Create an empty set using reclamation backend `R`.
    pub fn with_reclaimer() -> LockFreeList<K, R> {
        LockFreeList {
            head: alloc_sentinel(&ctx::current_runtime(), ctx::here()),
            em: R::new_in_runtime(),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Insert `key`; returns `false` if already present.
    pub fn insert(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let span = OpSpan::start(OpClass::ListOp, opkind::INSERT, key_hash64(&key));
        chain_insert::<K, (), R>(tok, self.head, 0, key, (), Some(&span))
    }

    /// Remove `key`; returns `false` if absent.
    pub fn remove(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let span = OpSpan::start(OpClass::ListOp, opkind::REMOVE, key_hash64(&key));
        chain_remove::<K, (), R>(tok, self.head, 0, &key, Some(&span))
    }

    /// Membership test. Does not modify the list (no snipping), so it is
    /// read-only with respect to communication.
    pub fn contains(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let _span = OpSpan::start(OpClass::ListOp, opkind::CONTAINS, key_hash64(&key));
        chain_get::<K, (), R>(tok, self.head, 0, &key).is_some()
    }

    /// Number of unmarked nodes (racy; exact in quiescence).
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::ListOp, opkind::LEN, 0);
        let g = self.em.register();
        pinned(&g, 2, || chain_count::<K, (), R>(&g, self.head))
    }

    /// True when no unmarked nodes remain (racy; exact in quiescence).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt an epoch advance / hazard scan + reclamation. What it can
    /// free is stated at [`Reclaimer::try_reclaim`].
    pub fn try_reclaim(&self) -> bool {
        self.em.try_reclaim()
    }

    /// Reclaim everything; callers must guarantee quiescence.
    pub fn clear_reclaim(&self) {
        self.em.clear()
    }

    /// The list's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> Default for LockFreeList<K, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<K: Ord + Copy + Hash + Send, R: Reclaimer> Drop for LockFreeList<K, R> {
    fn drop(&mut self) {
        // SAFETY: quiescent teardown (`&mut self`).
        let teardown = || unsafe { chain_teardown(&ctx::current_runtime(), self.head) };
        self.em.runtime().run_here_or_enter(teardown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_epoch::HazardReclaimer;
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            let tok = l.register();
            assert!(l.insert(&tok, 5u64));
            assert!(l.insert(&tok, 3));
            assert!(l.insert(&tok, 9));
            assert!(!l.insert(&tok, 5), "duplicate rejected");
            assert!(l.contains(&tok, 3));
            assert!(l.contains(&tok, 5));
            assert!(!l.contains(&tok, 4));
            assert_eq!(l.len(), 3);
            assert!(l.remove(&tok, 5));
            assert!(!l.remove(&tok, 5), "already gone");
            assert!(!l.contains(&tok, 5));
            assert_eq!(l.len(), 2);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn keys_stay_sorted_internally() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            let tok = l.register();
            for k in [5u64, 1, 9, 3, 7] {
                assert!(l.insert(&tok, k));
            }
            // Walk the raw chain and check ordering.
            let mut keys = Vec::new();
            let mut curr = unsafe { l.head.deref() }.next.read().without_mark();
            while !curr.is_null() {
                keys.push(unsafe { curr.deref().key() });
                curr = unsafe { curr.deref() }.next.read().without_mark();
            }
            assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        });
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            rt.coforall_tasks(4, |t| {
                let tok = l.register();
                for i in 0..100u64 {
                    assert!(l.insert(&tok, (t as u64) * 1000 + i));
                }
            });
            assert_eq!(l.len(), 400);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn concurrent_same_key_insert_one_winner() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            let wins = AtomicUsize::new(0);
            rt.coforall_tasks(6, |_| {
                let tok = l.register();
                if l.insert(&tok, 42u64) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            assert_eq!(l.len(), 1);
        });
    }

    #[test]
    fn concurrent_remove_exactly_one_winner() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            {
                let tok = l.register();
                for k in 0..20u64 {
                    l.insert(&tok, k);
                }
            }
            let removed = AtomicUsize::new(0);
            rt.coforall_tasks(4, |_| {
                let tok = l.register();
                for k in 0..20u64 {
                    if l.remove(&tok, k) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(removed.load(Ordering::Relaxed), 20, "each key removed once");
            assert!(l.is_empty());
            l.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn mixed_churn_matches_sequential_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::new();
            let tok = l.register();
            let mut model = std::collections::BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..2000 {
                let k: u8 = rng.gen_range(0..64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(l.insert(&tok, k), model.insert(k)),
                    1 => assert_eq!(l.remove(&tok, k), model.remove(&k)),
                    _ => assert_eq!(l.contains(&tok, k), model.contains(&k)),
                }
            }
            assert_eq!(l.len(), model.len());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn distributed_inserts_from_all_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let l = LockFreeList::new();
            rt.coforall_locales(|loc| {
                let tok = l.register();
                for i in 0..25u64 {
                    assert!(l.insert(&tok, (loc as u64) * 100 + i));
                }
            });
            assert_eq!(l.len(), 100);
            let tok = l.register();
            assert!(l.contains(&tok, 301));
            assert!(!l.contains(&tok, 326));
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_churn_matches_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::<u8, HazardReclaimer>::with_reclaimer();
            let tok = l.register();
            let mut model = std::collections::BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..2000 {
                let k: u8 = rng.gen_range(0..64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(l.insert(&tok, k), model.insert(k)),
                    1 => assert_eq!(l.remove(&tok, k), model.remove(&k)),
                    _ => assert_eq!(l.contains(&tok, k), model.contains(&k)),
                }
            }
            assert_eq!(l.len(), model.len());
            drop(tok);
            l.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_concurrent_removes() {
        let rt = zrt(1);
        rt.run(|| {
            let l = LockFreeList::<u64, HazardReclaimer>::with_reclaimer();
            {
                let tok = l.register();
                for k in 0..40u64 {
                    l.insert(&tok, k);
                }
            }
            let removed = AtomicUsize::new(0);
            rt.coforall_tasks(4, |_| {
                let tok = l.register();
                for k in 0..40u64 {
                    if l.remove(&tok, k) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(removed.load(Ordering::Relaxed), 40);
            assert!(l.is_empty());
            l.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
