//! A lock-free skiplist set (Herlihy–Shavit / Fraser style) on PGAS
//! atomics with pluggable reclamation.
//!
//! The ordered-set structures the paper's building blocks enable do not
//! stop at linked lists: Fraser's practical-lock-freedom thesis — the
//! EBR source the paper builds on \[10\] — used skiplists as its flagship
//! application. This is that structure on `AtomicObject` towers:
//!
//! * each node owns a tower of `next` pointers; level 0 is the Harris
//!   list that defines membership, upper levels are index shortcuts;
//! * removal marks the tower top-down, and the level-0 mark is the
//!   linearization point of a successful `remove`;
//! * node heights come from a deterministic hash of the node address
//!   (geometric, p = 1/2), so no RNG state is shared.
//!
//! ## One search, one walk
//!
//! The towers follow the Harris chain's split (the private `chain`
//! module, which serves [`crate::LockFreeList`] and both maps):
//!
//! * `find` is the one snipping search. `insert` and `remove` use it; it
//!   unlinks marked nodes per level, and the task whose CAS unlinks a node
//!   at **level 0** hands it to the [`Reclaimer`] (exactly-once
//!   retirement).
//! * `walk` is the one protected read-only walk. `contains`,
//!   `collect_range` and `len` fold over it. It descends the index levels
//!   to the first node not before a start key, then folds level 0, and
//!   never writes. EBR steps over marked links; HP cannot (the marked
//!   node's successor may already be retired), so it starts over, and
//!   relies on `remove`'s trailing `find` for the link to be gone
//!   eventually.
//!
//! ## Hazard pointers and the index levels
//!
//! Under a hazard-pointer backend the tower height is capped at 1, so
//! the structure degenerates to the (proven) Harris-list protocol. The
//! reason is fundamental, not an implementation shortcut: a node is
//! retired when it is unlinked at level 0, but a racing `insert` that
//! already passed its mark check can still splice the node into an index
//! level afterwards. The node is then *reachable* at that level while
//! retired, so the hand-over-hand validation ("my predecessor still
//! points at it") can succeed on freed memory — exactly the multi-link
//! hazard-pointer weakness that makes EBR the paper's default. EBR
//! instantiations keep the full towers (a grace period covers transient
//! relinks); A8 quantifies what the cap costs HP in exchange for stall
//! tolerance.

#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

use std::hash::Hash;
use std::mem::MaybeUninit;

use pgas_atomics::AtomicObject;
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::{key_hash64, opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, ctx, GlobalPtr};

/// Maximum tower height (supports ~2^16 elements at p = 1/2 comfortably).
pub const MAX_HEIGHT: usize = 12;

/// One skiplist node: key + full-height tower (levels ≥ `height` unused).
pub struct Node<K> {
    key: MaybeUninit<K>,
    height: usize,
    next: [AtomicObject<Node<K>>; MAX_HEIGHT],
}

impl<K: Copy> Node<K> {
    /// # Safety
    /// Must not be called on the head sentinel.
    #[inline]
    unsafe fn key(&self) -> K {
        // SAFETY: every node but the head is built with its key.
        unsafe { self.key.assume_init() }
    }
}

/// Geometric height from a deterministic hash of the node address. The
/// hash is SplitMix64's finalizer, which mixes every address bit into every
/// output bit, so heights do not follow the allocator's stride (a plain
/// xorshift's low bits track single address bits).
fn height_for(addr: usize) -> usize {
    let mut x = (addr as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // count trailing ones of the hash, capped
    ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
}

/// A lock-free sorted set with expected-logarithmic operations (under
/// EBR; see the module docs for the hazard-pointer height cap).
pub struct LockFreeSkipList<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer = EpochManager> {
    head: GlobalPtr<Node<K>>,
    em: R,
}

// SAFETY: shared state is atomic towers plus the reclaimer.
unsafe impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> Send for LockFreeSkipList<K, R> {}
// SAFETY: as for `Send`.
unsafe impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> Sync for LockFreeSkipList<K, R> {}

type FindResult<K> = (
    [GlobalPtr<Node<K>>; MAX_HEIGHT],
    [GlobalPtr<Node<K>>; MAX_HEIGHT],
    bool,
);

impl<K: Ord + Copy + Hash + Send + 'static> LockFreeSkipList<K> {
    /// An empty set homed on the current locale, with the default
    /// epoch-based backend.
    pub fn new() -> LockFreeSkipList<K> {
        Self::with_reclaimer()
    }

    /// The set's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> LockFreeSkipList<K, R> {
    /// An empty set using reclamation backend `R`.
    pub fn with_reclaimer() -> LockFreeSkipList<K, R> {
        let head = alloc_local(
            &ctx::current_runtime(),
            Node {
                key: MaybeUninit::uninit(),
                height: MAX_HEIGHT,
                next: std::array::from_fn(|_| AtomicObject::null()),
            },
        );
        LockFreeSkipList {
            head,
            em: R::default(),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Find predecessors/successors of `key` at every level, snipping
    /// marked nodes; the level-0 snipper retires the node. Caller must be
    /// pinned. Under HP the walking pair is protected hand-over-hand in
    /// slots 0/1 (only level 0 is populated, see the module docs), so on
    /// return `preds[0]`/`succs[0]` are protected.
    fn find(&self, tok: &R::Guard<'_>, key: &K) -> FindResult<K> {
        'retry: loop {
            let mut preds = [GlobalPtr::null(); MAX_HEIGHT];
            let mut succs = [GlobalPtr::null(); MAX_HEIGHT];
            let mut pred = self.head;
            // SAFETY: the head is never reclaimed while the set lives.
            let mut pred_ref = unsafe { pred.deref() };
            // `curr` is protected in `slot`, `pred` in the other one.
            let mut slot = 0usize;
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr = pred_ref.next[level].read().without_mark();
                if !curr.is_null()
                    && !tok.protect_ptr(slot, curr, || pred_ref.next[level].read() == curr)
                {
                    continue 'retry;
                }
                while !curr.is_null() {
                    // SAFETY: protected — pinned (EBR) or validated (HP).
                    let curr_ref = unsafe { curr.deref() };
                    let succ = curr_ref.next[level].read();
                    if succ.is_marked() {
                        // Physically unlink at this level.
                        if !pred_ref.next[level].compare_and_swap(curr, succ.without_mark()) {
                            continue 'retry;
                        }
                        if level == 0 {
                            // The level-0 unlink completes physical
                            // removal: retire exactly once.
                            tok.defer_delete(curr);
                        }
                        curr = succ.without_mark();
                        if !curr.is_null()
                            && !tok.protect_ptr(slot, curr, || pred_ref.next[level].read() == curr)
                        {
                            continue 'retry;
                        }
                        continue;
                    }
                    // SAFETY: `curr` is an entry node, never the head.
                    if unsafe { curr_ref.key() } >= *key {
                        break;
                    }
                    pred = curr;
                    pred_ref = curr_ref;
                    slot ^= 1;
                    curr = succ;
                    if !tok.protect_ptr(slot, curr, || pred_ref.next[level].read() == succ) {
                        continue 'retry;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            // SAFETY: a non-null `succs[0]` is a protected entry node.
            let found = !succs[0].is_null() && unsafe { succs[0].deref().key() } == *key;
            return (preds, succs, found);
        }
    }

    /// The one protected read-only walk (module docs): folds `visit` over
    /// the live level-0 keys not before `from`, in order, until it returns
    /// `false`. Caller must be pinned; HP protects in slots 0/1.
    fn walk<T: Default>(
        &self,
        tok: &R::Guard<'_>,
        from: Option<K>,
        mut visit: impl FnMut(&mut T, K) -> bool,
    ) -> T {
        'retry: loop {
            let mut acc = T::default();
            // SAFETY: the head is never reclaimed while the set lives.
            let mut pred_ref = unsafe { self.head.deref() };
            let mut slot = 0usize;
            let top = if from.is_some() { MAX_HEIGHT } else { 1 };
            for level in (0..top).rev() {
                let mut curr = pred_ref.next[level].read().without_mark();
                if !curr.is_null()
                    && !tok.protect_ptr(slot, curr, || pred_ref.next[level].read() == curr)
                {
                    continue 'retry;
                }
                while !curr.is_null() {
                    // SAFETY: protected — pinned (EBR) or validated (HP).
                    let curr_ref = unsafe { curr.deref() };
                    let succ = curr_ref.next[level].read();
                    if succ.is_marked() {
                        if R::NEEDS_PROTECT {
                            continue 'retry;
                        }
                        curr = succ.without_mark();
                        continue;
                    }
                    // SAFETY: `curr` is an entry node, never the head.
                    let k = unsafe { curr_ref.key() };
                    if from.is_some_and(|from| k < from) {
                        pred_ref = curr_ref;
                    } else if level > 0 || !visit(&mut acc, k) {
                        break;
                    }
                    slot ^= 1;
                    curr = succ;
                    if !curr.is_null()
                        && !tok.protect_ptr(slot, curr, || curr_ref.next[level].read() == succ)
                    {
                        continue 'retry;
                    }
                }
            }
            return acc;
        }
    }

    /// Insert `key`; `false` if already present.
    pub fn insert(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let span = OpSpan::start(OpClass::SkipListOp, opkind::INSERT, key_hash64(&key));
        tok.pinned(2, || 'outer: loop {
            let (mut preds, mut succs, found) = self.find(tok, &key);
            if found {
                break false;
            }
            let node = alloc_local(
                &ctx::current_runtime(),
                Node {
                    key: MaybeUninit::new(key),
                    height: 0, // patched below (needs the address)
                    next: std::array::from_fn(|_| AtomicObject::null()),
                },
            );
            // Full geometric towers under EBR, 1 under HP (module docs).
            let height = if R::NEEDS_PROTECT {
                1
            } else {
                height_for(node.addr())
            };
            // SAFETY: unpublished, so this task owns it outright.
            unsafe { &mut *node.as_ptr() }.height = height;
            // SAFETY: live while pinned (EBR); under HP (height 1) it is
            // not read once the level-0 CAS has published it.
            let node_ref = unsafe { node.deref() };
            for (level, &succ) in succs.iter().enumerate().take(height) {
                node_ref.next[level].write(succ);
            }
            // Linearization: link level 0.
            // SAFETY: `preds[0]` is protected by find's walking slots.
            if !unsafe { preds[0].deref() }.next[0].compare_and_swap(succs[0], node) {
                // Lost the race; the node is unpublished — free and retry.
                // SAFETY: never published; `K: Copy` needs no drop.
                unsafe { pgas_sim::free(&ctx::current_runtime(), node) };
                span.retry();
                continue;
            }
            // Link the index levels (best effort; removal may intervene).
            for level in 1..height {
                loop {
                    let node_next = node_ref.next[level].read();
                    if node_next.is_marked() {
                        // Node is being removed; stop indexing it.
                        break 'outer true;
                    }
                    // Point the node at the current successor first…
                    if node_next != succs[level]
                        && !node_ref.next[level].compare_and_swap(node_next, succs[level])
                    {
                        continue; // re-read (marked or raced)
                    }
                    // …then splice it in.
                    // SAFETY: pinned; index levels exist only under EBR.
                    if unsafe { preds[level].deref() }.next[level]
                        .compare_and_swap(succs[level], node)
                    {
                        break;
                    }
                    // The neighborhood changed: recompute it.
                    let (p, s, _) = self.find(tok, &key);
                    // If the node vanished from level 0, it was removed.
                    if s[0] != node {
                        break 'outer true;
                    }
                    preds = p;
                    succs = s;
                }
            }
            break true;
        })
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let _span = OpSpan::start(OpClass::SkipListOp, opkind::REMOVE, key_hash64(&key));
        tok.pinned(2, || {
            let (_, succs, found) = self.find(tok, &key);
            if !found {
                return false;
            }
            // SAFETY: protected by find's walking slots (held until the
            // next find call, by which point `node` is no longer used).
            let node = unsafe { succs[0].deref() };
            // Mark the index levels top-down (idempotent).
            for level in (1..node.height).rev() {
                loop {
                    let succ = node.next[level].read();
                    if succ.is_marked() || node.next[level].compare_and_swap(succ, succ.with_mark())
                    {
                        break;
                    }
                }
            }
            // Level 0 mark: the linearization point. Exactly one remover
            // wins it; a CAS that fails because the successor moved retries,
            // one that fails because the mark landed concedes.
            loop {
                let succ = node.next[0].read();
                if succ.is_marked() {
                    return false; // somebody else removed it first
                }
                if node.next[0].compare_and_swap(succ, succ.with_mark()) {
                    // Trigger physical unlink (and the retirement, inside
                    // find's level-0 snip).
                    let _ = self.find(tok, &key);
                    return true;
                }
            }
        })
    }

    /// Membership test (read-only: no snipping).
    pub fn contains(&self, tok: &R::Guard<'_>, key: K) -> bool {
        let _span = OpSpan::start(OpClass::SkipListOp, opkind::CONTAINS, key_hash64(&key));
        tok.pinned(2, || {
            self.walk(tok, Some(key), |found, k| {
                *found = k == key;
                false
            })
        })
    }

    /// Collect every present key in `[lo, hi)` under the token's pin —
    /// a consistent-enough snapshot for range queries (keys inserted or
    /// removed concurrently may or may not appear, as with any lock-free
    /// range scan).
    pub fn collect_range(&self, tok: &R::Guard<'_>, lo: K, hi: K) -> Vec<K> {
        let _span = OpSpan::start(OpClass::SkipListOp, opkind::RANGE, key_hash64(&lo));
        tok.pinned(2, || {
            self.walk(tok, Some(lo), |out: &mut Vec<K>, k| {
                if k < hi {
                    out.push(k);
                }
                k < hi
            })
        })
    }

    /// Number of present keys (racy; exact in quiescence).
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::SkipListOp, opkind::LEN, 0);
        let g = self.em.register();
        g.pinned(2, || {
            self.walk(&g, None, |n: &mut usize, _| {
                *n += 1;
                true
            })
        })
    }

    /// True when empty (racy; exact in quiescence).
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

    /// The set's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> Default for LockFreeSkipList<K, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<K: Ord + Copy + Hash + Send + 'static, R: Reclaimer> Drop for LockFreeSkipList<K, R> {
    fn drop(&mut self) {
        let teardown = || {
            let rt = ctx::current_runtime();
            // Quiescent teardown: walk level 0 and free everything.
            let mut curr = self.head;
            while !curr.is_null() {
                // SAFETY: quiescent; each node is read, then freed, once.
                let next = unsafe { curr.deref() }.next[0].read().without_mark();
                // SAFETY: as above.
                unsafe { pgas_sim::free(&rt, curr) };
                curr = next;
            }
        };
        self.em.runtime().run_here_or_enter(teardown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            for k in [50u64, 10, 90, 30, 70] {
                assert!(s.insert(&tok, k));
            }
            assert!(!s.insert(&tok, 50), "duplicate");
            assert_eq!(s.len(), 5);
            assert!(s.contains(&tok, 30));
            assert!(!s.contains(&tok, 31));
            assert!(s.remove(&tok, 30));
            assert!(!s.remove(&tok, 30));
            assert!(!s.contains(&tok, 30));
            assert_eq!(s.len(), 4);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn bottom_level_stays_sorted() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            for k in [9u64, 1, 7, 3, 5, 8, 2, 6, 4, 0] {
                s.insert(&tok, k);
            }
            let mut keys = Vec::new();
            let mut curr = unsafe { s.head.deref() }.next[0].read().without_mark();
            while !curr.is_null() {
                keys.push(unsafe { curr.deref().key() });
                curr = unsafe { curr.deref() }.next[0].read().without_mark();
            }
            assert_eq!(keys, (0..10).collect::<Vec<u64>>());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn towers_never_skip_present_keys() {
        // Index-level invariant: any key reachable at level L is also
        // reachable at every lower level.
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            for k in 0..200u64 {
                s.insert(&tok, k * 3);
            }
            for level in 1..MAX_HEIGHT {
                let mut curr = unsafe { s.head.deref() }.next[level].read().without_mark();
                while !curr.is_null() {
                    let key = unsafe { curr.deref().key() };
                    assert!(s.contains(&tok, key), "level {level} key {key}");
                    curr = unsafe { curr.deref() }.next[level].read().without_mark();
                }
            }
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn heights_are_geometricish() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            for k in 0..512u64 {
                s.insert(&tok, k);
            }
            // Count nodes per level; level 1 should be roughly half of
            // level 0 (very loose bounds — the hash is deterministic).
            let count_level = |level: usize| {
                let mut n = 0;
                let mut curr = unsafe { s.head.deref() }.next[level].read().without_mark();
                while !curr.is_null() {
                    n += 1;
                    curr = unsafe { curr.deref() }.next[level].read().without_mark();
                }
                n
            };
            let l0 = count_level(0);
            let l1 = count_level(1);
            assert_eq!(l0, 512);
            assert!(
                l1 > 512 / 8 && l1 < 512 * 7 / 8,
                "level 1 should thin out the list: {l1}"
            );
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn model_check_against_btreeset() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            let mut model = std::collections::BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(4242);
            for step in 0..3000 {
                let k: u8 = rng.gen_range(0..96);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(s.insert(&tok, k), model.insert(k), "step {step}"),
                    1 => assert_eq!(s.remove(&tok, k), model.remove(&k), "step {step}"),
                    _ => assert_eq!(s.contains(&tok, k), model.contains(&k), "step {step}"),
                }
                if step % 500 == 0 {
                    s.try_reclaim();
                }
            }
            assert_eq!(s.len(), model.len());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn collect_range_returns_sorted_window() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            for k in 0..100u64 {
                s.insert(&tok, k * 2); // evens only
            }
            let r = s.collect_range(&tok, 30, 50);
            assert_eq!(r, vec![30, 32, 34, 36, 38, 40, 42, 44, 46, 48]);
            let empty = s.collect_range(&tok, 31, 32);
            assert!(empty.is_empty());
            let all = s.collect_range(&tok, 0, u64::MAX);
            assert_eq!(all.len(), 100);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            rt.coforall_tasks(4, |t| {
                let tok = s.register();
                for i in 0..150u64 {
                    assert!(s.insert(&tok, t as u64 * 1000 + i));
                }
            });
            assert_eq!(s.len(), 600);
            let tok = s.register();
            assert!(s.contains(&tok, 2075));
            assert!(!s.contains(&tok, 2150));
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn concurrent_insert_remove_churn_conserves() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let net = AtomicUsize::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = s.register();
                for i in 0..250u32 {
                    let k = ((t as u32 * 37 + i) % 128) as u16;
                    if i % 2 == 0 {
                        if s.insert(&tok, k) {
                            net.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if s.remove(&tok, k) {
                        net.fetch_sub(1, Ordering::Relaxed);
                    }
                    if i % 64 == 0 {
                        s.try_reclaim();
                    }
                }
            });
            assert_eq!(s.len(), net.load(Ordering::Relaxed));
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn same_key_racers_one_winner() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let wins = AtomicUsize::new(0);
            rt.coforall_tasks(6, |_| {
                let tok = s.register();
                if s.insert(&tok, 7u64) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            let removes = AtomicUsize::new(0);
            rt.coforall_tasks(6, |_| {
                let tok = s.register();
                if s.remove(&tok, 7u64) {
                    removes.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(removes.load(Ordering::Relaxed), 1);
            assert!(s.is_empty());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn distributed_use_across_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let s = LockFreeSkipList::new();
            rt.coforall_locales(|l| {
                let tok = s.register();
                for i in 0..50u64 {
                    assert!(s.insert(&tok, l as u64 * 100 + i));
                }
                for i in 0..50u64 {
                    if i % 2 == 0 {
                        assert!(s.remove(&tok, l as u64 * 100 + i));
                    }
                }
            });
            assert_eq!(s.len(), 4 * 25);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    /// A key whose next comparison panics once `ARMED` is set.
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct CmpBomb(u8);

    impl PartialOrd for CmpBomb {
        fn partial_cmp(&self, other: &CmpBomb) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for CmpBomb {
        fn cmp(&self, other: &CmpBomb) -> std::cmp::Ordering {
            if ARMED.swap(false, Ordering::SeqCst) {
                panic!("cmp bomb");
            }
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn a_key_cmp_that_panics_leaves_the_caller_unpinned() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::<CmpBomb>::new();
            let tok = s.register();
            assert!(s.insert(&tok, CmpBomb(1)));
            for op in ["insert", "contains"] {
                ARMED.store(true, Ordering::SeqCst);
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    "insert" => s.insert(&tok, CmpBomb(2)),
                    _ => s.contains(&tok, CmpBomb(1)),
                }));
                assert!(got.is_err(), "{op}: the comparison panicked");
                assert!(!tok.is_pinned(), "{op}");
                assert!(s.try_reclaim(), "{op}");
                assert!(
                    s.try_reclaim(),
                    "{op}: a token left pinned in the first epoch would block this advance"
                );
            }
            assert!(s.contains(&tok, CmpBomb(1)), "the set still works");
            assert_eq!(s.len(), 1);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_caps_height_and_stays_correct() {
        use pgas_epoch::HazardReclaimer;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::<u8, HazardReclaimer>::with_reclaimer();
            let tok = s.register();
            let mut model = std::collections::BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..2000 {
                let k: u8 = rng.gen_range(0..96);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(s.insert(&tok, k), model.insert(k)),
                    1 => assert_eq!(s.remove(&tok, k), model.remove(&k)),
                    _ => assert_eq!(s.contains(&tok, k), model.contains(&k)),
                }
            }
            assert_eq!(s.len(), model.len());
            // Height cap: no index levels under HP.
            assert!(unsafe { s.head.deref() }.next[1].read().is_null());
            drop(tok);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_concurrent_churn() {
        use pgas_epoch::HazardReclaimer;
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeSkipList::<u16, HazardReclaimer>::with_reclaimer();
            let net = AtomicUsize::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = s.register();
                for i in 0..250u32 {
                    let k = ((t as u32 * 37 + i) % 128) as u16;
                    if i % 2 == 0 {
                        if s.insert(&tok, k) {
                            net.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if s.remove(&tok, k) {
                        net.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(s.len(), net.load(Ordering::Relaxed));
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
