//! The Harris chain — the one place the lock-free ordered-chain protocol
//! lives.
//!
//! A chain is a sentinel followed by entry nodes sorted by `(hash, key)`.
//! Deletion first *marks* the outgoing link of the doomed node (logical
//! removal), then unlinks it physically; [`chain_search`] snips marked
//! nodes as it passes. The mark lives in the low bit of the compressed
//! global pointer — the same word the NIC can CAS — so the algorithm stays
//! RDMA-friendly. An unlinked node is handed to `defer_delete` by exactly
//! the task whose CAS physically unlinked it.
//!
//! Under hazard pointers, walks protect `pred`/`curr` hand-over-hand in
//! slots 0 and 1. A protection of `curr` is validated by re-reading
//! `pred.next` and requiring the *unmarked* word `curr`: the mark on
//! `pred.next` is exactly `pred`'s logical deletion, so an unmarked match
//! proves `pred` was still in the chain — and therefore so was `curr`,
//! which cannot have been retired.
//!
//! Three structures are this module plus a policy for *where chains live
//! and who runs the operation*: [`crate::LockFreeList`] is one chain with
//! `hash = 0` and `V = ()` (chain order degenerates to key order),
//! [`crate::DistHashMap`] walks cyclically distributed chains in place
//! with one-sided atomics, and [`crate::ShardedHashMap`] ships the
//! operation to the chain's owner. The bulk paths of both maps are the two
//! functions at the bottom ([`scatter_insert`], [`gather_get`]).

use std::cmp::Ordering as Cmp;
use std::hash::Hash;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pgas_atomics::AtomicObject;
use pgas_epoch::{ReclaimGuard, Reclaimer};
use pgas_sim::engine::DEFAULT_BUFFER_CAP;
use pgas_sim::runtime::RuntimeCore;
use pgas_sim::telemetry::{key_hash64, OpSpan};
use pgas_sim::{alloc_local, alloc_on, ctx, Batcher, GlobalPtr, LocaleId};

use crate::pinned;

/// One chain cell. `next` carries the Harris mark bit. Key and value are
/// `MaybeUninit` only because a sentinel has neither; every entry node's
/// pair is initialized at allocation.
pub(crate) struct Node<K, V> {
    hash: u64,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    pub(crate) next: AtomicObject<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    /// # Safety
    /// Must not be called on a sentinel.
    unsafe fn key_ref(&self) -> &K {
        unsafe { self.key.assume_init_ref() }
    }

    /// # Safety
    /// Must not be called on a sentinel.
    unsafe fn value_ref(&self) -> &V {
        unsafe { self.value.assume_init_ref() }
    }

    /// Drop the pair of an entry node and free it.
    ///
    /// # Safety
    /// `node` is an entry node nobody else can reach (never published, or
    /// quiescent teardown).
    unsafe fn free_entry(core: &RuntimeCore, node: GlobalPtr<Node<K, V>>)
    where
        K: Send,
        V: Send,
    {
        unsafe {
            let n = &mut *node.as_ptr();
            n.key.assume_init_drop();
            n.value.assume_init_drop();
            pgas_sim::free(core, node);
        }
    }
}

/// The key hash of both maps: [`key_hash64`] (std `DefaultHasher` with its
/// fixed keys — the same in every run, no HashDoS resistance), so a root
/// span's tag and a key's route are one number.
pub(crate) fn hash_key<K: Hash>(key: &K) -> u64 {
    key_hash64(key)
}

/// Where `(hash, key)` stands relative to entry `node` in chain order.
fn precedes<K: Ord, V>(hash: u64, key: &K, node: &Node<K, V>) -> Cmp {
    // SAFETY: callers pass entry nodes.
    (hash, key).cmp(&(node.hash, unsafe { node.key_ref() }))
}

/// Allocate one chain sentinel on `owner`.
pub(crate) fn alloc_sentinel<K, V>(core: &RuntimeCore, owner: LocaleId) -> GlobalPtr<Node<K, V>>
where
    K: Send,
    V: Send,
{
    alloc_on(
        core,
        owner,
        Node {
            hash: 0,
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            next: AtomicObject::new_on(owner, GlobalPtr::null()),
        },
    )
}

/// A `(predecessor, current)` node pair returned by [`chain_search`].
type NodePair<K, V> = (GlobalPtr<Node<K, V>>, GlobalPtr<Node<K, V>>);

/// Harris search: find `(pred, curr)` such that `curr` is the first
/// unmarked node not preceding `(hash, key)` and `pred` is its unmarked
/// predecessor, snipping (and retiring) marked nodes along the way.
/// Caller must be pinned. On return the two nodes are protected (under HP)
/// in slots 0 and 1, in some order.
fn chain_search<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: &K,
) -> NodePair<K, V>
where
    K: Ord + Send,
    V: Send,
    R: Reclaimer,
{
    'retry: loop {
        let mut pred = sentinel;
        // SAFETY: sentinels are never reclaimed while the structure lives.
        let mut pred_ref = unsafe { pred.deref() };
        // `curr` is protected in `slot`, `pred` in the other one.
        let mut slot = 0usize;
        let mut curr = pred_ref.next.read().without_mark();
        // HP: validated because the sentinel is always in the chain.
        if !curr.is_null() && !tok.protect_ptr(slot, curr, || pred_ref.next.read() == curr) {
            continue 'retry;
        }
        loop {
            if curr.is_null() {
                return (pred, curr);
            }
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let curr_ref = unsafe { curr.deref() };
            let succ = curr_ref.next.read();
            if succ.is_marked() {
                // `curr` is logically deleted: physically unlink it. Our
                // CAS did the unlink, so we retire the node.
                if !pred_ref.next.compare_and_swap(curr, succ.without_mark()) {
                    continue 'retry;
                }
                tok.defer_delete(curr);
                curr = succ.without_mark();
                if !curr.is_null() && !tok.protect_ptr(slot, curr, || pred_ref.next.read() == curr)
                {
                    continue 'retry;
                }
            } else {
                if precedes(hash, key, curr_ref) != Cmp::Greater {
                    return (pred, curr);
                }
                pred = curr;
                pred_ref = curr_ref;
                slot ^= 1;
                curr = succ;
                if !tok.protect_ptr(slot, curr, || pred_ref.next.read() == succ) {
                    continue 'retry;
                }
            }
        }
    }
}

/// The one protected read-only walk. Folds `visit` over the live nodes the
/// caller asked for — every node of the chain when `target` is `None`,
/// only the node equal to `target` otherwise — into a `T` it returns.
///
/// Never writes (no snipping), so it is read-only with respect to
/// communication, and it ends at the first node past `target` without
/// reading that node's link. EBR walks straight through marked links. HP
/// cannot step across one (the marked node's successor may already be
/// retired): it starts over with a fresh `T`, and relies on
/// [`chain_remove`]'s completion step for the link to be gone eventually.
/// Caller must be pinned.
fn chain_walk<K, V, R, T>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    target: Option<(u64, &K)>,
    mut visit: impl FnMut(&mut T, &Node<K, V>),
) -> T
where
    K: Ord,
    R: Reclaimer,
    T: Default,
{
    'retry: loop {
        let mut acc = T::default();
        // SAFETY: sentinels are never reclaimed while the structure lives.
        let mut prev_ref = unsafe { sentinel.deref() };
        let mut slot = 0usize;
        let mut curr = prev_ref.next.read().without_mark();
        if !curr.is_null() && !tok.protect_ptr(slot, curr, || prev_ref.next.read() == curr) {
            continue 'retry;
        }
        while !curr.is_null() {
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let node = unsafe { curr.deref() };
            let ord = target.map_or(Cmp::Greater, |(hash, key)| precedes(hash, key, node));
            if ord == Cmp::Less {
                break;
            }
            let succ = node.next.read();
            if !succ.is_marked() && (ord == Cmp::Equal || target.is_none()) {
                visit(&mut acc, node);
            }
            if ord == Cmp::Equal {
                break;
            }
            if R::NEEDS_PROTECT && succ.is_marked() {
                continue 'retry;
            }
            prev_ref = node;
            slot ^= 1;
            curr = succ.without_mark();
            if !curr.is_null() && !tok.protect_ptr(slot, curr, || prev_ref.next.read() == succ) {
                continue 'retry;
            }
        }
        return acc;
    }
}

fn chain_matches<K: Ord, V>(curr: GlobalPtr<Node<K, V>>, hash: u64, key: &K) -> bool {
    // SAFETY: non-null chain nodes are initialized entries.
    !curr.is_null() && precedes(hash, key, unsafe { curr.deref() }) == Cmp::Equal
}

/// Insert `(key, value)` into the chain rooted at `sentinel`; `false`
/// (dropping the pair) when the key is already present. Handles the
/// pin/protect lifecycle; `span` (when given) accumulates CAS retries.
/// The entry node is allocated on the *executing* locale — local to the
/// shard owner when called from the sharded tier's owner path, local to
/// the inserting task in the list and the legacy flat map — once, however
/// many CASes it takes to publish it.
pub(crate) fn chain_insert<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: K,
    value: V,
    span: Option<&OpSpan>,
) -> bool
where
    K: Ord + Send,
    V: Send,
    R: Reclaimer,
{
    // `kv` owns the pair until it moves into a node exactly once.
    let mut kv = Some((key, value));
    let mut node: Option<GlobalPtr<Node<K, V>>> = None;
    pinned(tok, 2, || loop {
        // The key lives either in `kv` or inside the (unpublished) node.
        // SAFETY: an unpublished node's key was initialized when built.
        let key_ref: &K = match (&kv, node) {
            (Some((k, _)), _) => k,
            (None, Some(n)) => unsafe { (*n.as_ptr()).key_ref() },
            (None, None) => unreachable!("key neither held nor in node"),
        };
        let (pred, curr) = chain_search::<K, V, R>(tok, sentinel, hash, key_ref);
        if chain_matches(curr, hash, key_ref) {
            // Key present: discard any speculatively allocated node
            // (never published, so we own it outright).
            if let Some(n) = node.take() {
                // SAFETY: unpublished entry node.
                unsafe { Node::free_entry(&ctx::current_runtime(), n) };
            }
            break false;
        }
        let n = match node {
            Some(n) => {
                // Reuse the node from the lost race; repoint its next.
                unsafe { &*n.as_ptr() }.next.write(curr);
                n
            }
            None => {
                let (k, v) = kv.take().expect("pair moved twice");
                *node.insert(alloc_local(
                    &ctx::current_runtime(),
                    Node {
                        hash,
                        key: MaybeUninit::new(k),
                        value: MaybeUninit::new(v),
                        next: AtomicObject::new(curr),
                    },
                ))
            }
        };
        // SAFETY: protected; `pred` is the sentinel or an unmarked node the
        // search just traversed (held by its slots under HP).
        if unsafe { pred.deref() }.next.compare_and_swap(curr, n) {
            break true;
        }
        if let Some(s) = span {
            s.retry();
        }
    })
}

/// Look up `(hash, key)` in the chain rooted at `sentinel`, cloning the
/// value out under the pin.
pub(crate) fn chain_get<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: &K,
) -> Option<V>
where
    K: Ord,
    V: Clone,
    R: Reclaimer,
{
    pinned(tok, 2, || {
        chain_walk::<K, V, R, _>(tok, sentinel, Some((hash, key)), |hit, node| {
            // SAFETY: the walk visits entry nodes only.
            *hit = Some(unsafe { node.value_ref() }.clone());
        })
    })
}

/// Remove `(hash, key)` from the chain rooted at `sentinel`; `true` when
/// it was present.
pub(crate) fn chain_remove<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: &K,
    span: Option<&OpSpan>,
) -> bool
where
    K: Ord + Send,
    V: Send,
    R: Reclaimer,
{
    let retry = || {
        if let Some(s) = span {
            s.retry();
        }
    };
    pinned(tok, 2, || loop {
        let (pred, curr) = chain_search::<K, V, R>(tok, sentinel, hash, key);
        if !chain_matches(curr, hash, key) {
            break false;
        }
        // SAFETY: protected by search's slots.
        let curr_ref = unsafe { curr.deref() };
        let succ = curr_ref.next.read();
        // Marked already: someone else is deleting it; search again.
        // Otherwise the logical removal is marking the outgoing link.
        if succ.is_marked() || !curr_ref.next.compare_and_swap(succ, succ.with_mark()) {
            retry();
            continue;
        }
        // Physical removal: unlink. On failure, run Harris's completion
        // step — a fresh search snips the marked node (and retires it
        // there) before we return, so exactly-once retirement holds and no
        // marked link outlives the remover. Read-only walks under HP
        // cannot step across a marked link and would spin forever on one
        // left reachable at quiescence.
        if unsafe { pred.deref() }
            .next
            .compare_and_swap(curr, succ.without_mark())
        {
            tok.defer_delete(curr);
        } else {
            let _ = chain_search::<K, V, R>(tok, sentinel, hash, key);
        }
        break true;
    })
}

/// Count live entries in one chain (racy; exact in quiescence). Caller
/// must hold a pinned guard.
pub(crate) fn chain_count<K, V, R>(g: &R::Guard<'_>, sentinel: GlobalPtr<Node<K, V>>) -> usize
where
    K: Ord,
    R: Reclaimer,
{
    chain_walk::<K, V, R, usize>(g, sentinel, None, |n, _| *n += 1)
}

/// Quiescent teardown of one chain: free every entry node (running K/V
/// destructors) and the sentinel itself.
///
/// # Safety
/// Quiescent only; the sentinel must not be used afterwards.
pub(crate) unsafe fn chain_teardown<K, V>(core: &RuntimeCore, sentinel: GlobalPtr<Node<K, V>>)
where
    K: Send,
    V: Send,
{
    // Quiescent, so the links are read untracked: no atomic is charged or
    // counted, and a remote chain's walk sends nothing.
    let mut curr = unsafe { sentinel.deref() }
        .next
        .read_untracked()
        .without_mark();
    // SAFETY: quiescent.
    unsafe { pgas_sim::free(core, sentinel) };
    while !curr.is_null() {
        let next = unsafe { curr.deref() }.next.read_untracked().without_mark();
        // SAFETY: quiescent; everything past the sentinel is an entry.
        unsafe { Node::free_entry(core, curr) };
        curr = next;
    }
}

// ---------------------------------------------------------------------
// The maps' bulk paths. "Where does this hash go" is the locale of the
// sentinel its chain hangs off — the only thing the two maps disagree on.
// ---------------------------------------------------------------------

/// Bin `pairs` by `dest_of(hash)`, ship each destination's batch as bulk
/// active messages (a batch for the calling locale applies in place), and
/// run `insert` on every pair at its destination under one guard registered
/// there (a remote batch's handler gets its progress thread's standing
/// guard). A high watermark (4x the per-destination capacity) bounds total
/// buffered memory under skewed keys. Returns how many `insert` accepted.
pub(crate) fn scatter_insert<K, V, R>(
    em: &R,
    pairs: Vec<(K, V)>,
    dest_of: impl Fn(u64) -> LocaleId,
    insert: impl Fn(&R::Guard<'_>, K, V) -> bool + Send + Sync,
) -> usize
where
    K: Hash + Send,
    V: Send,
    R: Reclaimer,
{
    let rt = ctx::current_runtime();
    let inserted = AtomicUsize::new(0);
    let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(K, V)>| {
        let tok = em.register();
        for (k, v) in batch {
            if insert(&tok, k, v) {
                inserted.fetch_add(1, Ordering::Relaxed);
            }
        }
    })
    .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
    for (k, v) in pairs {
        batcher.aggregate(dest_of(hash_key(&k)), (k, v));
    }
    drop(batcher); // flushes
    inserted.into_inner()
}

/// The counterpart of [`scatter_insert`]: run `get` on every key at
/// `dest_of(hash)`, one bulk active message per destination buffer.
/// Result `i` is the lookup of `keys[i]`.
pub(crate) fn gather_get<K, V, R>(
    em: &R,
    keys: Vec<K>,
    dest_of: impl Fn(u64) -> LocaleId,
    get: impl Fn(&R::Guard<'_>, &K) -> Option<V> + Send + Sync,
) -> Vec<Option<V>>
where
    K: Hash + Send,
    V: Send,
    R: Reclaimer,
{
    let rt = ctx::current_runtime();
    let results: Vec<Mutex<Option<V>>> = keys.iter().map(|_| Mutex::new(None)).collect();
    let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(usize, K)>| {
        let tok = em.register();
        for (i, k) in batch {
            *results[i].lock().unwrap_or_else(|p| p.into_inner()) = get(&tok, &k);
        }
    })
    .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
    for (i, k) in keys.into_iter().enumerate() {
        batcher.aggregate(dest_of(hash_key(&k)), (i, k));
    }
    drop(batcher); // flushes
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_epoch::{EpochManager, HazardReclaimer};
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    impl<K: Copy, V> Node<K, V> {
        /// The key by value, for tests (here and in `crate::list`) that
        /// walk a raw chain.
        ///
        /// # Safety
        /// Must not be called on a sentinel.
        pub(crate) unsafe fn key(&self) -> K {
            unsafe { *self.key_ref() }
        }
    }

    type Hook = Box<dyn FnOnce()>;

    thread_local! {
        /// Comparisons made by this thread's walks (not by a hook).
        static CMPS: Cell<usize> = const { Cell::new(0) };
        /// `(n, f)`: run `f` inside this thread's `n`-th comparison.
        static AT_CMP: RefCell<Option<(usize, Hook)>> = const { RefCell::new(None) };
    }

    /// A key that counts comparisons and can let "another task" in between
    /// two steps of a walk, deterministically.
    #[derive(PartialEq, Eq)]
    struct Probe(u64);

    impl PartialOrd for Probe {
        fn partial_cmp(&self, other: &Probe) -> Option<Cmp> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Probe {
        fn cmp(&self, other: &Probe) -> Cmp {
            let n = CMPS.get() + 1;
            CMPS.set(n);
            let due = AT_CMP.with(|h| {
                let mut h = h.borrow_mut();
                if h.as_ref().is_some_and(|(at, _)| *at == n) {
                    h.take()
                } else {
                    None
                }
            });
            if let Some((_, f)) = due {
                f();
                CMPS.set(n); // the hook's own comparisons don't count
            }
            self.0.cmp(&other.0)
        }
    }

    /// A chain `1 → 2 → 3` (hash 0, value = 10·key) whose node 2 is
    /// logically deleted — link marked — but still linked.
    fn chain_with_marked_middle<R: Reclaimer>(em: &R) -> GlobalPtr<Node<Probe, u64>> {
        let rt = ctx::current_runtime();
        let sentinel = alloc_sentinel(&rt, ctx::here());
        let tok = em.register();
        for k in [1, 2, 3] {
            assert!(chain_insert::<_, _, R>(
                &tok,
                sentinel,
                0,
                Probe(k),
                10 * k,
                None
            ));
        }
        let n1 = unsafe { sentinel.deref() }.next.read();
        let n2 = unsafe { n1.deref() }.next.read();
        let n2_next = &unsafe { n2.deref() }.next;
        let n3 = n2_next.read();
        assert!(n2_next.compare_and_swap(n3, n3.with_mark()));
        CMPS.set(0);
        sentinel
    }

    /// Harris's completion step for key 2, as a remover that lost its
    /// unlink race would run it.
    fn snip_2<R: Reclaimer>(em: &R, sentinel: GlobalPtr<Node<Probe, u64>>) {
        let tok = em.register();
        pinned(&tok, 2, || {
            let _ = chain_search::<_, _, R>(&tok, sentinel, 0, &Probe(2));
        });
    }

    #[test]
    fn ebr_walk_steps_across_a_marked_link() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let em = EpochManager::new_in_runtime();
            let sentinel = chain_with_marked_middle(&em);
            let tok = em.register();
            let hit = chain_get::<_, _, EpochManager>(&tok, sentinel, 0, &Probe(3));
            assert_eq!(hit, Some(30));
            assert_eq!(CMPS.get(), 3, "1, 2, 3: straight through");
            assert_eq!(
                chain_get::<_, _, EpochManager>(&tok, sentinel, 0, &Probe(2)),
                None
            );
            assert_eq!(
                pinned(&tok, 2, || chain_count::<_, _, EpochManager>(
                    &tok, sentinel
                )),
                2
            );
            drop(tok);
            unsafe { chain_teardown(&rt, sentinel) };
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hp_walk_restarts_at_a_marked_link() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let em = Arc::new(HazardReclaimer::new_in_runtime());
            let sentinel = chain_with_marked_middle(&*em);
            // The walk for 3 compares with 1 and 2, finds 2's link marked
            // and starts over; node 2 is snipped during the first
            // comparison of the second pass, which then sees 1 → 3.
            let snipper = Arc::clone(&em);
            AT_CMP.set(Some((3, Box::new(move || snip_2(&*snipper, sentinel)))));
            let tok = em.register();
            let hit = chain_get::<_, _, HazardReclaimer>(&tok, sentinel, 0, &Probe(3));
            assert_eq!(hit, Some(30));
            assert_eq!(CMPS.get(), 4, "1, 2 | 1, 3: it did not step from 2 to 3");
            assert!(AT_CMP.with(|h| h.borrow().is_none()), "the snip ran");
            assert_eq!(
                pinned(&tok, 2, || chain_count::<_, _, HazardReclaimer>(
                    &tok, sentinel
                )),
                2
            );
            drop(tok);
            em.clear();
            unsafe { chain_teardown(&rt, sentinel) };
        });
        assert_eq!(rt.live_objects(), 0);
    }

    /// `chain_count` walks with no target, so nothing can interleave
    /// through a comparison: a second task does the snip, raising a flag
    /// first, and the count must not have come back before the flag. (The
    /// sleep only gives the counter time to reach the marked link; the
    /// assertion does not depend on it.)
    #[test]
    fn hp_count_waits_out_a_marked_link() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let em = HazardReclaimer::new_in_runtime();
            let sentinel = chain_with_marked_middle(&em);
            let snipping = AtomicBool::new(false);
            rt.coforall_tasks(2, |task| {
                if task == 0 {
                    let tok = em.register();
                    let n = pinned(&tok, 2, || {
                        chain_count::<_, _, HazardReclaimer>(&tok, sentinel)
                    });
                    assert!(snipping.load(Ordering::SeqCst), "counted across the link");
                    assert_eq!(n, 2);
                } else {
                    std::thread::sleep(Duration::from_millis(20));
                    snipping.store(true, Ordering::SeqCst);
                    snip_2(&em, sentinel);
                }
            });
            em.clear();
            unsafe { chain_teardown(&rt, sentinel) };
        });
        assert_eq!(rt.live_objects(), 0);
    }

    /// Teardown is quiescent and reads links untracked: it charges no
    /// atomic and records no `AtomicObjectOp` sample, so tearing down a
    /// remote chain sends exactly one free per node, sentinel included.
    #[test]
    fn teardown_reads_no_link_through_the_network() {
        use pgas_sim::telemetry::OpClass;
        for cfg in [
            RuntimeConfig::cluster(2),
            RuntimeConfig::cluster(2).without_network_atomics(),
        ] {
            let rt = Runtime::new(cfg);
            rt.run(|| {
                let em = EpochManager::new_in_runtime();
                let sentinel = alloc_sentinel::<u64, u64>(&rt, 1);
                // Built on locale 1, so every node and link is remote here.
                rt.on(1, || {
                    let tok = em.register();
                    for k in 1..=4 {
                        assert!(chain_insert::<_, _, EpochManager>(
                            &tok, sentinel, 0, k, k, None
                        ));
                    }
                });
                let before = rt.total_telemetry();
                unsafe { chain_teardown(&rt, sentinel) };
                let after = rt.total_telemetry();
                let (b, a) = (&before.comm, &after.comm);
                assert_eq!(a.rdma_atomics, b.rdma_atomics);
                assert_eq!(a.cpu_atomics, b.cpu_atomics);
                assert_eq!(a.remote_frees - b.remote_frees, 5);
                assert_eq!(a.am_sent - b.am_sent, 5, "one free per node");
                assert_eq!(
                    after.class(OpClass::AtomicObjectOp).count(),
                    before.class(OpClass::AtomicObjectOp).count()
                );
            });
            assert_eq!(rt.live_objects(), 0);
        }
    }

    /// A lookup that ends at a larger entry does not read that entry's
    /// link: it costs one atomic less than the hit on the same entry.
    #[test]
    fn walk_does_not_read_the_link_of_the_node_that_ends_a_miss() {
        fn run<R: Reclaimer>() {
            let rt = Runtime::cluster(2);
            rt.run(|| {
                let em = R::new_in_runtime();
                let sentinel = alloc_sentinel::<u64, u64>(&rt, ctx::here());
                let tok = em.register();
                for k in [1, 5] {
                    assert!(chain_insert::<_, _, R>(&tok, sentinel, 0, k, k, None));
                }
                let atomics = |key: u64, expect| {
                    let before = rt.total_comm().rdma_atomics;
                    assert_eq!(chain_get::<_, _, R>(&tok, sentinel, 0, &key), expect);
                    rt.total_comm().rdma_atomics - before
                };
                assert_eq!(atomics(3, None) + 1, atomics(5, Some(5)));
                drop(tok);
                unsafe { chain_teardown(&rt, sentinel) };
            });
            assert_eq!(rt.live_objects(), 0);
        }
        run::<EpochManager>();
        run::<HazardReclaimer>();
    }
}
