//! A distributed lock-free hash map.
//!
//! The paper's conclusion reports porting the *Interlocked Hash Table*
//! \[16\] onto `AtomicObject` + `EpochManager` as its first application.
//! This module is that application, simplified to its load-bearing ideas:
//!
//! * a fixed power-of-two bucket table whose buckets are **distributed
//!   cyclically across locales** (bucket *b* lives on locale `b % L`), so
//!   the map's memory and its atomic traffic spread over the machine;
//! * each bucket is a lock-free ordered chain (Harris marking, exactly as
//!   in [`crate::list`]) keyed by `(hash, key)`;
//! * all chain links are compressed global pointers, so bucket CAS
//!   operations are RDMA atomics when network atomics are available;
//! * unlinked entry nodes are retired through one shared `EpochManager` —
//!   whose scatter lists are exercised for real here, because a bucket's
//!   nodes are allocated on the *inserting* task's locale while the drain
//!   happens wherever reclamation runs.
//!
//! `get` clones the value out while pinned (values may be reclaimed after
//! removal, so references cannot escape the pin).
//!
//! This flat layout is the **legacy** tier: any task walks any chain
//! directly, so under remote-heavy workloads every chain hop pays
//! communication. The privatized per-locale-sharded layout the follow-up
//! paper calls for lives in [`crate::sharded_map`], built on the *chain
//! primitives* factored out below (`chain_search` / `chain_insert` /
//! `chain_get` / `chain_remove` / …) so both tiers run the identical
//! Harris protocol and differ only in where chains live and how
//! operations route to them.

use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pgas_atomics::AtomicObject;
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::engine::DEFAULT_BUFFER_CAP;
use pgas_sim::runtime::RuntimeCore;
use pgas_sim::telemetry::{key_hash64, opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, alloc_on, ctx, Batcher, GlobalPtr, LocaleId};

/// One chain cell.
pub struct Node<K, V> {
    pub(crate) hash: u64,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    pub(crate) next: AtomicObject<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    /// # Safety
    /// Must not be called on a bucket sentinel.
    pub(crate) unsafe fn key(&self) -> &K {
        unsafe { self.key.assume_init_ref() }
    }

    /// # Safety
    /// Must not be called on a bucket sentinel.
    pub(crate) unsafe fn value(&self) -> &V {
        unsafe { self.value.assume_init_ref() }
    }
}

/// A `(predecessor, current)` node pair returned by a bucket search.
pub(crate) type NodePair<K, V> = (GlobalPtr<Node<K, V>>, GlobalPtr<Node<K, V>>);

/// The map's key hash (shared by the legacy and sharded tiers so a
/// rebalance can re-route entries without rehashing differently).
pub(crate) fn hash_key<K: Hash>(key: &K) -> u64 {
    // FxHash-style multiply-xor — cheap and good enough for tests and
    // benchmarks; HashDoS resistance is out of scope for the reproduction.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Chain order: by `(hash, key)`.
fn precedes<K: Ord>(hash: u64, key: &K, node_hash: u64, node_key: &K) -> std::cmp::Ordering {
    (hash, key).cmp(&(node_hash, node_key))
}

/// Allocate one bucket sentinel on `owner`.
pub(crate) fn alloc_sentinel<K, V>(core: &RuntimeCore, owner: LocaleId) -> GlobalPtr<Node<K, V>>
where
    K: Send + 'static,
    V: Send + 'static,
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

// ---------------------------------------------------------------------
// Chain primitives: the Harris protocol over one bucket chain, shared by
// the legacy flat map below and the sharded map in `crate::sharded_map`.
// ---------------------------------------------------------------------

/// Harris search within one bucket chain. Caller must be pinned.
/// Under HP, `pred`/`curr` are protected hand-over-hand in slots 0/1
/// (validated as in [`crate::list`]: an unmarked `pred.next == curr`
/// proves both are still in the chain).
pub(crate) fn chain_search<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: &K,
) -> NodePair<K, V>
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    'retry: loop {
        let mut pred = sentinel;
        // SAFETY: sentinels are never reclaimed while the map lives.
        let mut pred_ref = unsafe { pred.deref() };
        let mut pred_slot = 1usize;
        let mut curr_slot = 0usize;
        let mut curr = pred_ref.next.read().without_mark();
        if !curr.is_null() && !tok.protect_ptr(curr_slot, curr, || pred_ref.next.read() == curr) {
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
                if !pred_ref.next.compare_and_swap(curr, succ.without_mark()) {
                    continue 'retry;
                }
                tok.defer_delete(curr);
                curr = succ.without_mark();
                if !curr.is_null()
                    && !tok.protect_ptr(curr_slot, curr, || pred_ref.next.read() == curr)
                {
                    continue 'retry;
                }
            } else {
                // SAFETY: curr is not a sentinel.
                let ord = precedes(hash, key, curr_ref.hash, unsafe { curr_ref.key() });
                if ord != std::cmp::Ordering::Greater {
                    return (pred, curr);
                }
                pred = curr;
                pred_ref = curr_ref;
                std::mem::swap(&mut pred_slot, &mut curr_slot);
                curr = succ;
                if !tok.protect_ptr(curr_slot, curr, || pred_ref.next.read() == succ) {
                    continue 'retry;
                }
            }
        }
    }
}

fn chain_matches<K, V>(curr: GlobalPtr<Node<K, V>>, hash: u64, key: &K) -> bool
where
    K: Ord,
{
    if curr.is_null() {
        return false;
    }
    // SAFETY: non-null chain nodes are initialized entries.
    let node = unsafe { curr.deref() };
    node.hash == hash && unsafe { node.key() } == key
}

/// Insert `(key, value)` into the chain rooted at `sentinel`. Handles
/// pin/protect lifecycle; `span` (when given) accumulates CAS retries.
/// The entry node is allocated on the *executing* locale — local to the
/// shard owner when called from the sharded tier's owner path, local to
/// the inserting task in the legacy flat map.
pub(crate) fn chain_insert<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: K,
    value: V,
    span: Option<&OpSpan>,
) -> bool
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    tok.pin();
    // `kv` owns the pair until it moves into a node exactly once.
    let mut kv = Some((key, value));
    let mut node: Option<GlobalPtr<Node<K, V>>> = None;
    let result = loop {
        // The key lives either in `kv` or inside the (unpublished) node.
        // SAFETY: an unpublished node's key was initialized when built.
        let key_ref: &K = match (&kv, node) {
            (Some((k, _)), _) => k,
            (None, Some(n)) => unsafe { (*n.as_ptr()).key() },
            (None, None) => unreachable!("key neither held nor in node"),
        };
        let (pred, curr) = chain_search::<K, V, R>(tok, sentinel, hash, key_ref);
        if chain_matches(curr, hash, key_ref) {
            // Key present: discard any speculatively allocated node
            // (never published, so we own it outright).
            if let Some(n) = node.take() {
                unsafe {
                    let n_ref = &mut *n.as_ptr();
                    n_ref.key.assume_init_drop();
                    n_ref.value.assume_init_drop();
                    pgas_sim::free(&ctx::current_runtime(), n);
                }
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
                let n = alloc_local(
                    &ctx::current_runtime(),
                    Node {
                        hash,
                        key: MaybeUninit::new(k),
                        value: MaybeUninit::new(v),
                        next: AtomicObject::new(curr),
                    },
                );
                node = Some(n);
                n
            }
        };
        // SAFETY: protected (pred held by search's slots under HP).
        if unsafe { pred.deref() }.next.compare_and_swap(curr, n) {
            break true;
        }
        if let Some(s) = span {
            s.retry();
        }
    };
    tok.release(0);
    tok.release(1);
    tok.unpin();
    result
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
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    tok.pin();
    // Read-only walk (no snipping), like `contains` in the list.
    let result = 'retry: loop {
        // SAFETY: sentinels are never reclaimed while the map lives.
        let mut prev_ref = unsafe { sentinel.deref() };
        let mut prev_slot = 1usize;
        let mut curr_slot = 0usize;
        let mut curr = prev_ref.next.read().without_mark();
        if !curr.is_null() && !tok.protect_ptr(curr_slot, curr, || prev_ref.next.read() == curr) {
            continue 'retry;
        }
        let mut result = None;
        while !curr.is_null() {
            // SAFETY: protected.
            let node = unsafe { curr.deref() };
            let succ = node.next.read();
            match precedes(hash, key, node.hash, unsafe { node.key() }) {
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Equal => {
                    if !succ.is_marked() {
                        result = Some(unsafe { node.value() }.clone());
                    }
                    break;
                }
                std::cmp::Ordering::Greater => {
                    // HP cannot step across a marked link safely.
                    if R::NEEDS_PROTECT && succ.is_marked() {
                        continue 'retry;
                    }
                    prev_ref = node;
                    std::mem::swap(&mut prev_slot, &mut curr_slot);
                    curr = succ.without_mark();
                    if !curr.is_null()
                        && !tok.protect_ptr(curr_slot, curr, || prev_ref.next.read() == succ)
                    {
                        continue 'retry;
                    }
                }
            }
        }
        break result;
    };
    tok.release(0);
    tok.release(1);
    tok.unpin();
    result
}

/// Remove `(hash, key)` from the chain rooted at `sentinel`; `true` when
/// it was present. Runs Harris's completion step (a re-search) when the
/// physical unlink loses its race, so no marked node stays reachable.
pub(crate) fn chain_remove<K, V, R>(
    tok: &R::Guard<'_>,
    sentinel: GlobalPtr<Node<K, V>>,
    hash: u64,
    key: &K,
    span: Option<&OpSpan>,
) -> bool
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    tok.pin();
    let result = loop {
        let (pred, curr) = chain_search::<K, V, R>(tok, sentinel, hash, key);
        if !chain_matches(curr, hash, key) {
            break false;
        }
        // SAFETY: protected by search's slots.
        let curr_ref = unsafe { curr.deref() };
        let succ = curr_ref.next.read();
        if succ.is_marked() {
            if let Some(s) = span {
                s.retry();
            }
            continue;
        }
        if !curr_ref.next.compare_and_swap(succ, succ.with_mark()) {
            if let Some(s) = span {
                s.retry();
            }
            continue;
        }
        if unsafe { pred.deref() }
            .next
            .compare_and_swap(curr, succ.without_mark())
        {
            tok.defer_delete(curr);
        } else {
            // Harris's completion step: re-search so the marked node
            // is physically unlinked (and retired by the snip there)
            // before we return. Read-only walks under HP cannot step
            // across a marked link, so leaving one reachable at
            // quiescence would spin them forever.
            let _ = chain_search::<K, V, R>(tok, sentinel, hash, key);
        }
        break true;
    };
    tok.release(0);
    tok.release(1);
    tok.unpin();
    result
}

/// Count live entries in one chain. Caller must hold a pinned guard.
/// Racy; exact in quiescence. Under HP the walk restarts at a marked
/// link (it cannot be stepped across safely).
pub(crate) fn chain_count<K, V, R>(g: &R::Guard<'_>, sentinel: GlobalPtr<Node<K, V>>) -> usize
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    if R::NEEDS_PROTECT {
        'retry: loop {
            let mut prev_ref = unsafe { sentinel.deref() };
            let mut prev_slot = 1usize;
            let mut curr_slot = 0usize;
            let mut curr = prev_ref.next.read().without_mark();
            if !curr.is_null() && !g.protect_ptr(curr_slot, curr, || prev_ref.next.read() == curr) {
                continue 'retry;
            }
            let mut n = 0usize;
            while !curr.is_null() {
                let curr_ref = unsafe { curr.deref() };
                let succ = curr_ref.next.read();
                if succ.is_marked() {
                    // Can't step across a marked link under HP.
                    continue 'retry;
                }
                n += 1;
                prev_ref = curr_ref;
                std::mem::swap(&mut prev_slot, &mut curr_slot);
                curr = succ;
                if !curr.is_null()
                    && !g.protect_ptr(curr_slot, curr, || prev_ref.next.read() == succ)
                {
                    continue 'retry;
                }
            }
            break n;
        }
    } else {
        let mut n = 0;
        let mut curr = unsafe { sentinel.deref() }.next.read().without_mark();
        while !curr.is_null() {
            let succ = unsafe { curr.deref() }.next.read();
            if !succ.is_marked() {
                n += 1;
            }
            curr = succ.without_mark();
        }
        n
    }
}

/// Collect every live entry of one chain as `(hash, key, value)` clones.
///
/// # Safety
/// Quiescent only: no concurrent writers (used by the sharded map's bulk
/// rebalance, which owns the structure for the duration).
pub(crate) unsafe fn chain_collect<K, V>(sentinel: GlobalPtr<Node<K, V>>) -> Vec<(u64, K, V)>
where
    K: Hash + Ord + Clone + Send + 'static,
    V: Clone + Send + 'static,
{
    let mut out = Vec::new();
    let mut curr = unsafe { sentinel.deref() }.next.read().without_mark();
    while !curr.is_null() {
        let node = unsafe { curr.deref() };
        let succ = node.next.read();
        if !succ.is_marked() {
            out.push((
                node.hash,
                unsafe { node.key() }.clone(),
                unsafe { node.value() }.clone(),
            ));
        }
        curr = succ.without_mark();
    }
    out
}

/// Quiescent teardown of one chain: free every entry node (running K/V
/// destructors) and the sentinel itself.
///
/// # Safety
/// Quiescent only; the sentinel must not be used afterwards.
pub(crate) unsafe fn chain_teardown<K, V>(core: &RuntimeCore, sentinel: GlobalPtr<Node<K, V>>)
where
    K: Send + 'static,
    V: Send + 'static,
{
    let mut curr = unsafe { sentinel.deref() }.next.read().without_mark();
    // SAFETY: quiescent.
    unsafe { pgas_sim::free(core, sentinel) };
    while !curr.is_null() {
        let next = unsafe { curr.deref() }.next.read().without_mark();
        // SAFETY: quiescent; entry nodes hold initialized K/V.
        unsafe {
            let node = &mut *curr.as_ptr();
            node.key.assume_init_drop();
            node.value.assume_init_drop();
            pgas_sim::free(core, curr);
        }
        curr = next;
    }
}

// ---------------------------------------------------------------------
// The legacy flat map.
// ---------------------------------------------------------------------

/// A lock-free hash map with buckets distributed across locales, generic
/// over its reclamation backend.
pub struct DistHashMap<K, V, R = EpochManager>
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    /// Sentinel node of each bucket chain; bucket `b` lives on locale
    /// `b % num_locales`.
    buckets: Box<[GlobalPtr<Node<K, V>>]>,
    mask: u64,
    em: R,
}

unsafe impl<K: Hash + Ord + Send + 'static, V: Clone + Send + 'static, R: Reclaimer> Send
    for DistHashMap<K, V, R>
{
}
unsafe impl<K: Hash + Ord + Send + 'static, V: Clone + Send + 'static, R: Reclaimer> Sync
    for DistHashMap<K, V, R>
{
}

impl<K, V> DistHashMap<K, V>
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
{
    /// Create a map with `num_buckets` (rounded up to a power of two)
    /// distributed over all locales of the current runtime, with the
    /// default epoch-based backend.
    pub fn new(num_buckets: usize) -> DistHashMap<K, V> {
        Self::with_reclaimer(num_buckets)
    }

    /// The map's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<K, V, R> DistHashMap<K, V, R>
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    /// Create a map with `num_buckets` buckets using reclamation
    /// backend `R`.
    pub fn with_reclaimer(num_buckets: usize) -> DistHashMap<K, V, R> {
        let rt = ctx::current_runtime();
        let n = num_buckets.next_power_of_two().max(1);
        let locales = rt.num_locales();
        let buckets = (0..n)
            .map(|b| alloc_sentinel(&rt, (b % locales) as LocaleId))
            .collect();
        DistHashMap {
            buckets,
            mask: (n - 1) as u64,
            em: R::new_in_runtime(),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_for(&self, hash: u64) -> GlobalPtr<Node<K, V>> {
        self.buckets[(hash & self.mask) as usize]
    }

    /// Insert `(key, value)`. Returns `false` (and drops both) when the
    /// key is already present.
    pub fn insert(&self, tok: &R::Guard<'_>, key: K, value: V) -> bool {
        let hash = hash_key(&key);
        let span = OpSpan::start(OpClass::MapOp, opkind::INSERT, hash);
        let sentinel = self.bucket_for(hash);
        chain_insert::<K, V, R>(tok, sentinel, hash, key, value, Some(&span))
    }

    /// Look up `key`, cloning the value out under the pin.
    pub fn get(&self, tok: &R::Guard<'_>, key: &K) -> Option<V> {
        let hash = hash_key(key);
        let _span = OpSpan::start(OpClass::MapOp, opkind::GET, hash);
        let sentinel = self.bucket_for(hash);
        chain_get::<K, V, R>(tok, sentinel, hash, key)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, tok: &R::Guard<'_>, key: &K) -> bool {
        let _span = OpSpan::start(OpClass::MapOp, opkind::CONTAINS, key_hash64(key));
        self.get(tok, key).is_some()
    }

    /// Remove `key`; returns `true` when it was present.
    pub fn remove(&self, tok: &R::Guard<'_>, key: &K) -> bool {
        let hash = hash_key(key);
        let span = OpSpan::start(OpClass::MapOp, opkind::REMOVE, hash);
        let sentinel = self.bucket_for(hash);
        chain_remove::<K, V, R>(tok, sentinel, hash, key, Some(&span))
    }

    /// Insert many pairs through the engine's batched communication path.
    ///
    /// Pairs are binned by the owning locale of their bucket and shipped as
    /// bulk active messages (one per destination buffer, see
    /// [`pgas_sim::Batcher`]) instead of paying per-key communication; the
    /// destination-side handler registers its own epoch token and performs
    /// ordinary lock-free inserts, so batched and per-key inserts can run
    /// concurrently. A high watermark (4x the per-destination capacity)
    /// bounds total buffered memory under skewed key distributions.
    /// Returns the number of pairs actually inserted
    /// (duplicates of existing keys are dropped, as in [`Self::insert`]).
    ///
    /// Prefer [`Self::insert_bulk_in`] when a guard is already in hand:
    /// it borrows the pairs and applies locally-owned ones under the
    /// caller's guard instead of a per-batch registration.
    pub fn insert_bulk(&self, pairs: Vec<(K, V)>) -> usize {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_INSERT, 0);
        let rt = ctx::current_runtime();
        let inserted = AtomicUsize::new(0);
        let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(K, V)>| {
            let tok = self.em.register();
            for (k, v) in batch {
                if self.insert(&tok, k, v) {
                    inserted.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
        for (k, v) in pairs {
            let dest = self.bucket_for(hash_key(&k)).locale();
            batcher.aggregate(dest, (k, v));
        }
        batcher.flush();
        drop(batcher);
        inserted.load(Ordering::Relaxed)
    }

    /// Guard-scoped [`Self::insert_bulk`]: borrows the pairs, applies
    /// pairs whose bucket is locally owned directly under the caller's
    /// guard (no per-batch registration, no self-send), and scatters the
    /// rest per destination over the batched path. Returns the number of
    /// pairs actually inserted.
    pub fn insert_bulk_in(&self, tok: &R::Guard<'_>, pairs: &[(K, V)]) -> usize
    where
        K: Clone,
        V: Clone,
    {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_INSERT, 0);
        let rt = ctx::current_runtime();
        let here = ctx::here();
        let inserted = AtomicUsize::new(0);
        let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(K, V)>| {
            let tok = self.em.register();
            for (k, v) in batch {
                if self.insert(&tok, k, v) {
                    inserted.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
        for (k, v) in pairs {
            let dest = self.bucket_for(hash_key(k)).locale();
            if dest == here {
                if self.insert(tok, k.clone(), v.clone()) {
                    inserted.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                batcher.aggregate(dest, (k.clone(), v.clone()));
            }
        }
        batcher.flush();
        drop(batcher);
        inserted.load(Ordering::Relaxed)
    }

    /// Look up many keys through the engine's batched communication path.
    ///
    /// The counterpart of [`Self::insert_bulk`]: keys are binned by bucket
    /// owner, each destination's batch travels as one bulk active message,
    /// and lookups execute on the locale that owns the bucket chain.
    /// Returns the values (or `None`) aligned with the input order.
    pub fn get_bulk(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_GET, 0);
        let rt = ctx::current_runtime();
        let results: Vec<Mutex<Option<V>>> = keys.iter().map(|_| Mutex::new(None)).collect();
        let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(usize, K)>| {
            let tok = self.em.register();
            for (i, k) in batch {
                let hit = self.get(&tok, &k);
                match results[i].lock() {
                    Ok(mut slot) => *slot = hit,
                    Err(poison) => *poison.into_inner() = hit,
                }
            }
        })
        .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
        for (i, k) in keys.into_iter().enumerate() {
            let dest = self.bucket_for(hash_key(&k)).locale();
            batcher.aggregate(dest, (i, k));
        }
        batcher.flush();
        drop(batcher);
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    }

    /// Guard-scoped [`Self::get_bulk`]: borrows the keys, looks up
    /// locally-owned ones directly under the caller's guard, and scatters
    /// the rest per destination. Results are aligned with `keys` order
    /// (index `i` of the result is the lookup of `keys[i]`).
    pub fn get_bulk_in(&self, tok: &R::Guard<'_>, keys: &[K]) -> Vec<Option<V>>
    where
        K: Clone,
    {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_GET, 0);
        let rt = ctx::current_runtime();
        let here = ctx::here();
        let results: Vec<Mutex<Option<V>>> = keys.iter().map(|_| Mutex::new(None)).collect();
        let mut batcher = Batcher::new(&rt, DEFAULT_BUFFER_CAP, |_, batch: Vec<(usize, K)>| {
            let tok = self.em.register();
            for (i, k) in batch {
                let hit = self.get(&tok, &k);
                match results[i].lock() {
                    Ok(mut slot) => *slot = hit,
                    Err(poison) => *poison.into_inner() = hit,
                }
            }
        })
        .with_high_watermark(4 * DEFAULT_BUFFER_CAP);
        for (i, k) in keys.iter().enumerate() {
            let dest = self.bucket_for(hash_key(k)).locale();
            if dest == here {
                let hit = self.get(tok, k);
                match results[i].lock() {
                    Ok(mut slot) => *slot = hit,
                    Err(poison) => *poison.into_inner() = hit,
                }
            } else {
                batcher.aggregate(dest, (i, k.clone()));
            }
        }
        batcher.flush();
        drop(batcher);
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    }

    /// Entry count (racy; exact in quiescence).
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::MapOp, opkind::LEN, 0);
        let g = self.em.register();
        g.pin();
        let mut n = 0;
        for &sentinel in self.buckets.iter() {
            n += chain_count::<K, V, R>(&g, sentinel);
        }
        g.release(0);
        g.release(1);
        g.unpin();
        n
    }

    /// True when no entries are present (racy; exact in quiescence).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt an epoch advance / hazard scan + reclamation.
    pub fn try_reclaim(&self) -> bool {
        self.em.try_reclaim()
    }

    /// Reclaim everything; callers must guarantee quiescence.
    pub fn clear_reclaim(&self) {
        self.em.clear()
    }

    /// The map's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<K, V, R> Drop for DistHashMap<K, V, R>
where
    K: Hash + Ord + Send + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    fn drop(&mut self) {
        let teardown = || {
            let rt = ctx::current_runtime();
            for &sentinel in self.buckets.iter() {
                // SAFETY: quiescent teardown.
                unsafe { chain_teardown(&rt, sentinel) };
            }
        };
        if pgas_sim::try_here().is_some() {
            teardown();
        } else {
            self.em.runtime().run(teardown);
        }
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
    fn insert_get_remove_roundtrip() {
        let rt = zrt(1);
        rt.run(|| {
            let m: DistHashMap<u64, String> = DistHashMap::new(16);
            let tok = m.register();
            assert!(m.insert(&tok, 1, "one".into()));
            assert!(m.insert(&tok, 2, "two".into()));
            assert!(!m.insert(&tok, 1, "uno".into()), "duplicate key");
            assert_eq!(m.get(&tok, &1).as_deref(), Some("one"));
            assert_eq!(m.get(&tok, &3), None);
            assert_eq!(m.len(), 2);
            assert!(m.remove(&tok, &1));
            assert!(!m.remove(&tok, &1));
            assert_eq!(m.get(&tok, &1), None);
            assert_eq!(m.len(), 1);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let rt = zrt(1);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(10);
            assert_eq!(m.num_buckets(), 16);
        });
    }

    #[test]
    fn buckets_distributed_cyclically() {
        let rt = zrt(4);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(8);
            for (b, &s) in m.buckets.iter().enumerate() {
                assert_eq!(s.locale() as usize, b % 4);
            }
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn colliding_keys_coexist_in_one_bucket() {
        let rt = zrt(1);
        rt.run(|| {
            // 1 bucket → every key collides.
            let m: DistHashMap<u64, u64> = DistHashMap::new(1);
            let tok = m.register();
            for k in 0..50 {
                assert!(m.insert(&tok, k, k * 10));
            }
            for k in 0..50 {
                assert_eq!(m.get(&tok, &k), Some(k * 10));
            }
            assert_eq!(m.len(), 50);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn concurrent_mixed_workload_conserves_entries() {
        let rt = zrt(1);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(32);
            let inserted = AtomicUsize::new(0);
            let removed = AtomicUsize::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = m.register();
                for i in 0..200u64 {
                    let k = (t as u64) * 1000 + i;
                    if m.insert(&tok, k, k) {
                        inserted.fetch_add(1, Ordering::Relaxed);
                    }
                    if i % 3 == 0 && m.remove(&tok, &k) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(inserted.load(Ordering::Relaxed), 800);
            assert_eq!(
                m.len(),
                inserted.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed)
            );
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn same_key_racing_inserters_one_winner() {
        let rt = zrt(1);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(4);
            let wins = AtomicUsize::new(0);
            rt.coforall_tasks(6, |t| {
                let tok = m.register();
                if m.insert(&tok, 7, t as u64) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            assert_eq!(m.len(), 1);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn distributed_use_from_all_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(16);
            rt.coforall_locales(|l| {
                let tok = m.register();
                for i in 0..50u64 {
                    let k = (l as u64) * 100 + i;
                    assert!(m.insert(&tok, k, k * 2));
                }
            });
            assert_eq!(m.len(), 200);
            let tok = m.register();
            assert_eq!(m.get(&tok, &305), Some(610));
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn insert_bulk_and_get_bulk_roundtrip() {
        let rt = zrt(4);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(32);
            let pairs: Vec<(u64, u64)> = (0..200).map(|k| (k, k * 3)).collect();
            assert_eq!(m.insert_bulk(pairs), 200);
            assert_eq!(m.len(), 200);
            // Re-inserting the same keys inserts nothing.
            let dups: Vec<(u64, u64)> = (0..200).map(|k| (k, 0)).collect();
            assert_eq!(m.insert_bulk(dups), 0);
            let got = m.get_bulk((0..250).collect());
            for (k, v) in got.iter().enumerate() {
                if k < 200 {
                    assert_eq!(*v, Some(k as u64 * 3), "key {k}");
                } else {
                    assert_eq!(*v, None, "key {k}");
                }
            }
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn guard_scoped_bulk_variants_roundtrip() {
        let rt = zrt(4);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(32);
            let tok = m.register();
            let pairs: Vec<(u64, u64)> = (0..300).map(|k| (k, k * 7)).collect();
            assert_eq!(m.insert_bulk_in(&tok, &pairs), 300);
            assert_eq!(m.insert_bulk_in(&tok, &pairs), 0, "duplicates dropped");
            let keys: Vec<u64> = (0..350).rev().collect();
            let got = m.get_bulk_in(&tok, &keys);
            assert_eq!(got.len(), keys.len());
            for (i, k) in keys.iter().enumerate() {
                let expect = if *k < 300 { Some(*k * 7) } else { None };
                assert_eq!(got[i], expect, "result {i} aligned with key {k}");
            }
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn bulk_insert_batches_communication() {
        // Real cluster latencies so the comm counters mean something.
        let rt = Runtime::cluster(4);
        rt.run(|| {
            let m: DistHashMap<u64, u64> = DistHashMap::new(64);
            rt.reset_metrics(); // ignore construction traffic
            let n = 512u64;
            let before = rt.total_comm();
            assert_eq!(m.insert_bulk((0..n).map(|k| (k, k)).collect()), n as usize);
            let d = rt.total_comm() - before;
            // Batched: at most one AM per destination buffer, far fewer
            // than one per key. Every batched item is accounted.
            assert!(d.am_batches >= 1, "remote batches must flow");
            assert!(
                d.am_sent <= 2 * rt.num_locales() as u64,
                "bulk insert must not pay per-key AMs: {} AMs for {n} keys",
                d.am_sent
            );
            // Keys whose bucket lives on the calling locale are applied
            // inline; the rest ride batches.
            assert!(
                d.am_batch_items > 0 && d.am_batch_items < n,
                "remote items ride batches, local ones apply inline: {}",
                d.am_batch_items
            );
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_model_check() {
        use pgas_epoch::HazardReclaimer;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(2);
        rt.run(|| {
            let m: DistHashMap<u8, u64, HazardReclaimer> = DistHashMap::with_reclaimer(8);
            let tok = m.register();
            let mut model = std::collections::HashMap::new();
            let mut rng = StdRng::seed_from_u64(23);
            for step in 0..1500u64 {
                let k: u8 = rng.gen_range(0..48);
                match rng.gen_range(0..3) {
                    0 => {
                        let expect = !model.contains_key(&k);
                        assert_eq!(m.insert(&tok, k, step), expect);
                        if expect {
                            model.insert(k, step);
                        }
                    }
                    1 => assert_eq!(m.remove(&tok, &k), model.remove(&k).is_some()),
                    _ => assert_eq!(m.get(&tok, &k), model.get(&k).copied()),
                }
            }
            assert_eq!(m.len(), model.len());
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    /// Regression: a `remove` whose physical-unlink CAS lost a race used
    /// to return with the marked node still reachable, counting on "a
    /// later search" to snip it. At quiescence there is no later search,
    /// and hazard-pointer read-only walks (`len`) cannot step across a
    /// marked link — they spun forever. `remove` now runs Harris's
    /// completion step (a re-search) before returning.
    #[test]
    fn hazard_pointer_walks_terminate_after_contended_removes() {
        use pgas_epoch::HazardReclaimer;
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            let m: DistHashMap<u64, u64, HazardReclaimer> = DistHashMap::with_reclaimer(4);
            rt.coforall_locales(|lid| {
                rt.coforall_tasks(2, |t| {
                    let task = lid as u64 * 2 + t as u64;
                    let tok = m.register();
                    for i in 0..200u64 {
                        // Few buckets + interleaved keys: snip CASes race.
                        let k = (i % 16) << 8 | task;
                        m.insert(&tok, k, i);
                        assert!(m.remove(&tok, &k), "own key present");
                    }
                });
            });
            // The walk must terminate (and see the empty map) with no
            // helpers left running.
            assert_eq!(m.len(), 0);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn model_check_against_std_hashmap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rt = zrt(2);
        rt.run(|| {
            let m: DistHashMap<u8, u64> = DistHashMap::new(8);
            let tok = m.register();
            let mut model = std::collections::HashMap::new();
            let mut rng = StdRng::seed_from_u64(99);
            for step in 0..2000u64 {
                let k: u8 = rng.gen_range(0..48);
                match rng.gen_range(0..3) {
                    0 => {
                        let expect = !model.contains_key(&k);
                        assert_eq!(
                            m.insert(&tok, k, step),
                            expect,
                            "insert divergence at step {step}"
                        );
                        if expect {
                            model.insert(k, step);
                        }
                    }
                    1 => assert_eq!(m.remove(&tok, &k), model.remove(&k).is_some()),
                    _ => assert_eq!(m.get(&tok, &k), model.get(&k).copied()),
                }
            }
            assert_eq!(m.len(), model.len());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    proptest::proptest! {
        // Each case spins a full runtime; keep the case count modest.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Order alignment: whatever the key mix (duplicates, misses,
        /// arbitrary order), `get_bulk` / `get_bulk_in` result `i` is the
        /// lookup of request key `i` — never shuffled by the scatter.
        #[test]
        fn bulk_get_results_align_with_request_order(
            keys in proptest::collection::vec(0u64..64, 1..80),
            present in proptest::collection::vec(0u64..64, 0..48),
        ) {
            let rt = zrt(2);
            rt.run(|| {
                let m: DistHashMap<u64, u64> = DistHashMap::new(16);
                let tok = m.register();
                let mut model = std::collections::HashMap::new();
                for &k in &present {
                    if m.insert(&tok, k, k.wrapping_mul(31)) {
                        model.insert(k, k.wrapping_mul(31));
                    }
                }
                let by_value = m.get_bulk(keys.clone());
                let by_guard = m.get_bulk_in(&tok, &keys);
                proptest::prop_assert_eq!(by_value.len(), keys.len());
                proptest::prop_assert_eq!(by_guard.len(), keys.len());
                for (i, k) in keys.iter().enumerate() {
                    let expect = model.get(k).copied();
                    proptest::prop_assert_eq!(by_value[i], expect, "get_bulk[{}] vs key {}", i, k);
                    proptest::prop_assert_eq!(by_guard[i], expect, "get_bulk_in[{}] vs key {}", i, k);
                }
                drop(tok);
                m.clear_reclaim();
                Ok(())
            })?;
            assert_eq!(rt.live_objects(), 0);
        }
    }
}
