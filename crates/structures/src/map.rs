//! A distributed lock-free hash map.
//!
//! The paper's conclusion reports porting the *Interlocked Hash Table*
//! \[16\] onto `AtomicObject` + `EpochManager` as its first application.
//! This module is that application, simplified to its load-bearing ideas:
//!
//! * a fixed power-of-two bucket table whose buckets are **distributed
//!   cyclically across locales** (bucket *b* lives on locale `b % L`), so
//!   the map's memory and its atomic traffic spread over the machine;
//! * each bucket is a lock-free ordered chain (Harris marking, the same
//!   chain [`crate::list`] is one of) keyed by `(hash, key)`;
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
//! paper calls for lives in [`crate::sharded_map`]. Neither owns the
//! Harris protocol: both tiers (and [`crate::list`]) call the one
//! implementation in the crate's `chain` module, and this file is only the
//! legacy tier's answer to *where chains live and who runs the op* —
//! cyclic placement, every op walked in place by the calling task. It
//! stays a separate type because it is the reference ablation A11 compares
//! the sharded tier against.

use std::hash::Hash;

use pgas_epoch::{EpochManager, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, GlobalPtr, LocaleId};

use crate::chain::{
    alloc_sentinel, chain_count, chain_get, chain_insert, chain_remove, chain_teardown, gather_get,
    hash_key, scatter_insert, Node,
};
use crate::pinned;

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
        let hash = hash_key(key);
        let _span = OpSpan::start(OpClass::MapOp, opkind::CONTAINS, hash);
        chain_get::<K, V, R>(tok, self.bucket_for(hash), hash, key).is_some()
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
    /// destination-side handler takes its progress thread's standing epoch
    /// token and performs ordinary lock-free inserts, so batched and per-key
    /// inserts can run concurrently. A high watermark (4x the
    /// per-destination capacity) bounds total buffered memory under skewed
    /// key distributions. Returns the number of pairs actually inserted
    /// (duplicates of existing keys are dropped, as in [`Self::insert`]).
    pub fn insert_bulk(&self, pairs: Vec<(K, V)>) -> usize {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_INSERT, 0);
        let dest = |hash| self.bucket_for(hash).locale();
        scatter_insert(&self.em, pairs, dest, |tok, k, v| self.insert(tok, k, v))
    }

    /// Look up many keys through the engine's batched communication path.
    ///
    /// The counterpart of [`Self::insert_bulk`]: keys are binned by bucket
    /// owner, each destination's batch travels as one bulk active message,
    /// and lookups execute on the locale that owns the bucket chain.
    /// Returns the values (or `None`) aligned with the input order.
    pub fn get_bulk(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let _span = OpSpan::start(OpClass::MapOp, opkind::BULK_GET, 0);
        let dest = |hash| self.bucket_for(hash).locale();
        gather_get(&self.em, keys, dest, |tok, k| self.get(tok, k))
    }

    /// Entry count (racy; exact in quiescence).
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::MapOp, opkind::LEN, 0);
        let g = self.em.register();
        pinned(&g, 2, || {
            let count = |&sentinel| chain_count::<K, V, R>(&g, sentinel);
            self.buckets.iter().map(count).sum()
        })
    }

    /// True when no entries are present (racy; exact in quiescence).
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
        /// arbitrary order), `get_bulk` result `i` is the lookup of
        /// request key `i` — never shuffled by the scatter.
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
                proptest::prop_assert_eq!(by_value.len(), keys.len());
                for (i, k) in keys.iter().enumerate() {
                    let expect = model.get(k).copied();
                    proptest::prop_assert_eq!(by_value[i], expect, "get_bulk[{}] vs key {}", i, k);
                }
                drop(tok);
                m.clear_reclaim();
                Ok(())
            })?;
            assert_eq!(rt.live_objects(), 0);
        }
    }
}
