//! The privatized, per-locale-sharded hash map — the global-view tier.
//!
//! The follow-up paper ("Scaling Shared-Memory Data Structures as
//! Distributed Global-View Data Structures in the PGAS model") shows the
//! flat [`crate::map::DistHashMap`] layout only scales so far: its bucket
//! chains interleave nodes from every inserting locale, so a single `get`
//! pays one remote atomic read *per chain hop*, wherever it runs. The fix
//! is **privatization**: partition the key space into per-locale shards
//! (via [`pgas_sim::ShardRouter`]) and home each shard's chains entirely
//! on its owning locale. Then
//!
//! * an operation on a **locally-owned** key runs the ordinary Harris
//!   chain protocol against locale-local memory — CPU atomics, **zero
//!   communication**;
//! * an operation on a **remote** key ships *one* active message to the
//!   owner over the runtime's combining layer
//!   ([`pgas_sim::RuntimeCore::on_combining`]) and runs the same local
//!   protocol there — one AM instead of one remote atomic per hop. The
//!   handler runs under the standing guard of the owner's progress thread
//!   (see [`Reclaimer::register`]), so the owner registers nothing per
//!   operation either;
//! * bulk operations scatter/gather **per destination** over the
//!   [`pgas_sim::Batcher`], so a million-key preload costs one bulk AM
//!   per destination buffer.
//!
//! Neither tier owns the Harris protocol or the bulk scatter/gather: both
//! call the crate's `chain` module, so the sharded map is the legacy map
//! with a different answer to "where do chains live and who runs the op"
//! (one private helper, `at_owner`) — which is exactly what ablation A11
//! measures, and why the two stay separate types: a routing flag on one
//! type would make every operation branch on how its map was built.

use std::hash::Hash;

use pgas_epoch::{EpochManager, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, GlobalPtr, LocaleId, PerThread, ShardRouter};

use crate::chain::{
    alloc_sentinel, chain_count, chain_get, chain_insert, chain_remove, chain_teardown, gather_get,
    hash_key, scatter_insert, Node,
};
use crate::pinned;

/// Routing/traffic counters a sharded map accumulates over its lifetime:
/// the cells of its [`PerThread`] block, one per [`ShardSnapshot`] counter.
/// Process memory (not simulated-NIC atomics), so bumping them never
/// perturbs the communication counters the benchmarks assert on, and
/// sharded per thread, so every op from every locale bumping `LocalOps` /
/// `RemoteOps` shares no cache line.
#[derive(Clone, Copy)]
#[repr(usize)]
enum ShardStat {
    LocalOps,
    RemoteOps,
    BulkLocalItems,
    BulkRemoteItems,
}

const SHARD_STATS: usize = ShardStat::BulkRemoteItems as usize + 1;

/// A point-in-time copy of a map's routing/traffic counters. Serialized
/// into the benchmark rows' `shard` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Single-key ops whose key was locally owned (pure-local path).
    pub local_ops: u64,
    /// Single-key ops shipped to a remote owner (one AM each).
    pub remote_ops: u64,
    /// Bulk items applied on the calling locale.
    pub bulk_local_items: u64,
    /// Bulk items scattered to remote destinations.
    pub bulk_remote_items: u64,
}

impl ShardSnapshot {
    /// JSON object for the benchmark harness (`shard` field of a row).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"local_ops\": {}, \"remote_ops\": {}, \"bulk_local_items\": {}, \
             \"bulk_remote_items\": {}}}",
            self.local_ops, self.remote_ops, self.bulk_local_items, self.bulk_remote_items
        )
    }
}

/// One shard's bucket sentinels, all homed on the owning locale.
type ShardBuckets<K, V> = Box<[GlobalPtr<Node<K, V>>]>;

/// A privatized, per-locale-sharded lock-free hash map.
///
/// Shard `s` (one per locale) homes `buckets_per_shard` Harris chains on
/// locale `s`; a [`ShardRouter`] maps each key hash to its owning shard.
/// See the module docs for the routing protocol.
pub struct ShardedHashMap<K, V, R = EpochManager>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    /// `shards[l]` = the bucket sentinels of locale `l`'s shard, every
    /// one allocated on locale `l`.
    shards: Box<[ShardBuckets<K, V>]>,
    mask: u64,
    router: ShardRouter,
    em: R,
    stats: PerThread,
}

unsafe impl<K, V, R> Send for ShardedHashMap<K, V, R>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
}
unsafe impl<K, V, R> Sync for ShardedHashMap<K, V, R>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
}

impl<K, V> ShardedHashMap<K, V>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
{
    /// Create a sharded map with `buckets_per_shard` buckets (rounded up
    /// to a power of two) homed on each locale of the current runtime,
    /// with the default epoch-based backend.
    pub fn new(buckets_per_shard: usize) -> ShardedHashMap<K, V> {
        Self::with_reclaimer(buckets_per_shard)
    }

    /// The map's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<K, V, R> ShardedHashMap<K, V, R>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    /// Create a sharded map using reclamation backend `R`.
    pub fn with_reclaimer(buckets_per_shard: usize) -> ShardedHashMap<K, V, R> {
        let rt = ctx::current_runtime();
        let n = buckets_per_shard.next_power_of_two().max(1);
        let locales = rt.num_locales();
        let shards = (0..locales)
            .map(|l| (0..n).map(|_| alloc_sentinel(&rt, l as LocaleId)).collect())
            .collect();
        ShardedHashMap {
            shards,
            mask: (n - 1) as u64,
            router: ShardRouter::new(&rt),
            em: R::new_in_runtime(),
            stats: PerThread::new(SHARD_STATS, 0),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// The map's routing table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Buckets per shard.
    pub fn buckets_per_shard(&self) -> usize {
        self.shards[0].len()
    }

    /// Snapshot the routing/traffic counters.
    pub fn shard_snapshot(&self) -> ShardSnapshot {
        let mut c = [0; SHARD_STATS];
        self.stats.read(0, &mut c);
        ShardSnapshot {
            local_ops: c[ShardStat::LocalOps as usize],
            remote_ops: c[ShardStat::RemoteOps as usize],
            bulk_local_items: c[ShardStat::BulkLocalItems as usize],
            bulk_remote_items: c[ShardStat::BulkRemoteItems as usize],
        }
    }

    /// The chain sentinel for `hash` inside `shard`.
    fn bucket_in(&self, shard: LocaleId, hash: u64) -> GlobalPtr<Node<K, V>> {
        self.shards[shard as usize][(hash & self.mask) as usize]
    }

    /// Run `op` on `hash`'s chain where it lives: in place under the
    /// caller's guard (and `span`) when this locale owns the shard, else as
    /// one combined AM on the owner, under the standing guard of the
    /// progress thread that runs it (`register` there costs no registry
    /// traffic). The span can't travel (it's bound to this task's telemetry
    /// slot), so the remote leg runs span-less; retries on the owner are
    /// invisible to the caller's histogram, but the caller still times the
    /// full round trip.
    fn at_owner<T: Send>(
        &self,
        tok: &R::Guard<'_>,
        hash: u64,
        span: &OpSpan,
        op: impl FnOnce(&R::Guard<'_>, GlobalPtr<Node<K, V>>, Option<&OpSpan>) -> T + Send,
    ) -> T {
        let owner = self.router.owner(hash);
        let sentinel = self.bucket_in(owner, hash);
        if owner == ctx::here() {
            self.stats.add(ShardStat::LocalOps as usize, 1);
            op(tok, sentinel, Some(span))
        } else {
            self.stats.add(ShardStat::RemoteOps as usize, 1);
            ctx::current_runtime()
                .on_combining(owner, move || op(&self.em.register(), sentinel, None))
        }
    }

    /// Insert `(key, value)`. Locally-owned keys run the chain protocol
    /// in place under the caller's guard; remote keys ship one combined
    /// AM to the owner, whose handler runs under its progress thread's
    /// standing guard. Returns `false` (dropping the pair) when the key is
    /// already present.
    pub fn insert(&self, tok: &R::Guard<'_>, key: K, value: V) -> bool {
        let hash = hash_key(&key);
        let span = OpSpan::start(OpClass::ShardedMapOp, opkind::INSERT, hash);
        self.at_owner(tok, hash, &span, move |tok, sentinel, span| {
            chain_insert::<K, V, R>(tok, sentinel, hash, key, value, span)
        })
    }

    /// `get` and `contains_key`: one lookup at the owner, recorded as `kind`.
    fn lookup(&self, tok: &R::Guard<'_>, key: &K, kind: u64) -> Option<V> {
        let hash = hash_key(key);
        let span = OpSpan::start(OpClass::ShardedMapOp, kind, hash);
        self.at_owner(tok, hash, &span, |tok, sentinel, _| {
            chain_get::<K, V, R>(tok, sentinel, hash, key)
        })
    }

    /// Look up `key`, cloning the value out on the owning locale.
    pub fn get(&self, tok: &R::Guard<'_>, key: &K) -> Option<V> {
        self.lookup(tok, key, opkind::GET)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, tok: &R::Guard<'_>, key: &K) -> bool {
        self.lookup(tok, key, opkind::CONTAINS).is_some()
    }

    /// Remove `key`; returns `true` when it was present.
    pub fn remove(&self, tok: &R::Guard<'_>, key: &K) -> bool {
        let hash = hash_key(key);
        let span = OpSpan::start(OpClass::ShardedMapOp, opkind::REMOVE, hash);
        self.at_owner(tok, hash, &span, |tok, sentinel, span| {
            chain_remove::<K, V, R>(tok, sentinel, hash, key, span)
        })
    }

    /// Where a bulk item with `hash` goes, counted as local or remote.
    fn bulk_dest(&self, hash: u64) -> LocaleId {
        let dest = self.router.owner(hash);
        let items = if dest == ctx::here() {
            ShardStat::BulkLocalItems
        } else {
            ShardStat::BulkRemoteItems
        };
        self.stats.add(items as usize, 1);
        dest
    }

    /// Insert many pairs, scattered per owning shard over the batched
    /// communication path. Locally-owned pairs apply inline; each remote
    /// destination's pairs ride bulk AMs, applied by a handler on the
    /// owner (so every item still takes that shard's pure-local path).
    /// Returns the number of pairs actually inserted.
    pub fn insert_bulk(&self, pairs: Vec<(K, V)>) -> usize {
        let _span = OpSpan::start(OpClass::ShardedMapOp, opkind::BULK_INSERT, 0);
        let dest = |hash| self.bulk_dest(hash);
        scatter_insert(&self.em, pairs, dest, |tok, k, v| self.insert(tok, k, v))
    }

    /// Look up many keys, gathered per owning shard over the batched
    /// path. Results are aligned with the input order.
    pub fn get_bulk(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let _span = OpSpan::start(OpClass::ShardedMapOp, opkind::BULK_GET, 0);
        let dest = |hash| self.bulk_dest(hash);
        gather_get(&self.em, keys, dest, |tok, k| self.get(tok, k))
    }

    /// Entry count (racy; exact in quiescence). Each shard is counted by
    /// a task running *on* its locale, so the walk itself is local.
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::ShardedMapOp, opkind::LEN, 0);
        let rt = ctx::current_runtime();
        let mut total = 0usize;
        for l in 0..self.shards.len() {
            total += rt.on(l as LocaleId, || {
                let g = self.em.register();
                pinned(&g, 2, || {
                    let count = |&sentinel| chain_count::<K, V, R>(&g, sentinel);
                    self.shards[l].iter().map(count).sum::<usize>()
                })
            });
        }
        total
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

impl<K, V, R> Drop for ShardedHashMap<K, V, R>
where
    K: Hash + Ord + Send + Sync + 'static,
    V: Clone + Send + 'static,
    R: Reclaimer,
{
    fn drop(&mut self) {
        let teardown = || {
            let rt = ctx::current_runtime();
            for l in 0..self.shards.len() {
                // Shard `l`'s chains live on locale `l`: torn down there,
                // every free is local, and the drop costs one active
                // message per remote shard instead of one per node.
                rt.on(l as LocaleId, || {
                    for &sentinel in self.shards[l].iter() {
                        // SAFETY: quiescent teardown.
                        unsafe { chain_teardown(&rt, sentinel) };
                    }
                });
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

    /// Panics in `clone` while armed, once.
    struct CloneBomb;

    static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    impl Clone for CloneBomb {
        fn clone(&self) -> CloneBomb {
            if ARMED.swap(false, Ordering::SeqCst) {
                panic!("clone bomb");
            }
            CloneBomb
        }
    }

    #[test]
    fn a_value_clone_that_panics_under_a_local_get_leaves_the_caller_unpinned() {
        let rt = zrt(1);
        rt.run(|| {
            let m = ShardedHashMap::<u64, CloneBomb>::new(4);
            let tok = m.register();
            assert!(m.insert(&tok, 1, CloneBomb));
            ARMED.store(true, Ordering::SeqCst);
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.get(&tok, &1)));
            assert!(got.is_err(), "the clone panicked");
            assert!(!tok.is_pinned());
            assert!(m.try_reclaim());
            assert!(
                m.try_reclaim(),
                "a token left pinned in the first epoch would block this advance"
            );
            assert!(m.get(&tok, &1).is_some(), "the map still works");
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn roundtrip_from_every_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new(16);
            rt.coforall_locales(|l| {
                let tok = m.register();
                for i in 0..100u64 {
                    let k = (l as u64) * 1000 + i;
                    assert!(m.insert(&tok, k, k * 2));
                    assert!(!m.insert(&tok, k, 0), "duplicate");
                }
            });
            assert_eq!(m.len(), 400);
            let tok = m.register();
            for l in 0..4u64 {
                for i in (0..100u64).step_by(7) {
                    let k = l * 1000 + i;
                    assert_eq!(m.get(&tok, &k), Some(k * 2));
                }
            }
            assert!(m.remove(&tok, &1001));
            assert!(!m.remove(&tok, &1001));
            assert_eq!(m.get(&tok, &1001), None);
            assert_eq!(m.len(), 399);
            let snap = m.shard_snapshot();
            assert!(snap.local_ops > 0, "some keys must be locally owned");
            assert!(snap.remote_ops > 0, "some keys must route remotely");
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn locally_owned_ops_send_no_ams() {
        // Real cluster latencies, CPU atomics: the pure-local path must
        // be communication-free.
        let rt = Runtime::new(RuntimeConfig::cluster(4).without_network_atomics());
        rt.run(|| {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new(16);
            // From locale 1, operate only on keys locale 1 owns.
            rt.on(1, || {
                let owned: Vec<u64> = (0..4096u64)
                    .filter(|k| m.router().owner(hash_key(k)) == 1)
                    .take(64)
                    .collect();
                assert!(!owned.is_empty());
                let tok = m.register();
                let before = rt.total_comm();
                for &k in &owned {
                    assert!(m.insert(&tok, k, k));
                    assert_eq!(m.get(&tok, &k), Some(k));
                    assert!(m.remove(&tok, &k));
                }
                let d = rt.total_comm() - before;
                assert_eq!(d.am_sent, 0, "local-shard ops must not send AMs");
                assert_eq!(d.rdma_atomics, 0, "local-shard ops stay off the NIC");
                assert!(d.cpu_atomics > 0, "chain CASes run on the CPU");
            });
            let snap = m.shard_snapshot();
            assert_eq!(snap.remote_ops, 0);
            assert_eq!(snap.local_ops, 64 * 3);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn remote_ops_ship_one_am_each() {
        let rt = Runtime::new(RuntimeConfig::cluster(4).without_network_atomics());
        rt.run(|| {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new(16);
            // From locale 0, operate on keys owned elsewhere.
            let remote: Vec<u64> = (0..4096u64)
                .filter(|k| m.router().owner(hash_key(k)) != 0)
                .take(32)
                .collect();
            let tok = m.register();
            let before = rt.total_comm();
            for &k in &remote {
                assert!(m.insert(&tok, k, k));
            }
            let d = rt.total_comm() - before;
            // One shipped closure per op — not one message per chain hop.
            assert!(d.am_sent >= 32, "every remote op ships a message");
            assert!(
                d.am_sent <= 2 * 32,
                "remote ops must not pay per-hop traffic: {} AMs for 32 ops",
                d.am_sent
            );
            assert_eq!(m.shard_snapshot().remote_ops, 32);
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn bulk_scatter_gather_roundtrip() {
        let rt = zrt(4);
        rt.run(|| {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new(32);
            let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k, k * 3)).collect();
            assert_eq!(m.insert_bulk(pairs), 500);
            assert_eq!(m.len(), 500);
            let keys: Vec<u64> = (0..600).rev().collect();
            let got = m.get_bulk(keys.clone());
            for (i, k) in keys.iter().enumerate() {
                let expect = if *k < 500 { Some(*k * 3) } else { None };
                assert_eq!(got[i], expect, "result {i} aligned with key {k}");
            }
            let snap = m.shard_snapshot();
            assert_eq!(snap.bulk_local_items + snap.bulk_remote_items, 500 + 600);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn bulk_insert_batches_communication() {
        let rt = Runtime::cluster(4);
        rt.run(|| {
            let m: ShardedHashMap<u64, u64> = ShardedHashMap::new(64);
            rt.reset_metrics();
            let n = 512u64;
            let before = rt.total_comm();
            assert_eq!(m.insert_bulk((0..n).map(|k| (k, k)).collect()), n as usize);
            let d = rt.total_comm() - before;
            assert!(d.am_batches >= 1, "remote batches must flow");
            assert!(
                d.am_sent <= 2 * rt.num_locales() as u64,
                "bulk insert must not pay per-key AMs: {} AMs for {n} keys",
                d.am_sent
            );
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
            let m: ShardedHashMap<u8, u64> = ShardedHashMap::new(8);
            let tok = m.register();
            let mut model = std::collections::HashMap::new();
            let mut rng = StdRng::seed_from_u64(41);
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
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_roundtrip() {
        use pgas_epoch::HazardReclaimer;
        let rt = zrt(2);
        rt.run(|| {
            let m: ShardedHashMap<u64, u64, HazardReclaimer> = ShardedHashMap::with_reclaimer(8);
            let tok = m.register();
            for k in 0..100u64 {
                assert!(m.insert(&tok, k, k * 5));
            }
            for k in 0..100u64 {
                assert_eq!(m.get(&tok, &k), Some(k * 5));
            }
            for k in (0..100u64).step_by(2) {
                assert!(m.remove(&tok, &k));
            }
            assert_eq!(m.len(), 50);
            drop(tok);
            m.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    /// Counts its drops, as a key and as a value.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Counted(u64);
    static COUNTED_DROPS: AtomicUsize = AtomicUsize::new(0);

    impl Drop for Counted {
        fn drop(&mut self) {
            COUNTED_DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_tears_each_shard_down_on_its_owner() {
        const N: u64 = 400;
        const LOCALES: u64 = 4;
        let rt = Runtime::new(RuntimeConfig::cluster(LOCALES as usize).without_network_atomics());
        // `N` counted entries, and the count at zero: the bulk path drops
        // temporaries of its own.
        let build = || {
            rt.run(|| {
                let m: ShardedHashMap<Counted, Counted> = ShardedHashMap::new(16);
                m.insert_bulk((0..N).map(|k| (Counted(k), Counted(k + N))).collect());
                assert_eq!(m.len(), N as usize);
                m.clear_reclaim();
                COUNTED_DROPS.store(0, Ordering::SeqCst);
                m
            })
        };

        // Dropped by a task on locale 2, which owns a quarter of the nodes.
        // The reclaimer's own drop is one more `clear`, whatever that costs.
        let m = build();
        let clear_ams = rt.run(|| {
            rt.on(2, || {
                let before = rt.total_comm();
                m.clear_reclaim();
                let clear_ams = (rt.total_comm() - before).am_sent;
                drop(m);
                let sent = (rt.total_comm() - before).am_sent - 2 * clear_ams;
                assert!(
                    sent < LOCALES,
                    "one AM per remote shard, not per node: {sent}"
                );
                clear_ams
            })
        });
        assert_eq!(COUNTED_DROPS.load(Ordering::SeqCst), 2 * N as usize);
        assert_eq!(rt.live_objects(), 0);

        // Dropped by a thread that is not in the runtime at all.
        let m = build();
        let before = rt.total_comm();
        drop(m);
        let sent = (rt.total_comm() - before).am_sent - clear_ams;
        assert!(
            sent < LOCALES,
            "one AM per remote shard, not per node: {sent}"
        );
        assert_eq!(COUNTED_DROPS.load(Ordering::SeqCst), 2 * N as usize);
        assert_eq!(rt.live_objects(), 0);
    }
}
