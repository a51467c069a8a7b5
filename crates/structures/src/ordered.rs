//! An ordered global-view set: the skiplist, privatized per locale.
//!
//! [`crate::LockFreeSkipList`] is a flat shared-memory ordered set — one
//! tower chain whose nodes scatter across inserting locales, so every
//! traversal step can be remote. This wrapper applies the same
//! privatization recipe as [`crate::ShardedHashMap`]: one skiplist
//! **shard per locale** (towers homed where they are built), a
//! [`pgas_sim::ShardRouter`] mapping key-hash → owning shard, and
//! point operations that either run purely locally or ship one combined
//! AM to the owner.
//!
//! Hash routing keeps point ops balanced under any key skew, but it
//! means *global order lives across shards*: each shard is internally
//! ordered while the key space interleaves between them. A range scan is
//! therefore a **fan-out**: every shard runs its local `collect_range`
//! (expected-logarithmic seek + linear walk, all local memory), and the
//! per-shard slices merge on the caller. That trade — O(locales)
//! messages per scan in exchange for communication-free point ops — is
//! the global-view design the follow-up paper describes for ordered
//! containers, and A11's mixed workloads measure the point-op side of
//! it.
//!
//! Each shard owns its own reclaimer instance (registration happens on
//! the owning locale per operation), so there is no cross-locale guard
//! to thread through the API — operations here take no token. A remote
//! operation's registration is the owner's progress-thread standing guard
//! (see [`Reclaimer::register`]), so it costs no registry traffic.

use std::hash::Hash;

use pgas_epoch::{EpochManager, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, LocaleId, ShardRouter};

use crate::chain::hash_key;
use crate::skiplist::LockFreeSkipList;

/// An ordered set of `Copy` keys, sharded per locale with cross-shard
/// range scans. See the module docs for the routing/scan protocol.
pub struct GlobalOrderedSet<K, R = EpochManager>
where
    K: Ord + Copy + Hash + Send + 'static,
    R: Reclaimer,
{
    /// `shards[l]`'s towers are homed on locale `l`.
    shards: Box<[LockFreeSkipList<K, R>]>,
    router: ShardRouter,
}

unsafe impl<K, R> Send for GlobalOrderedSet<K, R>
where
    K: Ord + Copy + Hash + Send + 'static,
    R: Reclaimer,
{
}
unsafe impl<K, R> Sync for GlobalOrderedSet<K, R>
where
    K: Ord + Copy + Hash + Send + 'static,
    R: Reclaimer,
{
}

impl<K> GlobalOrderedSet<K>
where
    K: Ord + Copy + Hash + Send + 'static,
{
    /// Create a set with one epoch-reclaimed skiplist shard per locale
    /// of the current runtime.
    pub fn new() -> GlobalOrderedSet<K> {
        Self::with_reclaimer()
    }
}

impl<K, R> GlobalOrderedSet<K, R>
where
    K: Ord + Copy + Hash + Send + 'static,
    R: Reclaimer,
{
    /// Create a set using reclamation backend `R` in every shard. Each
    /// shard is constructed *on* its locale so its towers are homed
    /// there.
    pub fn with_reclaimer() -> GlobalOrderedSet<K, R> {
        let rt = ctx::current_runtime();
        let shards = (0..rt.num_locales())
            .map(|l| rt.on(l as LocaleId, LockFreeSkipList::with_reclaimer))
            .collect();
        GlobalOrderedSet {
            shards,
            router: ShardRouter::new(&rt),
        }
    }

    /// The set's routing table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Insert `key`; `false` when already present. Locally-owned keys run
    /// in place; remote keys ship one combined AM to the owner.
    pub fn insert(&self, key: K) -> bool {
        let _span = OpSpan::start(OpClass::OrderedSetOp, opkind::INSERT, hash_key(&key));
        self.route(key, move |shard| {
            let tok = shard.register();
            shard.insert(&tok, key)
        })
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: K) -> bool {
        let _span = OpSpan::start(OpClass::OrderedSetOp, opkind::REMOVE, hash_key(&key));
        self.route(key, move |shard| {
            let tok = shard.register();
            shard.remove(&tok, key)
        })
    }

    /// True when `key` is present.
    pub fn contains(&self, key: K) -> bool {
        let _span = OpSpan::start(OpClass::OrderedSetOp, opkind::CONTAINS, hash_key(&key));
        self.route(key, move |shard| {
            let tok = shard.register();
            shard.contains(&tok, key)
        })
    }

    /// Run `f` against `key`'s owning shard — in place when the shard is
    /// local, over the combining layer otherwise. There `f`'s
    /// `shard.register()` gets the standing guard of the progress thread
    /// running the handler: no registration, no per-op publication.
    fn route<T, F>(&self, key: K, f: F) -> T
    where
        T: Send,
        F: FnOnce(&LockFreeSkipList<K, R>) -> T + Send,
    {
        let owner = self.router.owner(hash_key(&key));
        let shard = &self.shards[owner as usize];
        if owner == ctx::here() {
            f(shard)
        } else {
            ctx::current_runtime().on_combining(owner, move || f(shard))
        }
    }

    /// Every key in `[lo, hi)` (half-open, like the underlying
    /// skiplist's `collect_range`), globally sorted: each shard scans its
    /// slice locally (one fan-out task per shard) and the caller merges.
    /// Racy like any lock-free scan — exact in quiescence.
    pub fn range(&self, lo: K, hi: K) -> Vec<K> {
        let _span = OpSpan::start(OpClass::OrderedSetOp, opkind::RANGE, 0);
        let rt = ctx::current_runtime();
        let mut all = Vec::new();
        for (l, shard) in self.shards.iter().enumerate() {
            let part = rt.on(l as LocaleId, move || {
                let tok = shard.register();
                shard.collect_range(&tok, lo, hi)
            });
            all.extend(part);
        }
        // Shards are internally sorted but interleave globally.
        all.sort_unstable();
        all
    }

    /// Total key count across shards (racy; exact in quiescence).
    pub fn len(&self) -> usize {
        let _span = OpSpan::start(OpClass::OrderedSetOp, opkind::LEN, 0);
        let rt = ctx::current_runtime();
        let mut n = 0;
        for (l, shard) in self.shards.iter().enumerate() {
            n += rt.on(l as LocaleId, || shard.len());
        }
        n
    }

    /// True when no keys are present (racy; exact in quiescence).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt reclamation in every shard. What each can free is stated
    /// at [`Reclaimer::try_reclaim`].
    pub fn try_reclaim(&self) -> bool {
        let mut any = false;
        for shard in self.shards.iter() {
            any |= shard.try_reclaim();
        }
        any
    }

    /// Reclaim everything; callers must guarantee quiescence.
    pub fn clear_reclaim(&self) {
        for shard in self.shards.iter() {
            shard.clear_reclaim();
        }
    }
}

impl<K> Default for GlobalOrderedSet<K>
where
    K: Ord + Copy + Hash + Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn point_ops_roundtrip_across_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let s: GlobalOrderedSet<u64> = GlobalOrderedSet::new();
            rt.coforall_locales(|l| {
                for i in 0..50u64 {
                    let k = (l as u64) * 100 + i;
                    assert!(s.insert(k));
                    assert!(!s.insert(k), "duplicate");
                }
            });
            assert_eq!(s.len(), 200);
            assert!(s.contains(137));
            assert!(!s.contains(1370));
            assert!(s.remove(137));
            assert!(!s.remove(137));
            assert_eq!(s.len(), 199);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn range_scan_is_globally_sorted_across_shards() {
        let rt = zrt(4);
        rt.run(|| {
            let s: GlobalOrderedSet<u64> = GlobalOrderedSet::new();
            // Insert shuffled keys from every locale.
            rt.coforall_locales(|l| {
                for i in 0..64u64 {
                    s.insert(i * 4 + l as u64);
                }
            });
            // Keys hash-route, so any dense range must span shards.
            let keys_per_shard: Vec<usize> = (0..4)
                .map(|shard| {
                    (0..256u64)
                        .filter(|k| s.router().owner(crate::chain::hash_key(k)) == shard)
                        .count()
                })
                .collect();
            assert!(
                keys_per_shard.iter().all(|&n| n > 0),
                "dense range must interleave shards: {keys_per_shard:?}"
            );
            let mid = s.range(100, 200);
            assert_eq!(mid.len(), 100, "[100, 200) is half-open");
            assert!(mid.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            assert_eq!(mid.first(), Some(&100));
            assert_eq!(mid.last(), Some(&199));
            let all = s.range(0, u64::MAX);
            assert_eq!(all.len(), 256);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn local_point_ops_send_no_ams() {
        let rt = Runtime::new(RuntimeConfig::cluster(4).without_network_atomics());
        rt.run(|| {
            let s: GlobalOrderedSet<u64> = GlobalOrderedSet::new();
            rt.on(2, || {
                let owned: Vec<u64> = (0..4096u64)
                    .filter(|k| s.router().owner(crate::chain::hash_key(k)) == 2)
                    .take(32)
                    .collect();
                let before = rt.total_comm();
                for &k in &owned {
                    assert!(s.insert(k));
                    assert!(s.contains(k));
                }
                let d = rt.total_comm() - before;
                assert_eq!(d.am_sent, 0, "locally-owned ordered ops are AM-free");
            });
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_shards_roundtrip() {
        use pgas_epoch::HazardReclaimer;
        let rt = zrt(2);
        rt.run(|| {
            let s: GlobalOrderedSet<u32, HazardReclaimer> = GlobalOrderedSet::with_reclaimer();
            for k in 0..200u32 {
                assert!(s.insert(k));
            }
            assert_eq!(s.range(50, 150).len(), 100);
            for k in (0..200u32).step_by(2) {
                assert!(s.remove(k));
            }
            assert_eq!(s.len(), 100);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
