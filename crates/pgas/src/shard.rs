//! Key-hash → owning-locale routing for the global-view structures tier.
//!
//! The follow-up paper ("Scaling Shared-Memory Data Structures as
//! Distributed Global-View Data Structures in the PGAS model") shows that
//! the flat structures of the source paper only scale once they are
//! *privatized* into per-locale shards with locale-aware routing: every
//! operation first asks *which locale owns this key* and then either takes
//! a pure-local path (no communication) or ships one message to the owner,
//! instead of pointer-chasing a chain whose links scatter across the
//! machine.
//!
//! [`ShardRouter`] is that routing decision, factored out of any one
//! structure so the map and application code agree on ownership. It is
//! engine-portable by construction: the mapping is a pure function of
//! `(key hash, active shard count)` — no global pointers, no simulator
//! state — so the same router drives the in-process simulator
//! and the multi-process [`crate::config::EngineKind::Proc`] backend,
//! where the hash routes symmetric-heap offsets instead of chain heads
//! (see [`owner_of`]).
//!
//! The *active* shard count can be retargeted at runtime (modeling a
//! locale-count change: nodes joining an allocation, or a structure being
//! compacted onto fewer locales). Retargeting only changes the mapping —
//! migrating the keys that changed owner is the structure's job (a bulk
//! scatter; see `ShardedHashMap::rebalance` in `pgas-structures`). Each
//! retarget bumps a generation counter so cached routing decisions can be
//! revalidated cheaply.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::ctx;
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;

/// Finalizing mix (SplitMix64) decorrelating the shard choice from the
/// low hash bits that structures use for bucket indexing: shard = high
/// mixed bits, bucket = low raw bits, so a power-of-two bucket table does
/// not alias the shard decision.
#[inline]
pub fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The pure routing function: which of `active` shards owns `hash`.
///
/// This is the whole protocol — a mixed hash reduced onto the active
/// shard set — exposed as a free function so engine-portable code (the
/// proc backend routes symmetric-heap offsets with it) needs no
/// [`ShardRouter`] instance.
#[inline]
pub fn owner_of(hash: u64, active: usize) -> LocaleId {
    debug_assert!(active > 0, "router needs at least one active shard");
    (mix64(hash) % active.max(1) as u64) as LocaleId
}

/// Maps key hashes onto owning locales, with a retargetable active set.
///
/// Shards are identified with locales `0..active()`; a structure built on
/// the router homes shard `s`'s memory on locale `s`, so `owner(h) ==
/// here()` means "this key's shard is local — no communication needed".
#[derive(Debug)]
pub struct ShardRouter {
    /// Locales the owning runtime has (upper bound for `active`).
    locales: usize,
    /// Number of shards currently receiving keys (`1..=locales`).
    active: AtomicUsize,
    /// Bumped on every [`Self::retarget`]; lets callers detect that a
    /// previously computed owner may be stale.
    generation: AtomicU64,
}

impl ShardRouter {
    /// A router spanning every locale of `core`'s runtime.
    pub fn new(core: &RuntimeCore) -> ShardRouter {
        Self::with_active(core, core.num_locales())
    }

    /// A router over `core`'s locales with only the first `active` shards
    /// receiving keys (clamped to `1..=num_locales`).
    pub fn with_active(core: &RuntimeCore, active: usize) -> ShardRouter {
        let locales = core.num_locales();
        ShardRouter {
            locales,
            active: AtomicUsize::new(active.clamp(1, locales)),
            generation: AtomicU64::new(0),
        }
    }

    /// The locale owning `hash` under the current active set.
    #[inline]
    pub fn owner(&self, hash: u64) -> LocaleId {
        owner_of(hash, self.active())
    }

    /// True when the current locale owns `hash` — the pure-local fast
    /// path predicate.
    #[inline]
    pub fn is_local(&self, hash: u64) -> bool {
        self.owner(hash) == ctx::here()
    }

    /// Number of shards currently receiving keys.
    #[inline]
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Total locales the router spans (the maximum active count).
    #[inline]
    pub fn num_locales(&self) -> usize {
        self.locales
    }

    /// Current mapping generation (bumped by every [`Self::retarget`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Change the active shard count (clamped to `1..=num_locales`),
    /// returning the previous count. The caller owns migrating keys whose
    /// owner changed; until it does, lookups routed under the new mapping
    /// will not see entries still sitting in their old shard.
    pub fn retarget(&self, active: usize) -> usize {
        let new = active.clamp(1, self.locales);
        let prev = self.active.swap(new, Ordering::AcqRel);
        if prev != new {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;

    #[test]
    fn owners_stay_in_active_range_and_cover_it() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let r = ShardRouter::new(&rt);
            assert_eq!(r.active(), 4);
            let mut seen = [false; 4];
            for h in 0..4096u64 {
                let o = r.owner(h) as usize;
                assert!(o < 4, "owner {o} out of range");
                seen[o] = true;
            }
            assert!(seen.iter().all(|&s| s), "4096 hashes must cover 4 shards");
        });
    }

    #[test]
    fn routing_is_deterministic_and_mix_decorrelates_low_bits() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let r = ShardRouter::new(&rt);
            for h in 0..512u64 {
                assert_eq!(r.owner(h), r.owner(h), "pure function of the hash");
                assert_eq!(r.owner(h), owner_of(h, 4), "router == free function");
            }
            // Consecutive integers (identical high bits) must still spread:
            // the mix is what keeps bucket index and shard choice apart.
            let first = r.owner(0);
            assert!(
                (1..64u64).any(|h| r.owner(h) != first),
                "mixer must spread consecutive hashes"
            );
        });
    }

    #[test]
    fn retarget_bumps_generation_and_clamps() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let r = ShardRouter::with_active(&rt, 2);
            assert_eq!(r.active(), 2);
            let g0 = r.generation();
            assert_eq!(r.retarget(4), 2);
            assert_eq!(r.active(), 4);
            assert_eq!(r.generation(), g0 + 1);
            // No-op retarget: generation unchanged.
            assert_eq!(r.retarget(4), 4);
            assert_eq!(r.generation(), g0 + 1);
            // Clamped to the locale count.
            assert_eq!(r.retarget(64), 4);
            assert_eq!(r.active(), 4);
            assert_eq!(r.retarget(0), 4);
            assert_eq!(r.active(), 1);
        });
    }

    #[test]
    fn is_local_matches_owner_on_every_locale() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let r = ShardRouter::new(&rt);
            rt.coforall_locales(|l| {
                for h in 0..256u64 {
                    assert_eq!(r.is_local(h), r.owner(h) == l);
                }
            });
        });
    }
}
