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
//! `(key hash, locale count)` — no global pointers, no simulator state,
//! nothing that changes at run time — so the same router drives the
//! in-process simulator and the multi-process
//! [`crate::config::EngineKind::Proc`] backend, where the hash routes
//! symmetric-heap offsets instead of chain heads (see [`owner_of`]).

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

/// The pure routing function: which of `locales` shards owns `hash`.
///
/// This is the whole protocol — a mixed hash reduced onto the locale
/// count — exposed as a free function so engine-portable code (the proc
/// backend routes symmetric-heap offsets with it) needs no
/// [`ShardRouter`] instance.
#[inline]
pub fn owner_of(hash: u64, locales: usize) -> LocaleId {
    debug_assert!(locales > 0, "router needs at least one locale");
    (mix64(hash) % locales.max(1) as u64) as LocaleId
}

/// Maps key hashes onto owning locales, one shard per locale.
///
/// Shards are identified with locales `0..num_locales()`; a structure built
/// on the router homes shard `s`'s memory on locale `s`, so `owner(h) ==
/// here()` means "this key's shard is local — no communication needed".
#[derive(Debug)]
pub struct ShardRouter {
    /// Locales the owning runtime has, one shard each.
    locales: usize,
}

impl ShardRouter {
    /// A router spanning every locale of `core`'s runtime.
    pub fn new(core: &RuntimeCore) -> ShardRouter {
        ShardRouter {
            locales: core.num_locales(),
        }
    }

    /// The locale owning `hash`.
    #[inline]
    pub fn owner(&self, hash: u64) -> LocaleId {
        owner_of(hash, self.locales)
    }

    /// Total locales the router spans (one shard each).
    #[inline]
    pub fn num_locales(&self) -> usize {
        self.locales
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;

    #[test]
    fn owners_stay_in_locale_range_and_cover_it() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let r = ShardRouter::new(&rt);
            assert_eq!(r.num_locales(), 4);
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
}
