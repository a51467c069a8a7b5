//! Privatization: one instance per locale, zero-communication lookup.
//!
//! Chapel's privatization machinery (used by arrays, domains, and the
//! paper's `EpochManager`) replicates an object across locales and rewrites
//! every access to go to the replica that is local to the accessing task.
//! Combined with record-wrapping / remote-value forwarding, obtaining the
//! local replica requires *no* communication — which is what lets the
//! `EpochManager` scale in distributed `forall` loops (Fig. 7 is flat
//! because of this module).
//!
//! [`Privatized<T>`] owns one `T` per locale, each constructed *on* its
//! locale so that locale-local allocations (limbo lists, token pools) have
//! the right affinity. [`Privatized::get`] indexes by the ambient locale id
//! — a pure array read, zero communication, just like the real thing.

use crossbeam_utils::CachePadded;

use crate::ctx;
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;

/// A per-locale replicated instance table.
pub struct Privatized<T> {
    instances: Box<[CachePadded<T>]>,
}

impl<T: Send + Sync> Privatized<T> {
    /// Construct one instance per locale. `init` runs *on each locale* (so
    /// allocations it performs have that locale's affinity), sequentially
    /// in locale order.
    pub fn new(core: &RuntimeCore, init: impl Fn(LocaleId) -> T + Send + Sync) -> Privatized<T> {
        let instances = (0..core.num_locales() as LocaleId)
            .map(|l| CachePadded::new(core.on(l, || init(l))))
            .collect();
        Privatized { instances }
    }

    /// The instance for the *current* locale. Zero communication: this is
    /// the privatized-access fast path.
    #[inline]
    pub fn get(&self) -> &T {
        &self.instances[ctx::here() as usize]
    }

    /// Number of replicas (== number of locales at construction).
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Always false: a runtime has at least one locale.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Iterate over `(locale, instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LocaleId, &T)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, t)| (i as LocaleId, &**t))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Privatized<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.instances.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn one_instance_per_locale_built_on_locale() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let p = Privatized::new(&rt, |l| {
                // init runs on locale l itself
                assert_eq!(ctx::here(), l);
                l as u64 * 10
            });
            assert_eq!(p.len(), 4);
            for (l, v) in p.iter() {
                assert_eq!(*v, l as u64 * 10);
            }
        });
    }

    #[test]
    fn get_returns_local_replica_with_zero_comm() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let p = Privatized::new(&rt, |l| AtomicU64::new(l as u64));
            rt.reset_metrics();
            rt.coforall_locales(|l| {
                // Each locale reads its own replica...
                assert_eq!(p.get().load(Ordering::Relaxed), l as u64);
                p.get().fetch_add(100, Ordering::Relaxed);
            });
            let s = rt.total_comm();
            // ...and the only traffic is the coforall fan-out itself.
            assert_eq!(s.puts + s.gets + s.rdma_atomics, 0);
            for (l, v) in p.iter() {
                assert_eq!(v.load(Ordering::Relaxed), l as u64 + 100);
            }
        });
    }
}
