//! The baseline: Chapel's `atomic int`, routed through the simulated
//! network exactly like every other atomic.
//!
//! Fig. 3 of the paper compares `AtomicObject` against `atomic int` — the
//! only natively-atomic type family in Chapel — so the reproduction needs
//! an `atomic int` whose operations take the same NIC/CPU/AM paths. This
//! is that type: a 64-bit atomic whose operations are priced by
//! [`pgas_sim::engine`], with remote operations executing either as RDMA
//! atomics (network atomics on) or active messages (off).

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_sim::engine;
use pgas_sim::{ctx, LocaleId};

/// A 64-bit integer with Chapel-`atomic`-like semantics in the simulated
/// PGAS world. The value itself lives wherever the containing object
/// lives; `owner` records that affinity for routing.
#[derive(Debug)]
pub struct AtomicInt {
    cell: AtomicU64,
    owner: LocaleId,
}

impl AtomicInt {
    /// Create with affinity to the current locale.
    pub fn new(v: u64) -> AtomicInt {
        AtomicInt {
            cell: AtomicU64::new(v),
            owner: pgas_sim::here(),
        }
    }

    /// Create with explicit affinity (for objects embedded in structures
    /// allocated on another locale).
    pub fn new_on(owner: LocaleId, v: u64) -> AtomicInt {
        AtomicInt {
            cell: AtomicU64::new(v),
            owner,
        }
    }

    /// The locale this atomic's storage belongs to.
    pub fn owner(&self) -> LocaleId {
        self.owner
    }

    fn route<R: Send>(&self, op: impl FnOnce(&AtomicU64) -> R + Send) -> R {
        ctx::with_core(|core, here| engine::atomic_u64(core, here, self.owner, || op(&self.cell)))
    }

    /// Atomic load (SeqCst, like Chapel's default). A pure read, so under
    /// fault injection it is tagged idempotent: a lost read request can be
    /// retried safely (see [`pgas_sim::faults`]).
    pub fn read(&self) -> u64 {
        pgas_sim::faults::with_class(pgas_sim::faults::RetryClass::Idempotent, || {
            self.route(|c| c.load(Ordering::SeqCst))
        })
    }

    /// Atomic store.
    pub fn write(&self, v: u64) {
        self.route(|c| c.store(v, Ordering::SeqCst))
    }

    /// Atomic swap, returning the previous value.
    pub fn exchange(&self, v: u64) -> u64 {
        self.route(|c| c.swap(v, Ordering::SeqCst))
    }

    /// Compare-and-swap; returns `true` on success.
    pub fn compare_and_swap(&self, expected: u64, new: u64) -> bool {
        self.route(|c| {
            c.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        })
    }

    /// Atomic fetch-add, returning the previous value.
    pub fn fetch_add(&self, v: u64) -> u64 {
        self.route(|c| c.fetch_add(v, Ordering::SeqCst))
    }

    /// Atomic fetch-sub, returning the previous value.
    pub fn fetch_sub(&self, v: u64) -> u64 {
        self.route(|c| c.fetch_sub(v, Ordering::SeqCst))
    }

    /// Chapel's `testAndSet` on `atomic bool` (used for election flags):
    /// returns the *previous* value, so `false` means "we won".
    pub fn test_and_set(&self) -> bool {
        self.route(|c| c.swap(1, Ordering::SeqCst) != 0)
    }

    /// Clear a flag previously taken with [`Self::test_and_set`].
    pub fn clear(&self) {
        self.route(|c| c.store(0, Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};

    #[test]
    fn local_ops_behave_like_an_atomic() {
        let rt = Runtime::cluster(1);
        rt.run(|| {
            let a = AtomicInt::new(5);
            assert_eq!(a.read(), 5);
            a.write(9);
            assert_eq!(a.exchange(11), 9);
            assert!(a.compare_and_swap(11, 12));
            assert!(!a.compare_and_swap(11, 13));
            assert_eq!(a.read(), 12);
            assert_eq!(a.fetch_add(8), 12);
            assert_eq!(a.fetch_sub(10), 20);
            assert_eq!(a.read(), 10);
        });
    }

    #[test]
    fn with_network_atomics_every_op_is_rdma() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let a = AtomicInt::new_on(1, 0);
            rt.reset_metrics();
            a.write(3);
            let _ = a.read();
            assert!(a.compare_and_swap(3, 4));
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 3);
            assert_eq!(s.am_sent, 0, "RDMA atomics bypass the progress thread");
        });
    }

    #[test]
    fn without_network_atomics_remote_ops_use_am() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            let a = AtomicInt::new_on(1, 0);
            rt.reset_metrics();
            a.write(3);
            assert_eq!(a.read(), 3);
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 0);
            assert_eq!(s.am_sent, 2);
            assert_eq!(s.cpu_atomics, 2, "the op executes as a CPU atomic remotely");
        });
    }

    #[test]
    fn without_network_atomics_local_ops_are_cpu() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            let a = AtomicInt::new(0);
            rt.reset_metrics();
            a.fetch_add(1);
            let s = rt.total_comm();
            assert_eq!(s.cpu_atomics, 1);
            assert_eq!(s.network_events(), 0);
        });
    }

    #[test]
    fn test_and_set_elects_exactly_one() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let flag = AtomicInt::new(0);
            let winners = std::sync::atomic::AtomicUsize::new(0);
            rt.coforall_tasks(8, |_| {
                if !flag.test_and_set() {
                    winners.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1);
            flag.clear();
            assert!(!flag.test_and_set(), "clear re-arms the flag");
        });
    }

    #[test]
    fn concurrent_fetch_add_conserves_count() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let a = AtomicInt::new(0);
            rt.forall_dist_tasks(
                1000,
                2,
                |_, _| (),
                |_, _| {
                    a.fetch_add(1);
                },
            );
            assert_eq!(a.read(), 1000);
        });
    }
}
