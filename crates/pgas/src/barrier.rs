//! A distributed sense-reversing barrier.
//!
//! Used by multi-phase workloads (e.g. the benchmark harness's
//! produce-then-consume phases) to synchronize tasks spread across
//! locales. The counter and generation live on a designated locale; each
//! `wait` is one remote atomic (RDMA or AM, per the usual routing) plus
//! polling on the generation word, so its cost model is faithful to a
//! flat PGAS barrier. (Chapel's own barriers are tree-based; a flat
//! barrier is enough for the scale the simulator runs at, and its
//! communication is easier to assert on in tests.)

use crate::globalptr::LocaleId;

use pgas_atomics_shim::AtomicInt;

/// Internal shim so `pgas-sim` does not depend on `pgas-atomics` (which
/// depends back on us): a minimal charged atomic, routed like
/// `pgas_atomics::AtomicInt`.
mod pgas_atomics_shim {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::ctx;
    use crate::engine;
    use crate::globalptr::LocaleId;

    pub struct AtomicInt {
        cell: AtomicU64,
        owner: LocaleId,
    }

    impl AtomicInt {
        pub fn new_on(owner: LocaleId, v: u64) -> AtomicInt {
            AtomicInt {
                cell: AtomicU64::new(v),
                owner,
            }
        }

        fn route<R: Send>(&self, op: impl FnOnce(&AtomicU64) -> R + Send) -> R {
            ctx::with_core(|core, here| {
                engine::atomic_u64(core, here, self.owner, || op(&self.cell))
            })
        }

        pub fn read(&self) -> u64 {
            self.route(|c| c.load(Ordering::SeqCst))
        }

        pub fn fetch_add(&self, v: u64) -> u64 {
            self.route(|c| c.fetch_add(v, Ordering::SeqCst))
        }

        pub fn write(&self, v: u64) {
            self.route(|c| c.store(v, Ordering::SeqCst))
        }
    }
}

/// A reusable barrier for a fixed number of participants.
pub struct DistBarrier {
    count: AtomicInt,
    generation: AtomicInt,
    participants: u64,
}

impl DistBarrier {
    /// A barrier for `participants` tasks, with its state homed on
    /// `owner`.
    pub fn new_on(owner: LocaleId, participants: usize) -> DistBarrier {
        assert!(
            participants >= 1,
            "a barrier needs at least one participant"
        );
        DistBarrier {
            count: AtomicInt::new_on(owner, 0),
            generation: AtomicInt::new_on(owner, 0),
            participants: participants as u64,
        }
    }

    /// A barrier homed on the current locale.
    pub fn new(participants: usize) -> DistBarrier {
        DistBarrier::new_on(crate::ctx::here(), participants)
    }

    /// Number of participating tasks.
    pub fn participants(&self) -> usize {
        self.participants as usize
    }

    /// Block until all participants of the current generation arrive.
    /// Reusable across generations.
    pub fn wait(&self) {
        let gen = self.generation.read();
        let arrived = self.count.fetch_add(1) + 1;
        if arrived == self.participants {
            // Last arrival: reset and release everyone.
            self.count.write(0);
            self.generation.write(gen + 1);
        } else {
            // Poll the generation. Each poll is a (charged) atomic read,
            // which is exactly what a flat PGAS barrier costs.
            while self.generation.read() == gen {
                std::thread::yield_now();
            }
        }
    }
}

impl std::fmt::Debug for DistBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistBarrier")
            .field("participants", &self.participants)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_participant_never_blocks() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let b = DistBarrier::new(1);
            b.wait();
            b.wait();
        });
    }

    #[test]
    fn no_task_passes_before_all_arrive() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let b = DistBarrier::new(4);
            let before = AtomicUsize::new(0);
            let after_min = AtomicUsize::new(usize::MAX);
            rt.coforall_tasks(4, |_| {
                before.fetch_add(1, Ordering::SeqCst);
                b.wait();
                // By the time anyone passes, all 4 must have arrived.
                after_min.fetch_min(before.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            assert_eq!(after_min.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let b = DistBarrier::new(3);
            let phase = AtomicUsize::new(0);
            rt.coforall_tasks(3, |_| {
                for p in 0..5 {
                    b.wait();
                    // Everyone observes the same phase between barriers.
                    assert_eq!(phase.load(Ordering::SeqCst), p);
                    b.wait();
                    if p < 4 {
                        let _ =
                            phase.compare_exchange(p, p + 1, Ordering::SeqCst, Ordering::SeqCst);
                    }
                }
            });
        });
    }

    #[test]
    fn works_across_locales() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let b = DistBarrier::new_on(0, 4);
            let arrivals = AtomicUsize::new(0);
            rt.coforall_locales(|_| {
                arrivals.fetch_add(1, Ordering::SeqCst);
                b.wait();
                assert_eq!(arrivals.load(Ordering::SeqCst), 4);
            });
        });
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let _ = DistBarrier::new(0);
        });
    }
}
