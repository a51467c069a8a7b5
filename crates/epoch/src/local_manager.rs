//! `LocalEpochManager` — the shared-memory-optimized variant (§II-C).
//!
//! Functionally an `EpochManager` for a single locale, and built as one:
//! it is one of the per-locale instances an [`EpochManager`] privatizes,
//! used on its own. The instance's epoch word is the epoch, its election
//! flag the only flag, and `try_reclaim` runs the instance's scan, advance
//! and drain inline: no global epoch object, no cross-locale fan-out, which
//! removes every communication from the reclamation path. Its token is the
//! manager's [`Token`]. Scatter is off, so a drain frees one object at a
//! time; use it for structures that never leave one locale.
//!
//! [`EpochManager`]: crate::EpochManager

use std::sync::Arc;

use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::{here, RuntimeHandle};

use crate::manager::{Elected, LocaleInstance, Shared, Token};
use crate::math::next_epoch;
use crate::reclaim::Reclaimer;
use crate::stats::{ReclaimSnapshot, Stat};

/// Epoch-based reclamation for a single locale.
pub struct LocalEpochManager {
    shared: Shared,
    inst: LocaleInstance,
}

/// The paper's name for a [`LocalEpochManager`]'s registration handle.
pub type LocalToken<'a> = Token<'a>;

impl LocalEpochManager {
    /// Create a manager homed on the current locale. Epochs start at 1.
    pub fn new() -> LocalEpochManager {
        LocalEpochManager {
            shared: Shared::new(false),
            inst: LocaleInstance::new(here()),
        }
    }

    /// The manager's current epoch (1, 2, or 3).
    pub fn current_epoch(&self) -> u64 {
        self.inst.epoch.read()
    }

    /// Number of token slots ever created.
    pub fn tokens_allocated(&self) -> u64 {
        self.inst.tokens.allocated_count()
    }
}

impl Reclaimer for LocalEpochManager {
    type Guard<'a> = Token<'a>;

    const NEEDS_PROTECT: bool = false;
    const PROTECT_SLOTS: usize = 0;

    /// A handler on a progress thread of the home locale gets the thread's
    /// standing slot.
    fn register(&self) -> LocalToken<'_> {
        self.inst.register(&self.shared, self)
    }

    /// Returns `false` immediately if another task is already reclaiming or
    /// if some token is pinned in an older epoch.
    fn try_reclaim(&self) -> bool {
        let Some(_elected) = Elected::win(&self.inst.is_setting_epoch) else {
            self.shared.stats.bump(Stat::LostLocalElection);
            return false;
        };
        let this_epoch = self.current_epoch();
        if !self.inst.allows_advance(this_epoch) {
            self.shared.stats.bump(Stat::UnsafeScans);
            return false;
        }
        let new_epoch = next_epoch(this_epoch);
        self.shared.advanced(new_epoch);
        let drained = self.inst.advance(&self.shared, new_epoch, here());
        self.shared.free_rest([drained]);
        true
    }

    fn clear(&self) {
        let drained = self.inst.clear(&self.shared, here());
        self.shared.free_rest([drained]);
    }

    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        self.shared.set_observer(obs)
    }

    fn stats(&self) -> ReclaimSnapshot {
        self.shared.stats.snapshot()
    }

    fn runtime(&self) -> RuntimeHandle {
        self.shared.rt.clone()
    }

    fn backend_name(&self) -> &'static str {
        "local-ebr"
    }
}

impl Default for LocalEpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LocalEpochManager {
    fn drop(&mut self) {
        // Outside any task (the manager outlived the `run` block) this
        // re-enters the runtime, so the final reclamation is accounted.
        self.shared.rt.clone().run_here_or_enter(|| self.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::ReclaimGuard;
    use pgas_sim::{alloc_local, Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn zrt() -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(1))
    }

    #[test]
    fn pin_unpin_tracks_epoch() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            let tok = em.register();
            assert!(!tok.is_pinned());
            tok.pin();
            assert!(tok.is_pinned());
            assert_eq!(tok.pinned_epoch(), em.current_epoch());
            tok.unpin();
            assert!(!tok.is_pinned());
        });
    }

    #[test]
    fn reclaim_needs_two_advances() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            let tok = em.register();
            tok.pin();
            tok.defer_delete(alloc_local(&rt, 42u64));
            tok.unpin();
            assert_eq!(rt.live_objects(), 1);
            assert!(em.try_reclaim(), "first advance");
            assert_eq!(rt.live_objects(), 1, "object survives one advance");
            assert!(em.try_reclaim(), "second advance");
            assert_eq!(
                rt.live_objects(),
                0,
                "deferred in epoch e, freed on the advance to e+2"
            );
            assert_eq!(em.stats().objects_reclaimed, 1);
        });
    }

    #[test]
    fn pinned_token_in_old_epoch_blocks_advance() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            let blocker = em.register();
            blocker.pin(); // pinned in epoch 1
            assert!(em.try_reclaim(), "pinned in current epoch is fine");
            assert_eq!(em.current_epoch(), 2);
            // blocker still pinned in epoch 1 → no further advance
            assert!(!em.try_reclaim());
            assert_eq!(em.current_epoch(), 2);
            assert_eq!(em.stats().unsafe_scans, 1);
            blocker.unpin();
            assert!(em.try_reclaim());
            assert_eq!(em.current_epoch(), 3);
        });
    }

    #[test]
    fn clear_reclaims_everything_at_once() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            {
                let tok = em.register();
                tok.pin();
                for i in 0..10 {
                    tok.defer_delete(alloc_local(&rt, i as u64));
                }
                tok.unpin();
            }
            assert_eq!(rt.live_objects(), 10);
            em.clear();
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn drop_clears_pending_objects() {
        let rt = zrt();
        rt.run(|| {
            {
                let em = LocalEpochManager::new();
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, 7u64));
                tok.unpin();
                drop(tok);
            } // em dropped here
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn token_drop_unregisters_and_recycles() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            {
                let tok = em.register();
                tok.pin();
            } // dropped while pinned: must not wedge the manager
            assert!(em.try_reclaim(), "dropped token reads quiescent");
            {
                let _tok2 = em.register();
            }
            assert_eq!(em.tokens_allocated(), 1, "slot recycled");
        });
    }

    #[test]
    fn use_after_free_canary_under_concurrency() {
        // Readers hold pins while traversing a shared cell; a writer
        // replaces and defers the old object. EBR must prevent any reader
        // from observing a freed object.
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            struct Canary {
                value: u64,
                alive: AtomicU64,
            }
            impl Drop for Canary {
                fn drop(&mut self) {
                    self.alive.store(0xDEAD, Ordering::SeqCst);
                }
            }
            let first = alloc_local(
                &rt,
                Canary {
                    value: 0,
                    alive: AtomicU64::new(1),
                },
            );
            let cell = pgas_atomics::AtomicObject::new(first);
            rt.coforall_tasks(4, |t| {
                let tok = em.register();
                if t == 0 {
                    // writer: replace the object 100 times
                    for i in 1..=100u64 {
                        tok.pin();
                        let next = alloc_local(
                            &rt,
                            Canary {
                                value: i,
                                alive: AtomicU64::new(1),
                            },
                        );
                        let old = cell.exchange(next);
                        tok.defer_delete(old);
                        tok.unpin();
                        tok.try_reclaim();
                    }
                } else {
                    // readers
                    for _ in 0..200 {
                        tok.pin();
                        let p = cell.read();
                        let c = unsafe { p.deref() };
                        assert_eq!(
                            c.alive.load(Ordering::SeqCst),
                            1,
                            "reader observed a freed object (value {})",
                            c.value
                        );
                        tok.unpin();
                    }
                }
            });
            // teardown: delete the final object too
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(cell.read());
                tok.unpin();
            }
            em.clear();
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn a_lost_election_leaves_the_winners_flag_set() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            let flag = &em.inst.is_setting_epoch;
            assert!(!flag.test_and_set(), "another candidate wins");
            assert!(!em.try_reclaim());
            assert_eq!(flag.read(), 1, "the loser left the winner's flag set");
            flag.clear();
            assert!(em.try_reclaim());
            assert_eq!(em.stats().lost_local_election, 1);
        });
    }

    #[test]
    fn concurrent_try_reclaim_elects_one_winner() {
        let rt = zrt();
        rt.run(|| {
            let em = LocalEpochManager::new();
            let wins = AtomicUsize::new(0);
            rt.coforall_tasks(8, |_| {
                if em.try_reclaim() {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            let s = em.stats();
            assert_eq!(s.advances as usize, wins.load(Ordering::Relaxed));
            assert!(
                s.advances + s.lost_local_election + s.unsafe_scans == 8,
                "every call either advanced, lost the election, or found \
                 an unsafe scan: {s}"
            );
        });
    }
}
