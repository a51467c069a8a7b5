//! `LocalEpochManager` — the shared-memory-optimized variant (§II-C).
//!
//! Functionally an `EpochManager` for a single locale: it has no global
//! epoch object, performs no cross-locale scans, and does not consider
//! remote objects, which removes every communication from the reclamation
//! path. Use it for structures that never leave one locale.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pgas_sim::engine;
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::{ctx, here, Erased, GlobalPtr, RuntimeHandle};

use crate::limbo::Limbo;
use crate::math::{next_epoch, reclaim_epoch, EPOCHS};
use crate::stats::{ReclaimSnapshot, ReclaimStats, Stat};
use crate::token::{TokenRegistry, TokenSlot, QUIESCENT};

/// Epoch-based reclamation for a single locale.
pub struct LocalEpochManager {
    rt: RuntimeHandle,
    epoch: AtomicU64,
    is_setting_epoch: AtomicU64,
    limbo: Limbo,
    tokens: TokenRegistry,
    stats: ReclaimStats,
    observer: OnceLock<Arc<dyn ReclaimObserver>>,
    home: pgas_sim::LocaleId,
}

/// RAII registration handle; unregisters (and unpins, if needed) on drop.
/// `Send` but not `Sync`: its bag has one writer.
pub struct LocalToken<'a> {
    mgr: &'a LocalEpochManager,
    slot: &'a TokenSlot,
    /// The held flag of a progress thread's standing slot (see
    /// [`crate::token`]).
    standing: Option<&'a AtomicBool>,
    _one_writer: PhantomData<Cell<()>>,
}

impl LocalEpochManager {
    /// Create a manager homed on the current locale. Epochs start at 1.
    pub fn new() -> LocalEpochManager {
        LocalEpochManager {
            rt: ctx::current_runtime(),
            epoch: AtomicU64::new(1),
            is_setting_epoch: AtomicU64::new(0),
            limbo: Limbo::new(),
            tokens: TokenRegistry::new(),
            stats: ReclaimStats::default(),
            observer: OnceLock::new(),
            home: pgas_sim::here(),
        }
    }

    /// Install a [`ReclaimObserver`] that sees every defer, advance, and
    /// reclaim. Used by the chaos harness's `InvariantChecker`.
    ///
    /// # Panics
    /// If an observer is already installed.
    pub fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        if self.observer.set(obs).is_err() {
            panic!("LocalEpochManager observer already installed");
        }
    }

    /// The runtime this manager was created under.
    pub fn runtime(&self) -> RuntimeHandle {
        self.rt.clone()
    }

    /// Register the calling task, returning a token to pin. A handler on a
    /// progress thread of the home locale gets the thread's standing slot.
    pub fn register(&self) -> LocalToken<'_> {
        let (slot, standing) = self.tokens.acquire();
        LocalToken {
            mgr: self,
            slot,
            standing,
            _one_writer: PhantomData,
        }
    }

    /// The manager's current epoch (1, 2, or 3).
    pub fn current_epoch(&self) -> u64 {
        engine::charge_atomic_u64(here());
        self.epoch.load(Ordering::SeqCst)
    }

    /// Attempt to advance the epoch and reclaim the two-advances-old limbo
    /// list. Non-blocking: returns `false` immediately if another task is
    /// already reclaiming or if some token is pinned in an older epoch.
    ///
    /// An advance first publishes the open bag of every token that is not
    /// pinned, so a token's deletions made before it unpinned are freed by
    /// two advances, as in the paper. A token pinned at that moment keeps at
    /// most [`crate::limbo::BAG`] − 1 deletions back, until a later advance
    /// finds it unpinned or its bag fills.
    pub fn try_reclaim(&self) -> bool {
        engine::charge_atomic_u64(here());
        if self.is_setting_epoch.swap(1, Ordering::SeqCst) != 0 {
            self.stats.bump(Stat::LostLocalElection);
            return false;
        }
        let this_epoch = self.current_epoch();
        let safe = self.tokens.iter().all(|t| {
            let e = t.epoch();
            e == QUIESCENT || e == this_epoch
        });
        let advanced = if safe {
            let new_epoch = next_epoch(this_epoch);
            engine::charge_atomic_u64(here());
            self.epoch.store(new_epoch, Ordering::SeqCst);
            self.stats.bump(Stat::Advances);
            self.stats
                .published(self.limbo.publish_idle_bags(&self.tokens));
            if let Some(obs) = self.observer.get() {
                obs.on_advance(new_epoch);
            }
            let freed = self.drain_list(reclaim_epoch(new_epoch), new_epoch, false);
            self.stats.add(Stat::ObjectsReclaimed, freed);
            true
        } else {
            self.stats.bump(Stat::UnsafeScans);
            false
        };
        engine::charge_atomic_u64(here());
        self.is_setting_epoch.store(0, Ordering::SeqCst);
        advanced
    }

    /// Reclaim *everything* across all epochs, unconditionally, including
    /// what live unpinned tokens hold in their bags. Only call when no other
    /// task is using the manager.
    pub fn clear(&self) {
        self.stats
            .published(self.limbo.publish_idle_bags(&self.tokens));
        let current = self.epoch.load(Ordering::SeqCst);
        for e in 1..=EPOCHS {
            let freed = self.drain_list(e, current, true);
            self.stats.add(Stat::ObjectsReclaimed, freed);
        }
    }

    fn drain_list(&self, epoch: u64, current_epoch: u64, during_clear: bool) -> u64 {
        let observer = self.observer.get();
        ctx::with_core(|core, _| {
            let (n, _) = self.limbo.drain(epoch, |e| {
                debug_assert_eq!(
                    e.owner(),
                    self.home,
                    "LocalEpochManager does not handle remote objects"
                );
                if let Some(obs) = observer {
                    obs.on_reclaim(e.addr(), epoch, current_epoch, during_clear);
                }
                // SAFETY: EBR guarantees no task still holds a reference
                // (two epoch advances since logical removal, or the caller
                // guaranteed quiescence for clear()).
                unsafe { e.run_drop(core) };
            });
            n
        })
    }

    /// Reclamation counters.
    pub fn stats(&self) -> ReclaimSnapshot {
        self.stats.snapshot()
    }

    /// Number of token slots ever created.
    pub fn tokens_allocated(&self) -> u64 {
        self.tokens.allocated_count()
    }
}

impl Default for LocalEpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LocalEpochManager {
    fn drop(&mut self) {
        if pgas_sim::try_here().is_some() {
            self.clear();
        }
        // Outside a runtime context the limbo lists debug-assert emptiness
        // themselves.
    }
}

impl<'a> LocalToken<'a> {
    /// Enter the current epoch. Idempotent re-pinning updates to the
    /// manager's current epoch.
    pub fn pin(&self) {
        let e = self.mgr.current_epoch();
        self.slot.set_epoch(e);
    }

    /// Leave the epoch (become quiescent).
    pub fn unpin(&self) {
        self.slot.set_epoch(QUIESCENT);
    }

    /// True while pinned.
    pub fn is_pinned(&self) -> bool {
        self.slot.epoch_relaxed() != QUIESCENT
    }

    /// The epoch this token is pinned in (0 when unpinned).
    pub fn pinned_epoch(&self) -> u64 {
        self.slot.epoch_relaxed()
    }

    /// Defer deletion of a (logically removed) local object until no task
    /// can still hold a reference. Wait-free: a few stores into the token's
    /// bag, published by the next advance that finds the token unpinned
    /// (see [`crate::limbo`]).
    ///
    /// # Panics
    /// In debug builds, if the token is not pinned or the object is remote.
    pub fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>) {
        let e = self.slot.epoch_relaxed();
        debug_assert_ne!(e, QUIESCENT, "defer_delete requires a pinned token");
        if let Some(obs) = self.mgr.observer.get() {
            obs.on_defer(ptr.addr(), e);
        }
        // SAFETY: this token holds the slot and is pinned in `e`.
        let published = unsafe { self.mgr.limbo.defer(&self.slot.bag, Erased::new(ptr), e) };
        self.mgr.stats.published(published);
    }

    /// Forward to [`LocalEpochManager::try_reclaim`] (the paper lets either
    /// the token or the manager drive reclamation).
    pub fn try_reclaim(&self) -> bool {
        self.mgr.try_reclaim()
    }
}

impl Drop for LocalToken<'_> {
    fn drop(&mut self) {
        // Mirrors the managed-class wrapper in the paper: going out of
        // scope unpins and unregisters automatically. Its bag is published
        // then (as in `Token`'s drop), unless the slot is a standing one.
        if self.mgr.tokens.release(self.slot, self.standing) {
            self.mgr
                .stats
                .published(self.mgr.limbo.publish_idle(self.slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, Runtime, RuntimeConfig};
    use std::sync::atomic::AtomicUsize;

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
