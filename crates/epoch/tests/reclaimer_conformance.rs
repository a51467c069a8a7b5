//! Conformance suite for the [`Reclaimer`] trait: every backend (the
//! distributed `EpochManager`, the locale-local `LocalEpochManager`, and
//! the distributed `HazardReclaimer`) must satisfy the same contract:
//!
//! 1. **No early free** — an object protected by another guard (pinned
//!    under EBR, hazard-validated under HP) survives reclamation
//!    attempts until the protection ends.
//! 2. **No double free** — repeated `try_reclaim`/`clear` calls after
//!    everything is reclaimed are harmless no-ops.
//! 3. **Deferred drops all run** — every `defer_delete`d object's
//!    destructor runs exactly once by the time `clear` returns.
//! 4. **Stats conservation** — after a quiescent `clear`,
//!    `objects_deferred == objects_reclaimed` and nothing is left live.
//! 5. **Root protection validates** — `protect_root` on a cell another
//!    task keeps swapping returns, every time, a value the cell held.
//!
//! The suite is written once against the trait and instantiated per
//! backend, so a future backend inherits the contract for free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pgas_atomics::AtomicObject;
use pgas_epoch::{EpochManager, HazardReclaimer, LocalEpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::{alloc_local, ctx, Runtime, RuntimeConfig};

fn zrt(n: usize) -> Runtime {
    Runtime::new(RuntimeConfig::zero_latency(n))
}

/// A payload whose destructor counts itself.
struct Probe {
    canary: u64,
    drops: Arc<AtomicU64>,
}

impl Drop for Probe {
    fn drop(&mut self) {
        assert_eq!(self.canary, 0xDEAD_BEEF, "dropped object was corrupted");
        self.drops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Contract 3 + 4: all deferred drops run exactly once; counters conserve.
fn deferred_drops_all_run<R: Reclaimer>() {
    let rt = zrt(2);
    rt.run(|| {
        let em = R::new_in_runtime();
        let drops = Arc::new(AtomicU64::new(0));
        let g = em.register();
        g.pin();
        for _ in 0..100 {
            let p = alloc_local(
                &ctx::current_runtime(),
                Probe {
                    canary: 0xDEAD_BEEF,
                    drops: drops.clone(),
                },
            );
            g.defer_delete(p);
        }
        g.unpin();
        drop(g);
        em.clear();
        assert_eq!(drops.load(Ordering::Relaxed), 100, "every drop ran");
        let s = em.stats();
        assert_eq!(s.objects_deferred, 100);
        assert_eq!(
            s.objects_deferred,
            s.objects_reclaimed,
            "conservation after quiescent clear ({})",
            em.backend_name()
        );
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 1: a protected object is never freed under the reader.
fn no_early_free<R: Reclaimer>() {
    let rt = zrt(1);
    rt.run(|| {
        let em = R::new_in_runtime();
        let cell: AtomicObject<u64> =
            AtomicObject::new(alloc_local(&ctx::current_runtime(), 0x5EED_CAFE_u64));

        // Reader: pins and (under HP) publishes + validates a hazard on
        // the object through the root cell.
        let reader = em.register();
        reader.pin();
        let protected = reader.protect_root(0, &cell);
        assert!(!protected.is_null());

        // Writer: unlinks the object and retires it, then tries hard to
        // reclaim while the reader still holds its protection.
        let writer = em.register();
        writer.pin();
        let victim = cell.read();
        assert!(cell.compare_and_swap(victim, pgas_sim::GlobalPtr::null()));
        writer.defer_delete(victim);
        writer.unpin();
        for _ in 0..8 {
            em.try_reclaim();
        }

        // The reader's view must still be intact.
        // SAFETY: protected by the reader's pin/hazard.
        assert_eq!(unsafe { *protected.deref() }, 0x5EED_CAFE, "no early free");

        // End the protection; now reclamation must eventually succeed.
        reader.release(0);
        reader.unpin();
        drop(reader);
        drop(writer);
        em.clear();
        let s = em.stats();
        assert_eq!(s.objects_reclaimed, 1, "{}", em.backend_name());
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 2: reclaiming an already-empty backend never double-frees.
fn no_double_free<R: Reclaimer>() {
    let rt = zrt(1);
    rt.run(|| {
        let em = R::new_in_runtime();
        let g = em.register();
        g.pin();
        for i in 0..10u64 {
            g.defer_delete(alloc_local(&ctx::current_runtime(), i));
        }
        g.unpin();
        drop(g);
        em.clear();
        // A double free would trip the simulator's allocation tracking;
        // repeated passes must be no-ops.
        em.clear();
        em.try_reclaim();
        em.clear();
        let s = em.stats();
        assert_eq!(s.objects_reclaimed, 10, "{}", em.backend_name());
        assert_eq!(s.objects_deferred, 10);
    });
    assert_eq!(rt.live_objects(), 0);
}

/// The advertised stall-tolerance property: a guard that never unpins
/// (and protects nothing) blocks no reclamation under HP, while EBR
/// backends are allowed to stall (that asymmetry is what A8 measures).
fn stalled_reader_semantics<R: Reclaimer>() {
    let rt = zrt(1);
    rt.run(|| {
        let em = R::new_in_runtime();
        let stalled = em.register();
        stalled.pin(); // never unpinned while we retire below

        let worker = em.register();
        worker.pin();
        for i in 0..50u64 {
            worker.defer_delete(alloc_local(&ctx::current_runtime(), i));
        }
        worker.unpin();
        for _ in 0..8 {
            em.try_reclaim();
        }
        let s = em.stats();
        if em.tolerates_stalled_readers() {
            assert_eq!(
                s.objects_reclaimed,
                50,
                "{}: stalled reader must not block unrelated garbage",
                em.backend_name()
            );
        } else {
            assert!(
                s.objects_reclaimed < 50,
                "{}: EBR-style backends stall behind a pinned reader",
                em.backend_name()
            );
        }
        stalled.unpin();
        drop(stalled);
        drop(worker);
        em.clear();
        assert_eq!(em.stats().objects_reclaimed, 50);
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 5: a root protection raced by swaps of the cell terminates and
/// names one of the objects that rotate through it, readable while held.
fn protect_validates_against_racing_swap<R: Reclaimer>() {
    let rt = zrt(1);
    rt.run(|| {
        let rt_h = ctx::current_runtime();
        let em = R::new_in_runtime();
        let objs: Vec<_> = (0..4).map(|i| alloc_local(&rt_h, i as u64)).collect();
        let cell = AtomicObject::new(objs[0]);
        rt.coforall_tasks(3, |t| {
            let g = em.register();
            if t == 0 {
                // Objects rotate; none is retired here.
                for round in 0..200 {
                    cell.exchange(objs[(round + 1) % 4]);
                }
            } else {
                for _ in 0..300 {
                    g.pin();
                    let p = g.protect_root(0, &cell);
                    // SAFETY: protected by the guard's pin/hazard.
                    let v = unsafe { *p.deref() };
                    assert!(v < 4, "{}", em.backend_name());
                    g.release(0);
                    g.unpin();
                }
            }
        });
        for o in objs {
            // SAFETY: every guard is gone and nothing was retired.
            unsafe { pgas_sim::free(&rt_h, o) };
        }
    });
    assert_eq!(rt.live_objects(), 0);
}

macro_rules! conformance {
    ($modname:ident, $backend:ty) => {
        mod $modname {
            use super::*;

            #[test]
            fn deferred_drops_all_run() {
                super::deferred_drops_all_run::<$backend>();
            }

            #[test]
            fn no_early_free() {
                super::no_early_free::<$backend>();
            }

            #[test]
            fn no_double_free() {
                super::no_double_free::<$backend>();
            }

            #[test]
            fn stalled_reader_semantics() {
                super::stalled_reader_semantics::<$backend>();
            }

            #[test]
            fn protect_validates_against_racing_swap() {
                super::protect_validates_against_racing_swap::<$backend>();
            }
        }
    };
}

conformance!(ebr, EpochManager);
conformance!(local_ebr, LocalEpochManager);
conformance!(hp, HazardReclaimer);
