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
//! 6. **A handler registers nothing** — remote operations of a
//!    `ShardedHashMap` allocate no registration beyond one per registering
//!    task and one per serving progress thread, and the progress thread's
//!    standing registration holds nothing back: not between handlers, not
//!    after a rider panicked under it, and not from a guard that left its
//!    handler, which keeps its registration to itself.
//! 7. **A panic under the pin unpins** — a `PinGuard` whose critical
//!    section panics leaves its task unpinned (EBR: the epoch advances past
//!    it) and clears the hazard slots it walked with (HP: a scan frees what
//!    they protected before the panic).
//!
//! The suite is written once against the trait and instantiated per
//! backend, so a future backend inherits the contract for free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pgas_atomics::AtomicObject;
use pgas_epoch::{EpochManager, HazardReclaimer, LocalEpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::key_hash64;
use pgas_sim::{alloc_local, alloc_on, ctx, GlobalPtr, Runtime, RuntimeConfig};
use pgas_structures::ShardedHashMap;

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
        let em = R::default();
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
        let em = R::default();
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
        let em = R::default();
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
        let em = R::default();
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
        if R::NEEDS_PROTECT {
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
        let em = R::default();
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

/// `try_reclaim` calls after which a deletion made by an unpinned,
/// unprotected guard is freed: two advances under EBR, one scan under HP.
fn reclaims_to_free<R: Reclaimer>() -> usize {
    if R::NEEDS_PROTECT {
        1
    } else {
        2
    }
}

/// A `Probe` homed on locale 0 (where every backend, `LocalEpochManager`
/// included, may free it) in a cell, and the counter of its drops.
fn probe_cell_on_0(rt: &Runtime) -> (AtomicObject<Probe>, Arc<AtomicU64>) {
    let drops = Arc::new(AtomicU64::new(0));
    let probe = Probe {
        canary: 0xDEAD_BEEF,
        drops: drops.clone(),
    };
    (AtomicObject::new(alloc_on(rt, 0, probe)), drops)
}

/// Take the object out of `cell` and retire it through a fresh guard of
/// the calling task.
fn retire_cell<R: Reclaimer>(em: &R, cell: &AtomicObject<Probe>) {
    let w = em.register();
    w.pin();
    w.defer_delete(cell.exchange(GlobalPtr::null()));
    w.unpin();
}

/// Contract 6, the count: 10⁴ remote map operations, every one run by
/// locale 0's one progress thread for a task on locale 1, leave exactly two
/// registrations (the task's, the thread's standing one); reclaiming after
/// them never finds the idle standing registration in the way; and a
/// remote remove's deletion is freed on the same schedule as a task's.
fn handler_registrations_stay_put<R: Reclaimer>(allocated: fn(&R) -> u64) {
    let rt = zrt(2);
    assert_eq!(rt.config.progress_threads, 1);
    rt.run(|| {
        let m = ShardedHashMap::<u64, u64, R>::with_reclaimer(64);
        let keys: Vec<u64> = (0..)
            .filter(|k| m.router().owner(key_hash64(k)) == 0)
            .take(64)
            .collect();
        rt.coforall_locales(|l| {
            if l != 1 {
                return;
            }
            let em = m.reclaimer();
            let tok = m.register();
            for (i, &k) in keys.iter().cycle().take(10_000).enumerate() {
                match i % 3 {
                    0 => drop(m.insert(&tok, k, i as u64)),
                    1 => drop(m.get(&tok, &k)),
                    _ => drop(m.remove(&tok, &k)),
                }
                if i % 1000 == 999 {
                    assert_eq!(
                        allocated(em),
                        2,
                        "{}: after {} ops",
                        em.backend_name(),
                        i + 1
                    );
                }
            }
            assert_eq!(m.shard_snapshot().local_ops, 0, "every op was remote");

            let unsafe_scans = em.stats().unsafe_scans;
            for _ in 0..3 {
                assert!(
                    em.try_reclaim() || R::NEEDS_PROTECT,
                    "{}",
                    em.backend_name()
                );
            }
            assert_eq!(
                em.stats().unsafe_scans,
                unsafe_scans,
                "{}: the idle standing registration held something back",
                em.backend_name()
            );

            let k = keys[0];
            m.insert(&tok, k, 0);
            let live = rt.live_objects();
            assert!(m.remove(&tok, &k));
            for round in 0..reclaims_to_free::<R>() {
                assert_eq!(
                    rt.live_objects(),
                    live,
                    "{}: freed after {round}",
                    em.backend_name()
                );
                assert!(em.try_reclaim());
            }
            assert_eq!(
                rt.live_objects(),
                live - 1,
                "{}: the handler's deletion was held back",
                em.backend_name()
            );
            assert_eq!(allocated(em), 2);
        });
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 6, unwinding: a rider that panics while pinned and protecting
/// an object leaves its registration neither pinned nor protecting.
fn panicking_rider_leaves_nothing_pinned<R: Reclaimer>() {
    let rt = zrt(2);
    rt.run(|| {
        let em = R::default();
        let (cell, drops) = probe_cell_on_0(&rt);
        rt.coforall_locales(|l| {
            if l != 1 {
                return;
            }
            let rider = catch_unwind(AssertUnwindSafe(|| {
                rt.on_combining(0, || {
                    let g = em.register();
                    g.pin();
                    g.protect_root(0, &cell);
                    panic!("rider boom");
                })
            }));
            assert!(rider.is_err(), "the rider's panic reached its caller");
            retire_cell(&em, &cell);
            for _ in 0..reclaims_to_free::<R>() {
                em.try_reclaim();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                1,
                "{}: the panicked rider's pin or hazard outlived it",
                em.backend_name()
            );
        });
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 6, escape: a guard registered in an `on` body and returned to
/// the caller keeps the registration it got there, so the next handler on
/// that progress thread takes a different one and cannot undo the
/// escaped guard's pin or protection.
fn escaped_handler_guard_keeps_its_registration<R: Reclaimer>()
where
    for<'a> R::Guard<'a>: Send,
{
    let rt = zrt(2);
    rt.run(|| {
        let em = R::default();
        let (cell, drops) = probe_cell_on_0(&rt);
        rt.coforall_locales(|l| {
            if l != 1 {
                return;
            }
            let escaped = rt.on(0, || em.register());
            escaped.pin();
            escaped.protect_root(0, &cell);
            rt.on(0, || {
                let g = em.register();
                g.pin();
                g.unpin();
            });
            retire_cell(&em, &cell);
            for _ in 0..4 {
                em.try_reclaim();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "{}: freed under the escaped guard",
                em.backend_name()
            );
            escaped.release(0);
            escaped.unpin();
            drop(escaped);
            for _ in 0..reclaims_to_free::<R>() {
                em.try_reclaim();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 1, "{}", em.backend_name());
        });
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Contract 7: a walk that panics inside its `PinGuard`, pinned and
/// protecting an object, leaves its still-registered guard neither pinned
/// nor protecting: the object, retired after the panic, is freed on the
/// schedule of an unprotected one.
fn a_panic_under_the_pin_guard_leaves_the_task_unpinned<R: Reclaimer>() {
    let rt = zrt(1);
    rt.run(|| {
        let em = R::default();
        let (cell, drops) = probe_cell_on_0(&rt);
        let g = em.register();
        let walk = catch_unwind(AssertUnwindSafe(|| {
            g.pinned(1, || {
                g.protect_root(0, &cell);
                panic!("walker boom");
            })
        }));
        assert!(walk.is_err(), "the walk panicked");
        assert!(R::NEEDS_PROTECT || !g.is_pinned(), "{}", em.backend_name());
        retire_cell(&em, &cell);
        for round in 0..reclaims_to_free::<R>() {
            assert!(
                em.try_reclaim(),
                "{}: blocked after {round} by the panicked walk",
                em.backend_name()
            );
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "{}: the panicked walk's pin or hazard outlived it",
            em.backend_name()
        );
        drop(g);
    });
    assert_eq!(rt.live_objects(), 0);
}

macro_rules! conformance {
    ($modname:ident, $backend:ty, $allocated:expr) => {
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

            #[test]
            fn handler_registrations_stay_put() {
                super::handler_registrations_stay_put::<$backend>($allocated);
            }

            #[test]
            fn panicking_rider_leaves_nothing_pinned() {
                super::panicking_rider_leaves_nothing_pinned::<$backend>();
            }

            #[test]
            fn a_panic_under_the_pin_guard_leaves_the_task_unpinned() {
                super::a_panic_under_the_pin_guard_leaves_the_task_unpinned::<$backend>();
            }

            #[test]
            fn escaped_handler_guard_keeps_its_registration() {
                super::escaped_handler_guard_keeps_its_registration::<$backend>();
            }
        }
    };
}

conformance!(ebr, EpochManager, EpochManager::tokens_allocated);
conformance!(
    local_ebr,
    LocalEpochManager,
    LocalEpochManager::tokens_allocated
);
conformance!(hp, HazardReclaimer, HazardReclaimer::participants_allocated);
