//! Property-based and protocol-level tests for the epoch managers.

use pgas_epoch::{
    next_epoch, reclaim_epoch, EpochManager, LocalEpochManager, ReclaimGuard, Reclaimer, EPOCHS,
};
use pgas_sim::{alloc_local, alloc_on, LocaleId, Runtime, RuntimeConfig};
use proptest::prelude::*;

fn zrt(n: usize) -> Runtime {
    Runtime::new(RuntimeConfig::zero_latency(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any interleaving of defers and reclaim attempts by a single
    /// task, (a) nothing leaks after clear, and (b) no object is freed
    /// before two advances after its defer epoch.
    #[test]
    fn defer_reclaim_interleavings_are_leak_free(
        ops in proptest::collection::vec(0u8..3, 1..120)
    ) {
        let rt = zrt(1);
        rt.run(|| {
            let em = LocalEpochManager::new();
            let tok = em.register();
            let mut deferred = 0u64;
            for op in &ops {
                match op {
                    0 => {
                        tok.pin();
                        tok.defer_delete(alloc_local(
                            &pgas_sim::current_runtime(),
                            deferred,
                        ));
                        tok.unpin();
                        deferred += 1;
                    }
                    1 => {
                        em.try_reclaim();
                    }
                    _ => {
                        tok.pin();
                        tok.unpin();
                    }
                }
            }
            drop(tok);
            em.clear();
            prop_assert_eq!(em.stats().objects_deferred, deferred);
            prop_assert_eq!(em.stats().objects_reclaimed, deferred);
            Ok(())
        })?;
        prop_assert_eq!(rt.live_objects(), 0);
    }

    /// A token pinned at epoch E prevents any object deferred at E from
    /// being reclaimed, for any number of reclaim attempts.
    #[test]
    fn pinned_epoch_is_a_hard_fence(attempts in 1usize..12) {
        let rt = zrt(1);
        rt.run(|| {
            let em = LocalEpochManager::new();
            let holder = em.register();
            holder.pin();
            let obj = alloc_local(&pgas_sim::current_runtime(), 1u64);
            holder.defer_delete(obj);
            // holder stays pinned; at most ONE advance can happen (the
            // one matching its pin epoch), never enough to reclaim.
            for _ in 0..attempts {
                em.try_reclaim();
            }
            prop_assert_eq!(rt.live_objects(), 1, "object still protected");
            holder.unpin();
            for _ in 0..3 {
                em.try_reclaim();
            }
            prop_assert_eq!(rt.live_objects(), 0);
            Ok(())
        })?;
    }

    /// Distributed variant: after any sequence of advances the global and
    /// every locale-cached epoch agree.
    #[test]
    fn caches_track_global_epoch(advances in 1usize..10, locales in 1usize..5) {
        let rt = zrt(locales);
        rt.run(|| {
            let em = EpochManager::new();
            for _ in 0..advances {
                prop_assert!(em.try_reclaim());
                let g = em.global_epoch();
                rt.coforall_locales(|_| {
                    assert_eq!(em.local_epoch(), g);
                });
            }
            Ok(())
        })?;
    }

    /// Objects deferred in distinct epochs land in distinct limbo lists
    /// and are reclaimed in epoch order (older first).
    #[test]
    fn reclamation_respects_epoch_order(first_batch in 1usize..10, second_batch in 1usize..10) {
        let rt = zrt(1);
        rt.run(|| {
            let em = LocalEpochManager::new();
            let tok = em.register();
            let rt_h = pgas_sim::current_runtime();
            tok.pin();
            for i in 0..first_batch {
                tok.defer_delete(alloc_local(&rt_h, i as u64));
            }
            tok.unpin();
            em.try_reclaim(); // epoch 1 → 2
            tok.pin();
            for i in 0..second_batch {
                tok.defer_delete(alloc_local(&rt_h, i as u64));
            }
            tok.unpin();
            // Advance to 3: reclaims epoch-1 batch only.
            em.try_reclaim();
            prop_assert_eq!(rt.live_objects() as usize, second_batch);
            // Advance to 1: reclaims epoch-2 batch.
            em.try_reclaim();
            prop_assert_eq!(rt.live_objects(), 0);
            Ok(())
        })?;
    }
}

#[test]
fn epoch_arithmetic_is_a_3_cycle() {
    let mut e = 1;
    let mut seen = Vec::new();
    for _ in 0..6 {
        seen.push(e);
        e = next_epoch(e);
    }
    assert_eq!(seen, vec![1, 2, 3, 1, 2, 3]);
    for e in 1..=EPOCHS {
        assert_ne!(
            reclaim_epoch(next_epoch(e)),
            e,
            "never reclaim the old current"
        );
        assert_ne!(
            reclaim_epoch(next_epoch(e)),
            next_epoch(e),
            "never reclaim the new current"
        );
    }
}

#[test]
fn distributed_managers_scatter_exactly_once_per_owner() {
    // With objects on every locale deferred from every locale, clear()
    // must free each object exactly once (heap accounting proves it).
    let rt = zrt(4);
    rt.run(|| {
        let em = EpochManager::new();
        rt.coforall_locales(|l| {
            let tok = em.register();
            tok.pin();
            for i in 0..25u64 {
                let owner = ((l as u64 + i) % 4) as LocaleId;
                tok.defer_delete(alloc_on(&pgas_sim::current_runtime(), owner, i));
            }
            tok.unpin();
        });
        assert_eq!(rt.live_objects(), 100);
        em.clear();
        assert_eq!(rt.live_objects(), 0);
        assert_eq!(em.stats().objects_reclaimed, 100);
        for l in 0..4 {
            let heap = &rt.locale(l).heap;
            assert_eq!(
                heap.allocations(),
                heap.frees(),
                "locale {l}: every alloc freed exactly once"
            );
        }
    });
}

#[test]
fn interleaved_managers_do_not_cross_reclaim() {
    // Two managers, objects deferred to each; clearing one must not touch
    // the other's objects.
    let rt = zrt(2);
    rt.run(|| {
        let em_a = EpochManager::new();
        let em_b = EpochManager::new();
        let rt_h = pgas_sim::current_runtime();
        {
            let ta = em_a.register();
            let tb = em_b.register();
            ta.pin();
            tb.pin();
            for i in 0..10 {
                ta.defer_delete(alloc_local(&rt_h, i as u64));
                tb.defer_delete(alloc_local(&rt_h, i as u64));
            }
            ta.unpin();
            tb.unpin();
        }
        assert_eq!(rt.live_objects(), 20);
        em_a.clear();
        assert_eq!(rt.live_objects(), 10, "only A's objects reclaimed");
        em_b.clear();
        assert_eq!(rt.live_objects(), 0);
    });
}
