//! Integration tests for the PGAS substrate features the listings depend
//! on: distributed arrays (Listing 5's `dmapped Cyclic` domain) and
//! barriers.
//! Listing 4's `&& reduce` is `EpochManager`'s own scan, pinned by
//! `remote_pinned_token_blocks_global_advance`.

use pgas_nonblocking::prelude::*;
use pgas_nonblocking::sim::array::{Dist, DistArray};
use pgas_nonblocking::sim::barrier::DistBarrier;
use std::sync::atomic::{AtomicU64, Ordering};

/// Listing 5 rebuilt on the actual distributed-array substrate: the
/// objects live in a `dmapped Cyclic`-style array and the forall walks it
/// with affinity.
#[test]
fn listing5_on_dist_array() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let n = 256;
        let em = EpochManager::new();
        // var objs : [objsDom] unmanaged C(), objsDom dmapped Cyclic
        let objs: DistArray<GlobalPtr<u64>> = DistArray::new(&rt, n, Dist::Cyclic, |i| {
            // init runs on the owning locale, so alloc_local gives each
            // element affinity to its array position.
            alloc_local(&current_runtime(), i as u64)
        });
        assert_eq!(rt.live_objects(), n as i64);

        let deferred = AtomicU64::new(0);
        objs.forall(&rt, 2, |_, &obj| {
            let tok = em.register();
            tok.pin();
            tok.defer_delete(obj);
            tok.unpin();
            deferred.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(deferred.load(Ordering::Relaxed), n as u64);
        em.clear();
        assert_eq!(rt.live_objects(), 0);
    });
}

#[test]
fn dist_array_cyclic_elements_have_matching_affinity() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(3));
    rt.run(|| {
        let objs: DistArray<GlobalPtr<u64>> = DistArray::new(&rt, 30, Dist::Cyclic, |i| {
            alloc_local(&current_runtime(), i as u64)
        });
        for i in 0..30 {
            let p = objs.get(i);
            assert_eq!(
                p.locale(),
                objs.affinity(i),
                "object {i} allocated on its array slot's locale"
            );
            unsafe { free(&current_runtime(), p) };
        }
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn barrier_phases_a_distributed_pipeline() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let barrier = DistBarrier::new_on(0, 4);
        let produced: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let sum = AtomicU64::new(0);
        rt.coforall_locales(|l| {
            // Phase 1: every locale produces.
            produced[l as usize].store((l as u64 + 1) * 10, Ordering::SeqCst);
            barrier.wait();
            // Phase 2: every locale sees everyone's production.
            let total: u64 = produced.iter().map(|p| p.load(Ordering::SeqCst)).sum();
            assert_eq!(total, 10 + 20 + 30 + 40);
            sum.fetch_add(total, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 4 * 100);
    });
}
