//! Heavier concurrency stress tests: use-after-free canaries, cross-
//! structure interaction, and sustained churn with continuous
//! reclamation. These are the tests that would catch an EBR protocol
//! bug (premature reclamation) or a lost-update bug in the atomics.

use pgas_nonblocking::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// A value whose destructor poisons it, so any post-free read is caught.
struct Canary {
    magic: AtomicU64,
}

const ALIVE: u64 = 0xA11CE;

impl Canary {
    fn new() -> Canary {
        Canary {
            magic: AtomicU64::new(ALIVE),
        }
    }
    fn check(&self) {
        assert_eq!(
            self.magic.load(Ordering::SeqCst),
            ALIVE,
            "use-after-free detected"
        );
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.magic.store(0xDEAD, Ordering::SeqCst);
    }
}

#[test]
fn epoch_protects_readers_across_locales() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let em = EpochManager::new();
        let cell = AtomicObject::new(alloc_local(&current_runtime(), Canary::new()));
        rt.coforall_locales(|l| {
            let tok = em.register();
            if l == 0 {
                // the writer: replace + defer, reclaiming as it goes
                for _ in 0..150 {
                    tok.pin();
                    let fresh = alloc_local(&current_runtime(), Canary::new());
                    let old = cell.exchange(fresh);
                    tok.defer_delete(old);
                    tok.unpin();
                    tok.try_reclaim();
                }
            } else {
                for _ in 0..400 {
                    tok.pin();
                    let p = cell.read();
                    unsafe { p.deref() }.check();
                    tok.unpin();
                }
            }
        });
        // teardown
        {
            let tok = em.register();
            tok.pin();
            tok.defer_delete(cell.read());
            tok.unpin();
        }
        em.clear();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn stack_churn_with_continuous_reclaim() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let s: LockFreeStack<u64> = LockFreeStack::new();
        let net_pushed = AtomicU64::new(0);
        let net_popped = AtomicU64::new(0);
        rt.coforall_tasks(6, |t| {
            let tok = s.register();
            for i in 0..300u64 {
                s.push(&tok, t as u64 * 1000 + i);
                net_pushed.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 1 && s.pop(&tok).is_some() {
                    net_popped.fetch_add(1, Ordering::Relaxed);
                }
                if i % 50 == 0 {
                    s.try_reclaim();
                }
            }
        });
        let tok = s.register();
        while s.pop(&tok).is_some() {
            net_popped.fetch_add(1, Ordering::Relaxed);
        }
        drop(tok);
        assert_eq!(
            net_pushed.load(Ordering::Relaxed),
            net_popped.load(Ordering::Relaxed)
        );
        s.clear_reclaim();
        let stats = s.epoch_manager().stats();
        assert_eq!(stats.objects_deferred, stats.objects_reclaimed);
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn queue_and_stack_share_a_runtime_without_interference() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let q: MsQueue<u64> = MsQueue::new();
        let s: LockFreeStack<u64> = LockFreeStack::new();
        rt.coforall_tasks(4, |t| {
            let qt = q.register();
            let st = s.register();
            for i in 0..200u64 {
                if t % 2 == 0 {
                    q.enqueue(&qt, i);
                    s.push(&st, i);
                } else {
                    let _ = q.dequeue(&qt);
                    let _ = s.pop(&st);
                }
                if i % 64 == 0 {
                    q.try_reclaim();
                    s.try_reclaim();
                }
            }
        });
        // Drain both.
        let qt = q.register();
        while q.dequeue(&qt).is_some() {}
        drop(qt);
        let st = s.register();
        while s.pop(&st).is_some() {}
        drop(st);
        q.clear_reclaim();
        s.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn map_heavy_churn_against_model_per_key_ownership() {
    // Each task owns a disjoint key range; per-range sequential semantics
    // must hold even under global concurrency.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let m: DistHashMap<u64, u64> = DistHashMap::new(16);
        rt.coforall_tasks(4, |t| {
            let tok = m.register();
            let base = t as u64 * 10_000;
            let mut present = std::collections::HashSet::new();
            for round in 0..400u64 {
                let k = base + round % 37;
                if present.contains(&k) {
                    assert_eq!(m.get(&tok, &k), Some(k));
                    assert!(m.remove(&tok, &k));
                    present.remove(&k);
                } else {
                    assert!(m.insert(&tok, k, k));
                    present.insert(k);
                    assert_eq!(m.get(&tok, &k), Some(k));
                }
                if round % 100 == 0 {
                    m.try_reclaim();
                }
            }
            for k in present {
                assert!(m.remove(&tok, &k));
            }
        });
        assert!(m.is_empty());
        m.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn list_churn_with_canary_values() {
    // Nodes hold canaries; traversals must never touch a reclaimed node.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let l: LockFreeList<u16> = LockFreeList::new();
        rt.coforall_tasks(5, |t| {
            let tok = l.register();
            for i in 0..300u32 {
                let k = ((t as u32 * 7 + i) % 64) as u16;
                match i % 3 {
                    0 => {
                        l.insert(&tok, k);
                    }
                    1 => {
                        l.remove(&tok, k);
                    }
                    _ => {
                        l.contains(&tok, k);
                    }
                }
                if i % 100 == 0 {
                    l.try_reclaim();
                }
            }
        });
        l.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn rcu_array_grow_read_write_storm() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let a = pgas_nonblocking::structures::RcuArray::new(16, 64);
        rt.coforall_tasks(5, |t| {
            let tok = a.register();
            match t {
                0 => {
                    for g in 1..=8 {
                        a.grow(&tok, 64 + g * 64);
                        a.try_reclaim();
                    }
                }
                1 | 2 => {
                    for i in 0..500 {
                        let idx = (t * 31 + i) % 64;
                        a.write(&tok, idx, (idx * 2) as u64);
                    }
                }
                _ => {
                    for i in 0..500 {
                        let idx = (t * 17 + i) % 64;
                        let v = a.read(&tok, idx);
                        assert!(v == 0 || v == (idx * 2) as u64);
                    }
                }
            }
        });
        assert_eq!(a.len(), 64 + 8 * 64);
        a.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn many_managers_coexist() {
    // Several independent EpochManagers on one runtime must not interfere
    // (each is its own privatized universe).
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let managers: Vec<EpochManager> = (0..4).map(|_| EpochManager::new()).collect();
        rt.coforall_tasks(4, |t| {
            let em = &managers[t];
            let tok = em.register();
            for i in 0..100u64 {
                tok.pin();
                tok.defer_delete(alloc_local(&current_runtime(), i));
                tok.unpin();
                if i % 10 == 0 {
                    tok.try_reclaim();
                }
            }
        });
        for em in &managers {
            em.clear();
            assert_eq!(em.stats().objects_deferred, 100);
            assert_eq!(em.stats().objects_reclaimed, 100);
        }
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn unelected_reclaim_is_safe_under_contention() {
    // The ablation path must remain memory-safe even when every task
    // hammers it.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let em = EpochManager::new();
        rt.forall_dist(
            200,
            |_, _| em.register(),
            |tok, i| {
                tok.pin();
                tok.defer_delete(alloc_local(&current_runtime(), i as u64));
                tok.unpin();
                em.try_reclaim_unelected();
            },
        );
        em.clear();
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Each churning task's operation count in
/// `read_only_accessors_survive_concurrent_reclamation`.
const CHURN_OPS: u64 = 512;

/// Two tasks per locale: task 0 loops `read` until every other task has
/// run `CHURN_OPS` rounds of `churn`, each calling `try_reclaim` every 32.
fn churn_against_reader<R: Reclaimer>(
    rt: &Runtime,
    em: &R,
    churn: impl Fn(&R::Guard<'_>, usize, u64) + Sync,
    read: impl Fn() + Sync,
) {
    let churning = AtomicUsize::new(rt.num_locales() * 2 - 1);
    rt.coforall_locales(|l| {
        rt.coforall_tasks(2, |t| {
            let t = l as usize * 2 + t;
            if t == 0 {
                while churning.load(Ordering::SeqCst) > 0 {
                    read();
                }
                return;
            }
            let tok = em.register();
            for i in 0..CHURN_OPS {
                churn(&tok, t, i);
                if i % 32 == 0 {
                    em.try_reclaim();
                }
            }
            churning.fetch_sub(1, Ordering::SeqCst);
        });
    });
    em.clear();
    let s = em.stats();
    assert_eq!(
        s.objects_deferred,
        s.objects_reclaimed,
        "{}: conservation after clear",
        em.backend_name()
    );
}

fn readers_against_reclamation<R: Reclaimer>() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let s = LockFreeSkipList::<u16, R>::with_reclaimer();
        let net = AtomicI64::new(0);
        let churn = |tok: &R::Guard<'_>, t: usize, i: u64| {
            let k = ((t as u64 * 37 + i) % 64) as u16;
            if i.is_multiple_of(2) {
                if s.insert(tok, k) {
                    net.fetch_add(1, Ordering::SeqCst);
                }
            } else if s.remove(tok, k) {
                net.fetch_sub(1, Ordering::SeqCst);
            }
        };
        churn_against_reader(&rt, s.reclaimer(), churn, || assert!(s.len() <= 64));
        assert_eq!(s.len() as i64, net.load(Ordering::SeqCst));

        // A8's RCU mix: grow by 8 past `len` every 16 ops.
        let a = RcuArray::<R>::with_reclaimer(16, 256);
        let churn = |tok: &R::Guard<'_>, t: usize, i: u64| {
            let idx = (i as usize * 7 + t) % 256;
            if i.is_multiple_of(16) {
                a.grow(tok, a.len() + 8);
            } else if i.is_multiple_of(4) {
                a.write(tok, idx, idx as u64 * 2);
            } else {
                let v = a.read(tok, idx);
                assert!(v == 0 || v == idx as u64 * 2, "cell {idx} read {v}");
            }
        };
        churn_against_reader(&rt, a.reclaimer(), churn, || {
            let n = a.len();
            assert!(n >= 256 && n.is_multiple_of(8), "len {n}");
        });

        let q = MsQueue::<u64, R>::with_reclaimer();
        let (sent, got) = (AtomicU64::new(0), AtomicU64::new(0));
        let churn = |tok: &R::Guard<'_>, t: usize, i: u64| {
            let v = t as u64 * CHURN_OPS + i;
            q.enqueue(tok, v);
            sent.fetch_add(v, Ordering::SeqCst);
            if i.is_multiple_of(2) {
                if let Some(v) = q.dequeue(tok) {
                    got.fetch_add(v, Ordering::SeqCst);
                }
            }
        };
        churn_against_reader(&rt, q.reclaimer(), churn, || {
            let _ = q.is_empty();
        });
        let tok = q.register();
        while let Some(v) = q.dequeue(&tok) {
            got.fetch_add(v, Ordering::SeqCst);
        }
        assert!(q.is_empty());
        assert_eq!(got.load(Ordering::SeqCst), sent.load(Ordering::SeqCst));
    });
    assert_eq!(rt.live_objects(), 0);
}

/// `len`/`is_empty` against reclamation, for the skiplist, the RCU array
/// and the queue under both reclaimers: churning tasks on every locale
/// retire nodes (or tables) and call `try_reclaim` while one task loops
/// the read-only accessor. An accessor that dereferences a shared node
/// without a pin or a hazard reads freed memory here. A walk over freed
/// memory can loop instead of failing, so run this under `timeout`.
#[test]
fn read_only_accessors_survive_concurrent_reclamation() {
    readers_against_reclamation::<EpochManager>();
    readers_against_reclamation::<HazardReclaimer>();
}
