//! Structures exercised under seeded fault plans: dropped-and-retried AMs,
//! duplicated deliveries, injected delays, and a stalled pinned task. The
//! structures must stay linearizable and keep making progress — the whole
//! point of the paper's non-blocking designs.

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_epoch::{ReclaimGuard, Reclaimer};
use pgas_sim::faults::invariants::InvariantChecker;
use pgas_sim::{FaultPlan, Runtime, RuntimeConfig};
use pgas_structures::{DistHashMap, LockFreeStack, MsQueue};

fn chaos_rt(plan: FaultPlan) -> Runtime {
    // Network atomics off so every remote op takes the (fault-injected)
    // AM path.
    Runtime::new(
        RuntimeConfig::cluster(4)
            .without_network_atomics()
            .with_faults(plan),
    )
}

#[test]
fn queue_preserves_fifo_under_drop_retry() {
    let plan = FaultPlan::seeded(0xFEED).with_drops(300);
    let rt = chaos_rt(plan);
    rt.run(|| {
        let q = MsQueue::<u64>::new();
        let checker = InvariantChecker::new();
        q.epoch_manager().set_observer(checker.clone());
        let dequeued = AtomicU64::new(0);
        rt.coforall_locales(|lid| {
            let task = lid as u64;
            let tok = q.register();
            for i in 0..200u64 {
                q.enqueue(&tok, task << 32 | i);
                if let Some(v) = q.dequeue(&tok) {
                    // One consumer's view of one producer must be in
                    // enqueue order, retries notwithstanding.
                    checker.record_fifo((v >> 32) << 16 | task, v & 0xffff_ffff);
                    dequeued.fetch_add(1, Ordering::Relaxed);
                }
                if i % 64 == 0 {
                    q.try_reclaim();
                }
            }
        });
        let tok = q.register();
        let mut drained = 0;
        while q.dequeue(&tok).is_some() {
            drained += 1;
        }
        drop(tok);
        assert_eq!(
            dequeued.load(Ordering::Relaxed) + drained,
            4 * 200,
            "dropped sends must be retried, never lost"
        );
        q.clear_reclaim();
        checker.check().expect("no invariant violations");
    });
    let comm = rt.total_comm();
    assert!(comm.injected_drops > 0, "plan must actually have fired");
    assert!(comm.retries >= comm.injected_drops - comm.gave_up);
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn map_stays_consistent_under_delay_and_duplication() {
    let plan = FaultPlan::seeded(0xBEEF)
        .with_dups(300)
        .with_delays(300, 4_000);
    let rt = chaos_rt(plan);
    rt.run(|| {
        let m = DistHashMap::<u64, u64>::new(16);
        let checker = InvariantChecker::new();
        m.epoch_manager().set_observer(checker.clone());
        rt.coforall_locales(|lid| {
            let task = lid as u64;
            let tok = m.register();
            for i in 0..150u64 {
                let k = task << 32 | i;
                assert!(m.insert(&tok, k, i), "fresh insert of {k:#x}");
                assert_eq!(
                    m.get(&tok, &k),
                    Some(i),
                    "a duplicated delivery must not clobber the entry"
                );
                if i % 3 == 0 {
                    assert!(m.remove(&tok, &k));
                }
                if i % 32 == 0 {
                    m.try_reclaim();
                }
            }
        });
        assert_eq!(m.len(), 4 * 100, "every surviving key accounted for");
        m.clear_reclaim();
        checker.check().expect("no invariant violations");
    });
    let comm = rt.total_comm();
    assert!(comm.injected_dups > 0);
    assert!(comm.injected_delays > 0);
    assert_eq!(comm.injected_drops, 0, "plan configured no drops");
}

#[test]
fn stack_makes_progress_past_a_stalled_pinned_task() {
    let plan = FaultPlan::seeded(0xCAFE)
        .with_stalled_task(1)
        .with_delays(200, 2_000);
    let rt = chaos_rt(plan);
    rt.run(|| {
        let s = LockFreeStack::<u64>::new();
        let checker = InvariantChecker::new();
        s.epoch_manager().set_observer(checker.clone());
        let done = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let live_while_stalled = AtomicU64::new(0);
        rt.coforall_locales(|lid| {
            if lid == 1 {
                // The stalled task: pins an epoch token and refuses to
                // unpin until everyone else has finished their work.
                let tok = s.register();
                tok.pin();
                while done.load(Ordering::Acquire) < 3 {
                    std::thread::yield_now();
                }
                live_while_stalled.store(rt.live_objects().max(0) as u64, Ordering::Relaxed);
                tok.unpin();
            } else {
                let tok = s.register();
                for i in 0..200u64 {
                    s.push(&tok, (lid as u64) << 32 | i);
                    if s.pop(&tok).is_some() {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    s.try_reclaim(); // mostly fails while pinned — must not block
                }
                done.fetch_add(1, Ordering::Release);
            }
        });
        assert!(
            completed.load(Ordering::Relaxed) > 0,
            "other locales must make progress despite the stalled pin"
        );
        assert!(
            live_while_stalled.load(Ordering::Relaxed) > 0,
            "the stalled pin must have held garbage live"
        );
        let tok = s.register();
        while s.pop(&tok).is_some() {}
        drop(tok);
        // With the pin gone, reclamation drains completely.
        s.try_reclaim();
        s.try_reclaim();
        s.clear_reclaim();
        checker.check().expect("no invariant violations");
    });
    assert_eq!(rt.live_objects(), 0, "everything reclaimed after unpin");
}
