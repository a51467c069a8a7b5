//! A distributed lock-free FIFO queue (Michael–Scott), built from the
//! paper's building blocks: `AtomicObject` cells for the links,
//! ABA-protected head/tail, and a pluggable [`Reclaimer`] for node
//! reclamation (epoch-based by default).
//!
//! Queues are one of the "most primitive of non-blocking data structures"
//! the paper's introduction names as blocked on object atomics; this is
//! the canonical algorithm, made distributed: nodes carry the affinity of
//! the enqueuing task's locale, and head/tail live with the queue's
//! creator.
//!
//! The head/tail ABA snapshots that open every `enqueue`/`dequeue` round
//! are the queue's hot read path: with
//! `RuntimeConfig::with_vread_fastpath(true)` they ride the versioned
//! seqlock read (one validated one-sided GET) instead of the DCAS
//! active-message round trip — no code change here, the cell routes it
//! (see `pgas_sim::WideCell` and ablation A10).
//!
//! Under hazard pointers the operations follow Michael's protocol: the
//! head/tail snapshot is protected in slot 0 (publish, then re-read the
//! cell), and `dequeue` additionally protects the successor in slot 1 —
//! validated by the head not having moved, since FIFO order means the
//! successor cannot be retired before the head is.

use std::mem::ManuallyDrop;

use pgas_atomics::{AtomicAbaObject, AtomicObject};
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, ctx, GlobalPtr};

/// One queue cell. The node at `head` is always a dummy whose value has
/// already been consumed (or never existed, for the initial sentinel).
pub struct Node<T> {
    value: Option<ManuallyDrop<T>>,
    next: AtomicObject<Node<T>>,
}

/// A lock-free multi-producer multi-consumer FIFO queue, generic over
/// its reclamation backend.
pub struct MsQueue<T: Send, R: Reclaimer = EpochManager> {
    head: AtomicAbaObject<Node<T>>,
    tail: AtomicAbaObject<Node<T>>,
    em: R,
}

// SAFETY: head/tail are atomic words; the reclaimer is Send+Sync by its
// trait bounds; values are Send by bound.
unsafe impl<T: Send, R: Reclaimer> Send for MsQueue<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for MsQueue<T, R> {}

impl<T: Send> MsQueue<T> {
    /// Create an empty queue (one dummy node) homed on the current
    /// locale, with the default epoch-based backend.
    pub fn new() -> MsQueue<T> {
        Self::with_reclaimer()
    }

    /// The queue's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> MsQueue<T, R> {
    /// Create an empty queue using reclamation backend `R`.
    pub fn with_reclaimer() -> MsQueue<T, R> {
        let dummy = alloc_local(
            &ctx::current_runtime(),
            Node {
                value: None,
                next: AtomicObject::null(),
            },
        );
        MsQueue {
            head: AtomicAbaObject::new(dummy),
            tail: AtomicAbaObject::new(dummy),
            em: R::default(),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Append `value` at the tail.
    pub fn enqueue(&self, tok: &R::Guard<'_>, value: T) {
        let span = OpSpan::start(OpClass::QueueOp, opkind::ENQUEUE, 0);
        tok.pinned(1, || {
            let node = alloc_local(
                &ctx::current_runtime(),
                Node {
                    value: Some(ManuallyDrop::new(value)),
                    next: AtomicObject::null(),
                },
            );
            loop {
                // HP: publish+validate the tail node before dereferencing it.
                let tail_snap = tok.protect_root_aba(0, &self.tail);
                let tail = tail_snap.get_object();
                // SAFETY: protected (pin or validated hazard).
                let next = unsafe { tail.deref() }.next.read();
                if next.is_null() {
                    if unsafe { tail.deref() }
                        .next
                        .compare_and_swap(GlobalPtr::null(), node)
                    {
                        // Swing the tail; failure means someone helped us.
                        let _ = self.tail.compare_and_swap_aba(tail_snap, node);
                        break;
                    }
                } else {
                    // Tail is lagging: help it forward.
                    let _ = self.tail.compare_and_swap_aba(tail_snap, next);
                }
                // Reached only when the link CAS failed or the tail lagged.
                span.retry();
            }
        })
    }

    /// Remove and return the oldest value, or `None` when empty.
    pub fn dequeue(&self, tok: &R::Guard<'_>) -> Option<T> {
        let span = OpSpan::start(OpClass::QueueOp, opkind::DEQUEUE, 0);
        tok.pinned(2, || loop {
            let head_snap = tok.protect_root_aba(0, &self.head);
            let head = head_snap.get_object();
            let tail = self.tail.read();
            // SAFETY: protected (pin or validated hazard).
            let next = unsafe { head.deref() }.next.read();
            if head == tail {
                if next.is_null() {
                    break None; // empty
                }
                // Tail lagging behind an in-flight enqueue: help.
                let tail_snap = self.tail.read_aba();
                if tail_snap.get_object() == tail {
                    let _ = self.tail.compare_and_swap_aba(tail_snap, next);
                }
            } else {
                // HP: protect the successor before the head CAS — its
                // value is read *after* the CAS, when another consumer may
                // already have dequeued and retired it. The head not
                // having moved validates the hazard (FIFO: `next` cannot
                // be retired before `head` is).
                if !tok.protect_ptr(1, next, || self.head.read_aba() == head_snap) {
                    span.retry();
                    continue;
                }
                if self.head.compare_and_swap_aba(head_snap, next) {
                    // We own the logical removal: `next` becomes the new
                    // dummy and we are the unique consumer of its value.
                    // Reading it after the CAS is safe under the pin /
                    // slot-1 hazard (no other task touches `value`).
                    let value = unsafe {
                        std::ptr::read(&(*next.as_ptr()).value)
                            .map(ManuallyDrop::into_inner)
                            .expect("non-sentinel queue node without a value")
                    };
                    tok.defer_delete(head);
                    break Some(value);
                }
                span.retry();
            }
        })
    }

    /// Racy emptiness check (exact only in quiescence).
    pub fn is_empty(&self) -> bool {
        let _span = OpSpan::start(OpClass::QueueOp, opkind::LEN, 0);
        let g = self.em.register();
        g.pinned(1, || {
            let head = g.protect_root_aba(0, &self.head).get_object();
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            unsafe { head.deref() }.next.read().is_null()
        })
    }

    /// Attempt an epoch advance / hazard scan + reclamation. What it can
    /// free is stated at [`Reclaimer::try_reclaim`].
    pub fn try_reclaim(&self) -> bool {
        self.em.try_reclaim()
    }

    /// Reclaim everything; callers must guarantee quiescence.
    pub fn clear_reclaim(&self) {
        self.em.clear()
    }

    /// The queue's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> Default for MsQueue<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Send, R: Reclaimer> Drop for MsQueue<T, R> {
    fn drop(&mut self) {
        let teardown = || {
            let tok = self.em.register();
            while self.dequeue(&tok).is_some() {}
            // Retire the final dummy as well.
            tok.pinned(0, || tok.defer_delete(self.head.read()));
        };
        self.em.runtime().run_here_or_enter(teardown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_epoch::HazardReclaimer;
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn fifo_order_single_task() {
        let rt = zrt(1);
        rt.run(|| {
            let q = MsQueue::new();
            let tok = q.register();
            assert!(q.is_empty());
            for i in 0..10 {
                q.enqueue(&tok, i);
            }
            assert!(!q.is_empty());
            for i in 0..10 {
                assert_eq!(q.dequeue(&tok), Some(i));
            }
            assert_eq!(q.dequeue(&tok), None);
        });
    }

    #[test]
    fn dequeue_empty_is_none() {
        let rt = zrt(1);
        rt.run(|| {
            let q = MsQueue::<String>::new();
            let tok = q.register();
            assert_eq!(q.dequeue(&tok), None);
            q.enqueue(&tok, "x".into());
            assert_eq!(q.dequeue(&tok).as_deref(), Some("x"));
            assert_eq!(q.dequeue(&tok), None);
        });
    }

    #[test]
    fn per_producer_order_preserved() {
        // FIFO per producer: each producer's elements come out in order.
        let rt = zrt(1);
        rt.run(|| {
            let q = MsQueue::new();
            let producers = 3u64;
            let per = 100u64;
            rt.coforall_tasks(producers as usize, |p| {
                let tok = q.register();
                for i in 0..per {
                    q.enqueue(&tok, (p as u64, i));
                }
            });
            let tok = q.register();
            let mut last = vec![None::<u64>; producers as usize];
            let mut n = 0;
            while let Some((p, i)) = q.dequeue(&tok) {
                if let Some(prev) = last[p as usize] {
                    assert!(i > prev, "producer {p} out of order: {prev} then {i}");
                }
                last[p as usize] = Some(i);
                n += 1;
            }
            assert_eq!(n, producers * per);
        });
    }

    #[test]
    fn mpmc_conserves_values() {
        let rt = zrt(1);
        rt.run(|| {
            let q = MsQueue::new();
            let consumed = AtomicU64::new(0);
            let count = AtomicU64::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = q.register();
                if t < 2 {
                    for i in 0..300u64 {
                        q.enqueue(&tok, t as u64 * 300 + i);
                    }
                } else {
                    loop {
                        match q.dequeue(&tok) {
                            Some(v) => {
                                consumed.fetch_add(v, Ordering::Relaxed);
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if count.load(Ordering::Relaxed) >= 600 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 600);
            assert_eq!(consumed.load(Ordering::Relaxed), (0..600u64).sum::<u64>());
            q.clear_reclaim();
            // 1 dummy node remains live until drop
            assert_eq!(rt.live_objects(), 1);
        });
        assert_eq!(rt.live_objects(), 0, "drop retires the dummy");
    }

    #[test]
    fn distributed_producers_and_consumer() {
        let rt = zrt(4);
        rt.run(|| {
            let q = MsQueue::new();
            rt.coforall_locales(|l| {
                let tok = q.register();
                for i in 0..25u64 {
                    q.enqueue(&tok, (l as u64) * 1000 + i);
                }
            });
            let tok = q.register();
            let mut n = 0;
            while q.dequeue(&tok).is_some() {
                n += 1;
            }
            assert_eq!(n, 100);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn drop_nonempty_runs_destructors_and_frees_nodes() {
        struct Probe<'a>(&'a AtomicU64);
        impl Drop for Probe<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = zrt(1);
        let drops = AtomicU64::new(0);
        rt.run(|| {
            let q = MsQueue::new();
            let tok = q.register();
            for _ in 0..9 {
                q.enqueue(&tok, Probe(&drops));
            }
            drop(tok);
            drop(q);
            assert_eq!(drops.load(Ordering::Relaxed), 9);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_mpmc() {
        let rt = zrt(2);
        rt.run(|| {
            let q = MsQueue::<u64, HazardReclaimer>::with_reclaimer();
            let count = AtomicU64::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = q.register();
                if t < 2 {
                    for i in 0..250u64 {
                        q.enqueue(&tok, t as u64 * 250 + i);
                    }
                } else {
                    loop {
                        match q.dequeue(&tok) {
                            Some(_) => {
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if count.load(Ordering::Relaxed) >= 500 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 500);
            assert!(q.is_empty());
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
