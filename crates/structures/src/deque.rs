//! A distributed work-stealing deque for the global-view tier.
//!
//! Each locale owns a private LIFO segment (a Treiber chain, exactly the
//! paper's Listing 1 protocol) whose **top cell is homed on that locale**:
//!
//! * the **owner** pushes and pops at its own top — local memory, CPU
//!   atomics when network atomics are off, zero communication;
//! * a **thief** steals by running the same pop protocol against the
//!   *victim's* top cell: read the `(pointer, ABA count)` pair and
//!   `compare_and_swap_aba` it — a DCAS on the remote top pointer, which
//!   the NIC executes as a wide network atomic (or the AM slow path
//!   routes, or the versioned fast-read path accelerates the read half;
//!   the cell decides, see `pgas-atomics`).
//!
//! The ABA counter is what makes the remote steal safe: a thief's CAS
//! can lose an arbitrary amount of time between reading the top and
//! swinging it, during which the owner may pop and re-push the same
//! node address. The counter turns that into a failed CAS instead of a
//! corrupted chain — the exact failure mode the paper's
//! `compareAndSwapABA` exists for.
//!
//! `steal` scans victims round-robin starting after the calling locale,
//! so concurrent thieves spread instead of convoying on one victim.
//! Values parked in a crashed locale's segment stay reachable from every
//! other locale (global pointers), which is what makes this layout a
//! deque *in the PGAS sense* rather than N independent stacks.
//!
//! Generic over `R:`[`Reclaimer`] like every structure in this crate:
//! popped/stolen nodes are deferred to the backend, and hazard-pointer
//! thieves publish the victim's top in slot 0 before dereferencing it.

use std::mem::ManuallyDrop;

use pgas_atomics::AtomicAbaObject;
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, ctx, GlobalPtr, LocaleId};

/// One deque cell.
pub struct Node<T> {
    value: ManuallyDrop<T>,
    next: GlobalPtr<Node<T>>,
}

/// A distributed work-stealing deque: one locale-homed LIFO segment per
/// locale, remote steals via DCAS on the victim's top.
pub struct WorkStealingDeque<T: Send, R: Reclaimer = EpochManager> {
    /// `tops[l]` is homed on locale `l`.
    tops: Box<[AtomicAbaObject<Node<T>>]>,
    em: R,
}

// SAFETY: top cells are atomic words; the reclaimer is Send+Sync by its
// trait bounds; values are required Send by the public API.
unsafe impl<T: Send, R: Reclaimer> Send for WorkStealingDeque<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for WorkStealingDeque<T, R> {}

impl<T: Send> WorkStealingDeque<T> {
    /// Create an empty deque spanning every locale of the current
    /// runtime, with the default epoch-based backend.
    pub fn new() -> WorkStealingDeque<T> {
        Self::with_reclaimer()
    }

    /// The deque's epoch manager.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> WorkStealingDeque<T, R> {
    /// Create an empty deque using reclamation backend `R`, one segment
    /// per locale of the current runtime.
    pub fn with_reclaimer() -> WorkStealingDeque<T, R> {
        let rt = ctx::current_runtime();
        let tops = (0..rt.num_locales())
            .map(|l| AtomicAbaObject::new_on(l as LocaleId, GlobalPtr::null()))
            .collect();
        WorkStealingDeque {
            tops,
            em: R::new_in_runtime(),
        }
    }

    /// Register the calling task.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Number of per-locale segments.
    pub fn num_segments(&self) -> usize {
        self.tops.len()
    }

    /// Push `value` onto the calling locale's own segment. The node is
    /// allocated locally and the top cell is local, so this is the
    /// communication-free owner path.
    pub fn push(&self, tok: &R::Guard<'_>, value: T) {
        let span = OpSpan::start(OpClass::DequeOp, opkind::PUSH, 0);
        tok.pin();
        let top = &self.tops[ctx::here() as usize];
        let node = alloc_local(
            &ctx::current_runtime(),
            Node {
                value: ManuallyDrop::new(value),
                next: GlobalPtr::null(),
            },
        );
        loop {
            let old_top = top.read_aba();
            // Unpublished node: writing next is race-free.
            unsafe { &mut *node.as_ptr() }.next = old_top.get_object();
            if top.compare_and_swap_aba(old_top, node) {
                break;
            }
            span.retry();
        }
        tok.unpin();
    }

    /// Pop from the calling locale's own segment (LIFO), or `None` when
    /// it is empty. Competes only with thieves, never with remote owners.
    pub fn pop(&self, tok: &R::Guard<'_>) -> Option<T> {
        let span = OpSpan::start(OpClass::DequeOp, opkind::POP, 0);
        self.take_from(tok, ctx::here(), &span)
    }

    /// Steal one value from `victim`'s segment, or `None` when it is
    /// empty: the DCAS-on-remote-top protocol.
    pub fn steal_from(&self, tok: &R::Guard<'_>, victim: LocaleId) -> Option<T> {
        let span = OpSpan::start(OpClass::DequeOp, opkind::STEAL, victim as u64);
        self.take_from(tok, victim, &span)
    }

    /// Steal one value from any non-empty segment, scanning victims
    /// round-robin starting after the calling locale. Returns the value
    /// and the locale it was stolen from.
    pub fn steal(&self, tok: &R::Guard<'_>) -> Option<(T, LocaleId)> {
        let span = OpSpan::start(OpClass::DequeOp, opkind::STEAL, 0);
        let n = self.tops.len();
        let here = ctx::here() as usize;
        for i in 1..n {
            let victim = ((here + i) % n) as LocaleId;
            if let Some(v) = self.take_from(tok, victim, &span) {
                return Some((v, victim));
            }
        }
        None
    }

    /// Pop locally, falling back to stealing when the own segment is
    /// empty — the scheduler-loop primitive.
    pub fn pop_or_steal(&self, tok: &R::Guard<'_>) -> Option<T> {
        self.pop(tok).or_else(|| self.steal(tok).map(|(v, _)| v))
    }

    /// The shared removal protocol: Treiber pop against `segment`'s top.
    /// For the owner the cell is local; for a thief the `read_aba` +
    /// `compare_and_swap_aba` pair is the remote DCAS.
    fn take_from(&self, tok: &R::Guard<'_>, segment: LocaleId, span: &OpSpan) -> Option<T> {
        tok.pin();
        let top = &self.tops[segment as usize];
        let result = loop {
            // Under HP this publishes+validates the top in slot 0; under
            // EBR it is a plain `read_aba`.
            let old_top = tok.protect_root_aba(0, top);
            let head = old_top.get_object();
            if head.is_null() {
                break None;
            }
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let next = unsafe { head.deref() }.next;
            if top.compare_and_swap_aba(old_top, next) {
                // Unique owner of the value now; the deferred node drop
                // will not touch it (ManuallyDrop).
                let value = unsafe { std::ptr::read(&*(*head.as_ptr()).value) };
                tok.defer_delete(head);
                break Some(value);
            }
            span.retry();
        };
        tok.release(0);
        tok.unpin();
        result
    }

    /// Racy emptiness check across every segment (exact in quiescence).
    pub fn is_empty(&self) -> bool {
        let _span = OpSpan::start(OpClass::DequeOp, opkind::LEN, 0);
        self.tops.iter().all(|t| t.read().is_null())
    }

    /// Racy emptiness check of the calling locale's own segment.
    pub fn is_empty_local(&self) -> bool {
        self.tops[ctx::here() as usize].read().is_null()
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

    /// The deque's reclamation backend.
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> Default for WorkStealingDeque<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Send, R: Reclaimer> Drop for WorkStealingDeque<T, R> {
    fn drop(&mut self) {
        // Drain every segment (remote pops are fine at teardown); the
        // embedded reclaimer's own Drop reclaims the deferred nodes.
        let teardown = || {
            let tok = self.em.register();
            let span = OpSpan::start(OpClass::DequeOp, opkind::POP, 0);
            for l in 0..self.tops.len() {
                while self.take_from(&tok, l as LocaleId, &span).is_some() {}
            }
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
    fn owner_lifo_roundtrip() {
        let rt = zrt(2);
        rt.run(|| {
            let d = WorkStealingDeque::new();
            let tok = d.register();
            for i in 0..10u64 {
                d.push(&tok, i);
            }
            assert!(!d.is_empty_local());
            for i in (0..10).rev() {
                assert_eq!(d.pop(&tok), Some(i));
            }
            assert_eq!(d.pop(&tok), None);
            assert!(d.is_empty());
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn segments_are_per_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let d = WorkStealingDeque::new();
            for (l, t) in d.tops.iter().enumerate() {
                assert_eq!(t.owner() as usize, l, "top {l} homed on its locale");
            }
            rt.coforall_locales(|l| {
                let tok = d.register();
                d.push(&tok, l as u64);
                // Own segment sees only the own push.
                assert_eq!(d.pop(&tok), Some(l as u64));
                assert_eq!(d.pop(&tok), None);
            });
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn steal_takes_from_remote_segment() {
        let rt = zrt(4);
        rt.run(|| {
            let d = WorkStealingDeque::new();
            rt.on(2, || {
                let tok = d.register();
                for i in 0..5u64 {
                    d.push(&tok, 100 + i);
                }
            });
            // Locale 0's own segment is empty: pop fails, steal hits 2.
            let tok = d.register();
            assert_eq!(d.pop(&tok), None);
            let (v, victim) = d.steal(&tok).expect("victim has work");
            assert_eq!(victim, 2);
            assert!((100..105).contains(&v));
            assert!(d.steal_from(&tok, 2).is_some());
            assert_eq!(d.steal_from(&tok, 1), None, "empty victim");
            drop(tok);
            d.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn owner_local_ops_send_no_ams() {
        let rt = Runtime::new(RuntimeConfig::cluster(4).without_network_atomics());
        rt.run(|| {
            let d = WorkStealingDeque::<u64>::new();
            rt.on(1, || {
                let tok = d.register();
                let before = rt.total_comm();
                for i in 0..64u64 {
                    d.push(&tok, i);
                }
                for _ in 0..64 {
                    assert!(d.pop(&tok).is_some());
                }
                let delta = rt.total_comm() - before;
                assert_eq!(delta.am_sent, 0, "owner push/pop is communication-free");
                assert_eq!(delta.rdma_atomics, 0);
                assert!(delta.cpu_atomics > 0);
            });
            d.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    /// The CI steal-storm: one producer locale, every other locale
    /// stealing concurrently. Every value must surface exactly once.
    #[test]
    fn steal_storm_conserves_values() {
        let rt = zrt(4);
        rt.run(|| {
            let d = WorkStealingDeque::new();
            let n = 600u64;
            let taken_sum = AtomicU64::new(0);
            let taken_n = AtomicU64::new(0);
            rt.coforall_locales(|l| {
                let tok = d.register();
                if l == 0 {
                    // Producer: push everything, then help drain.
                    for v in 0..n {
                        d.push(&tok, v);
                    }
                    while let Some(v) = d.pop(&tok) {
                        taken_sum.fetch_add(v, Ordering::Relaxed);
                        taken_n.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    // Thieves: spin until the producer's segment stays
                    // dry and all values are accounted for.
                    let mut dry = 0;
                    while taken_n.load(Ordering::Relaxed) < n && dry < 10_000 {
                        match d.steal(&tok) {
                            Some((v, _)) => {
                                dry = 0;
                                taken_sum.fetch_add(v, Ordering::Relaxed);
                                taken_n.fetch_add(1, Ordering::Relaxed);
                            }
                            None => dry += 1,
                        }
                    }
                }
            });
            assert_eq!(
                taken_n.load(Ordering::Relaxed),
                n,
                "each value exactly once"
            );
            assert_eq!(
                taken_sum.load(Ordering::Relaxed),
                n * (n - 1) / 2,
                "no value lost or duplicated"
            );
            d.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn steal_storm_under_hazard_pointers() {
        let rt = zrt(3);
        rt.run(|| {
            let d = WorkStealingDeque::<u64, HazardReclaimer>::with_reclaimer();
            let n = 300u64;
            let taken_n = AtomicU64::new(0);
            rt.coforall_locales(|l| {
                let tok = d.register();
                if l == 0 {
                    for v in 0..n {
                        d.push(&tok, v);
                    }
                    while d.pop(&tok).is_some() {
                        taken_n.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    let mut dry = 0;
                    while taken_n.load(Ordering::Relaxed) < n && dry < 10_000 {
                        if d.steal(&tok).is_some() {
                            dry = 0;
                            taken_n.fetch_add(1, Ordering::Relaxed);
                        } else {
                            dry += 1;
                        }
                    }
                }
            });
            assert_eq!(taken_n.load(Ordering::Relaxed), n);
            d.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn pop_or_steal_drains_everything() {
        let rt = zrt(3);
        rt.run(|| {
            let d = WorkStealingDeque::new();
            rt.coforall_locales(|l| {
                let tok = d.register();
                for i in 0..40u64 {
                    d.push(&tok, (l as u64) * 100 + i);
                }
            });
            // Drain from locale 0 only: pops its own 40, steals the rest.
            let tok = d.register();
            let mut seen = std::collections::HashSet::new();
            while let Some(v) = d.pop_or_steal(&tok) {
                assert!(seen.insert(v), "value {v} surfaced twice");
            }
            assert_eq!(seen.len(), 120);
            drop(tok);
            d.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn drop_with_remaining_values_leaks_nothing() {
        let rt = zrt(3);
        rt.run(|| {
            {
                let d = WorkStealingDeque::new();
                rt.coforall_locales(|l| {
                    let tok = d.register();
                    for i in 0..25u64 {
                        d.push(&tok, (l as u64) << 32 | i);
                    }
                });
            } // dropped with 75 values across 3 segments
            assert_eq!(rt.live_objects(), 0);
        });
    }
}
