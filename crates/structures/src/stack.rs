//! A distributed lock-free (Treiber) stack — the paper's Listing 1.
//!
//! `push` is the verbatim shape of the paper's example: read the head with
//! its ABA counter, point the new node at it, and `compareAndSwapABA` it
//! in. `pop` logically removes the node and hands it to the reclamation
//! backend, which is what makes the *memory reclamation* safe — the very
//! problem the paper's two building blocks exist to solve together.
//!
//! The stack is generic over its [`Reclaimer`]: the default is the
//! distributed `EpochManager` (pin covers the whole operation), and
//! `LockFreeStack<T, HazardReclaimer>` swaps in hazard pointers, where
//! `pop` protects the head node in slot 0 before dereferencing it.
//!
//! Nodes are allocated on the locale of the pushing task, so a stack used
//! from many locales interleaves remote references; the head cell lives on
//! the locale that created the stack.
//!
//! The head snapshots (`read_aba` in `push`/`pop`, `read` in `is_empty`)
//! are the stack's hot read path: with
//! `RuntimeConfig::with_vread_fastpath(true)` they ride the versioned
//! seqlock read (one validated one-sided GET) instead of the DCAS
//! active-message round trip — no code change here, the cell routes it
//! (see `pgas_sim::WideCell` and ablation A10).

use std::mem::ManuallyDrop;

use pgas_atomics::AtomicAbaObject;
use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{alloc_local, ctx, GlobalPtr};

/// One stack cell.
pub struct Node<T> {
    value: ManuallyDrop<T>,
    next: GlobalPtr<Node<T>>,
}

/// A lock-free stack usable from any locale, generic over its
/// reclamation backend (epoch-based by default).
pub struct LockFreeStack<T: Send, R: Reclaimer = EpochManager> {
    head: AtomicAbaObject<Node<T>>,
    em: R,
}

// SAFETY: the head cell is an atomic word and the reclaimer is Send+Sync
// by its trait bounds; values are required to be Send by the public API.
unsafe impl<T: Send, R: Reclaimer> Send for LockFreeStack<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for LockFreeStack<T, R> {}

impl<T: Send> LockFreeStack<T> {
    /// Create an empty stack homed on the current locale, with its own
    /// epoch manager (the default backend).
    pub fn new() -> LockFreeStack<T> {
        Self::with_reclaimer()
    }

    /// The stack's epoch manager (for stats or manual control).
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> LockFreeStack<T, R> {
    /// Create an empty stack using reclamation backend `R`, constructed
    /// on the current locale.
    pub fn with_reclaimer() -> LockFreeStack<T, R> {
        LockFreeStack {
            head: AtomicAbaObject::null(),
            em: R::default(),
        }
    }

    /// Register the calling task for stack operations.
    pub fn register(&self) -> R::Guard<'_> {
        self.em.register()
    }

    /// Push `value` (Listing 1). Needs no protection even under hazard
    /// pointers: the new node is unpublished and the head is never
    /// dereferenced.
    pub fn push(&self, tok: &R::Guard<'_>, value: T) {
        let span = OpSpan::start(OpClass::StackOp, opkind::PUSH, 0);
        tok.pinned(0, || {
            let node = alloc_local(
                &ctx::current_runtime(),
                Node {
                    value: ManuallyDrop::new(value),
                    next: GlobalPtr::null(),
                },
            );
            loop {
                let old_head = self.head.read_aba();
                // The node is unpublished: writing next is race-free.
                unsafe { &mut *node.as_ptr() }.next = old_head.get_object();
                if self.head.compare_and_swap_aba(old_head, node) {
                    break;
                }
                span.retry();
            }
        })
    }

    /// Pop the top value, or `None` when empty. The removed node is
    /// deferred to the reclaimer.
    pub fn pop(&self, tok: &R::Guard<'_>) -> Option<T> {
        let span = OpSpan::start(OpClass::StackOp, opkind::POP, 0);
        tok.pinned(1, || loop {
            // Under HP this publishes+validates the head in slot 0; under
            // EBR it is a plain `read_aba`.
            let old_head = tok.protect_root_aba(0, &self.head);
            let top = old_head.get_object();
            if top.is_null() {
                break None;
            }
            // SAFETY: protected — pinned (EBR) or hazard-validated (HP).
            let next = unsafe { top.deref() }.next;
            if self.head.compare_and_swap_aba(old_head, next) {
                // We won the logical removal: we are the unique owner of
                // the value. Move it out; the deferred drop of the Node
                // will not touch it (ManuallyDrop).
                let value = unsafe { std::ptr::read(&*(*top.as_ptr()).value) };
                tok.defer_delete(top);
                break Some(value);
            }
            span.retry();
        })
    }

    /// Racy emptiness check (exact only in quiescence).
    pub fn is_empty(&self) -> bool {
        let _span = OpSpan::start(OpClass::StackOp, opkind::LEN, 0);
        self.head.read().is_null()
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

    /// The stack's reclamation backend (for stats or manual control).
    pub fn reclaimer(&self) -> &R {
        &self.em
    }
}

impl<T: Send, R: Reclaimer> Default for LockFreeStack<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Send, R: Reclaimer> Drop for LockFreeStack<T, R> {
    fn drop(&mut self) {
        // Pop-and-drop every remaining value; the embedded reclaimer's
        // own Drop (fields drop after this body) reclaims deferred nodes.
        let teardown = || {
            let tok = self.em.register();
            while self.pop(&tok).is_some() {}
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
    fn lifo_order_single_task() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeStack::new();
            let tok = s.register();
            for i in 0..10 {
                s.push(&tok, i);
            }
            for i in (0..10).rev() {
                assert_eq!(s.pop(&tok), Some(i));
            }
            assert_eq!(s.pop(&tok), None);
            assert!(s.is_empty());
        });
    }

    #[test]
    fn pop_empty_is_none() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeStack::<u64>::new();
            let tok = s.register();
            assert_eq!(s.pop(&tok), None);
        });
    }

    #[test]
    fn values_conserved_under_concurrency() {
        let rt = zrt(1);
        rt.run(|| {
            let s = LockFreeStack::new();
            let popped_sum = AtomicU64::new(0);
            let popped_n = AtomicU64::new(0);
            let tasks = 4u64;
            let per = 250u64;
            rt.coforall_tasks(tasks as usize, |t| {
                let tok = s.register();
                for i in 0..per {
                    let v = t as u64 * per + i;
                    s.push(&tok, v);
                    if i % 3 == 0 {
                        if let Some(v) = s.pop(&tok) {
                            popped_sum.fetch_add(v, Ordering::Relaxed);
                            popped_n.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            let tok = s.register();
            while let Some(v) = s.pop(&tok) {
                popped_sum.fetch_add(v, Ordering::Relaxed);
                popped_n.fetch_add(1, Ordering::Relaxed);
            }
            drop(tok);
            let total = tasks * per;
            assert_eq!(popped_n.load(Ordering::Relaxed), total);
            assert_eq!(
                popped_sum.load(Ordering::Relaxed),
                total * (total - 1) / 2,
                "every pushed value popped exactly once"
            );
            s.clear_reclaim();
            // All nodes reclaimed: only the (zero) remaining live objects.
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn distributed_pushes_interleave_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let s = LockFreeStack::new();
            rt.coforall_locales(|l| {
                let tok = s.register();
                for i in 0..20u64 {
                    s.push(&tok, (l as u64) << 32 | i);
                }
            });
            let tok = s.register();
            let mut n = 0;
            let mut locales_seen = std::collections::HashSet::new();
            while let Some(v) = s.pop(&tok) {
                locales_seen.insert(v >> 32);
                n += 1;
            }
            drop(tok);
            assert_eq!(n, 80);
            assert_eq!(locales_seen.len(), 4);
            s.clear_reclaim();
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn drop_with_remaining_values_leaks_nothing() {
        let rt = zrt(2);
        rt.run(|| {
            {
                let s = LockFreeStack::new();
                let tok = s.register();
                for i in 0..50u64 {
                    s.push(&tok, i);
                }
                drop(tok);
            } // dropped non-empty
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn drop_runs_value_destructors() {
        struct Probe<'a>(&'a AtomicU64);
        impl Drop for Probe<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = zrt(1);
        let drops = AtomicU64::new(0);
        rt.run(|| {
            {
                let s = LockFreeStack::new();
                let tok = s.register();
                for _ in 0..7 {
                    s.push(&tok, Probe(&drops));
                }
                // pop two: their destructors run when the caller drops them
                let a = s.pop(&tok);
                let b = s.pop(&tok);
                drop((a, b));
                drop(tok);
            }
            assert_eq!(drops.load(Ordering::Relaxed), 7);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn hazard_pointer_backend_conserves_values() {
        let rt = zrt(2);
        rt.run(|| {
            let s = LockFreeStack::<u64, HazardReclaimer>::with_reclaimer();
            let popped_n = AtomicU64::new(0);
            rt.coforall_tasks(4, |t| {
                let tok = s.register();
                for i in 0..200u64 {
                    s.push(&tok, t as u64 * 200 + i);
                    if i % 2 == 0 && s.pop(&tok).is_some() {
                        popped_n.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            let tok = s.register();
            while s.pop(&tok).is_some() {
                popped_n.fetch_add(1, Ordering::Relaxed);
            }
            drop(tok);
            assert_eq!(popped_n.load(Ordering::Relaxed), 800);
            s.clear_reclaim();
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
