//! The reclamation contract: [`Reclaimer`], [`ReclaimGuard`] and the one
//! pin lifecycle, [`PinGuard`].
//!
//! The paper (§II-B/C) puts reclamation behind *register → pin/unpin →
//! deferDelete → tryReclaim*, and (§I) picks epoch-based reclamation over
//! Michael's hazard pointers for amortization while treating the choice as
//! policy. These two traits are that contract and the whole API of every
//! backend: [`crate::EpochManager`] (the default), the locale-local
//! [`crate::LocalEpochManager`], and the distributed hazard-pointer backend
//! [`crate::HazardReclaimer`] (the stall-tolerant alternative) implement
//! them directly, each operation once. What a backend offers beyond the
//! contract is ablation knobs and diagnostics.
//!
//! The guard-side `protect*` methods are the price of admission for
//! hazard pointers: EBR backends keep their provided no-op/plain-read
//! defaults (so EBR code paths compile to *exactly* the reads they
//! performed before this trait existed — the exact-count communication
//! tests stay bit-for-bit), while the HP backend overrides them with the
//! publish-then-validate protocol.

use std::sync::Arc;

use pgas_atomics::{Aba, AtomicAbaObject, AtomicObject};
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::{GlobalPtr, RuntimeHandle};

use crate::stats::ReclaimSnapshot;

/// A per-task registration handle for a [`Reclaimer`]: the thing that
/// pins, defers deletions, and (for hazard-pointer backends) publishes
/// protections.
///
/// The `protect*` family has provided implementations that are correct
/// for *deferral-based* backends (EBR): under a pin nothing reachable can
/// be freed, so protection degenerates to a plain read. Backends that
/// free memory while readers are active (hazard pointers) must override
/// them with publish-then-validate.
pub trait ReclaimGuard {
    /// Enter a critical section. For EBR this publishes the current
    /// epoch; for hazard pointers it is free (protection is per-pointer).
    /// Prefer [`Self::pin_guard`] or [`Self::pinned`], which also unpin
    /// when the critical section unwinds.
    fn pin(&self);

    /// Leave the critical section.
    fn unpin(&self);

    /// True while inside a critical section. Hazard-pointer guards are
    /// always "pinned" in this sense.
    fn is_pinned(&self) -> bool;

    /// Hand a logically-removed object (which may live on any locale) to
    /// the backend for eventual (safe) deletion.
    fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>);

    /// Drive the backend's advance/scan machinery from this task: the
    /// paper lets either the token or the manager drive reclamation.
    fn try_reclaim(&self) -> bool;

    /// Read `cell` and protect the result in `slot`, retrying internally
    /// until the protection is validated. Roots (a stack/queue head, an
    /// RCU table cell) are protected this way because the cell itself
    /// re-validates the read.
    #[inline]
    fn protect_root<T>(&self, slot: usize, cell: &AtomicObject<T>) -> GlobalPtr<T> {
        let _ = slot;
        cell.read()
    }

    /// ABA-counted variant of [`ReclaimGuard::protect_root`].
    #[inline]
    fn protect_root_aba<T>(&self, slot: usize, cell: &AtomicAbaObject<T>) -> Aba<T> {
        let _ = slot;
        cell.read_aba()
    }

    /// Publish `ptr` in `slot`, then run `revalidate` to confirm the
    /// pointer was still reachable from protected state when the hazard
    /// became visible. Returns `false` when the caller must retry its
    /// traversal. EBR backends return `true` without reading anything.
    #[inline]
    fn protect_ptr<T>(
        &self,
        slot: usize,
        ptr: GlobalPtr<T>,
        revalidate: impl FnOnce() -> bool,
    ) -> bool {
        let _ = (slot, ptr);
        let _ = &revalidate;
        true
    }

    /// Re-publish an already-protected pointer into another `slot`
    /// (no validation needed: the existing hazard keeps it live across
    /// the store). For protocols that need to park a node while the
    /// walking slots move on.
    #[inline]
    fn protect_copy<T>(&self, slot: usize, ptr: GlobalPtr<T>) {
        let _ = (slot, ptr);
    }

    /// Clear `slot`. A no-op for EBR.
    #[inline]
    fn release(&self, slot: usize) {
        let _ = slot;
    }

    /// Pin, and return the [`PinGuard`] that clears hazard slots
    /// `0..slots` and unpins when dropped.
    fn pin_guard(&self, slots: usize) -> PinGuard<'_, Self>
    where
        Self: Sized,
    {
        self.pin();
        PinGuard { guard: self, slots }
    }

    /// Run `f` under a [`PinGuard`] that clears hazard slots `0..slots` (the
    /// ones `f` walks with) and unpins afterwards, also when `f` unwinds.
    fn pinned<T>(&self, slots: usize, f: impl FnOnce() -> T) -> T
    where
        Self: Sized,
    {
        let _pin = self.pin_guard(slots);
        f()
    }
}

/// The one pin lifecycle: pinned from [`ReclaimGuard::pin_guard`] (or
/// [`ReclaimGuard::pinned`]) until dropped, when it clears the hazard slots
/// the critical section walked with and unpins, on every exit, unwinding
/// included. A user `K::cmp`, a `T::clone` or a bounds assert may panic
/// under the pin, and a token left pinned would block every later advance.
/// References obtained from epoch-protected cells (e.g.
/// [`crate::owned::OwnedAtomic::load`]) borrow the guard, so the type
/// system enforces that no reference outlives the pin.
pub struct PinGuard<'g, G: ReclaimGuard> {
    guard: &'g G,
    slots: usize,
}

impl<G: ReclaimGuard> Drop for PinGuard<'_, G> {
    fn drop(&mut self) {
        (0..self.slots).for_each(|slot| self.guard.release(slot));
        self.guard.unpin();
    }
}

/// A reclamation backend: epoch-based (default), locale-local epochs, or
/// distributed hazard pointers. Structures hold one `R: Reclaimer` and
/// thread `R::Guard` through their operations. `R::default()` builds a
/// backend homed on the current locale; it must run inside a runtime
/// context (`Runtime::run`).
pub trait Reclaimer: Default + Send + Sync {
    /// The per-task handle type, borrowed from the backend.
    type Guard<'a>: ReclaimGuard
    where
        Self: 'a;

    /// `true` when readers must publish per-pointer protections before
    /// dereferencing (hazard pointers); `false` for deferral-only
    /// backends where a pin covers every reachable object. Lets
    /// structures compile out HP-only code on EBR instantiations. It is
    /// also the property A8 measures: only a backend whose readers
    /// protect individual pointers lets a stalled (forever-pinned) reader
    /// leave unrelated garbage reclaimable.
    const NEEDS_PROTECT: bool;

    /// Number of protection slots each guard owns (0 for EBR backends).
    const PROTECT_SLOTS: usize;

    /// Register the calling task with its locale's instance.
    ///
    /// A progress thread is a task that runs handlers, one at a time, so a
    /// handler running on one (an `on`/`on_combining` body, a bulk AM) gets
    /// the thread's **standing** registration: one token slot per progress
    /// thread per locale instance (both kinds of backend register in a
    /// token registry), taken on the thread's first registration and kept
    /// until the backend drops. Registering it touches no shared list, and
    /// the guard's drop only unpins it and clears its hazards, also when the
    /// handler unwound; its deletions stay in its bag until the next advance
    /// or scan. A registration nested inside a handler that already holds the
    /// standing one, or any registration on that thread while a guard that
    /// left its handler (returned to the caller) still holds it, gets an
    /// ordinary registration instead.
    fn register(&self) -> Self::Guard<'_>;

    /// Attempt an advance (EBR) or a full scan (HP). Returns `true` when
    /// the call advanced/freed something. Non-blocking; call it from a
    /// task, not from inside an `on` body: it waits for other locales.
    ///
    /// With the epoch backends, an advance first publishes the open bag of
    /// every token that is not pinned, so a deletion made before its task
    /// unpinned is freed two advances later, as in the paper. A task that
    /// is pinned whenever an advance reaches its locale holds at most
    /// [`BAG`](crate::limbo::BAG) − 1 deletions back, until an advance
    /// finds it unpinned or its bag fills.
    fn try_reclaim(&self) -> bool;

    /// Reclaim everything unconditionally, including what live unpinned
    /// tokens hold in their bags. Only call when no other task is using the
    /// backend (e.g. teardown after a `forall` has joined), and from a task.
    fn clear(&self);

    /// Attach a [`ReclaimObserver`] (e.g. the chaos `InvariantChecker`) that
    /// sees every defer, advance and reclaim (hazard pointers: retires as
    /// `on_defer` with epoch 0, scans' frees as `on_reclaim` with epochs 0,
    /// and validated protections as `on_protect`/`on_release`).
    ///
    /// # Panics
    /// If an observer is already installed.
    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>);

    /// Reclamation counters. Hazard-pointer backends map scans onto
    /// `advances` and retires onto `objects_deferred`.
    fn stats(&self) -> ReclaimSnapshot;

    /// The runtime this backend was created under (used by structure
    /// `Drop` impls that may run outside a context).
    fn runtime(&self) -> RuntimeHandle;

    /// Short lowercase backend name for benchmark rows ("ebr",
    /// "local-ebr", "hp").
    fn backend_name(&self) -> &'static str;
}
