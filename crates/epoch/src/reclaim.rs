//! The pluggable reclamation seam: [`Reclaimer`] and [`ReclaimGuard`].
//!
//! The paper (§I) picks epoch-based reclamation over Michael's hazard
//! pointers for amortization, but treats the choice as policy: the
//! structure layer only needs *register → guard*, *pin/unpin*,
//! *defer_delete*, and an advance/flush hook. This module extracts that
//! contract so every structure in `pgas-structures` can be generic over
//! the backend, with [`crate::EpochManager`] as the default and the
//! distributed hazard-pointer backend ([`crate::HazardReclaimer`]) as the
//! stall-tolerant alternative.
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

use crate::local_manager::LocalEpochManager;
use crate::manager::{EpochManager, Token};
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
    fn pin(&self);

    /// Leave the critical section.
    fn unpin(&self);

    /// True while inside a critical section. Hazard-pointer guards are
    /// always "pinned" in this sense.
    fn is_pinned(&self) -> bool;

    /// Hand a logically-removed object to the backend for eventual
    /// (safe) deletion.
    fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>);

    /// Drive the backend's advance/scan machinery from this task.
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
}

/// A reclamation backend: epoch-based (default), locale-local epochs, or
/// distributed hazard pointers. Structures hold one `R: Reclaimer` and
/// thread `R::Guard` through their operations.
pub trait Reclaimer: Send + Sync {
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

    /// Construct a backend homed on the current locale. Must run inside
    /// a runtime context (`Runtime::run`).
    fn new_in_runtime() -> Self
    where
        Self: Sized;

    /// Register the calling task.
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
    /// the call advanced/freed something.
    ///
    /// With the epoch backends, an advance first publishes the open bag of
    /// every token that is not pinned, so a deletion made before its task
    /// unpinned is freed two advances later, as in the paper. A task that
    /// is pinned whenever an advance reaches its locale holds at most
    /// [`BAG`](crate::limbo::BAG) − 1 deletions back, until an advance
    /// finds it unpinned or its bag fills.
    fn try_reclaim(&self) -> bool;

    /// Reclaim everything unconditionally; callers guarantee quiescence.
    fn clear(&self);

    /// Attach a [`ReclaimObserver`] (e.g. the chaos `InvariantChecker`).
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

// ---------------------------------------------------------------------
// EBR: the token of both epoch managers, and the distributed EpochManager
// (the default backend everywhere).
// ---------------------------------------------------------------------

impl ReclaimGuard for Token<'_> {
    #[inline]
    fn pin(&self) {
        Token::pin(self)
    }

    #[inline]
    fn unpin(&self) {
        Token::unpin(self)
    }

    #[inline]
    fn is_pinned(&self) -> bool {
        Token::is_pinned(self)
    }

    #[inline]
    fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>) {
        Token::defer_delete(self, ptr)
    }

    #[inline]
    fn try_reclaim(&self) -> bool {
        Token::try_reclaim(self)
    }
}

impl Reclaimer for EpochManager {
    type Guard<'a> = Token<'a>;

    const NEEDS_PROTECT: bool = false;
    const PROTECT_SLOTS: usize = 0;

    fn new_in_runtime() -> Self {
        EpochManager::new()
    }

    fn register(&self) -> Token<'_> {
        EpochManager::register(self)
    }

    fn try_reclaim(&self) -> bool {
        EpochManager::try_reclaim(self)
    }

    fn clear(&self) {
        EpochManager::clear(self)
    }

    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        EpochManager::set_observer(self, obs)
    }

    fn stats(&self) -> ReclaimSnapshot {
        EpochManager::stats(self)
    }

    fn runtime(&self) -> RuntimeHandle {
        EpochManager::runtime(self)
    }

    fn backend_name(&self) -> &'static str {
        "ebr"
    }
}

// ---------------------------------------------------------------------
// EBR, locale-local: LocalEpochManager (single-locale structures only).
// ---------------------------------------------------------------------

impl Reclaimer for LocalEpochManager {
    type Guard<'a> = Token<'a>;

    const NEEDS_PROTECT: bool = false;
    const PROTECT_SLOTS: usize = 0;

    fn new_in_runtime() -> Self {
        LocalEpochManager::new()
    }

    fn register(&self) -> Token<'_> {
        LocalEpochManager::register(self)
    }

    fn try_reclaim(&self) -> bool {
        LocalEpochManager::try_reclaim(self)
    }

    fn clear(&self) {
        LocalEpochManager::clear(self)
    }

    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        LocalEpochManager::set_observer(self, obs)
    }

    fn stats(&self) -> ReclaimSnapshot {
        LocalEpochManager::stats(self)
    }

    fn runtime(&self) -> RuntimeHandle {
        LocalEpochManager::runtime(self)
    }

    fn backend_name(&self) -> &'static str {
        "local-ebr"
    }
}
