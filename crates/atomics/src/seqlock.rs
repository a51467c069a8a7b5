//! Seqlock plumbing shared by the 128-bit atomic cells.
//!
//! The "Big Atomics" observation (PAPERS.md, arXiv:2501.07503): wide atomic
//! *loads* do not need the DCAS round trip — pairing the cell with a
//! sequence counter lets readers validate an optimistic two-load window
//! instead, while writers keep the DCAS as the linearization point and
//! bump the sequence to odd before / even after their update. Readers that
//! observe an odd or moved sequence retry; after a bounded number of torn
//! windows they escalate to the existing DCAS slow path.
//!
//! The cost model and counters live in the comm layer
//! ([`pgas_sim::engine::vread_u128`]); this module only
//! holds the writer-side sequence discipline and the reader-side entry
//! point shared by [`crate::AtomicObject`] (wide repr) and
//! [`crate::AtomicAbaObject`].

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_sim::engine;
use pgas_sim::runtime::RuntimeCore;
use pgas_sim::LocaleId;
use portable_atomic::AtomicU128;

/// Run a mutating 128-bit cell operation under the writer half of the
/// seqlock protocol: sequence to odd (write in flight) before `f`, back to
/// even after. Must be called on the owner side, around the DCAS/store
/// that `f` performs — the DCAS stays the linearization point; the
/// sequence only tells optimistic readers their window was torn.
///
/// The sequence stores are uncounted and charge no virtual time (they
/// share the writer's cache line and hide entirely under the DCAS cost),
/// so with the fast path disabled every counter and vtime charge is
/// bit-identical to the pre-seqlock build.
#[inline]
pub(crate) fn write_locked<R>(seq: &AtomicU64, f: impl FnOnce() -> R) -> R {
    seq.fetch_add(1, Ordering::SeqCst);
    let r = f();
    seq.fetch_add(1, Ordering::SeqCst);
    r
}

/// One versioned fast read of `cell`: `None` when the fast path is
/// disabled or the retry budget ran dry (the caller must then take the
/// DCAS slow path). See [`pgas_sim::engine::vread_u128`]
/// for the attempt protocol, cost model, and counters.
#[inline]
pub(crate) fn fast_read(
    core: &RuntimeCore,
    owner: LocaleId,
    seq: &AtomicU64,
    cell: &AtomicU128,
) -> Option<u128> {
    if !core.config.vread_fastpath {
        return None;
    }
    engine::vread_u128(core, owner, seq, &|| cell.load(Ordering::SeqCst))
}
