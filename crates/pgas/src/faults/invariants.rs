//! Safety- and progress-invariant checking for chaos workloads.
//!
//! The [`InvariantChecker`] is an *observer*: chaos harnesses install it on
//! the epoch manager (via the [`ReclaimObserver`] trait) and feed it
//! ordering observations from the workload, then call
//! [`InvariantChecker::check`] at the end. It verifies:
//!
//! - **No block is freed too early or twice.** Three checks run on the
//!   backend's reclaim events:
//!   - *early free*: outside of teardown, the only limbo list that may be
//!     freed after advancing to epoch `c` is the one two advances old —
//!     `(c % 3) + 1` in the 3-cycle — so an early free of a younger list
//!     is caught no matter how the manager reached it;
//!   - *double free*: every reclaimed block is tagged, and a second
//!     reclaim of a tagged address is a violation; a later defer of it
//!     un-tags it (the allocator legitimately recycled it);
//!   - *hazard violation*: a hazard-pointer scan outside of teardown must
//!     not free a block while a validated protection of it is published.
//! - **ABA counters strictly monotone.** Observations of an
//!   `AtomicAbaObject`-style stamped counter recorded per observer stream
//!   must never decrease; a decrease means a stamp was reused or torn.
//! - **Per-destination FIFO under retry.** Sequence-stamped operations
//!   recorded per `(source, destination)` stream must arrive strictly
//!   in-order; a retry scheme that re-sent an already-delivered message
//!   (rather than only provably-lost ones) would break this.
//!
//! Global progress — a stalled pinned task must not stop other locales'
//! operations — is a whole-workload property; the chaos binary asserts it
//! directly from per-locale throughput counts and reports it through the
//! same verdict table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Reclamation events, reported by a reclamation backend to an installed
/// observer. Addresses identify the reclaimed allocation (its heap
/// address); epochs are the epoch managers' `{1, 2, 3}` values.
/// Hazard-pointer backends report epoch `0` on every event (they have no
/// epochs), which switches the checker from age rules to protection
/// rules.
pub trait ReclaimObserver: Send + Sync {
    /// An object was pushed onto the limbo list of `epoch` (or retired,
    /// for hazard-pointer backends, with `epoch == 0`).
    fn on_defer(&self, addr: usize, epoch: u64);
    /// The global epoch advanced to `new_epoch`.
    fn on_advance(&self, new_epoch: u64);
    /// The limbo list of `list_epoch` is being reclaimed while the global
    /// epoch is `current_epoch`; `during_clear` marks quiescent teardown
    /// (`clear()`), where age rules do not apply. Hazard-pointer backends
    /// pass `list_epoch == current_epoch == 0`.
    fn on_reclaim(&self, addr: usize, list_epoch: u64, current_epoch: u64, during_clear: bool);
    /// A hazard pointer to `addr` was published *and validated* (the
    /// protected object was provably not yet retired). Only
    /// hazard-pointer backends emit this; the default is a no-op.
    fn on_protect(&self, addr: usize) {
        let _ = addr;
    }
    /// A previously-validated protection of `addr` was dropped (slot
    /// released, overwritten, or guard dropped). Default is a no-op.
    fn on_release(&self, addr: usize) {
        let _ = addr;
    }
}

/// Upper bound on retained violation messages; further violations are
/// counted but not stored.
const MAX_STORED_VIOLATIONS: usize = 64;

#[derive(Default)]
struct CheckerState {
    /// Reclaimed (freed) addresses not since re-deferred: the double-free
    /// tag set.
    freed: HashMap<usize, u64>,
    /// Validated hazard protections currently outstanding per address.
    protected: HashMap<usize, u64>,
    /// Last observed sequence number per FIFO stream.
    fifo_last: HashMap<u64, u64>,
    /// Last observed ABA stamp per observer stream.
    aba_last: HashMap<u64, u64>,
    violations: Vec<String>,
}

/// Records observations from a chaos workload and validates the safety
/// invariants described in the module docs. Cheap to share: wrap in an
/// [`Arc`] and clone freely.
#[derive(Default)]
pub struct InvariantChecker {
    state: Mutex<CheckerState>,
    advances: AtomicU64,
    defers: AtomicU64,
    reclaims: AtomicU64,
    protects: AtomicU64,
    total_violations: AtomicU64,
}

impl InvariantChecker {
    /// A fresh checker with no observations.
    pub fn new() -> Arc<Self> {
        Arc::new(InvariantChecker::default())
    }

    fn violate(&self, msg: String) {
        self.total_violations.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if st.violations.len() < MAX_STORED_VIOLATIONS {
            st.violations.push(msg);
        }
    }

    /// The limbo list that is legal to reclaim right after advancing to
    /// `current`: the one two advances old, which in the 3-cycle is also
    /// the next epoch value.
    fn expected_reclaim_epoch(current: u64) -> u64 {
        (current % 3) + 1
    }

    /// Record a sequence-stamped arrival on FIFO stream `stream`;
    /// violations on any non-increasing sequence.
    pub fn record_fifo(&self, stream: u64, seq: u64) {
        let mut st = self.state.lock();
        if let Some(&last) = st.fifo_last.get(&stream) {
            if seq <= last {
                drop(st);
                self.violate(format!(
                    "FIFO violation on stream {stream}: saw seq {seq} after {last}"
                ));
                return;
            }
        }
        st.fifo_last.insert(stream, seq);
    }

    /// Record an observed ABA stamp on observer stream `stream`;
    /// violations if a stamp ever decreases (stamps are monotone by
    /// construction, so a decrease means reuse or tearing).
    pub fn record_aba(&self, stream: u64, stamp: u64) {
        let mut st = self.state.lock();
        if let Some(&last) = st.aba_last.get(&stream) {
            if stamp < last {
                drop(st);
                self.violate(format!(
                    "ABA stamp regressed on stream {stream}: {stamp} < {last}"
                ));
                return;
            }
        }
        st.aba_last.insert(stream, stamp);
    }

    /// Number of epoch advances observed.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::Relaxed)
    }

    /// Number of deferred deletions observed.
    pub fn defers(&self) -> u64 {
        self.defers.load(Ordering::Relaxed)
    }

    /// Number of reclaimed objects observed.
    pub fn reclaims(&self) -> u64 {
        self.reclaims.load(Ordering::Relaxed)
    }

    /// Number of validated hazard protections observed.
    pub fn protects(&self) -> u64 {
        self.protects.load(Ordering::Relaxed)
    }

    /// Total violations recorded (including any beyond the storage cap).
    fn violation_count(&self) -> u64 {
        self.total_violations.load(Ordering::Relaxed)
    }

    /// The stored violation messages (up to the cap).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// `Ok` when no invariant was violated, otherwise the stored messages.
    pub fn check(&self) -> Result<(), Vec<String>> {
        if self.violation_count() == 0 {
            Ok(())
        } else {
            Err(self.violations())
        }
    }
}

impl ReclaimObserver for InvariantChecker {
    fn on_defer(&self, addr: usize, _epoch: u64) {
        self.defers.fetch_add(1, Ordering::Relaxed);
        // A defer of a previously-freed address means the allocator
        // recycled it for a new object: un-tag it.
        self.state.lock().freed.remove(&addr);
    }

    fn on_advance(&self, _new_epoch: u64) {
        self.advances.fetch_add(1, Ordering::Relaxed);
    }

    fn on_reclaim(&self, addr: usize, list_epoch: u64, current_epoch: u64, during_clear: bool) {
        self.reclaims.fetch_add(1, Ordering::Relaxed);
        if list_epoch == 0 {
            // Hazard-pointer backend: no epochs to age-check. The safety
            // rule is instead that a scan must never free an address with
            // a validated protection outstanding (outside teardown).
            if !during_clear {
                let protected = self.state.lock().protected.get(&addr).copied().unwrap_or(0);
                if protected > 0 {
                    self.violate(format!(
                        "hazard violation: block {addr:#x} freed while \
                         {protected} validated protection(s) were published"
                    ));
                }
            }
        } else if !during_clear && list_epoch != Self::expected_reclaim_epoch(current_epoch) {
            self.violate(format!(
                "early reclamation: freed limbo list of epoch {list_epoch} \
                 while the global epoch is {current_epoch} (only epoch {} \
                 is two advances old)",
                Self::expected_reclaim_epoch(current_epoch)
            ));
        }
        let mut st = self.state.lock();
        if st.freed.insert(addr, current_epoch).is_some() {
            drop(st);
            self.violate(format!(
                "double free: block {addr:#x} reclaimed twice without an \
                 intervening defer"
            ));
        }
    }

    fn on_protect(&self, addr: usize) {
        self.protects.fetch_add(1, Ordering::Relaxed);
        *self.state.lock().protected.entry(addr).or_insert(0) += 1;
    }

    fn on_release(&self, addr: usize) {
        let mut st = self.state.lock();
        match st.protected.get_mut(&addr) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                st.protected.remove(&addr);
            }
            None => {
                drop(st);
                self.violate(format!(
                    "unbalanced release: block {addr:#x} released without a \
                     validated protection"
                ));
            }
        }
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantChecker")
            .field("advances", &self.advances())
            .field("defers", &self.defers())
            .field("reclaims", &self.reclaims())
            .field("violations", &self.violation_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes() {
        let c = InvariantChecker::new();
        c.on_defer(0x1000, 1);
        c.on_advance(2);
        c.on_advance(3);
        // After advancing to 3, the two-advances-old list is epoch 1.
        c.on_reclaim(0x1000, 1, 3, false);
        assert!(c.check().is_ok());
        assert_eq!(c.advances(), 2);
        assert_eq!(c.reclaims(), 1);
    }

    #[test]
    fn early_free_is_caught() {
        let c = InvariantChecker::new();
        c.on_defer(0x2000, 2);
        // Reclaiming the *current* epoch's list (age 0) is the deliberate
        // bug the chaos suite plants; the checker must flag it.
        c.on_reclaim(0x2000, 2, 2, false);
        let errs = c.check().unwrap_err();
        assert!(errs[0].contains("early reclamation"), "{errs:?}");
    }

    #[test]
    fn clear_is_exempt_from_age_rules() {
        let c = InvariantChecker::new();
        c.on_defer(0x3000, 1);
        c.on_reclaim(0x3000, 1, 1, true);
        assert!(c.check().is_ok());
    }

    #[test]
    fn recycle_untags_a_freed_block() {
        let c = InvariantChecker::new();
        c.on_defer(0x4000, 1);
        c.on_advance(2);
        c.on_advance(3);
        c.on_reclaim(0x4000, 1, 3, false);
        // The allocator hands the address out again; a new defer un-tags,
        // so freeing it once more is not a double free.
        c.on_defer(0x4000, 3);
        c.on_advance(1);
        c.on_advance(2);
        c.on_reclaim(0x4000, 3, 2, false);
        assert!(c.check().is_ok(), "{:?}", c.violations());
        assert_eq!(c.reclaims(), 2);
    }

    #[test]
    fn double_free_is_caught() {
        let c = InvariantChecker::new();
        c.on_defer(0x5000, 1);
        c.on_advance(2);
        c.on_advance(3);
        c.on_reclaim(0x5000, 1, 3, false);
        c.on_reclaim(0x5000, 1, 3, false);
        let errs = c.check().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("double free")), "{errs:?}");
    }

    #[test]
    fn fifo_and_aba_streams_are_independent_and_ordered() {
        let c = InvariantChecker::new();
        c.record_fifo(1, 10);
        c.record_fifo(2, 5);
        c.record_fifo(1, 11);
        c.record_aba(7, 100);
        c.record_aba(7, 100); // equal stamps are fine for reads
        assert!(c.check().is_ok());
        c.record_fifo(1, 11); // duplicate delivery
        c.record_aba(7, 99); // regressed stamp
        let errs = c.check().unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn hazard_free_of_protected_block_is_caught() {
        let c = InvariantChecker::new();
        c.on_defer(0x6000, 0); // HP retire (epoch sentinel 0)
        c.on_protect(0x6000);
        // A (buggy) scan frees the block while a validated protection is
        // outstanding — the HP analogue of early reclamation.
        c.on_reclaim(0x6000, 0, 0, false);
        let errs = c.check().unwrap_err();
        assert!(errs[0].contains("hazard violation"), "{errs:?}");
        assert_eq!(c.protects(), 1);
    }

    #[test]
    fn hazard_free_of_released_block_passes() {
        let c = InvariantChecker::new();
        c.on_protect(0x7000);
        c.on_release(0x7000);
        c.on_defer(0x7000, 0);
        c.on_reclaim(0x7000, 0, 0, false);
        assert!(c.check().is_ok());
        // Clear-time frees are exempt even with a protection outstanding.
        c.on_protect(0x7100);
        c.on_defer(0x7100, 0);
        c.on_reclaim(0x7100, 0, 0, true);
        assert!(c.check().is_ok());
    }

    #[test]
    fn unbalanced_release_is_caught() {
        let c = InvariantChecker::new();
        c.on_protect(0x8000);
        c.on_protect(0x8000);
        c.on_release(0x8000);
        c.on_release(0x8000);
        assert!(c.check().is_ok(), "nested protections balance out");
        c.on_release(0x8000);
        let errs = c.check().unwrap_err();
        assert!(errs[0].contains("unbalanced release"), "{errs:?}");
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let c = InvariantChecker::new();
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 50) {
            c.record_fifo(9, 1000 - i); // strictly decreasing after first
        }
        assert_eq!(c.violation_count(), MAX_STORED_VIOLATIONS as u64 + 49);
        assert_eq!(c.violations().len(), MAX_STORED_VIOLATIONS);
    }
}
