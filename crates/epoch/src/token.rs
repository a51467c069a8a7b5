//! Tokens: per-task epoch descriptors, with lock-free registration.
//!
//! §II-C: before a task may touch an epoch-protected structure it must
//! *register* and obtain a token; pinning the token enters the current
//! epoch, unpinning leaves it (epoch 0 means quiescent). Two lists are
//! kept per locale:
//!
//! * a **free list** of recycled tokens, popped on `register` and pushed on
//!   `unregister` — a Treiber stack with ABA protection;
//! * an **allocated list** of every token ever created, walked by
//!   `tryReclaim` to find the minimum epoch. Tokens are never removed from
//!   it (an unregistered token simply reads as quiescent), which is what
//!   makes the scan safe to run concurrently with registration.
//!
//! The public RAII guard, [`crate::manager::Token`] (of both epoch
//! managers; [`crate::local_manager::LocalToken`] names it too),
//! unregisters automatically on drop — the paper wraps tokens in a managed
//! class for exactly this reason, so they compose with
//! `forall ... with (var tok = manager.register())`.
//!
//! A progress thread is a task too, one that runs the handlers the locale
//! is sent, so it registers once: `TokenRegistry::acquire` hands a
//! handler its thread's **standing** slot (`Standing`), taken from the
//! free stack on the thread's first registration and kept until the
//! registry drops. Dropping a standing token unpins the slot and touches
//! neither list, so a remote operation pays no registration.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use pgas_atomics::LocalAtomicAbaObject;
use pgas_sim::{ctx, engine};
use pgas_sim::{GlobalPtr, LocaleId};

use crate::limbo::OpenBag;

/// Epoch value meaning "not in any epoch".
pub const QUIESCENT: u64 = 0;

/// One task's epoch descriptor. `X` is what the registry's user keeps in a
/// slot besides the epoch word and the bag: nothing for the epoch managers,
/// the hazard words for [`crate::HazardReclaimer`].
pub struct TokenSlot<X = ()> {
    /// The epoch this task is pinned in; [`QUIESCENT`] when unpinned.
    local_epoch: AtomicU64,
    /// Link in the (append-only) allocated list.
    alloc_next: AtomicUsize,
    /// Link in the free stack (meaningful only while free).
    free_next: AtomicUsize,
    /// The holder's open limbo bag (see [`crate::limbo`]). Published by
    /// the holder when full, by anybody while the slot is unpinned.
    pub(crate) bag: OpenBag,
    pub(crate) extra: X,
}

impl<X> TokenSlot<X> {
    /// Charged atomic read of the token's epoch (used by the reclamation
    /// scan).
    pub fn epoch(&self) -> u64 {
        engine::charge_local_atomic_u64();
        self.local_epoch.load(Ordering::SeqCst)
    }

    /// Uncharged read for assertions/diagnostics.
    pub fn epoch_relaxed(&self) -> u64 {
        self.local_epoch.load(Ordering::Relaxed)
    }

    /// Uncharged sequentially consistent read, for the bag handshake (see
    /// [`crate::limbo`]).
    pub(crate) fn epoch_fenced(&self) -> u64 {
        self.local_epoch.load(Ordering::SeqCst)
    }

    /// Uncharged sequentially consistent write, the holder's half of the
    /// bag handshake when the epoch word only brackets a deletion (hazard
    /// pointers have no epochs to pin).
    pub(crate) fn set_epoch_fenced(&self, e: u64) {
        self.local_epoch.store(e, Ordering::SeqCst);
    }

    /// Charged atomic write of the token's epoch (pin/unpin).
    pub fn set_epoch(&self, e: u64) {
        engine::charge_local_atomic_u64();
        self.local_epoch.store(e, Ordering::SeqCst);
    }
}

/// One registration per progress thread of the locale a table was built
/// on: entry `t` belongs to progress thread `t` (see
/// [`ctx::progress_thread`]). It has one user at a time because the thread
/// runs its handlers one at a time, and a `held` flag sends whoever finds
/// the entry in use, a registration nested in a handler or any after a
/// guard left its handler, back to the ordinary path.
struct Standing<T> {
    /// The runtime (its core's address) and locale whose progress threads
    /// own the entries.
    runtime: usize,
    home: LocaleId,
    entries: Box<[StandingEntry<T>]>,
}

struct StandingEntry<T> {
    /// The registration, made on the thread's first use; null before. Only
    /// the owning thread touches it.
    reg: AtomicPtr<T>,
    /// Set while a guard holds the registration. Only the owning thread
    /// sets it, and only when clear; the guard's drop clears it with
    /// `Release`, which the `Acquire` load in `take` pairs with, so the next
    /// holder sees the last one's writes to the registration.
    held: AtomicBool,
}

impl<T> Standing<T> {
    /// A table for the current locale's progress threads; empty off-runtime.
    fn new() -> Standing<T> {
        let (runtime, home, threads) = ctx::try_with_core(|core, l| {
            (core as *const _ as usize, l, core.config.progress_threads)
        })
        .unwrap_or((0, 0, 0));
        Standing {
            runtime,
            home,
            entries: (0..threads)
                .map(|_| StandingEntry {
                    reg: AtomicPtr::default(),
                    held: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// The standing registration of the calling handler's progress thread,
    /// marked held, and the flag its guard's drop clears; made by `fresh` on
    /// the thread's first use. `None` off this table's progress threads and
    /// while the registration is held.
    fn take<'s>(&'s self, fresh: impl Fn() -> &'s T) -> Option<(&'s T, &'s AtomicBool)> {
        let t = ctx::progress_thread()?;
        let ours =
            ctx::with_core(|core, l| core as *const _ as usize == self.runtime && l == self.home);
        let e = self.entries.get(t)?;
        if !ours || e.held.load(Ordering::Acquire) {
            return None;
        }
        e.held.store(true, Ordering::Relaxed);
        let mut reg = e.reg.load(Ordering::Relaxed);
        if reg.is_null() {
            reg = fresh() as *const T as *mut T;
            e.reg.store(reg, Ordering::Relaxed);
        }
        // SAFETY: `reg` came from `fresh`, which lends it for `'s`.
        Some((unsafe { &*reg }, &e.held))
    }
}

/// The per-locale token registry: free stack + allocated list, and the
/// standing slots of the locale's progress threads.
pub struct TokenRegistry<X = ()> {
    free_head: LocalAtomicAbaObject<TokenSlot<X>>,
    alloc_head: AtomicUsize,
    allocated: AtomicU64,
    standing: Standing<TokenSlot<X>>,
    /// Whether the allocated-list push and the unregistering epoch store
    /// are charged as atomics: for tokens, not for hazard-pointer guards.
    charged: bool,
}

impl TokenRegistry {
    /// An empty registry homed on the current locale.
    pub fn new() -> TokenRegistry {
        TokenRegistry::with_charges(true)
    }
}

impl Default for TokenRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Default> TokenRegistry<X> {
    /// An empty registry homed on the current locale; `charged` as the
    /// field of that name.
    pub(crate) fn with_charges(charged: bool) -> TokenRegistry<X> {
        TokenRegistry {
            free_head: LocalAtomicAbaObject::null(),
            alloc_head: AtomicUsize::new(0),
            allocated: AtomicU64::new(0),
            standing: Standing::new(),
            charged,
        }
    }

    /// Register the caller: a handler on one of the home locale's progress
    /// threads gets the thread's standing slot and the flag its token's
    /// drop clears, anybody else (or a handler whose standing slot is held)
    /// a slot of its own from [`Self::register`]. Give it back with
    /// [`Self::release`].
    pub(crate) fn acquire(&self) -> (&TokenSlot<X>, Option<&AtomicBool>) {
        match self.standing.take(|| self.register()) {
            Some((slot, held)) => (slot, Some(held)),
            None => (self.register(), None),
        }
    }

    /// Give back what [`Self::acquire`] returned. A standing slot is
    /// unpinned and stays with its thread, its bag open for the next advance
    /// to publish; any other goes to the free stack. Returns `true` in the
    /// second case, when the caller should publish the slot's bag.
    pub(crate) fn release(&self, slot: &TokenSlot<X>, standing: Option<&AtomicBool>) -> bool {
        match standing {
            Some(held) => {
                if slot.epoch_relaxed() != QUIESCENT {
                    slot.set_epoch(QUIESCENT);
                }
                held.store(false, Ordering::Release);
                false
            }
            None => {
                self.unregister(slot);
                true
            }
        }
    }

    /// Register: recycle a free token or create one. Lock-free.
    ///
    /// The returned reference lives as long as the registry (slots are
    /// only freed when the registry drops).
    pub fn register(&self) -> &TokenSlot<X> {
        // Fast path: pop the free stack (ABA-protected).
        loop {
            let snap = self.free_head.read_aba();
            let top = snap.get_object();
            if top.is_null() {
                break;
            }
            // SAFETY: slots are freed only when the registry drops; a stale
            // `next` read here fails the compare-and-swap below.
            let next = unsafe { top.deref() }.free_next.load(Ordering::Acquire);
            let next_ptr = if next == 0 {
                GlobalPtr::null()
            } else {
                GlobalPtr::new(top.locale(), next)
            };
            if self.free_head.compare_and_swap_aba(snap, next_ptr) {
                // SAFETY: as above; the swap made the slot ours.
                let slot = unsafe { &*top.as_ptr() };
                debug_assert_eq!(slot.epoch_relaxed(), QUIESCENT);
                return slot;
            }
        }
        // Slow path: allocate and append to the allocated list (CAS push).
        let raw = Box::into_raw(Box::new(TokenSlot {
            local_epoch: AtomicU64::new(QUIESCENT),
            alloc_next: AtomicUsize::new(0),
            free_next: AtomicUsize::new(0),
            bag: OpenBag::default(),
            extra: X::default(),
        }));
        // SAFETY: slots are freed only when the registry drops.
        let slot = unsafe { &*raw };
        self.allocated.fetch_add(1, Ordering::Relaxed);
        self.charge();
        let mut head = self.alloc_head.load(Ordering::Acquire);
        loop {
            slot.alloc_next.store(head, Ordering::Relaxed);
            match self.alloc_head.compare_exchange_weak(
                head,
                raw as usize,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return slot,
                Err(h) => head = h,
            }
        }
    }

    /// Unregister: mark quiescent and push onto the free stack. Lock-free.
    pub fn unregister(&self, slot: &TokenSlot<X>) {
        self.charge();
        slot.set_epoch_fenced(QUIESCENT);
        let raw = slot as *const TokenSlot<X> as *mut TokenSlot<X>;
        let ptr = GlobalPtr::from_raw_parts(pgas_sim::here(), raw);
        loop {
            let snap = self.free_head.read_aba();
            let top = snap.get_object();
            slot.free_next.store(
                if top.is_null() { 0 } else { top.addr() },
                Ordering::Release,
            );
            if self.free_head.compare_and_swap_aba(snap, ptr) {
                return;
            }
        }
    }
}

impl<X> TokenRegistry<X> {
    fn charge(&self) {
        if self.charged {
            engine::charge_local_atomic_u64();
        }
    }

    /// Walk every token ever allocated (registered or not); unregistered
    /// ones read as [`QUIESCENT`]. Safe to run concurrently with
    /// register/unregister because the list is append-only.
    pub fn iter(&self) -> TokenIter<'_, X> {
        TokenIter {
            cur: self.alloc_head.load(Ordering::Acquire),
            _registry: self,
        }
    }

    /// Number of token slots ever created on this locale.
    pub fn allocated_count(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }
}

impl<X> Drop for TokenRegistry<X> {
    fn drop(&mut self) {
        // Free every slot through the allocated list; the free stack only
        // aliases a subset of the same slots.
        let mut cur = *self.alloc_head.get_mut();
        while cur != 0 {
            // SAFETY: every slot on the list came from `Box::into_raw` in
            // `register` and is on it once; `&mut self` means no holder is
            // left.
            let slot = unsafe { Box::from_raw(cur as *mut TokenSlot<X>) };
            cur = slot.alloc_next.load(Ordering::Relaxed);
        }
    }
}

/// Iterator over allocated token slots.
pub struct TokenIter<'a, X = ()> {
    cur: usize,
    _registry: &'a TokenRegistry<X>,
}

impl<'a, X> Iterator for TokenIter<'a, X> {
    type Item = &'a TokenSlot<X>;

    fn next(&mut self) -> Option<&'a TokenSlot<X>> {
        if self.cur == 0 {
            return None;
        }
        // SAFETY: slots live until the registry drops, which the borrow
        // prevents.
        let slot = unsafe { &*(self.cur as *const TokenSlot<X>) };
        self.cur = slot.alloc_next.load(Ordering::Acquire);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};

    #[test]
    fn register_creates_then_recycles() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let reg = TokenRegistry::new();
            let t1 = reg.register() as *const TokenSlot;
            assert_eq!(reg.allocated_count(), 1);
            reg.unregister(unsafe { &*t1 });
            let t2 = reg.register() as *const TokenSlot;
            assert_eq!(t1, t2, "free token recycled");
            assert_eq!(reg.allocated_count(), 1);
            reg.unregister(unsafe { &*t2 });
        });
    }

    #[test]
    fn distinct_tokens_for_concurrent_holders() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let reg = TokenRegistry::new();
            let a = reg.register() as *const TokenSlot;
            let b = reg.register() as *const TokenSlot;
            assert_ne!(a, b);
            assert_eq!(reg.allocated_count(), 2);
            reg.unregister(unsafe { &*a });
            reg.unregister(unsafe { &*b });
        });
    }

    #[test]
    fn iter_sees_all_slots_registered_or_not() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let reg = TokenRegistry::new();
            let a = reg.register();
            let _b = reg.register();
            a.set_epoch(2);
            reg.unregister(a); // back to quiescent, still iterated
            let epochs: Vec<u64> = reg.iter().map(|s| s.epoch()).collect();
            assert_eq!(epochs.len(), 2);
            assert!(epochs.contains(&QUIESCENT));
        });
    }

    #[test]
    fn pin_unpin_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let reg = TokenRegistry::new();
            let t = reg.register();
            assert_eq!(t.epoch(), QUIESCENT);
            t.set_epoch(3);
            assert_eq!(t.epoch(), 3);
            t.set_epoch(QUIESCENT);
            reg.unregister(t);
        });
    }

    #[test]
    fn concurrent_register_unregister_is_safe_and_bounded() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let reg = TokenRegistry::new();
            rt.coforall_tasks(8, |_| {
                for _ in 0..100 {
                    let t = reg.register();
                    t.set_epoch(1);
                    t.set_epoch(QUIESCENT);
                    reg.unregister(t);
                }
            });
            // With perfect recycling at most 8 slots exist; allow the race
            // where several tasks miss the free stack simultaneously.
            assert!(
                reg.allocated_count() <= 16,
                "slots: {}",
                reg.allocated_count()
            );
            assert_eq!(reg.iter().count() as u64, reg.allocated_count());
            for s in reg.iter() {
                assert_eq!(s.epoch_relaxed(), QUIESCENT);
            }
        });
    }
}
