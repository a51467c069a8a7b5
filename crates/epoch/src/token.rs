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
//! The public RAII guards ([`crate::manager::Token`],
//! [`crate::local_manager::LocalToken`]) unregister automatically on drop —
//! the paper wraps tokens in a managed class for exactly this reason, so
//! they compose with `forall ... with (var tok = manager.register())`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pgas_atomics::LocalAtomicAbaObject;
use pgas_sim::engine;
use pgas_sim::{here, GlobalPtr};

use crate::limbo::OpenBag;

/// Epoch value meaning "not in any epoch".
pub const QUIESCENT: u64 = 0;

/// One task's epoch descriptor.
pub struct TokenSlot {
    /// The epoch this task is pinned in; [`QUIESCENT`] when unpinned.
    local_epoch: AtomicU64,
    /// Link in the (append-only) allocated list.
    alloc_next: AtomicUsize,
    /// Link in the free stack (meaningful only while free).
    free_next: AtomicUsize,
    /// The holder's open limbo bag (see [`crate::limbo`]). Published by
    /// the holder when full, by anybody while the slot is unpinned.
    pub(crate) bag: OpenBag,
}

impl TokenSlot {
    fn new_boxed() -> Box<TokenSlot> {
        Box::new(TokenSlot {
            local_epoch: AtomicU64::new(QUIESCENT),
            alloc_next: AtomicUsize::new(0),
            free_next: AtomicUsize::new(0),
            bag: OpenBag::default(),
        })
    }

    /// Charged atomic read of the token's epoch (used by the reclamation
    /// scan).
    pub fn epoch(&self) -> u64 {
        engine::charge_atomic_u64(here());
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

    /// Charged atomic write of the token's epoch (pin/unpin).
    pub fn set_epoch(&self, e: u64) {
        engine::charge_atomic_u64(here());
        self.local_epoch.store(e, Ordering::SeqCst);
    }
}

/// The per-locale token registry: free stack + allocated list.
pub struct TokenRegistry {
    free_head: LocalAtomicAbaObject<TokenSlot>,
    alloc_head: AtomicUsize,
    allocated: AtomicU64,
}

impl TokenRegistry {
    /// An empty registry homed on the current locale.
    pub fn new() -> TokenRegistry {
        TokenRegistry {
            free_head: LocalAtomicAbaObject::null(),
            alloc_head: AtomicUsize::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// Register: recycle a free token or create one. Lock-free.
    ///
    /// The returned reference lives as long as the registry (slots are
    /// only freed when the registry drops).
    pub fn register(&self) -> &TokenSlot {
        // Fast path: pop the free stack (ABA-protected).
        loop {
            let snap = self.free_head.read_aba();
            let top = snap.get_object();
            if top.is_null() {
                break;
            }
            let next = unsafe { top.deref() }.free_next.load(Ordering::Acquire);
            let next_ptr = if next == 0 {
                GlobalPtr::null()
            } else {
                GlobalPtr::new(top.locale(), next)
            };
            if self.free_head.compare_and_swap_aba(snap, next_ptr) {
                let slot = unsafe { &*top.as_ptr() };
                debug_assert_eq!(slot.epoch_relaxed(), QUIESCENT);
                return slot;
            }
        }
        // Slow path: allocate and append to the allocated list (CAS push).
        let slot = Box::into_raw(TokenSlot::new_boxed());
        self.allocated.fetch_add(1, Ordering::Relaxed);
        engine::charge_atomic_u64(here());
        let mut head = self.alloc_head.load(Ordering::Acquire);
        loop {
            unsafe { &*slot }.alloc_next.store(head, Ordering::Relaxed);
            match self.alloc_head.compare_exchange_weak(
                head,
                slot as usize,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        unsafe { &*slot }
    }

    /// Unregister: mark quiescent and push onto the free stack. Lock-free.
    pub fn unregister(&self, slot: &TokenSlot) {
        slot.set_epoch(QUIESCENT);
        let raw = slot as *const TokenSlot as *mut TokenSlot;
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

    /// Walk every token ever allocated (registered or not); unregistered
    /// ones read as [`QUIESCENT`]. Safe to run concurrently with
    /// register/unregister because the list is append-only.
    pub fn iter(&self) -> TokenIter<'_> {
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

impl Default for TokenRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TokenRegistry {
    fn drop(&mut self) {
        // Free every slot through the allocated list; the free stack only
        // aliases a subset of the same slots.
        let mut cur = *self.alloc_head.get_mut();
        while cur != 0 {
            let slot = unsafe { Box::from_raw(cur as *mut TokenSlot) };
            cur = slot.alloc_next.load(Ordering::Relaxed);
        }
    }
}

/// Iterator over allocated token slots.
pub struct TokenIter<'a> {
    cur: usize,
    _registry: &'a TokenRegistry,
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = &'a TokenSlot;

    fn next(&mut self) -> Option<&'a TokenSlot> {
        if self.cur == 0 {
            return None;
        }
        // SAFETY: slots live until the registry drops, which the borrow
        // prevents.
        let slot = unsafe { &*(self.cur as *const TokenSlot) };
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
