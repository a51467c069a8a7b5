//! Owned & borrowed atomics — the paper's second future-work item.
//!
//! §II-A restricts `AtomicObject` to `unmanaged` instances: Chapel's
//! `owned` type is "statically managed and cannot be tracked without
//! significant rework", and `borrowed` needs compiler cooperation. The
//! paper plans both as future work. In Rust, the epoch machinery makes
//! both expressible *safely*:
//!
//! * [`OwnedAtomic<T>`] is an atomic cell that **owns** its referent:
//!   `store`/`swap` retire the previous value through the `EpochManager`
//!   automatically, so no caller ever frees by hand (the `owned`
//!   analog);
//! * [`OwnedAtomic::load`] returns a reference whose lifetime is bound to
//!   a [`PinGuard`] — the type system proves the borrow cannot outlive
//!   the pin, which is exactly the guarantee a `borrowed` class instance
//!   would need (the `borrowed` analog). While the guard lives, the
//!   epoch cannot advance past the referent's retirement, so the
//!   reference stays valid even if a concurrent `store` replaces it.
//!
//! The writers pin through the same [`PinGuard`] as every structure
//! operation, so a panicking `T::clone` in [`OwnedAtomic::swap`] leaves the
//! token unpinned.

use pgas_atomics::AtomicObject;
use pgas_sim::{alloc_local, ctx, GlobalPtr};

use crate::manager::Token;
use crate::reclaim::{PinGuard, ReclaimGuard};

/// What actually lives on the heap: the value, plus a flag recording
/// whether ownership was moved out (in which case the deferred drop must
/// not run `T`'s destructor).
struct ValueCell<T> {
    value: std::mem::ManuallyDrop<T>,
    moved_out: std::sync::atomic::AtomicBool,
}

impl<T> Drop for ValueCell<T> {
    fn drop(&mut self) {
        if !self.moved_out.load(std::sync::atomic::Ordering::Acquire) {
            // SAFETY: ownership was never moved out; drop the value once.
            unsafe { std::mem::ManuallyDrop::drop(&mut self.value) };
        }
    }
}

/// An atomic, epoch-owned value: a non-blocking `RwLock<T>` replacement
/// where writers never block readers and readers never block anyone.
///
/// Values are heap-wrapped in a `ValueCell` so that [`Self::take`] can
/// move `T` out by value while concurrent pinned readers still hold the
/// (deferred, not yet freed) allocation.
pub struct OwnedAtomic<T: Send> {
    cell: AtomicObject<ValueCell<T>>,
}

// SAFETY: the cell owns one `T` at a time, and moving the cell moves it.
unsafe impl<T: Send> Send for OwnedAtomic<T> {}
// SAFETY: a shared cell hands out `&T` to concurrent readers and moves `T`
// between tasks, which `T: Send + Sync` allows.
unsafe impl<T: Send + Sync> Sync for OwnedAtomic<T> {}

impl<T: Send> OwnedAtomic<T> {
    /// An empty cell.
    pub fn empty() -> OwnedAtomic<T> {
        OwnedAtomic {
            cell: AtomicObject::null(),
        }
    }

    /// A cell holding `value`.
    pub fn new(value: T) -> OwnedAtomic<T> {
        let cell = OwnedAtomic::empty();
        cell.cell.write(Self::alloc(value));
        cell
    }

    fn alloc(value: T) -> GlobalPtr<ValueCell<T>> {
        alloc_local(
            &ctx::current_runtime(),
            ValueCell {
                value: std::mem::ManuallyDrop::new(value),
                moved_out: std::sync::atomic::AtomicBool::new(false),
            },
        )
    }

    /// Borrow the current value under a pin guard (the `borrowed`
    /// analog). `None` when empty.
    pub fn load<'g>(&self, guard: &'g PinGuard<'_, Token<'_>>) -> Option<&'g T> {
        let _ = guard;
        let ptr = self.cell.read();
        if ptr.is_null() {
            None
        } else {
            // SAFETY: pinned via `guard`; replaced cells are deferred, not
            // freed, so the allocation outlives the guard.
            Some(unsafe { &(*ptr.as_ptr()).value })
        }
    }

    /// Replace the value; the previous one is retired through the epoch
    /// manager and dropped when safe (the `owned` analog).
    pub fn store(&self, tok: &Token<'_>, value: T) {
        let fresh = Self::alloc(value);
        tok.pinned(0, || {
            let old = self.cell.exchange(fresh);
            if !old.is_null() {
                tok.defer_delete(old);
            }
        })
    }

    /// Swap values, returning the old one *by value*. Readers that loaded
    /// the old value before the swap keep a valid borrow until their
    /// guards drop (the allocation is deferred; only ownership of `T`
    /// moves).
    ///
    /// Note: a by-value return requires `T: Clone` — concurrent pinned
    /// readers may still be borrowing the original, so the value cannot
    /// be moved out from under them.
    pub fn swap(&self, tok: &Token<'_>, value: T) -> Option<T>
    where
        T: Clone,
    {
        let fresh = Self::alloc(value);
        tok.pinned(0, || {
            let old = self.cell.exchange(fresh);
            if old.is_null() {
                return None;
            }
            // Retired before the clone, so a panicking clone leaks nothing.
            tok.defer_delete(old);
            // SAFETY: pinned; a deferred allocation is live until the epoch
            // advances past the pin.
            Some(unsafe { (*(*old.as_ptr()).value).clone() })
        })
    }

    /// Empty the cell. If the cell held a value, it is retired through
    /// the manager (dropped when safe); returns whether a value was
    /// present.
    pub fn clear(&self, tok: &Token<'_>) -> bool {
        tok.pinned(0, || {
            let old = self.cell.exchange(GlobalPtr::null());
            let had = !old.is_null();
            if had {
                tok.defer_delete(old);
            }
            had
        })
    }

    /// Take the value out by move. The allocation is still deferred (for
    /// concurrent readers), but its eventual drop will skip `T`'s
    /// destructor — ownership has moved to the caller.
    pub fn take(&self, tok: &Token<'_>) -> Option<T> {
        tok.pinned(0, || {
            let old = self.cell.exchange(GlobalPtr::null());
            if old.is_null() {
                return None;
            }
            // SAFETY: we won the exchange, so we are the unique mover;
            // mark the cell before reading so the deferred drop skips T.
            let cell = unsafe { &*old.as_ptr() };
            cell.moved_out
                .store(true, std::sync::atomic::Ordering::Release);
            // SAFETY: as above; `moved_out` keeps the deferred drop from
            // dropping the value read out here a second time.
            let val = unsafe { std::ptr::read(&*cell.value) };
            tok.defer_delete(old);
            Some(val)
        })
    }
}

impl<T: Send> Drop for OwnedAtomic<T> {
    fn drop(&mut self) {
        // Quiescent teardown: free the final value directly (it was never
        // logically removed, so it is not in any limbo list). Outside a
        // runtime context there is no way to reach the heap accounting;
        // that only happens if the cell outlives the run block, which the
        // live-object accounting in tests would flag.
        if pgas_sim::try_here().is_some() {
            let ptr = self.cell.read_untracked();
            if !ptr.is_null() {
                // SAFETY: exclusive access (&mut self) during drop.
                unsafe { pgas_sim::free(&ctx::current_runtime(), ptr) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::EpochManager;
    use crate::reclaim::Reclaimer;
    use pgas_sim::{Runtime, RuntimeConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn store_load_roundtrip() {
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let cell: OwnedAtomic<String> = OwnedAtomic::empty();
            {
                let guard = tok.pin_guard(0);
                assert!(cell.load(&guard).is_none());
            }
            cell.store(&tok, "hello".to_string());
            {
                let guard = tok.pin_guard(0);
                assert_eq!(cell.load(&guard).map(|s| s.as_str()), Some("hello"));
            }
            cell.store(&tok, "world".to_string());
            {
                let guard = tok.pin_guard(0);
                assert_eq!(cell.load(&guard).map(|s| s.as_str()), Some("world"));
            }
            drop(tok);
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0, "replaced values reclaimed");
    }

    #[test]
    fn take_moves_ownership_without_double_drop() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Probe(#[allow(dead_code)] u64);
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let cell = OwnedAtomic::new(Probe(7));
            let taken = cell.take(&tok).expect("value present");
            assert!(cell.take(&tok).is_none(), "second take sees empty");
            drop(taken); // drop #1 — the only one
            drop(tok);
            em.clear(); // reclaims the shell; must NOT drop Probe again
            assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn swap_returns_previous_clone() {
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let cell = OwnedAtomic::new(1u64);
            assert_eq!(cell.swap(&tok, 2), Some(1));
            assert_eq!(cell.swap(&tok, 3), Some(2));
            let guard = tok.pin_guard(0);
            assert_eq!(cell.load(&guard).copied(), Some(3));
            drop(guard);
            drop(tok);
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn a_clone_that_panics_under_swap_leaves_the_token_unpinned() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        struct CloneBomb(u64);
        impl Clone for CloneBomb {
            fn clone(&self) -> CloneBomb {
                if ARMED.swap(false, Ordering::SeqCst) {
                    panic!("clone boom");
                }
                CloneBomb(self.0)
            }
        }
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let cell = OwnedAtomic::new(CloneBomb(1));
            ARMED.store(true, Ordering::SeqCst);
            let swapped = catch_unwind(AssertUnwindSafe(|| cell.swap(&tok, CloneBomb(2))));
            assert!(swapped.is_err(), "the clone panicked");
            assert!(!tok.is_pinned());
            assert!(tok.try_reclaim());
            assert!(
                tok.try_reclaim(),
                "a token left pinned in the first epoch would block this advance"
            );
            assert_eq!(cell.swap(&tok, CloneBomb(3)).map(|v| v.0), Some(2));
            drop(tok);
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0, "the panicked swap retired its value");
    }

    #[test]
    fn clear_retires_value() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Probe(#[allow(dead_code)] u64);
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let cell = OwnedAtomic::new(Probe(1));
            assert!(cell.clear(&tok));
            assert!(!cell.clear(&tok));
            drop(tok);
            em.clear();
            assert_eq!(DROPS.load(Ordering::SeqCst), 1, "dropped exactly once");
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn borrow_survives_concurrent_replacement() {
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let writer_tok = em.register();
            let reader_tok = em.register();
            let cell = OwnedAtomic::new(vec![1u64, 2, 3]);

            let guard = reader_tok.pin_guard(0);
            let borrowed = cell.load(&guard).expect("present");
            // A writer replaces the value and tries hard to reclaim it.
            cell.store(&writer_tok, vec![9]);
            for _ in 0..5 {
                em.try_reclaim();
            }
            // The borrow is still valid: the guard's pin blocks the epoch.
            assert_eq!(borrowed, &[1, 2, 3]);
            drop(guard);
            // Now reclamation can proceed.
            for _ in 0..3 {
                em.try_reclaim();
            }
            drop(reader_tok);
            drop(writer_tok);
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let cell = OwnedAtomic::new(0u64);
            rt.coforall_tasks(4, |t| {
                let tok = em.register();
                if t == 0 {
                    for i in 1..=200 {
                        cell.store(&tok, i);
                        if i % 20 == 0 {
                            tok.try_reclaim();
                        }
                    }
                } else {
                    let mut last = 0;
                    for _ in 0..400 {
                        let guard = tok.pin_guard(0);
                        let v = *cell.load(&guard).unwrap();
                        assert!(v >= last, "values move forward: {v} < {last}");
                        last = v;
                    }
                }
            });
            {
                let tok = em.register();
                cell.clear(&tok);
            }
            em.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
