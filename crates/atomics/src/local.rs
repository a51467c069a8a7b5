//! `LocalAtomicObject<T>` — the shared-memory-optimized variant.
//!
//! The paper's initial prototype (§II-A): locality information is ignored
//! entirely and the cell holds only the 64-bit virtual address. That makes
//! it cheaper than [`crate::AtomicObject`] — no compression or locale
//! bookkeeping — but it is only sound when every pointer stored in it is
//! local to the locale the cell lives on, which is asserted in debug
//! builds.
//!
//! An ABA-protected local variant is provided as [`LocalAtomicAbaObject`]
//! (the paper's `LocalAtomicObject` offers the same `ABA` wrapper as the
//! global one).

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_sim::engine;
use pgas_sim::{ctx, GlobalPtr, LocaleId};

use crate::aba::AtomicAbaObject;

/// An atomic object reference that stores *only the address*, valid for
/// objects co-located with the cell.
pub struct LocalAtomicObject<T> {
    cell: AtomicU64,
    home: LocaleId,
    _marker: std::marker::PhantomData<*mut T>,
}

// SAFETY: stores a plain address word; dereferences are separately unsafe.
unsafe impl<T> Send for LocalAtomicObject<T> {}
// SAFETY: every shared access to the word is an `AtomicU64` operation.
unsafe impl<T> Sync for LocalAtomicObject<T> {}

impl<T> LocalAtomicObject<T> {
    /// A null cell homed on the current locale.
    pub fn null() -> Self {
        Self::new(GlobalPtr::null())
    }

    /// A cell holding `ptr`, homed on the current locale.
    pub fn new(ptr: GlobalPtr<T>) -> Self {
        let home = pgas_sim::here();
        let cell = LocalAtomicObject {
            cell: AtomicU64::new(0),
            home,
            _marker: std::marker::PhantomData,
        };
        cell.check(ptr);
        cell.cell.store(ptr.addr() as u64, Ordering::Relaxed);
        cell
    }

    /// The locale whose objects this cell may reference.
    pub fn home(&self) -> LocaleId {
        self.home
    }

    #[inline]
    fn check(&self, ptr: GlobalPtr<T>) {
        debug_assert!(
            ptr.is_null() || ptr.locale() == self.home,
            "LocalAtomicObject ignores locality: storing a pointer to \
             locale {} in a cell homed on locale {} would lose its identity",
            ptr.locale(),
            self.home
        );
    }

    #[inline]
    fn rehydrate(&self, addr: u64) -> GlobalPtr<T> {
        if addr == 0 {
            GlobalPtr::null()
        } else {
            GlobalPtr::new(self.home, addr as usize)
        }
    }

    fn route<R: Send>(&self, op: impl FnOnce(&AtomicU64) -> R + Send) -> R {
        ctx::with_core(|core, here| engine::atomic_u64(core, here, self.home, || op(&self.cell)))
    }

    /// Atomically read the reference.
    pub fn read(&self) -> GlobalPtr<T> {
        self.rehydrate(self.route(|c| c.load(Ordering::SeqCst)))
    }

    /// Atomically replace the reference.
    pub fn write(&self, ptr: GlobalPtr<T>) {
        self.check(ptr);
        let bits = ptr.addr() as u64;
        self.route(move |c| c.store(bits, Ordering::SeqCst));
    }

    /// Atomically swap in `ptr`, returning the previous reference.
    pub fn exchange(&self, ptr: GlobalPtr<T>) -> GlobalPtr<T> {
        self.check(ptr);
        let bits = ptr.addr() as u64;
        self.rehydrate(self.route(move |c| c.swap(bits, Ordering::SeqCst)))
    }

    /// Compare-and-swap by address; `true` on success.
    pub fn compare_and_swap(&self, expected: GlobalPtr<T>, new: GlobalPtr<T>) -> bool {
        self.check(expected);
        self.check(new);
        let (e, n) = (expected.addr() as u64, new.addr() as u64);
        self.route(move |c| {
            c.compare_exchange(e, n, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        })
    }
}

impl<T> std::fmt::Debug for LocalAtomicObject<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalAtomicObject")
            .field("home", &self.home)
            .finish()
    }
}

/// The ABA-protected local variant: identical machinery to
/// [`AtomicAbaObject`], retained as a distinct name to mirror the paper's
/// API (and to document intent: all stored pointers are local).
pub type LocalAtomicAbaObject<T> = AtomicAbaObject<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, free, Runtime, RuntimeConfig};

    #[test]
    fn roundtrip_preserves_home_locale() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            rt.on(1, || {
                let p = alloc_local(&rt, 5u64);
                let cell = LocalAtomicObject::new(p);
                assert_eq!(cell.home(), 1);
                let q = cell.read();
                assert_eq!(q.locale(), 1, "locality rehydrated from home");
                assert_eq!(q, p);
                unsafe { free(&rt, p) };
            });
        });
    }

    #[test]
    fn ops_match_global_variant_semantics() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let a = alloc_local(&rt, 1u32);
            let b = alloc_local(&rt, 2u32);
            let cell = LocalAtomicObject::null();
            assert!(cell.read().is_null());
            cell.write(a);
            assert_eq!(cell.exchange(b), a);
            assert!(cell.compare_and_swap(b, a));
            assert!(!cell.compare_and_swap(b, a));
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ignores locality")]
    fn storing_remote_pointer_is_a_bug() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            let remote = pgas_sim::alloc_on(&rt, 1, 9u64);
            let cell = LocalAtomicObject::null(); // homed on locale 0
            cell.write(remote);
        });
    }

    #[test]
    fn local_aba_variant_protects_against_aba() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let a = alloc_local(&rt, 1u64);
            let b = alloc_local(&rt, 2u64);
            let cell = LocalAtomicAbaObject::new(a);
            let stale = cell.read_aba();
            let _ = cell.exchange_aba(b);
            let _ = cell.exchange(a); // pointer is A again
            assert!(!cell.compare_and_swap_aba(stale, b));
            assert_eq!(cell.read(), a);
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        });
    }
}
