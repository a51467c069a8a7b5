//! `AtomicObject<T>` — atomic operations on object references, in shared
//! *and* distributed memory.
//!
//! This is the paper's first contribution (§II-A). A Chapel class
//! reference is a 128-bit wide pointer, too big for the 64-bit atomics the
//! NIC supports; pointer compression (48-bit address + 16-bit locale id)
//! shrinks it to a single word so that remote atomics can be genuine RDMA
//! operations. On systems with more than 2^16 locales the compressed form
//! is unsound, and the implementation falls back to a 128-bit
//! representation updated with double-word CAS — demoting remote
//! operations from RDMA atomics to active messages.
//!
//! Both representations are implemented and selected by the runtime's
//! [`pgas_sim::PointerMode`], so the fallback path is exercised under test
//! even though the simulator never actually hosts 2^16 locales.
//!
//! All operations use `SeqCst` ordering, matching the semantics of Chapel's
//! `atomic` variables that the original implementation is built on.

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_sim::engine;
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, GlobalPtr, LocaleId, PointerMode, WideCell, WideGlobalPtr};

/// Storage for the object word: one compressed word, or the full wide
/// pair glued into a `u128` (`high = locality`, `low = address`) in a
/// [`WideCell`], whose sequence word also backs the versioned fast read
/// (consulted only when [`pgas_sim::RuntimeConfig::vread_fastpath`] is on).
enum Repr {
    Compressed(AtomicU64),
    Wide(WideCell),
}

fn wide_to_u128<T>(p: WideGlobalPtr<T>) -> u128 {
    let (locale, addr) = p.into_words();
    ((locale as u128) << 64) | addr as u128
}

fn u128_to_wide<T>(bits: u128) -> WideGlobalPtr<T> {
    WideGlobalPtr::from_words((bits >> 64) as u64, bits as u64)
}

/// An atomic cell holding a reference to a (locale-owned, `unmanaged`)
/// object. Supports `read`, `write`, `exchange`, and `compare_exchange`
/// from any locale; see the module docs for how each routes.
///
/// The cell itself has an affinity (`owner`): the locale on which the
/// containing structure was allocated. Operations from other locales are
/// remote operations.
pub struct AtomicObject<T> {
    repr: Repr,
    owner: LocaleId,
    _marker: std::marker::PhantomData<*mut T>,
}

// SAFETY: the cell holds a pointer-sized word; every dereference of the
// pointers it yields is a separately-unsafe operation.
unsafe impl<T> Send for AtomicObject<T> {}
unsafe impl<T> Sync for AtomicObject<T> {}

impl<T> AtomicObject<T> {
    /// A null cell with affinity to the current locale, using the runtime's
    /// configured pointer mode.
    pub fn null() -> Self {
        Self::new(GlobalPtr::null())
    }

    /// A cell initialized to `ptr`, with affinity to the current locale.
    pub fn new(ptr: GlobalPtr<T>) -> Self {
        Self::new_on(pgas_sim::here(), ptr)
    }

    /// A cell initialized to `ptr` whose storage belongs to `owner`.
    pub fn new_on(owner: LocaleId, ptr: GlobalPtr<T>) -> Self {
        let mode = ctx::with_core(|core, _| core.config.pointer_mode);
        let repr = match mode {
            PointerMode::Compressed => Repr::Compressed(AtomicU64::new(ptr.into_bits())),
            PointerMode::Wide => Repr::Wide(WideCell::new(wide_to_u128(ptr.widen()))),
        };
        AtomicObject {
            repr,
            owner,
            _marker: std::marker::PhantomData,
        }
    }

    /// The locale owning this cell's storage.
    pub fn owner(&self) -> LocaleId {
        self.owner
    }

    /// Run a compressed-word operation on the owner's cell.
    fn route64<R: Send>(&self, cell: &AtomicU64, op: impl FnOnce(&AtomicU64) -> R + Send) -> R {
        ctx::with_core(|core, _| engine::atomic_u64(core, self.owner, || op(cell)))
    }

    /// Run a wide (128-bit) operation on the owner's cell.
    fn route128<R: Send>(&self, cell: &WideCell, op: impl FnOnce(&WideCell) -> R + Send) -> R {
        ctx::with_core(|core, _| engine::atomic_u128(core, self.owner, || op(cell)))
    }

    /// Atomically read the current reference. A pure read — idempotent
    /// under fault injection, so a lost read request may be retried (see
    /// [`pgas_sim::faults`]).
    ///
    /// In wide mode with [`pgas_sim::RuntimeConfig::vread_fastpath`]
    /// enabled, the read is an optimistic versioned (seqlock) read on the
    /// one-sided GET cost model, falling back to the DCAS path after the
    /// retry budget (see [`pgas_sim::engine::vread_u128`]).
    pub fn read(&self) -> GlobalPtr<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
        pgas_sim::faults::with_class(pgas_sim::faults::RetryClass::Idempotent, || {
            match &self.repr {
                Repr::Compressed(c) => {
                    GlobalPtr::from_bits(self.route64(c, |c| c.load(Ordering::SeqCst)))
                }
                Repr::Wide(cell) => {
                    let fast = ctx::with_core(|core, _| engine::vread_u128(core, self.owner, cell));
                    let bits = fast.unwrap_or_else(|| self.route128(cell, WideCell::load));
                    wide_ptr_to_global(u128_to_wide::<T>(bits))
                }
            }
        })
    }

    /// Atomically replace the reference.
    pub fn write(&self, ptr: GlobalPtr<T>) {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::WRITE, 0);
        match &self.repr {
            Repr::Compressed(c) => {
                let bits = ptr.into_bits();
                self.route64(c, move |c| c.store(bits, Ordering::SeqCst))
            }
            Repr::Wide(cell) => {
                let bits = wide_to_u128(ptr.widen());
                self.route128(cell, move |c| {
                    c.update(|_| bits);
                })
            }
        }
    }

    /// Atomically swap in `ptr`, returning the previous reference.
    pub fn exchange(&self, ptr: GlobalPtr<T>) -> GlobalPtr<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::EXCHANGE, 0);
        match &self.repr {
            Repr::Compressed(c) => {
                let bits = ptr.into_bits();
                GlobalPtr::from_bits(self.route64(c, move |c| c.swap(bits, Ordering::SeqCst)))
            }
            Repr::Wide(cell) => {
                let bits = wide_to_u128(ptr.widen());
                let old = self.route128(cell, move |c| c.update(|_| bits));
                wide_ptr_to_global(u128_to_wide::<T>(old))
            }
        }
    }

    /// Compare-and-swap: install `new` iff the cell currently holds
    /// `expected`. On failure returns the actual value as `Err`.
    pub fn compare_exchange(
        &self,
        expected: GlobalPtr<T>,
        new: GlobalPtr<T>,
    ) -> Result<GlobalPtr<T>, GlobalPtr<T>> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::CAS, 0);
        match &self.repr {
            Repr::Compressed(c) => {
                let (e, n) = (expected.into_bits(), new.into_bits());
                self.route64(c, move |c| {
                    c.compare_exchange(e, n, Ordering::SeqCst, Ordering::SeqCst)
                })
                .map(GlobalPtr::from_bits)
                .map_err(GlobalPtr::from_bits)
            }
            Repr::Wide(cell) => {
                let (e, n) = (wide_to_u128(expected.widen()), wide_to_u128(new.widen()));
                self.route128(cell, move |c| c.compare_exchange(e, n))
                    .map(|b| wide_ptr_to_global(u128_to_wide::<T>(b)))
                    .map_err(|b| wide_ptr_to_global(u128_to_wide::<T>(b)))
            }
        }
    }

    /// Convenience: boolean compare-and-swap, Chapel style.
    pub fn compare_and_swap(&self, expected: GlobalPtr<T>, new: GlobalPtr<T>) -> bool {
        self.compare_exchange(expected, new).is_ok()
    }

    /// Read without runtime context, communication charging, or
    /// statistics. For teardown paths (`Drop`) that may run outside any
    /// locale context; callers must ensure no concurrent mutation.
    pub fn read_untracked(&self) -> GlobalPtr<T> {
        match &self.repr {
            Repr::Compressed(c) => GlobalPtr::from_bits(c.load(Ordering::SeqCst)),
            Repr::Wide(cell) => wide_ptr_to_global(u128_to_wide::<T>(cell.load())),
        }
    }
}

/// Convert a wide pointer back to the `GlobalPtr` the public API speaks.
/// In wide mode the locale id still fits 16 bits inside the simulator, so
/// this cannot fail here; a real > 2^16-locale system would surface
/// `WideGlobalPtr` directly instead.
fn wide_ptr_to_global<T>(w: WideGlobalPtr<T>) -> GlobalPtr<T> {
    w.compress()
}

impl<T> std::fmt::Debug for AtomicObject<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.repr {
            Repr::Compressed(_) => "compressed",
            Repr::Wide(_) => "wide",
        };
        f.debug_struct("AtomicObject")
            .field("owner", &self.owner)
            .field("mode", &mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, alloc_on, free, Runtime, RuntimeConfig};

    fn with_both_modes(n: usize, f: impl Fn(&Runtime)) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(n));
        f(&rt);
        let rt = Runtime::new(RuntimeConfig::zero_latency(n).with_wide_pointers());
        f(&rt);
    }

    #[test]
    fn read_write_exchange_roundtrip_both_modes() {
        with_both_modes(2, |rt| {
            rt.run(|| {
                let a = alloc_local(rt, 1u64);
                let b = alloc_on(rt, 1, 2u64);
                let cell = AtomicObject::new(a);
                assert_eq!(cell.read(), a);
                cell.write(b);
                assert_eq!(cell.read(), b);
                assert_eq!(cell.exchange(a), b);
                assert_eq!(cell.read(), a);
                unsafe {
                    free(rt, a);
                    free(rt, b);
                }
            });
        });
    }

    #[test]
    fn compare_exchange_success_and_failure_both_modes() {
        with_both_modes(2, |rt| {
            rt.run(|| {
                let a = alloc_local(rt, 1u32);
                let b = alloc_on(rt, 1, 2u32);
                let cell = AtomicObject::new(a);
                assert_eq!(cell.compare_exchange(a, b), Ok(a));
                assert_eq!(cell.compare_exchange(a, b), Err(b));
                assert!(cell.compare_and_swap(b, a));
                unsafe {
                    free(rt, a);
                    free(rt, b);
                }
            });
        });
    }

    #[test]
    fn null_cell_reads_null() {
        let rt = Runtime::cluster(1);
        rt.run(|| {
            let cell = AtomicObject::<u64>::null();
            assert!(cell.read().is_null());
        });
    }

    #[test]
    fn pointer_identity_preserves_locale_across_cell() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let p = alloc_on(&rt, 3, 99u64);
            let cell = AtomicObject::null();
            cell.write(p);
            let q = cell.read();
            assert_eq!(q.locale(), 3);
            assert_eq!(unsafe { *q.deref() }, 99);
            unsafe { free(&rt, p) };
        });
    }

    #[test]
    fn compressed_remote_ops_are_rdma_with_network_atomics() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            cell.write(GlobalPtr::null());
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 2, "compressed remote ops ride the NIC");
            assert_eq!(s.am_sent, 0);
        });
    }

    #[test]
    fn compressed_remote_ops_fall_back_to_am_without_network_atomics() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 0);
            assert_eq!(s.am_sent, 1);
        });
    }

    #[test]
    fn wide_mode_remote_ops_always_use_am() {
        // Even WITH network atomics: RDMA atomics cannot cover 128 bits,
        // which is the paper's stated cost of the wide fallback.
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_wide_pointers());
        rt.run(|| {
            let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            cell.write(GlobalPtr::null());
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 0, "wide ops never ride the NIC");
            assert_eq!(s.am_sent, 2);
            assert_eq!(s.cpu_dcas, 2, "the remote handler performs a DCAS");
        });
    }

    #[test]
    fn wide_mode_local_ops_are_dcas() {
        let rt = Runtime::new(RuntimeConfig::cluster(1).with_wide_pointers());
        rt.run(|| {
            let cell = AtomicObject::<u64>::null();
            rt.reset_metrics();
            let _ = cell.read();
            let s = rt.total_comm();
            assert_eq!(s.cpu_dcas, 1);
            assert_eq!(s.network_events(), 0);
        });
    }

    #[test]
    fn wide_mode_new_on_is_accepted() {
        // Twin of aba.rs's `wide_mode_rejects_aba_cells_via_new_on`: the
        // plain AtomicObject is exactly what wide mode exists for, so the
        // same constructor must succeed here and behave.
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_wide_pointers());
        rt.run(|| {
            let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
            assert_eq!(cell.owner(), 1);
            assert!(cell.read().is_null());
        });
    }

    #[test]
    fn wide_mode_fast_read_skips_the_dcas_handler() {
        let rt = Runtime::new(
            RuntimeConfig::cluster(2)
                .with_wide_pointers()
                .with_vread_fastpath(true),
        );
        rt.run(|| {
            let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            let s = rt.total_comm();
            assert_eq!(s.vread_fast, 1);
            assert_eq!(s.am_sent, 0, "read migrated off the handler path");
            assert_eq!(s.cpu_dcas, 0);
            assert_eq!(s.gets, 1);
            // Writes keep the DCAS as the linearization point.
            cell.write(GlobalPtr::null());
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1);
            assert_eq!(s.cpu_dcas, 1);
        });
    }

    #[test]
    fn wide_mode_fast_read_matches_dcas_read_values() {
        let mk = |fast: bool| {
            RuntimeConfig::zero_latency(2)
                .with_wide_pointers()
                .with_vread_fastpath(fast)
        };
        for fast in [false, true] {
            let rt = Runtime::new(mk(fast));
            rt.run(|| {
                let p = alloc_on(&rt, 1, 42u64);
                let cell = AtomicObject::<u64>::new_on(1, GlobalPtr::null());
                cell.write(p);
                let got = cell.read();
                assert_eq!(got, p, "fast={fast}");
                assert_eq!(got.locale(), 1);
                unsafe { free(&rt, p) };
            });
        }
    }

    #[test]
    fn concurrent_cas_admits_exactly_one_winner_per_round() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            let slots: Vec<_> = (0..8).map(|i| alloc_local(&rt, i as u64)).collect();
            let cell = AtomicObject::new(GlobalPtr::null());
            let wins = std::sync::atomic::AtomicUsize::new(0);
            rt.coforall_tasks(8, |t| {
                if cell.compare_and_swap(GlobalPtr::null(), slots[t]) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            assert!(!cell.read().is_null());
            for p in slots {
                unsafe { free(&rt, p) };
            }
        });
    }
}
