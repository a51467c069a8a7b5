//! Locale-owned heap objects.
//!
//! Chapel's `unmanaged` class instances — the only kind the paper's
//! `AtomicObject` supports — are manually-managed heap objects with an
//! affinity to the locale that allocated them. This module provides that:
//! [`alloc_on`] produces a [`GlobalPtr`] to an object placed on a given
//! locale (allocating through an active message when the target is remote,
//! as Chapel's `on loc { new unmanaged C() }` would), and [`free`] releases
//! it, again routing remotely when needed.
//!
//! Deallocating a *batch* of remote objects one by one costs one active
//! message each ([`free_erased`]); the paper's scatter list instead ships
//! each destination locale its objects in one message, as a
//! [`crate::engine::Batcher`] over [`Erased`] items whose destination
//! handler is [`free_erased_local_batch`].
//!
//! Every allocation is tracked in the owner's [`crate::stats::HeapStats`],
//! so tests can prove reclamation completeness (`live_objects() == 0`).

use crate::ctx;
use crate::globalptr::{GlobalPtr, LocaleId};
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::vtime;

/// A type-erased deferred-deletable object: address, owning locale, and a
/// dropper that reconstitutes and drops the concrete `Box<T>`.
///
/// This is what limbo lists and scatter lists carry.
#[derive(Debug)]
pub struct Erased {
    addr: usize,
    owner: LocaleId,
    dropper: unsafe fn(usize),
}

// SAFETY: an Erased is a plain (address, locale, fn) triple; the dropper is
// only invoked once, by whoever owns the reclamation phase, on objects that
// were `Send` when erased (enforced by `erase`'s bound).
unsafe impl Send for Erased {}
// SAFETY: `&Erased` only reads the triple; the dropper needs `run_drop`,
// which consumes the value.
unsafe impl Sync for Erased {}

/// # Safety
/// `addr` must come from `Box::<T>::into_raw`, be dropped exactly once, and
/// have no live references.
unsafe fn drop_box<T>(addr: usize) {
    // SAFETY: per the contract.
    drop(unsafe { Box::from_raw(addr as *mut T) });
}

impl Erased {
    /// Erase a pointer for deferred deletion.
    pub fn new<T: Send>(ptr: GlobalPtr<T>) -> Erased {
        debug_assert!(!ptr.is_null(), "cannot defer-delete a null pointer");
        Erased {
            addr: ptr.addr(),
            owner: ptr.locale(),
            dropper: drop_box::<T>,
        }
    }

    /// Locale the object lives on (drives scatter-list binning).
    #[inline]
    pub fn owner(&self) -> LocaleId {
        self.owner
    }

    /// The erased address (for diagnostics).
    #[inline]
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Drop the underlying object and account the free on its owner.
    ///
    /// # Safety
    /// Must be called exactly once, with no other live references to the
    /// object — the guarantee epoch-based reclamation establishes.
    pub unsafe fn run_drop(self, core: &RuntimeCore) {
        core.locale(self.owner).heap.on_free();
        // SAFETY: forwarded to the caller.
        unsafe { self.drop_untracked() };
    }

    /// Drop the underlying object without accounting the free.
    ///
    /// # Safety
    /// As for [`Erased::run_drop`]; the caller accounts the free.
    unsafe fn drop_untracked(self) {
        // SAFETY: `dropper` is `drop_box::<T>` for the `T` that `addr` was
        // erased from, and the caller upholds its once-only contract.
        unsafe { (self.dropper)(self.addr) };
    }
}

/// Allocate `value` with affinity to locale `owner`, returning a global
/// pointer. If `owner` is remote, the allocation happens inside an active
/// message on the owner (the Chapel `on loc do new unmanaged C(...)`
/// pattern) and is counted as a `remote_alloc` there.
pub fn alloc_on<T: Send>(core: &RuntimeCore, owner: LocaleId, value: T) -> GlobalPtr<T> {
    assert!(
        std::mem::size_of::<T>() > 0,
        "zero-sized types have no stable address identity and cannot be \
         tracked as locale-owned objects"
    );
    let here = ctx::here();
    if owner == here {
        let addr = Box::into_raw(Box::new(value));
        core.locale(owner).heap.on_alloc();
        GlobalPtr::from_raw_parts(owner, addr)
    } else {
        core.on(owner, move || {
            let addr = Box::into_raw(Box::new(value));
            let loc = core.locale(owner);
            loc.heap.on_alloc();
            loc.stats.add(Counter::RemoteAllocs, 1);
            vtime::charge(core.config.network.remote_heap_op_ns);
            GlobalPtr::from_raw_parts(owner, addr)
        })
    }
}

/// Allocate on the current locale.
pub fn alloc_local<T: Send>(core: &RuntimeCore, value: T) -> GlobalPtr<T> {
    alloc_on(core, ctx::here(), value)
}

/// Free a single object. Remote frees route an active message to the owner
/// and are counted as `remote_frees` — the expensive per-object path that
/// the scatter list exists to avoid.
///
/// # Safety
/// `ptr` must come from [`alloc_on`]/[`alloc_local`], be freed exactly
/// once, and have no live references.
pub unsafe fn free<T: Send>(core: &RuntimeCore, ptr: GlobalPtr<T>) {
    let here = ctx::here();
    let owner = ptr.locale();
    if owner == here {
        core.locale(owner).heap.on_free();
        // SAFETY: the caller guarantees `ptr` is a live box freed only here.
        drop(unsafe { Box::from_raw(ptr.as_ptr()) });
    } else {
        let addr = ptr.addr();
        core.on(owner, move || {
            let loc = core.locale(owner);
            loc.heap.on_free();
            loc.stats.add(Counter::RemoteFrees, 1);
            vtime::charge(core.config.network.remote_heap_op_ns);
            // SAFETY: as in the local branch; `addr` is `ptr`'s address.
            drop(unsafe { Box::from_raw(addr as *mut T) });
        });
    }
}

/// Free one erased object, routing an active message when it is remote —
/// the naive per-object path the scatter list replaces (kept for the
/// ablation benchmark). The remote message is *combinable*: with
/// [`crate::config::RuntimeConfig::combining`] enabled, concurrent deferred
/// frees toward one owner share a single bulk active message.
///
/// # Safety
/// As for [`Erased::run_drop`].
pub unsafe fn free_erased(core: &RuntimeCore, e: Erased) {
    let here = ctx::here();
    let owner = e.owner();
    if owner == here {
        // SAFETY: forwarded to the caller.
        unsafe { e.run_drop(core) };
    } else {
        core.on_combining(owner, move || {
            let loc = core.locale(owner);
            loc.stats.add(Counter::RemoteFrees, 1);
            vtime::charge(core.config.network.remote_heap_op_ns);
            // SAFETY: forwarded to the caller.
            unsafe { e.run_drop(core) };
        });
    }
}

/// Free a batch of erased objects that already reside on the *current*
/// locale, with bulk accounting — the handler-side half of a scatter flush
/// (what a [`crate::engine::Batcher`] over [`Erased`] items calls in its
/// destination handler). `arrived_remotely` says whether the batch crossed
/// the wire to get here; remote arrivals count one `bulk_frees`. The `n`
/// frees are counted in one visit of the locale's heap statistics, before
/// the drops.
///
/// # Safety
/// Every entry must satisfy the conditions of [`Erased::run_drop`] and
/// actually live on the current locale.
pub unsafe fn free_erased_local_batch(
    core: &RuntimeCore,
    batch: Vec<Erased>,
    arrived_remotely: bool,
) {
    if batch.is_empty() {
        return;
    }
    let here = ctx::here();
    debug_assert!(batch.iter().all(|e| e.owner() == here));
    let loc = core.locale(here);
    let n = batch.len() as u64;
    if arrived_remotely {
        loc.stats.add(Counter::BulkFrees, 1);
    }
    loc.stats.add(Counter::BulkFreedObjects, n);
    vtime::charge(core.config.network.remote_heap_op_ns * n);
    loc.heap.on_free_n(n);
    for e in batch {
        // SAFETY: forwarded from the caller's contract; counted above.
        unsafe { e.drop_untracked() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;

    #[test]
    fn local_alloc_free_roundtrip() {
        let rt = Runtime::cluster(1);
        rt.run(|| {
            let p = alloc_local(&rt, 77u32);
            assert_eq!(p.locale(), 0);
            assert_eq!(unsafe { *p.deref() }, 77);
            assert_eq!(rt.locale(0).heap.live_objects(), 1);
            unsafe { free(&rt, p) };
            assert_eq!(rt.locale(0).heap.live_objects(), 0);
        });
        assert!(rt.total_comm().is_zero());
    }

    #[test]
    fn remote_alloc_routes_am_and_tracks_owner() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let p = alloc_on(&rt, 1, String::from("hello"));
            assert_eq!(p.locale(), 1);
            assert_eq!(unsafe { p.deref() }.as_str(), "hello");
            assert_eq!(rt.locale(1).heap.live_objects(), 1);
            assert_eq!(rt.locale(0).heap.live_objects(), 0);
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1);
            assert_eq!(s.remote_allocs, 1);
            unsafe { free(&rt, p) };
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(rt.total_comm().remote_frees, 1);
        });
    }

    #[test]
    fn erased_drop_runs_destructor() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static DROPPED: AtomicBool = AtomicBool::new(false);
        struct Probe(#[allow(dead_code)] u8);
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPPED.store(true, Ordering::SeqCst);
            }
        }
        let rt = Runtime::cluster(1);
        rt.run(|| {
            let p = alloc_local(&rt, Probe(0));
            let e = Erased::new(p);
            assert_eq!(e.owner(), 0);
            unsafe { e.run_drop(&rt) };
        });
        assert!(DROPPED.load(Ordering::SeqCst));
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn a_batch_free_counts_each_free_once_from_any_thread() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let heap = &rt.locale(1).heap;
            let batch = |n: u64| -> Vec<Erased> {
                (0..n).map(|i| Erased::new(alloc_on(&rt, 1, i))).collect()
            };
            let (first, second, third) = (batch(5), batch(7), batch(9));
            let (live, frees) = (heap.live_objects(), heap.frees());
            assert_eq!(live, 21);
            let free =
                |b: Vec<Erased>| rt.run_on(1, || unsafe { free_erased_local_batch(&rt, b, false) });
            // A thread that has never recorded on locale 1.
            std::thread::scope(|s| {
                s.spawn(|| {
                    free(first);
                    assert_eq!((heap.live_objects(), heap.frees()), (live - 5, frees + 5));
                });
            });
            assert_eq!((heap.live_objects(), heap.frees()), (live - 5, frees + 5));
            // Two threads at once.
            std::thread::scope(|s| {
                for b in [second, third] {
                    s.spawn(|| free(b));
                }
            });
            assert_eq!((heap.live_objects(), heap.frees()), (0, frees + 21));
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn alloc_from_worker_tasks_lands_on_their_locale() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            rt.coforall_locales(|l| {
                let p = alloc_local(&rt, l);
                assert_eq!(p.locale(), l);
                unsafe { free(&rt, p) };
            });
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
