//! Ambient locale context: the calling thread's one record.
//!
//! Chapel code always executes "somewhere": the `here` locale. The
//! simulator reproduces that with a thread-local context naming the runtime
//! and the locale the current task belongs to. Worker tasks created by
//! `coforall`/`forall`, progress threads, and the thread inside
//! [`crate::RuntimeCore::run`] all carry a context; calling a communication
//! primitive without one is a programming error and panics.
//!
//! A progress thread's context also names which of its locale's progress
//! threads it is ([`progress_thread`]), so per-thread state a handler keeps
//! (a reclaimer's standing registration) can be found without a lookup. A
//! context entered below a handler (`run_on`, an inline `on`) does not
//! carry it.
//!
//! # The record
//! Everything the charge path reads per operation lives in one
//! `const`-initialised thread-local without a destructor, the `Record`:
//! the context (core, locale, progress index), this thread's shard of the
//! context locale's [`crate::telemetry::Registry`], the task's virtual
//! clock ([`crate::vtime`]) and its retry class ([`crate::faults`]). A
//! charged atomic reads the record and writes the cached shard directly,
//! without searching the thread's shard list ([`crate::per_thread`]).
//! `record()` hands it out as a `&'static` reference: the record is valid
//! for the thread's whole life, thread-local destructors included, and
//! cannot leave the thread.
//!
//! The shard is resolved lazily, on the first charge after a context is
//! entered (entering never touches the core, so tests may enter fake
//! ones), and the context guard restores it together with the locale and
//! the progress index. The clock and the retry class are per thread, as
//! they always were: no guard restores the clock, and
//! [`crate::faults::with_class`] restores the class through its own scope.
//! Why the cached shard pointer stays valid is argued in
//! [`crate::per_thread`]'s module docs.
//!
//! # Safety of the raw pointer
//! The context stores a raw `*const RuntimeCore` rather than an `Arc` so
//! that scoped worker threads can borrow the runtime. The pointer is valid
//! for the lifetime of the context guard because every holder either (a)
//! borrows the runtime across a scope that joins before returning (workers,
//! `run`), or (b) owns an `Arc` for the duration of the thread (progress
//! threads).

use std::cell::Cell;
use std::ptr;

use crate::faults::RetryClass;
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;
use crate::telemetry::{Shard, ShardCells};

const NO_CTX: &str = "no PGAS context on this thread; wrap the code in Runtime::run, a \
                      coforall/forall body, or an `on` statement";

/// One context: what [`enter`] installs and its [`CtxGuard`] puts back.
#[derive(Clone, Copy)]
struct Context {
    /// The runtime core; null outside any context.
    core: *const RuntimeCore,
    /// The locale; meaningless while `core` is null.
    locale: LocaleId,
    /// The progress-thread index, when a progress loop installed the
    /// context.
    progress: Option<usize>,
    /// This thread's shard of `core.locale(locale).stats`; null until the
    /// context's first charge resolves it.
    shard: *const ShardCells,
}

/// The calling thread's context, clock and retry class (see the module
/// docs).
pub(crate) struct Record {
    ctx: Cell<Context>,
    /// The task's virtual clock, in nanoseconds ([`crate::vtime`]).
    pub(crate) vtime: Cell<u64>,
    /// The retry class in scope ([`crate::faults::with_class`]).
    pub(crate) class: Cell<RetryClass>,
}

thread_local! {
    static RECORD: Record = const {
        Record {
            ctx: Cell::new(Context {
                core: ptr::null(),
                locale: 0,
                progress: None,
                shard: ptr::null(),
            }),
            vtime: Cell::new(0),
            class: Cell::new(RetryClass::NonIdempotent),
        }
    };
}

/// The calling thread's record.
#[inline]
pub(crate) fn record() -> &'static Record {
    // SAFETY: `RECORD` is `const`-initialised and has no destructor, so its
    // storage is never initialised lazily nor torn down before the thread
    // ends; and `Record` is `!Sync`, so the reference cannot leave the
    // thread.
    RECORD.with(|r| unsafe { &*ptr::from_ref(r) })
}

impl Record {
    /// The current context's locale, `None` off-runtime.
    #[inline]
    pub(crate) fn here(&self) -> Option<LocaleId> {
        let c = self.ctx.get();
        (!c.core.is_null()).then_some(c.locale)
    }

    /// Whether `core` is the current context's runtime core.
    #[inline]
    pub(crate) fn is_current(&self, core: *const RuntimeCore) -> bool {
        ptr::eq(self.ctx.get().core, core)
    }

    /// Charge `ns` nanoseconds of virtual time to the task.
    #[inline]
    pub(crate) fn charge(&self, ns: u64) {
        self.vtime.set(self.vtime.get().saturating_add(ns));
    }

    /// Run `f` on this thread's shard of `core.locale(locale).stats`.
    /// When `(core, locale)` is the current context, the charge path's
    /// case, that is the shard cached in the record; otherwise the
    /// registry's own lookup finds it.
    #[inline]
    pub(crate) fn stats<R>(
        &self,
        core: &RuntimeCore,
        locale: LocaleId,
        f: impl FnOnce(Shard<'_>) -> R,
    ) -> R {
        let c = self.ctx.get();
        if ptr::eq(c.core, core) && c.locale == locale && !c.shard.is_null() {
            // SAFETY: `c.shard` is this thread's shard of the current
            // context's registry, which its `SHARDS` entry keeps alive
            // while the context is current (`per_thread`'s module docs).
            f(unsafe { Shard::from_ptr(c.shard) })
        } else {
            self.stats_uncached(core, locale, f)
        }
    }

    /// [`Record::stats`] without a cached shard: the context's first
    /// charge resolves and caches it; a registry other than the context's,
    /// or any after the thread's shard list is destroyed, goes through the
    /// registry's own lookup.
    #[cold]
    #[inline(never)]
    fn stats_uncached<R>(
        &self,
        core: &RuntimeCore,
        locale: LocaleId,
        f: impl FnOnce(Shard<'_>) -> R,
    ) -> R {
        let registry = &core.locale(locale).stats;
        let c = self.ctx.get();
        if ptr::eq(c.core, core) && c.locale == locale {
            if let Some(shard) = registry.shard_ptr() {
                self.ctx.set(Context { shard, ..c });
                // SAFETY: as in `stats`; it is cached from now on.
                return f(unsafe { Shard::from_ptr(shard) });
            }
        }
        registry.with_shard(f)
    }
}

/// Restores the previous context, its progress index and its cached shard
/// when dropped, so nested `run`/handler execution unwinds correctly.
pub(crate) struct CtxGuard {
    prev: Context,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        record().ctx.set(self.prev);
    }
}

/// Install `(core, locale)` as the current context.
///
/// # Safety
/// `core` must remain valid until the returned guard is dropped.
pub(crate) unsafe fn enter(core: *const RuntimeCore, locale: LocaleId) -> CtxGuard {
    // SAFETY: forwarded to the caller.
    unsafe { enter_as(core, locale, None) }
}

/// Install `(core, locale)` as the context of progress thread `index` of
/// `locale`, for the life of its loop.
///
/// # Safety
/// As [`enter`].
pub(crate) unsafe fn enter_progress(
    core: *const RuntimeCore,
    locale: LocaleId,
    index: usize,
) -> CtxGuard {
    // SAFETY: forwarded to the caller.
    unsafe { enter_as(core, locale, Some(index)) }
}

/// # Safety
/// As [`enter`].
unsafe fn enter_as(
    core: *const RuntimeCore,
    locale: LocaleId,
    progress: Option<usize>,
) -> CtxGuard {
    let entered = Context {
        core,
        locale,
        progress,
        shard: ptr::null(),
    };
    CtxGuard {
        prev: record().ctx.replace(entered),
    }
}

/// `Some(t)` when the caller runs on progress thread `t` of [`here`] (a
/// handler of the simulator's progress loop), `None` on every other thread
/// and inside any context entered below a handler. Handlers on one progress
/// thread run one at a time, so state indexed by `t` has one user at a time.
#[inline]
pub fn progress_thread() -> Option<usize> {
    record().ctx.get().progress
}

/// The locale the current task is executing on (Chapel's `here.id`).
///
/// # Panics
/// If the current thread is not executing inside a runtime task.
#[inline]
pub fn here() -> LocaleId {
    try_here().expect(NO_CTX)
}

/// Like [`here`], but returns `None` off-runtime instead of panicking.
#[inline]
pub fn try_here() -> Option<LocaleId> {
    record().here()
}

/// Run `f` with a reference to the current runtime core and the current
/// locale id. This is how embedded objects (atomics, tokens) reach the
/// runtime without storing a handle per instance.
///
/// # Panics
/// If the current thread has no PGAS context.
#[inline]
pub fn with_core<R>(f: impl FnOnce(&RuntimeCore, LocaleId) -> R) -> R {
    try_with_core(f).expect(NO_CTX)
}

/// Like [`with_core`], but returns `None` off-runtime instead of
/// panicking — for best-effort instrumentation (telemetry root spans) that
/// must be inert outside a task context.
#[inline]
pub fn try_with_core<R>(f: impl FnOnce(&RuntimeCore, LocaleId) -> R) -> Option<R> {
    let c = record().ctx.get();
    // SAFETY: documented invariant — whoever installed the context keeps
    // the core alive until the guard drops, and we are inside that window.
    (!c.core.is_null()).then(|| f(unsafe { &*c.core }, c.locale))
}

/// A cloneable handle to the current runtime, usable to construct objects
/// that must outlive the current task.
///
/// # Panics
/// If the current thread has no PGAS context.
pub fn current_runtime() -> crate::runtime::RuntimeHandle {
    with_core(|core, _| core.handle())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ctx_by_default() {
        assert_eq!(try_here(), None);
    }

    #[test]
    #[should_panic(expected = "no PGAS context")]
    fn here_panics_without_ctx() {
        let _ = here();
    }

    #[test]
    fn guard_restores_previous() {
        // A dangling-but-never-dereferenced pointer is fine for this test:
        // we only exercise the save/restore logic via try_here().
        let fake = 0x1000 as *const RuntimeCore;
        {
            let _g1 = unsafe { enter(fake, 3) };
            assert_eq!(try_here(), Some(3));
            {
                let _g2 = unsafe { enter(fake, 7) };
                assert_eq!(try_here(), Some(7));
            }
            assert_eq!(try_here(), Some(3));
        }
        assert_eq!(try_here(), None);
    }

    #[test]
    fn progress_index_lives_only_in_the_progress_context() {
        let fake = 0x1000 as *const RuntimeCore;
        assert_eq!(progress_thread(), None);
        {
            let _loop = unsafe { enter_progress(fake, 2, 1) };
            assert_eq!((try_here(), progress_thread()), (Some(2), Some(1)));
            {
                let _inline = unsafe { enter(fake, 2) };
                assert_eq!(progress_thread(), None, "a nested context is no handler");
            }
            assert_eq!(progress_thread(), Some(1));
        }
        assert_eq!(progress_thread(), None);
    }

    #[test]
    fn the_shard_is_cached_on_the_first_charge_and_restored_by_the_guard() {
        let rt = crate::Runtime::new(crate::RuntimeConfig::cluster(2).without_network_atomics());
        let cached = || record().ctx.get().shard;
        assert!(cached().is_null());
        rt.run(|| {
            assert!(cached().is_null(), "entering resolves nothing");
            crate::engine::charge_local_atomic_u64();
            let outer = cached();
            assert!(!outer.is_null(), "the first charge resolves the shard");
            crate::engine::charge_local_atomic_u64();
            assert_eq!(cached(), outer, "later charges reuse it");
            rt.run_on(1, || {
                assert!(cached().is_null(), "a nested context resolves its own");
                crate::engine::charge_local_atomic_u64();
                assert!(!cached().is_null() && cached() != outer);
            });
            assert_eq!(cached(), outer, "the guard put the outer shard back");
        });
        assert!(cached().is_null());
        let t = |l| rt.locale(l).stats.snapshot().cpu_atomics;
        assert_eq!((t(0), t(1)), (2, 1));
    }
}
