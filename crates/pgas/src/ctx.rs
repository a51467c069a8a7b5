//! Ambient locale context.
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
//! # Safety of the raw pointer
//! The context stores a raw `*const RuntimeCore` rather than an `Arc` so
//! that scoped worker threads can borrow the runtime. The pointer is valid
//! for the lifetime of the context guard because every holder either (a)
//! borrows the runtime across a scope that joins before returning (workers,
//! `run`), or (b) owns an `Arc` for the duration of the thread (progress
//! threads).

use std::cell::Cell;

use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;

thread_local! {
    static CTX: Cell<Option<(*const RuntimeCore, LocaleId)>> = const { Cell::new(None) };
    /// The progress-thread index of the context in `CTX`, when a progress
    /// loop installed it. Kept apart so the hot `here`/`with_core` reads
    /// stay one pointer and one id wide.
    static PROGRESS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous context when dropped, so nested `run`/handler
/// execution unwinds correctly.
pub(crate) struct CtxGuard {
    prev: Option<(*const RuntimeCore, LocaleId)>,
    prev_progress: Option<usize>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
        PROGRESS.with(|p| p.set(self.prev_progress));
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
    CtxGuard {
        prev: CTX.with(|c| c.replace(Some((core, locale)))),
        prev_progress: PROGRESS.with(|p| p.replace(progress)),
    }
}

/// `Some(t)` when the caller runs on progress thread `t` of [`here`] (a
/// handler of the simulator's progress loop), `None` on every other thread
/// and inside any context entered below a handler. Handlers on one progress
/// thread run one at a time, so state indexed by `t` has one user at a time.
#[inline]
pub fn progress_thread() -> Option<usize> {
    PROGRESS.with(|p| p.get())
}

/// The locale the current task is executing on (Chapel's `here.id`).
///
/// # Panics
/// If the current thread is not executing inside a runtime task.
#[inline]
pub fn here() -> LocaleId {
    try_here().expect(
        "no PGAS context on this thread; wrap the code in Runtime::run, a \
         coforall/forall body, or an `on` statement",
    )
}

/// Like [`here`], but returns `None` off-runtime instead of panicking.
#[inline]
pub fn try_here() -> Option<LocaleId> {
    CTX.with(|c| c.get().map(|(_, l)| l))
}

/// Run `f` with a reference to the current runtime core and the current
/// locale id. This is how embedded objects (atomics, tokens) reach the
/// runtime without storing a handle per instance.
///
/// # Panics
/// If the current thread has no PGAS context.
#[inline]
pub fn with_core<R>(f: impl FnOnce(&RuntimeCore, LocaleId) -> R) -> R {
    let (core, locale) = CTX.with(|c| c.get()).expect(
        "no PGAS context on this thread; wrap the code in Runtime::run, a \
         coforall/forall body, or an `on` statement",
    );
    // SAFETY: documented invariant — whoever installed the context keeps
    // the core alive until the guard drops, and we are inside that window.
    f(unsafe { &*core }, locale)
}

/// Like [`with_core`], but returns `None` off-runtime instead of
/// panicking — for best-effort instrumentation (telemetry root spans) that
/// must be inert outside a task context.
#[inline]
pub fn try_with_core<R>(f: impl FnOnce(&RuntimeCore, LocaleId) -> R) -> Option<R> {
    let (core, locale) = CTX.with(|c| c.get())?;
    // SAFETY: same invariant as `with_core` — the context installer keeps
    // the core alive until the guard drops, and we are inside that window.
    Some(f(unsafe { &*core }, locale))
}

/// Whether `core` is the current context's runtime core: a check for a
/// guard that kept the core it was opened with (`telemetry::OpSpan`).
#[inline]
pub(crate) fn is_current(core: *const RuntimeCore) -> bool {
    CTX.with(|c| c.get())
        .is_some_and(|(c, _)| std::ptr::eq(c, core))
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
}
