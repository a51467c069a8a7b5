//! The multi-locale runtime.
//!
//! A [`Runtime`] owns a set of simulated locales (each with progress
//! threads servicing active messages) and provides the Chapel-style
//! execution constructs the paper's code uses:
//!
//! * [`RuntimeCore::run`] — enter the runtime on locale 0 (the `main`).
//! * [`RuntimeCore::on`] — Chapel's `on Locales[i] do { ... }`: execute a
//!   closure on another locale and block for its result.
//! * [`RuntimeCore::coforall_locales`] — `coforall loc in Locales do on loc`,
//!   one spawned task per locale.
//! * [`RuntimeCore::on_each_locale`] — the same shape as one short active
//!   message per remote locale, for bodies that neither block nor
//!   communicate (the reclaimer's scan and drain).
//! * [`RuntimeCore::coforall_tasks`] — `coforall t in 0..#T` on the current
//!   locale.
//! * [`RuntimeCore::forall_dist`] — a distributed `forall` over a cyclically
//!   distributed index space, with a task-private value per task (Chapel's
//!   `with (var tok = ...)` intent).
//!
//! All constructs merge virtual time the way a discrete-event simulation
//! would (see [`crate::vtime`]), so a phase's virtual makespan is simply
//! the caller's clock delta.

use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;

use crate::am::{self, AmMsg};
use crate::config::RuntimeConfig;
use crate::ctx;
use crate::engine::{self, CommEngine, Completion, SimEngine};
use crate::globalptr::LocaleId;
use crate::locale::Locale;
use crate::stats::{CommSnapshot, Counter};
use crate::telemetry::{Sink, Span, TelemetrySnapshot};
use crate::vtime;

/// The number of worker tasks each locale runs in [`RuntimeCore::forall_dist`].
const FORALL_TASKS_PER_LOCALE: usize = 4;

/// Shared runtime state. Public operations live here so that both the
/// owning [`Runtime`] and cheap [`RuntimeHandle`] clones expose them.
pub struct RuntimeCore {
    /// The configuration the runtime was started with.
    pub config: RuntimeConfig,
    locales: Box<[Locale]>,
    engine: Box<dyn CommEngine>,
    /// Whether every locale lives in this process behind simulator progress
    /// threads (see [`Self::confined_to_rank`]).
    shared_address_space: bool,
    /// Live fault-injection state, built from [`RuntimeConfig::faults`];
    /// `None` (the default) short-circuits every injection hook.
    faults: Option<crate::faults::FaultState>,
    /// Telemetry span sink (see [`crate::telemetry::Sink`]). Unset by
    /// default: the fast path is one `OnceLock::get` returning `None`, so
    /// span emission is free unless a sink is installed.
    telemetry_sink: OnceLock<Arc<dyn Sink>>,
    shutdown: AtomicBool,
    self_weak: Weak<RuntimeCore>,
}

/// Owning handle: joins progress threads when dropped. Not `Clone`; use
/// [`Runtime::handle`] (or [`ctx::current_runtime`]) for shareable handles.
pub struct Runtime {
    core: Arc<RuntimeCore>,
    progress: Vec<JoinHandle<()>>,
}

/// A cheap, cloneable reference to a running [`Runtime`]. Operations panic
/// if used after the owning `Runtime` has shut down.
#[derive(Clone)]
pub struct RuntimeHandle {
    core: Arc<RuntimeCore>,
}

impl Deref for Runtime {
    type Target = RuntimeCore;
    fn deref(&self) -> &RuntimeCore {
        &self.core
    }
}

impl Deref for RuntimeHandle {
    type Target = RuntimeCore;
    fn deref(&self) -> &RuntimeCore {
        &self.core
    }
}

impl Runtime {
    /// Start a runtime with `config.num_locales` simulated locales, using
    /// the in-process [`SimEngine`] backend.
    ///
    /// # Panics
    /// If `config.engine` selects a non-simulator backend: transport
    /// engines are external objects and must come in through
    /// [`Runtime::with_engine`] (the `pgas-net` crate provides
    /// `ProcEngine`).
    pub fn new(config: RuntimeConfig) -> Runtime {
        assert!(
            config.engine == crate::config::EngineKind::Sim,
            "RuntimeConfig::engine is {:?}: construct this backend \
             explicitly with Runtime::with_engine (e.g. pgas_net::ProcEngine)",
            config.engine
        );
        Runtime::build(config, Box::new(SimEngine), true)
    }

    /// Start a runtime around an externally constructed [`CommEngine`]
    /// backend. No simulator progress threads are spawned: the engine owns
    /// its own progress service (started from [`CommEngine::bind`]), and
    /// [`RuntimeCore::run`] enters the engine's
    /// [`CommEngine::entry_locale`] instead of locale 0.
    pub fn with_engine(config: RuntimeConfig, engine: Box<dyn CommEngine>) -> Runtime {
        Runtime::build(config, engine, false)
    }

    fn build(
        config: RuntimeConfig,
        engine: Box<dyn CommEngine>,
        shared_address_space: bool,
    ) -> Runtime {
        config.validate();
        let core = Arc::new_cyclic(|self_weak| {
            let locales = (0..config.num_locales)
                .map(|id| {
                    let am_slowdown = config
                        .faults
                        .as_ref()
                        .map_or(1, |p| p.slowdown_for(id as LocaleId));
                    Locale::new(
                        id as LocaleId,
                        config.progress_threads,
                        config.num_locales,
                        am_slowdown,
                        config.sym_heap_bytes,
                    )
                })
                .collect();
            let faults = config.faults.clone().map(crate::faults::FaultState::new);
            RuntimeCore {
                config,
                locales,
                engine,
                shared_address_space,
                faults,
                telemetry_sink: OnceLock::new(),
                shutdown: AtomicBool::new(false),
                self_weak: self_weak.clone(),
            }
        });
        let mut progress = Vec::new();
        if shared_address_space {
            for id in 0..core.num_locales() {
                for t in 0..core.config.progress_threads {
                    let core = Arc::clone(&core);
                    progress.push(
                        std::thread::Builder::new()
                            .name(format!("pgas-progress-{id}.{t}"))
                            .spawn(move || am::progress_loop(core, id as LocaleId, t))
                            .expect("failed to spawn progress thread"),
                    );
                }
            }
        }
        core.engine.bind(&core);
        Runtime { core, progress }
    }

    /// Drop every message still queued for locale `l`'s progress threads,
    /// unexecuted, and return how many there were. Each message's drop
    /// releases whoever waits on it: a blocking call or a `Completion`
    /// panics, a combined chunk fails its riders (see
    /// [`crate::engine::combine`]).
    pub(crate) fn discard_inbox(&self, l: LocaleId) -> usize {
        self.core.locale(l).inbox.discard()
    }

    /// Convenience: an `n`-locale cluster with the default network model.
    pub fn cluster(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::cluster(n))
    }

    /// Convenience: a single-locale shared-memory runtime.
    pub fn shared_memory() -> Runtime {
        Runtime::new(RuntimeConfig::shared_memory())
    }

    /// A cloneable handle that can be stored inside long-lived objects.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // External engines first: their progress threads hold a Weak to the
        // core and must be joined before the AM queues close.
        self.core.engine.shutdown();
        self.core.shutdown.store(true, Ordering::SeqCst);
        // Progress threads serve what is queued, then exit; a later send
        // panics.
        for locale in self.core.locales.iter() {
            locale.inbox.close();
        }
        for handle in self.progress.drain(..) {
            let _ = handle.join();
        }
        // A locale whose progress threads all died leaves its queue
        // unserved: drop it now rather than leave its senders waiting on a
        // live `RuntimeHandle`.
        for l in 0..self.core.num_locales() {
            self.discard_inbox(l as LocaleId);
        }
    }
}

impl RuntimeCore {
    /// Number of locales in this runtime.
    #[inline]
    pub fn num_locales(&self) -> usize {
        self.locales.len()
    }

    /// Access one locale's state (stats, heap accounting).
    #[inline]
    pub fn locale(&self, id: LocaleId) -> &Locale {
        &self.locales[id as usize]
    }

    /// Iterate over all locales.
    pub fn locales(&self) -> impl Iterator<Item = &Locale> {
        self.locales.iter()
    }

    /// The live fault-injection state, if a [`crate::faults::FaultPlan`]
    /// was installed in the configuration.
    #[inline]
    pub fn faults(&self) -> Option<&crate::faults::FaultState> {
        self.faults.as_ref()
    }

    /// A cloneable handle to this runtime.
    ///
    /// # Panics
    /// If the owning [`Runtime`] has already been dropped.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            core: self.self_weak.upgrade().expect("runtime already shut down"),
        }
    }

    /// The locality check of the shared-address-space model (see
    /// [`crate::engine`]). `false` on a simulator runtime: any locale may be
    /// the target of a closure or a raw-pointer operation. A runtime built
    /// by [`Runtime::with_engine`] spawns no progress threads and its
    /// locales share no memory, so such work would wait forever for a reply
    /// or touch an address that means nothing here; there this returns
    /// `true` when `target` is the calling rank — the caller runs the work
    /// inline — and panics otherwise.
    #[inline]
    pub(crate) fn confined_to_rank(&self, target: LocaleId) -> bool {
        if self.shared_address_space {
            return false;
        }
        assert!(
            target == ctx::here(),
            "this runtime's locales share no address space (Runtime::with_engine): a \
             closure or a raw-pointer operation cannot reach locale {target}; register \
             a handler fn (pgas_sim::handlers::register) and use handlers::call / \
             call_async, or keep the data in the symmetric heap (pgas_sim::symheap)"
        );
        true
    }

    pub(crate) fn send_am(&self, dest: LocaleId, msg: AmMsg) {
        assert!(
            !self.shutdown.load(Ordering::Relaxed),
            "runtime has shut down"
        );
        self.locales[dest as usize].inbox.push(msg);
    }

    /// Enter the runtime on the engine's entry locale (locale 0 for the
    /// simulator, the process's own rank for a transport backend) and
    /// execute `f` on the calling thread. This is the moral equivalent of
    /// Chapel's `main`. The task-local virtual clock starts at zero when
    /// entering from outside.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        self.run_on(self.engine.entry_locale(), f)
    }

    /// Execute `f` inside the runtime: in place when the calling thread is
    /// already in a task, otherwise by entering through [`Self::run`]. For
    /// `Drop` impls that must touch the heap or the network: the owner may
    /// be dropped inside a `run` block or after it.
    pub fn run_here_or_enter<R>(&self, f: impl FnOnce() -> R) -> R {
        if ctx::try_here().is_some() {
            f()
        } else {
            self.run(f)
        }
    }

    /// Enter the runtime on a specific locale and execute `f` on the
    /// calling thread. This is how an engine backend's progress threads
    /// establish the runtime context before invoking handlers; ordinary
    /// code wants [`RuntimeCore::run`].
    pub fn run_on<R>(&self, locale: LocaleId, f: impl FnOnce() -> R) -> R {
        self.check_locale(locale);
        let fresh = ctx::try_here().is_none();
        // SAFETY: `self` is borrowed for the duration of the call and the
        // guard is dropped before it returns.
        let _g = unsafe { ctx::enter(self as *const RuntimeCore, locale) };
        if fresh {
            vtime::set(0);
        }
        f()
    }

    /// Enter the runtime on locale 0, reset virtual time, execute `f`, and
    /// return `(result, virtual_makespan_ns)`.
    pub fn run_measured<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        self.run(|| {
            vtime::set(0);
            let r = f();
            (r, vtime::now())
        })
    }

    /// The communication backend of this runtime (see
    /// [`crate::engine::CommEngine`]); [`crate::symheap`] and
    /// [`crate::handlers`] are the task-facing way to it.
    #[inline]
    pub fn engine(&self) -> &dyn CommEngine {
        &*self.engine
    }

    /// # Panics
    /// If `l` names no locale of this runtime.
    #[inline]
    fn check_locale(&self, l: LocaleId) {
        assert!(
            (l as usize) < self.locales.len(),
            "locale {l} out of range (runtime has {} locales)",
            self.locales.len()
        );
    }

    /// Run `f` on `dest` through `ship`, a blocking engine call that takes a
    /// unit closure, and return its result. The result travels through a
    /// stack slot, which the call's blocking contract guarantees is written
    /// before it returns.
    fn on_with<R, F>(
        &self,
        dest: LocaleId,
        ship: fn(&RuntimeCore, LocaleId, Box<dyn FnOnce() + Send + '_>),
        f: F,
    ) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        self.check_locale(dest);
        let mut slot: Option<R> = None;
        ship(self, dest, Box::new(|| slot = Some(f())));
        slot.expect("remote closure did not run")
    }

    /// Chapel's `on Locales[dest] do f()`: execute `f` on locale `dest`,
    /// blocking until it finishes. Runs inline (zero communication) when
    /// the caller is already on `dest`; otherwise ships an active message
    /// ([`engine::on`]), whose handling serializes on the target's progress
    /// threads.
    pub fn on<R, F>(&self, dest: LocaleId, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        self.on_with(dest, engine::on, f)
    }

    /// Like [`Self::on`], but *combinable*: when
    /// [`RuntimeConfig::combining`] is enabled and several tasks on this
    /// locale concurrently target the same destination, their closures ride
    /// a single bulk active message shipped by an elected combiner task
    /// (see [`crate::engine::combine`]); otherwise this is exactly a
    /// blocking [`Self::on`]. Still blocks until `f` has run on `dest` and
    /// still executes inline when already there, so semantics are
    /// unchanged — only the message count and virtual time differ.
    pub fn on_combining<R, F>(&self, dest: LocaleId, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        self.on_with(dest, engine::on_combined, f)
    }

    /// Fire-and-forget variant of [`Self::on`]: ship `f` to `dest` and
    /// return a [`Completion`] immediately, without advancing the caller's
    /// virtual clock. Waiting on the handle merges the handler's finish
    /// time back in; dropping it abandons the result (the handler still
    /// runs).
    pub fn on_async<F>(&self, dest: LocaleId, f: F) -> Completion
    where
        F: FnOnce() + Send + 'static,
    {
        self.check_locale(dest);
        engine::on_async(self, dest, Box::new(f))
    }

    /// Run `f(l)` once per locale as a *message* and collect the results by
    /// locale: `f(here)` inline on the calling thread, every other `f(l)` as
    /// one active message ([`engine::on_async`]) served by locale `l`'s
    /// progress service. All messages are posted before any is waited for, so
    /// the remote bodies overlap each other and the inline one; the caller's
    /// virtual clock advances to the slowest of them, and `am_sent` rises by
    /// one per remote locale. No thread is created — which is the difference
    /// from [`Self::coforall_locales`], whose children are *tasks* and may
    /// block or communicate. The children here are handlers: they occupy
    /// their locale's progress thread, so they must be short and must not
    /// wait for another locale (two such fan-outs whose handlers sent
    /// messages to each other's locale would deadlock on one progress thread
    /// each).
    ///
    /// `f` and its results may borrow the caller's stack: every posted
    /// message is joined before this returns, also when `f(here)` or a
    /// handler panics. A panic is re-raised here once all of them are joined.
    pub fn on_each_locale<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(LocaleId) -> R + Sync,
    {
        /// The posted messages; joined when this goes out of scope, so the
        /// borrows their bodies hold never outlive the frame.
        struct Posted(Vec<Completion>);
        impl Posted {
            /// Wait for every message; the first handler panic, if any.
            fn join(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
                let mut panic = None;
                for c in self.0.drain(..) {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| c.wait())) {
                        panic.get_or_insert(p);
                    }
                }
                panic
            }
        }
        impl Drop for Posted {
            fn drop(&mut self) {
                let _ = self.join();
            }
        }

        let here = ctx::here();
        let n = self.locales.len();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // Declared after `slots` (and `f`): dropped, hence joined, first.
        let mut posted = Posted(Vec::with_capacity(n - 1));
        for (l, slot) in slots.iter_mut().enumerate() {
            let l = l as LocaleId;
            if l == here {
                continue;
            }
            let f = &f;
            let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || *slot = Some(f(l)));
            // SAFETY: lifetime erasure. The body borrows `f` and its own
            // element of `slots`; `posted` waits for it on every path out of
            // this frame, before either is dropped, and `slots` is not
            // touched again until then.
            let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
            posted.0.push(engine::on_async(self, l, body));
        }
        let mine = f(here);
        if let Some(p) = posted.join() {
            resume_unwind(p);
        }
        slots[here as usize] = Some(mine);
        slots
            .into_iter()
            .map(|r| r.expect("a joined handler left no result"))
            .collect()
    }

    /// The one spawn-and-join routine behind every task-spawning construct
    /// ([`Self::coforall_locales`], [`Self::coforall_tasks`],
    /// [`Self::forall_dist_tasks`], [`crate::DistArray::forall`]): run each
    /// `(locale, body)` child as a task on a scoped thread entered on its
    /// locale, and join them all.
    ///
    /// Virtual time follows one rule. A child on the caller's locale starts
    /// at the caller's clock; a remote one starts one `am_wire_ns` later and
    /// returns one wire after it ends, and counts one `am_sent` on the
    /// caller's locale. The caller resumes at the latest child return (never
    /// earlier than its own clock). If children panic, every child is still
    /// joined and every remote child still counted before the first panic
    /// is re-raised.
    pub(crate) fn spawn_join<F>(&self, children: impl IntoIterator<Item = (LocaleId, F)>)
    where
        F: FnOnce() + Send,
    {
        let src = ctx::here();
        let parent_vt = vtime::now();
        let wire = self.config.network.am_wire_ns;
        let mut remote = 0;
        let mut max_end = parent_vt;
        let mut panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = children
                .into_iter()
                .map(|(l, body)| {
                    let hop = if l == src { 0 } else { wire };
                    remote += u64::from(l != src);
                    scope.spawn(move || {
                        // SAFETY: `self` is borrowed for the whole scope,
                        // which joins this thread (and so drops the guard)
                        // before it returns.
                        let _g = unsafe { ctx::enter(self, l) };
                        vtime::set(parent_vt + hop);
                        body();
                        vtime::now() + hop
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(end) => max_end = max_end.max(end),
                    Err(p) => {
                        panic.get_or_insert(p);
                    }
                }
            }
        });
        self.locales[src as usize]
            .stats
            .add(Counter::AmSent, remote);
        if let Some(p) = panic {
            resume_unwind(p);
        }
        vtime::advance_to(max_end);
    }

    /// `coforall loc in Locales do on loc { f(loc) }`: run `f` once per
    /// locale, concurrently, and join. The caller's virtual clock advances
    /// to the slowest child (plus wire latency for remote children), and
    /// each remote child counts one `am_sent`.
    pub fn coforall_locales<F>(&self, f: F)
    where
        F: Fn(LocaleId) + Send + Sync,
    {
        let f = &f;
        self.spawn_join((0..self.locales.len() as LocaleId).map(|l| (l, move || f(l))));
    }

    /// `coforall t in 0..#tasks`: run `tasks` concurrent tasks on the
    /// *current* locale and join, merging virtual time.
    pub fn coforall_tasks<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let here = ctx::here();
        let f = &f;
        self.spawn_join((0..tasks).map(|t| (here, move || f(t))));
    }

    /// A distributed `forall i in 0..#n` over a cyclically distributed
    /// index space: index `i` has affinity to locale `i % num_locales`, and
    /// each locale runs four worker tasks ([`Self::forall_dist_tasks`] sets
    /// another count).
    ///
    /// `init(locale, task)` produces each task's private state — the
    /// equivalent of Chapel's `with (var tok = manager.register())` — and
    /// `body(&mut state, i)` runs for every index. Task-private state is
    /// dropped (e.g. tokens unregister) when the task finishes.
    pub fn forall_dist<T, I, F>(&self, n: usize, init: I, body: F)
    where
        T: Send,
        I: Fn(LocaleId, usize) -> T + Send + Sync,
        F: Fn(&mut T, usize) + Send + Sync,
    {
        self.forall_dist_tasks(n, FORALL_TASKS_PER_LOCALE, init, body)
    }

    /// [`Self::forall_dist`] with an explicit per-locale task count.
    pub fn forall_dist_tasks<T, I, F>(&self, n: usize, tasks: usize, init: I, body: F)
    where
        T: Send,
        I: Fn(LocaleId, usize) -> T + Send + Sync,
        F: Fn(&mut T, usize) + Send + Sync,
    {
        assert!(tasks >= 1, "need at least one task per locale");
        let num_locales = self.locales.len();
        let (init, body) = (&init, &body);
        self.spawn_join((0..num_locales as LocaleId).flat_map(|l| {
            (0..tasks).map(move |t| {
                (l, move || {
                    // The state drops at the end of this body, inside the
                    // child, so its cost lands on the child's clock.
                    let mut state = init(l, t);
                    // Cyclic distribution: locale l owns indices
                    // l, l+L, l+2L, ...; its j-th local index is
                    // i = l + j*L, and task t handles j ≡ t (mod tasks).
                    let first = l as usize + t * num_locales;
                    for i in (first..n).step_by(tasks * num_locales) {
                        body(&mut state, i);
                    }
                })
            })
        }));
    }

    /// Install the telemetry span sink. May be called at most once per
    /// runtime (first install wins); returns whether this call installed
    /// it. Until a sink is installed, span emission costs one relaxed
    /// `OnceLock::get`.
    pub fn set_telemetry_sink(&self, sink: Arc<dyn Sink>) -> bool {
        self.telemetry_sink.set(sink).is_ok()
    }

    /// True when a telemetry sink is installed. Causal-trace id allocation
    /// and context propagation are gated on this, so the default
    /// (no-sink) path stays one `OnceLock::get`.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.telemetry_sink.get().is_some()
    }

    /// Allocate the causal-trace ids for a span emitted on `locale`:
    /// `(trace, span, parent)`. Under an ambient
    /// [`crate::telemetry::trace`] context the span joins that trace as a
    /// child; otherwise it roots its own trace (`trace == span`,
    /// `parent == 0`) — so every emitted span belongs to a rooted tree by
    /// construction. All-zero (and allocation-free) when no sink is
    /// installed.
    pub fn span_ids(&self, locale: LocaleId) -> (u64, u64, u64) {
        if !self.tracing() {
            return (0, 0, 0);
        }
        let own = self.locale(locale).next_span_id();
        match crate::telemetry::trace::current() {
            Some(c) => (c.trace, own, c.span),
            None => (own, own, 0),
        }
    }

    /// Build (lazily) and emit a [`Span`] to the installed sink. The
    /// closure is not even constructed into a span unless a sink is
    /// present.
    #[inline]
    pub fn emit_span(&self, f: impl FnOnce() -> Span) {
        if let Some(s) = self.telemetry_sink.get() {
            s.record(&f());
        }
    }

    /// Sum of all locales' communication counters.
    pub fn total_comm(&self) -> CommSnapshot {
        self.locales
            .iter()
            .map(|l| l.stats.snapshot())
            .fold(CommSnapshot::default(), |a, b| a + b)
    }

    /// Sum of all locales' telemetry registries: communication counters
    /// plus per-class latency histograms (see [`crate::telemetry`]).
    pub fn total_telemetry(&self) -> TelemetrySnapshot {
        self.locales
            .iter()
            .map(|l| l.stats.telemetry_snapshot())
            .fold(TelemetrySnapshot::default(), |a, b| a + b)
    }

    /// Total live tracked objects across all locales (should be zero after
    /// full reclamation).
    pub fn live_objects(&self) -> i64 {
        self.locales.iter().map(|l| l.heap.live_objects()).sum()
    }

    /// Reset all locales' counters and progress clocks. Callers must ensure
    /// quiescence (no tasks or in-flight messages).
    pub fn reset_metrics(&self) {
        for l in self.locales.iter() {
            l.reset_metrics();
        }
    }
}

impl std::fmt::Debug for RuntimeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("num_locales", &self.locales.len())
            .field("network_atomics", &self.config.network.network_atomics)
            .field("pointer_mode", &self.config.pointer_mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_enters_locale_zero() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            assert_eq!(ctx::here(), 0);
        });
        assert_eq!(ctx::try_here(), None);
    }

    #[test]
    fn on_local_is_inline_and_free() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let before = rt.total_comm();
            let x = rt.on(0, || 41 + 1);
            assert_eq!(x, 42);
            let delta = rt.total_comm() - before;
            assert_eq!(delta.am_sent, 0, "local `on` must not communicate");
        });
    }

    #[test]
    fn on_remote_executes_there() {
        let rt = Runtime::cluster(3);
        rt.run(|| {
            let l = rt.on(2, ctx::here);
            assert_eq!(l, 2);
            let delta = rt.total_comm();
            assert_eq!(delta.am_sent, 1);
            assert_eq!(delta.am_handled, 1);
        });
    }

    #[test]
    fn on_remote_borrows_caller_stack() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let data = [1u64, 2, 3];
            let sum = rt.on(1, || data.iter().sum::<u64>());
            assert_eq!(sum, 6);
            // `data` still usable: it was only borrowed.
            assert_eq!(data.len(), 3);
        });
    }

    #[test]
    fn on_remote_charges_round_trip_vtime() {
        let rt = Runtime::cluster(2);
        let ((), span) = rt.run_measured(|| {
            rt.on(1, || ());
        });
        let net = &rt.config.network;
        assert_eq!(span, 2 * net.am_wire_ns + net.am_handler_ns);
    }

    #[test]
    fn nested_on_round_trips() {
        let rt = Runtime::cluster(3);
        rt.run(|| {
            let v = rt.on(1, || rt.on(2, || ctx::here() as u64 * 10));
            assert_eq!(v, 20);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn remote_panic_propagates() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            rt.on(1, || panic!("boom"));
        });
    }

    #[test]
    fn progress_thread_survives_handler_panic() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.on(1, || panic!("first"));
            }));
            assert!(r.is_err());
            // The progress thread must still service new messages.
            assert_eq!(rt.on(1, || 7), 7);
        });
    }

    #[test]
    fn coforall_locales_visits_every_locale_once() {
        let rt = Runtime::cluster(4);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        rt.run(|| {
            rt.coforall_locales(|l| {
                assert_eq!(ctx::here(), l);
                counts[l as usize].fetch_add(1, Ordering::Relaxed);
            });
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn on_each_locale_runs_here_inline_and_the_rest_on_progress_threads() {
        let rt = Runtime::cluster(4);
        rt.run_on(2, || {
            let caller = std::thread::current().id();
            let weights = [10u64, 20, 30, 40]; // borrowed by every body
            let before = rt.total_comm();
            let got = rt.on_each_locale(|l| {
                assert_eq!(ctx::here(), l);
                let t = std::thread::current();
                if l == 2 {
                    assert_eq!(t.id(), caller, "the caller's own locale runs inline");
                } else {
                    let name = t.name().expect("progress threads are named").to_owned();
                    assert!(
                        name.starts_with(&format!("pgas-progress-{l}")),
                        "locale {l}'s body ran on {name}"
                    );
                }
                (l, &weights[l as usize])
            });
            let expect: Vec<_> = (0..4).map(|l| (l as LocaleId, &weights[l])).collect();
            assert_eq!(got, expect, "results come back indexed by locale");
            let delta = rt.total_comm() - before;
            assert_eq!(delta.am_sent, 3, "one message per remote locale");
            assert_eq!(delta.am_handled, 3);
        });
    }

    #[test]
    fn on_each_locale_vtime_is_the_slowest_child_not_the_sum() {
        let rt = Runtime::cluster(4);
        let ((), span) = rt.run_measured(|| {
            rt.on_each_locale(|l| vtime::charge((l as u64 + 1) * 1_000));
        });
        let net = &rt.config.network;
        // Posts precede waits: the three remote bodies overlap, and the
        // caller pays one round trip around the longest of them.
        assert_eq!(span, 2 * net.am_wire_ns + net.am_handler_ns + 4_000);
    }

    #[test]
    fn on_each_locale_joins_everyone_before_reraising_a_panic() {
        let rt = Runtime::cluster(4);
        let inline_done = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        rt.run(|| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                rt.on_each_locale(|l| match l {
                    0 => inline_done.store(true, Ordering::SeqCst),
                    1 => panic!("handler boom"),
                    _ => {
                        // Still running when the inline body is done and
                        // locale 1's panic has long been delivered.
                        while !inline_done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        for _ in 0..100 {
                            std::thread::yield_now();
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }));
            let msg = *r
                .unwrap_err()
                .downcast::<&str>()
                .expect("the body's payload");
            assert_eq!(msg, "handler boom");
            assert_eq!(
                finished.load(Ordering::SeqCst),
                2,
                "the borrowed bodies on locales 2 and 3 were joined first"
            );
            // A panic in the inline body joins the posted ones too.
            let r = catch_unwind(AssertUnwindSafe(|| {
                rt.on_each_locale(|l| {
                    if l == 0 {
                        panic!("inline boom");
                    }
                    for _ in 0..100 {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(r.is_err());
            assert_eq!(finished.load(Ordering::SeqCst), 5);
            // The progress threads survived both.
            assert_eq!(rt.on_each_locale(|l| l), vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn coforall_tasks_runs_all_on_current_locale() {
        let rt = Runtime::cluster(2);
        let count = AtomicUsize::new(0);
        rt.run(|| {
            rt.coforall_tasks(8, |_| {
                assert_eq!(ctx::here(), 0);
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn coforall_vtime_is_max_not_sum() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        let ((), span) = rt.run_measured(|| {
            rt.coforall_tasks(4, |t| {
                vtime::charge((t as u64 + 1) * 100);
            });
        });
        assert_eq!(span, 400, "parallel tasks overlap in virtual time");
    }

    #[test]
    fn forall_dist_covers_index_space_exactly_once() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(3));
        let n = 100;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.run(|| {
            rt.forall_dist_tasks(
                n,
                2,
                |_, _| (),
                |_, i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    // Cyclic distribution: affinity locale is i % L.
                    assert_eq!(ctx::here() as usize, i % 3);
                },
            );
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} visited once");
        }
    }

    #[test]
    fn forall_dist_task_private_state_dropped() {
        struct Probe<'a>(&'a AtomicUsize);
        impl Drop for Probe<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        let drops = AtomicUsize::new(0);
        rt.run(|| {
            rt.forall_dist_tasks(10, 3, |_, _| Probe(&drops), |_, _| ());
        });
        assert_eq!(drops.load(Ordering::Relaxed), 2 * 3);
    }

    #[test]
    fn forall_dist_with_zero_indices_still_inits_tasks() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        let inits = AtomicUsize::new(0);
        rt.run(|| {
            rt.forall_dist_tasks(
                0,
                2,
                |_, _| {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |_, _| unreachable!("no indices to visit"),
            );
        });
        assert_eq!(inits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn handle_usable_from_ctx() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let h = ctx::current_runtime();
            assert_eq!(h.num_locales(), 2);
        });
    }

    #[test]
    fn run_measured_reports_zero_for_empty_body() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        let ((), span) = rt.run_measured(|| {});
        assert_eq!(span, 0);
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            rt.on(1, || ());
        });
        assert!(rt.total_comm().am_sent > 0);
        rt.reset_metrics();
        assert!(rt.total_comm().is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn on_out_of_range_locale_panics() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            rt.on(5, || ());
        });
    }
}
