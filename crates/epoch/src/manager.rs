//! `EpochManager` — distributed epoch-based reclamation (§II-B/C).
//!
//! The manager is *privatized*: each locale holds its own instance (limbo
//! lists, token registry, epoch cache, election flag), and every access a
//! task makes goes to the instance local to that task — zero communication
//! on the hot path, which is what keeps Fig. 7's read-only workload flat
//! across locales. A single `GlobalEpoch` object (homed on locale 0) is
//! the point of consensus.
//!
//! One locale's instance is the whole of epoch-based reclamation on that
//! locale: [`crate::LocalEpochManager`] is one such instance used on its
//! own, with the instance's epoch word as *the* epoch, and both managers
//! hand out the same [`Token`].
//!
//! `try_reclaim` follows Listing 4:
//!
//! 1. Win the **local** election flag (first-come-first-serve; losers
//!    return immediately — "swiftly, without much wasted effort").
//! 2. Win the **global** election flag (losers clear the local flag and
//!    return).
//! 3. Scan every locale's allocated tokens; the advance is safe only if
//!    every token is quiescent or pinned in the current global epoch.
//! 4. If safe: bump the global epoch (`(e % 3) + 1`), then on every locale
//!    update the cached epoch and detach and drain the two-advances-old
//!    limbo list; the drained objects are **scattered** by owning locale so
//!    each destination receives one bulk-free active message instead of one
//!    RPC per object.
//! 5. Clear both flags (a drop guard: a panicking observer or handler must
//!    not leave the manager unable to ever advance again).
//!
//! Steps 3 and 4 are the paper's `coforall loc in Locales do on loc`. Here
//! each is one [`pgas_sim::RuntimeCore::on_each_locale`] fan-out: the
//! winner's own locale is handled inline, every other locale by one short
//! active message on its progress thread, all posted before any is awaited.
//! No task is spawned, and **the handlers never block or send**:
//!
//! * the step-3 handler reads its locale's tokens and replies one `bool`;
//! * the step-4 handler writes its locale's cached epoch, publishes the
//!   open bag of every token of its locale that is not pinned (see
//!   [`crate::limbo`]), drains its limbo list, frees the objects *its own*
//!   locale owns on the spot, and returns the rest in its reply (charged on
//!   the wire like a PUT of that many `Erased` records);
//! * the winner — a task, which may communicate — then frees what it owns
//!   of the returned objects inline and sends one bulk-free message per
//!   remaining owner, so an advance costs at most L−1 bulk frees however
//!   the objects were spread over the L limbo lists.
//!
//! A handler that sent its own bulk free would hold its locale's progress
//! thread while waiting on another's; two managers reclaiming toward each
//! other's locale would then deadlock with one progress thread per locale.
//! For the same reason `try_reclaim` and `clear` are to be called from
//! *tasks* (inside `run`, `coforall_*`, `forall_dist`), not from inside an
//! `on`/`on_combining` body: there they would wait for other locales while
//! occupying a progress thread.
//!
//! `clear` reclaims every limbo list unconditionally, by the same fan-out,
//! and must only be called in quiescence (single-owner teardown), as in the
//! paper. Each handler first publishes the open bag of every unpinned token
//! of its locale, as an advance does, so a token that is still alive but
//! unpinned holds nothing back from `clear`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use pgas_atomics::AtomicInt;
use pgas_sim::engine::{self, Batcher};
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::telemetry::OpClass;
use pgas_sim::{ctx, vtime, Erased, GlobalPtr, LocaleId, Privatized, RuntimeCore, RuntimeHandle};

use crate::limbo::Limbo;
use crate::math::{next_epoch, reclaim_epoch, EPOCHS};
use crate::reclaim::{ReclaimGuard, Reclaimer};
use crate::stats::{ReclaimSnapshot, ReclaimStats, Stat};
use crate::token::{TokenRegistry, TokenSlot, QUIESCENT};

/// The single, centralized epoch all locales agree on. Wrapped in its own
/// struct (the paper wraps it in a class instance) and homed on locale 0;
/// reads/writes from elsewhere are remote atomics.
struct GlobalEpoch {
    epoch: AtomicInt,
    is_setting_epoch: AtomicInt,
}

/// One locale's instance: privatized per locale by [`EpochManager`], used
/// alone by [`crate::LocalEpochManager`].
pub(crate) struct LocaleInstance {
    /// The epoch pin and defer consult. Under [`EpochManager`] a
    /// locale-private cache of the global epoch (reduces communication:
    /// never the global); under [`crate::LocalEpochManager`] the epoch.
    pub(crate) epoch: AtomicInt,
    /// Local first-come-first-serve election flag.
    pub(crate) is_setting_epoch: AtomicInt,
    limbo: Limbo,
    pub(crate) tokens: TokenRegistry,
}

/// What every backend keeps once, beside its per-locale instances: both
/// epoch managers and [`crate::HazardReclaimer`].
pub(crate) struct Shared {
    pub(crate) rt: RuntimeHandle,
    pub(crate) stats: ReclaimStats,
    /// When false, reclamation frees remote objects one active message per
    /// object instead of batching by locale, and a locale's own objects one
    /// at a time: the ablation knob for the scatter-list optimization (A1
    /// in DESIGN.md), and how `LocalEpochManager` always frees. Hazard
    /// pointers always scatter.
    use_scatter: AtomicBool,
    /// Optional reclamation observer (see
    /// [`pgas_sim::faults::invariants`]): chaos harnesses install an
    /// invariant checker here to audit defer/advance/reclaim ordering.
    /// `OnceLock` keeps the no-observer fast path to one atomic load.
    pub(crate) observer: OnceLock<Arc<dyn ReclaimObserver>>,
}

/// A manager as its tokens reach it: the one [`Reclaimer`] method a token
/// calls, behind a pointer both managers' tokens can share.
pub(crate) trait Advance: Sync {
    /// The manager's `try_reclaim`.
    fn advance(&self) -> bool;
}

impl<R: Reclaimer> Advance for R {
    fn advance(&self) -> bool {
        self.try_reclaim()
    }
}

/// Distributed epoch-based memory reclamation.
pub struct EpochManager {
    shared: Shared,
    global: GlobalEpoch,
    instances: Privatized<LocaleInstance>,
}

/// RAII registration handle for one task (the paper's token, wrapped in a
/// managed class so scope exit unregisters it), of an [`EpochManager`] or
/// a [`crate::LocalEpochManager`]. `Send` but not `Sync`: its bag has one
/// writer.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<pgas_epoch::Token<'static>>();
/// ```
pub struct Token<'a> {
    shared: &'a Shared,
    mgr: &'a dyn Advance,
    /// The instance of the locale the token registered on.
    inst: &'a LocaleInstance,
    slot: &'a TokenSlot,
    /// The held flag of a progress thread's standing slot, `None` for a
    /// slot from the free stack (see [`crate::token`]).
    standing: Option<&'a AtomicBool>,
    _one_writer: PhantomData<Cell<()>>,
}

impl EpochManager {
    /// Create a manager privatized over every locale of the current
    /// runtime. Must be called inside [`pgas_sim::RuntimeCore::run`] (or
    /// any task).
    pub fn new() -> EpochManager {
        let shared = Shared::new(true);
        let global = GlobalEpoch {
            epoch: AtomicInt::new_on(0, 1),
            is_setting_epoch: AtomicInt::new_on(0, 0),
        };
        let instances = Privatized::new(&shared.rt, LocaleInstance::new);
        EpochManager {
            shared,
            global,
            instances,
        }
    }

    /// Disable the scatter-list bulk free (remote objects are then freed
    /// one active message each). For the ablation benchmark.
    pub fn set_scatter(&self, enabled: bool) {
        self.shared.use_scatter.store(enabled, Ordering::Relaxed);
    }

    /// The global epoch (a remote read unless on locale 0).
    pub fn global_epoch(&self) -> u64 {
        self.global.epoch.read()
    }

    /// The calling locale's cached epoch.
    pub fn local_epoch(&self) -> u64 {
        self.instances.get().epoch.read()
    }

    /// Step 3 of Listing 4, the `&&` reduction over every locale's tokens:
    /// the advance is safe only if each is quiescent or pinned in
    /// `this_epoch`. One message per remote locale; the handlers only read.
    fn all_tokens_allow_advance(&self, this_epoch: u64) -> bool {
        self.shared
            .rt
            .on_each_locale(|_| self.instances.get().allows_advance(this_epoch))
            .into_iter()
            .all(|ok| ok)
    }

    /// Ablation variant of [`Reclaimer::try_reclaim`] (A3 in DESIGN.md): what
    /// reclamation costs *without* the first-come-first-serve election.
    /// Every caller performs the full cross-locale token scan before
    /// checking whether anyone else is already advancing — the redundant
    /// communication the election flags exist to stem. Memory safety is
    /// preserved (the actual advance still goes through the flags); only
    /// the wasted scan work is modeled.
    pub fn try_reclaim_unelected(&self) -> bool {
        if !self.all_tokens_allow_advance(self.global.epoch.read()) {
            self.shared.stats.bump(Stat::UnsafeScans);
            return false;
        }
        self.try_reclaim()
    }

    /// TEST-ONLY: deliberately reclaim the *current* epoch's limbo list on
    /// the calling locale — a use-after-free bug by construction (the list
    /// is zero advances old, so pinned tasks may still hold references).
    /// Exists so chaos suites can prove the invariant checker detects real
    /// reclamation bugs rather than vacuously passing; never call it in
    /// real workloads. Like an advance, it first publishes the bags of the
    /// locale's unpinned tokens, so a deletion still in a live token's bag
    /// is freed early too.
    #[doc(hidden)]
    pub fn debug_reclaim_current_epoch_early(&self) -> u64 {
        let inst = self.instances.get();
        inst.publish_idle_bags(&self.shared);
        let e = inst.epoch.read();
        let mut rest = Vec::new();
        let n = inst.drain(&self.shared, e, e, false, &mut rest);
        self.shared.free_rest([Drained { n, rest }]);
        n
    }

    /// Total token slots ever created across all locales.
    pub fn tokens_allocated(&self) -> u64 {
        self.instances
            .iter()
            .map(|(_, i)| i.tokens.allocated_count())
            .sum()
    }
}

impl Reclaimer for EpochManager {
    type Guard<'a> = Token<'a>;

    const NEEDS_PROTECT: bool = false;
    const PROTECT_SLOTS: usize = 0;

    fn register(&self) -> Token<'_> {
        self.instances.get().register(&self.shared, self)
    }

    /// Listing 4 (see the module docs): `true` if this call advanced the
    /// epoch. Callers that lose either election return immediately.
    fn try_reclaim(&self) -> bool {
        let stats = &self.shared.stats;
        // Local election: one candidate per locale.
        let Some(_local) = Elected::win(&self.instances.get().is_setting_epoch) else {
            stats.bump(Stat::LostLocalElection);
            return false;
        };
        // Global election: one candidate across the system. Dropped first,
        // so a loser releases the local flag, and the winner both flags.
        let Some(_global) = Elected::win(&self.global.is_setting_epoch) else {
            stats.bump(Stat::LostGlobalElection);
            return false;
        };

        let this_epoch = self.global.epoch.read();
        if !self.all_tokens_allow_advance(this_epoch) {
            stats.bump(Stat::UnsafeScans);
            return false;
        }
        let new_epoch = next_epoch(this_epoch);
        self.global.epoch.write(new_epoch);
        self.shared.advanced(new_epoch);
        let winner = pgas_sim::here();
        let drained = self.shared.rt.on_each_locale(|_| {
            self.instances
                .get()
                .advance(&self.shared, new_epoch, winner)
        });
        self.shared.free_rest(drained);
        true
    }

    fn clear(&self) {
        let winner = pgas_sim::here();
        let drained = self
            .shared
            .rt
            .on_each_locale(|_| self.instances.get().clear(&self.shared, winner));
        self.shared.free_rest(drained);
    }

    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        self.shared.set_observer(obs)
    }

    fn stats(&self) -> ReclaimSnapshot {
        self.shared.stats.snapshot()
    }

    fn runtime(&self) -> RuntimeHandle {
        self.shared.rt.clone()
    }

    fn backend_name(&self) -> &'static str {
        "ebr"
    }
}

/// An election flag its caller won, released on drop: also by unwinding,
/// since a flag left set would turn every later call into a lost election.
pub(crate) struct Elected<'a>(&'a AtomicInt);

impl<'a> Elected<'a> {
    /// Take `flag`, or `None` if another candidate holds it. A loser
    /// builds no guard: its drop would clear the winner's flag.
    pub(crate) fn win(flag: &'a AtomicInt) -> Option<Elected<'a>> {
        (!flag.test_and_set()).then(|| Elected(flag))
    }
}

impl Drop for Elected<'_> {
    fn drop(&mut self) {
        self.0.clear();
    }
}

/// What one locale's drain hands back to the caller of the fan-out.
pub(crate) struct Drained {
    /// Objects taken off the locale's limbo lists.
    n: u64,
    /// Those of them the draining locale does not own, still to be freed.
    rest: Vec<Erased>,
}

impl Drained {
    /// Close a drain handler: `rest` travels back in the reply, so its bytes
    /// are charged on the wire toward `winner` (as [`Batcher::flush_one`]
    /// charges a batch it ships); free on the winner's own locale. A charge
    /// only — the handler sends nothing.
    fn reply(winner: LocaleId, n: u64, rest: Vec<Erased>) -> Drained {
        if !rest.is_empty() {
            ctx::with_core(|core, _| {
                let bytes = rest.len() * std::mem::size_of::<Erased>();
                engine::put(core, winner, bytes);
            });
        }
        Drained { n, rest }
    }
}

impl LocaleInstance {
    /// A fresh instance for locale `l`: epoch 1, flag clear, nothing
    /// registered or deferred.
    pub(crate) fn new(l: LocaleId) -> LocaleInstance {
        LocaleInstance {
            epoch: AtomicInt::new_on(l, 1),
            is_setting_epoch: AtomicInt::new_on(l, 0),
            limbo: Limbo::new(),
            tokens: TokenRegistry::new(),
        }
    }

    /// Register the calling task here, as a token of `mgr`.
    pub(crate) fn register<'a>(&'a self, shared: &'a Shared, mgr: &'a dyn Advance) -> Token<'a> {
        let (slot, standing) = self.tokens.acquire();
        Token {
            shared,
            mgr,
            inst: self,
            slot,
            standing,
            _one_writer: PhantomData,
        }
    }

    /// Step 3 of Listing 4 on this locale: every token is quiescent or
    /// pinned in `this_epoch`.
    pub(crate) fn allows_advance(&self, this_epoch: u64) -> bool {
        self.tokens.iter().all(|tok| {
            let e = tok.epoch();
            e == QUIESCENT || e == this_epoch
        })
    }

    /// Step 4 of Listing 4 on this locale: write `new_epoch`, publish the
    /// bags of unpinned tokens, and drain the two-advances-old limbo list.
    /// What this locale does not own goes back to `winner`.
    pub(crate) fn advance(&self, shared: &Shared, new_epoch: u64, winner: LocaleId) -> Drained {
        self.epoch.write(new_epoch);
        self.publish_idle_bags(shared);
        let mut rest = Vec::new();
        let n = self.drain(
            shared,
            reclaim_epoch(new_epoch),
            new_epoch,
            false,
            &mut rest,
        );
        Drained::reply(winner, n, rest)
    }

    /// Publish the bags of unpinned tokens and drain every limbo list.
    pub(crate) fn clear(&self, shared: &Shared, winner: LocaleId) -> Drained {
        self.publish_idle_bags(shared);
        let mut rest = Vec::new();
        // `during_clear = true`: the caller guarantees quiescence, so age
        // rules are suspended for the observer.
        let n = (1..=EPOCHS)
            .map(|e| self.drain(shared, e, e, true, &mut rest))
            .sum();
        Drained::reply(winner, n, rest)
    }

    fn publish_idle_bags(&self, shared: &Shared) {
        shared
            .stats
            .published(self.limbo.publish_idle_bags(&self.tokens));
    }

    /// Detach this locale's limbo list for `epoch` and drain it: free what
    /// this locale owns on the spot, append everything else to `rest`.
    /// Returns the number of objects drained. Runs inside the fan-out's
    /// handlers, so it communicates with nobody. Each drained object is
    /// reported to the observer (with the epoch whose list it came from and
    /// the epoch current at reclamation) before it is freed; `during_clear`
    /// marks quiescent teardown, where the observer's age rules do not apply.
    fn drain(
        &self,
        shared: &Shared,
        epoch: u64,
        current_epoch: u64,
        during_clear: bool,
        rest: &mut Vec<Erased>,
    ) -> u64 {
        let observer = shared.observer.get();
        let here = pgas_sim::here();
        let mut mine = Vec::new();
        let (n, first_defer) = self.limbo.drain(epoch, |e| {
            if let Some(obs) = observer {
                obs.on_reclaim(e.addr(), epoch, current_epoch, during_clear);
            }
            if e.owner() == here {
                mine.push(e);
            } else {
                rest.push(e);
            }
        });
        ctx::with_core(|core, _| {
            // SAFETY: the epoch protocol guarantees no task still holds a
            // reference to anything in a two-advances-old limbo list (or the
            // caller guaranteed quiescence for clear()), and everything in
            // `mine` lives on this locale.
            unsafe {
                if shared.use_scatter.load(Ordering::Relaxed) {
                    pgas_sim::free_erased_local_batch(core, mine, false);
                } else {
                    mine.into_iter().for_each(|e| e.run_drop(core));
                }
            }
            let stats = &core.locale(here).stats;
            if first_defer != u64::MAX {
                stats.record(OpClass::Reclaim, vtime::now().saturating_sub(first_defer));
            }
            stats.record(OpClass::LimboDepth, n);
        });
        n
    }
}

impl Shared {
    /// The manager-wide part of a manager created on the current runtime.
    pub(crate) fn new(use_scatter: bool) -> Shared {
        Shared {
            rt: ctx::current_runtime(),
            stats: ReclaimStats::default(),
            use_scatter: AtomicBool::new(use_scatter),
            observer: OnceLock::new(),
        }
    }

    pub(crate) fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        if self.observer.set(obs).is_err() {
            panic!("the reclaimer already has a reclamation observer");
        }
    }

    /// Count an advance to `new_epoch` and report it to the observer,
    /// before any locale's epoch moves.
    pub(crate) fn advanced(&self, new_epoch: u64) {
        self.stats.bump(Stat::Advances);
        if let Some(obs) = self.observer.get() {
            obs.on_advance(new_epoch);
        }
    }

    /// The caller's half of the deletion phase, run as a task once the
    /// drains have joined: free every object no draining locale could free,
    /// by [`scatter_free`], or one active message per object when scatter
    /// is off.
    pub(crate) fn free_rest(&self, drained: impl IntoIterator<Item = Drained>) {
        let mut freed = 0;
        ctx::with_core(|core, here| {
            let rest = drained.into_iter().flat_map(|d| {
                freed += d.n;
                d.rest
            });
            // SAFETY: as in `LocaleInstance::drain`.
            unsafe {
                if self.use_scatter.load(Ordering::Relaxed) {
                    scatter_free(core, here, rest);
                } else {
                    rest.for_each(|e| pgas_sim::free_erased(core, e));
                }
            }
        });
        self.stats.add(Stat::ObjectsReclaimed, freed);
    }
}

/// Free `objs` by owning locale: the caller's own inline, every other
/// owner's in one bulk-free active message however many there are. The
/// scatter list is a `Batcher` over erased objects: unbounded
/// per-destination buffers with one explicit flush at the end.
///
/// # Safety
/// No task may still reach any of `objs`.
pub(crate) unsafe fn scatter_free(
    core: &RuntimeCore,
    here: LocaleId,
    objs: impl IntoIterator<Item = Erased>,
) {
    // SAFETY: the handler runs on `dest`, where every object in the batch
    // lives.
    let mut scatter = Batcher::new(core, usize::MAX, move |dest, batch: Vec<Erased>| unsafe {
        pgas_sim::free_erased_local_batch(core, batch, dest != here)
    });
    for e in objs {
        scatter.aggregate(e.owner(), e);
    }
    scatter.flush();
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EpochManager {
    fn drop(&mut self) {
        // Outside any task (the manager outlived the `run` block) this
        // re-enters the runtime, so the final reclamation is accounted.
        self.shared.rt.clone().run_here_or_enter(|| self.clear());
    }
}

impl Token<'_> {
    /// The epoch this token is pinned in (0 when unpinned).
    pub fn pinned_epoch(&self) -> u64 {
        self.slot.epoch_relaxed()
    }
}

impl ReclaimGuard for Token<'_> {
    /// Enter the current (locale-cached) epoch.
    fn pin(&self) {
        self.slot.set_epoch(self.inst.epoch.read());
    }

    fn unpin(&self) {
        self.slot.set_epoch(QUIESCENT);
    }

    fn is_pinned(&self) -> bool {
        self.slot.epoch_relaxed() != QUIESCENT
    }

    /// Wait-free: a few stores into the token's bag, plus one exchange on
    /// the local limbo list for the deletion that fills it and one pool
    /// compare-and-swap per refill of the bag's stock (see [`crate::limbo`];
    /// the bag is published by the next advance that finds the token
    /// unpinned).
    ///
    /// # Panics
    /// In debug builds, if the token is not pinned.
    fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>) {
        let e = self.slot.epoch_relaxed();
        debug_assert_ne!(e, QUIESCENT, "defer_delete requires a pinned token");
        if let Some(obs) = self.shared.observer.get() {
            obs.on_defer(ptr.addr(), e);
        }
        // SAFETY: this token holds the slot and is pinned in `e`.
        let published = unsafe { self.inst.limbo.defer(&self.slot.bag, Erased::new(ptr), e) };
        self.shared.stats.published(published);
    }

    fn try_reclaim(&self) -> bool {
        self.mgr.advance()
    }
}

impl Drop for Token<'_> {
    fn drop(&mut self) {
        // Mirrors the managed-class wrapper in the paper: going out of scope
        // unpins and unregisters. The slot is unpinned now (unless a new
        // holder took it already, and then the handshake decides): nothing
        // waits for the next advance. A standing slot keeps its bag.
        if self.inst.tokens.release(self.slot, self.standing) {
            let published = self.inst.limbo.publish_idle(self.slot);
            self.shared.stats.published(published);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalEpochManager;
    use pgas_sim::{alloc_local, alloc_on, Runtime, RuntimeConfig};
    use std::sync::atomic::AtomicUsize;

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn epochs_start_at_one_everywhere() {
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            assert_eq!(em.global_epoch(), 1);
            rt.coforall_locales(|_| {
                assert_eq!(em.local_epoch(), 1);
            });
        });
    }

    #[test]
    fn try_reclaim_advances_global_and_all_caches() {
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            assert!(em.try_reclaim());
            assert_eq!(em.global_epoch(), 2);
            rt.coforall_locales(|_| {
                assert_eq!(em.local_epoch(), 2);
            });
        });
    }

    #[test]
    fn distributed_objects_reclaimed_after_two_advances() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            {
                let tok = em.register();
                tok.pin();
                for l in 0..4 {
                    tok.defer_delete(alloc_on(&rt, l, l as u64));
                }
                tok.unpin();
            }
            assert_eq!(rt.live_objects(), 4);
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 4, "one advance is not enough");
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 0, "freed on the advance to e+2");
        });
    }

    #[test]
    fn remote_pinned_token_blocks_global_advance() {
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let pinned = std::sync::atomic::AtomicBool::new(false);
            let release = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                // A task on locale 1 stays pinned in epoch 1. A task, not an
                // `on` body: parked there it would hold locale 1's progress
                // thread, which has to serve the scan.
                s.spawn(|| {
                    rt.run_on(1, || {
                        let tok = em.register();
                        tok.pin();
                        pinned.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        tok.unpin();
                    });
                });
                while !pinned.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert!(em.try_reclaim(), "pinned in current epoch: ok");
                assert_eq!(em.global_epoch(), 2);
                assert!(
                    !em.try_reclaim(),
                    "token on locale 1 still pinned in epoch 1"
                );
                assert_eq!(em.global_epoch(), 2);
                release.store(true, Ordering::SeqCst);
            });
            assert!(em.try_reclaim(), "after unpin the advance goes through");
        });
    }

    #[test]
    fn observer_sees_clean_defer_advance_reclaim_ordering() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                for l in 0..4 {
                    tok.defer_delete(alloc_on(&rt, l, l as u64));
                }
                tok.unpin();
            }
            em.try_reclaim();
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(checker.defers(), 4);
            assert_eq!(checker.advances(), 2);
            assert_eq!(checker.reclaims(), 4);
            checker.check().expect("two-advance reclamation is legal");
        });
    }

    #[test]
    fn deliberately_early_reclamation_is_caught_by_the_checker() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, 7u64));
                tok.unpin();
            }
            // The planted bug: free the current epoch's limbo list with
            // zero advances. The objects really are freed (no task holds a
            // reference here), but the checker must flag the protocol
            // violation.
            let freed = em.debug_reclaim_current_epoch_early();
            assert_eq!(freed, 1);
            let errs = checker.check().unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains("early reclamation")),
                "checker must catch the planted early free: {errs:?}"
            );
        });
    }

    #[test]
    fn early_reclamation_is_caught_while_the_token_stays_registered() {
        // Twin of the test above with the token kept alive: its one
        // deletion is still in the token's open bag when the planted bug
        // runs, as in the chaos self-test.
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            let tok = em.register();
            tok.pin();
            tok.defer_delete(alloc_local(&rt, 7u64));
            tok.unpin();
            let freed = em.debug_reclaim_current_epoch_early();
            assert_eq!(freed, 1);
            let errs = checker.check().unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains("early reclamation")),
                "checker must catch the planted early free: {errs:?}"
            );
        });
    }

    #[test]
    fn clear_does_not_trip_the_observer() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_on(&rt, 1, 1u64));
                tok.unpin();
            }
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            checker.check().expect("clear() is exempt from age rules");
        });
    }

    #[test]
    fn scatter_uses_one_bulk_am_per_remote_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            {
                let tok = em.register();
                tok.pin();
                for i in 0..30 {
                    tok.defer_delete(alloc_on(&rt, (i % 4) as LocaleId, i as u64));
                }
                tok.unpin();
            }
            rt.reset_metrics();
            em.clear();
            let s = rt.total_comm();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(s.bulk_frees, 3, "one bulk AM per remote destination");
            assert_eq!(s.remote_frees, 0, "no per-object frees");
            assert_eq!(s.bulk_freed_objects, 30);
        });
    }

    #[test]
    fn scatter_free_is_one_am_per_remote_owner_and_none_for_local_or_empty() {
        let rt = Runtime::cluster(3);
        rt.run(|| {
            let remote: Vec<_> = (0..10u64)
                .map(|i| Erased::new(alloc_on(&rt, 2, i)))
                .collect();
            rt.reset_metrics(); // ignore allocation traffic
            unsafe { scatter_free(&rt, 0, remote) };
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1, "one AM for ten objects");
            assert_eq!(s.bulk_frees, 1);
            assert_eq!(s.bulk_freed_objects, 10);

            let local: Vec<_> = (0..5u64)
                .map(|i| Erased::new(alloc_local(&rt, i)))
                .collect();
            rt.reset_metrics();
            unsafe { scatter_free(&rt, 0, local) };
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 0);
            assert_eq!(s.bulk_frees, 0, "local batch: no AM counted");
            assert_eq!(s.bulk_freed_objects, 5);

            rt.reset_metrics();
            unsafe { scatter_free(&rt, 0, Vec::new()) };
            assert!(
                rt.total_comm().is_zero(),
                "an empty scatter list is a no-op"
            );
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn scatter_disabled_pays_per_object_ams() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            em.set_scatter(false);
            {
                let tok = em.register();
                tok.pin();
                for i in 0..30 {
                    tok.defer_delete(alloc_on(&rt, (i % 4) as LocaleId, i as u64));
                }
                tok.unpin();
            }
            rt.reset_metrics();
            em.clear();
            let s = rt.total_comm();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(s.bulk_frees, 0);
            assert_eq!(
                s.remote_frees, 22,
                "30 objects, 8 local to their drain locale (i%4==0 drained \
                 on locale 0): the rest pay one AM each"
            );
        });
    }

    #[test]
    fn election_admits_one_global_winner() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            let wins = AtomicUsize::new(0);
            rt.forall_dist_tasks(
                64,
                2,
                |_, _| (),
                |_, _| {
                    if em.try_reclaim() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
            let s = em.stats();
            assert_eq!(s.advances as usize, wins.load(Ordering::Relaxed));
            assert_eq!(
                s.advances + s.lost_local_election + s.lost_global_election + s.unsafe_scans,
                64
            );
        });
    }

    #[test]
    fn a_lost_election_leaves_the_winners_flags_set() {
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let local = &em.instances.get().is_setting_epoch;
            let global = &em.global.is_setting_epoch;
            // Another candidate holds the global flag: the loser gives back
            // its local one and leaves the global one alone.
            assert!(!global.test_and_set());
            assert!(!em.try_reclaim());
            assert_eq!((local.read(), global.read()), (0, 1));
            global.clear();
            // Another candidate of this locale holds the local flag.
            assert!(!local.test_and_set());
            assert!(!em.try_reclaim());
            assert_eq!((local.read(), global.read()), (1, 0));
            local.clear();
            assert!(em.try_reclaim());
            let s = em.stats();
            assert_eq!((s.lost_global_election, s.lost_local_election), (1, 1));
        });
    }

    #[test]
    fn listing5_microbenchmark_workload() {
        // The paper's Listing 5, miniaturized: distributed objects, each
        // task defers deletion of the objects it visits and periodically
        // tries to reclaim.
        let rt = zrt(4);
        rt.run(|| {
            let num_objects = 400;
            let em = EpochManager::new();
            let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
                .map(|i| alloc_on(&rt, (i % 4) as LocaleId, i as u64))
                .collect();
            assert_eq!(rt.live_objects(), num_objects as i64);
            rt.forall_dist_tasks(
                num_objects,
                2,
                |_, _| (em.register(), 0u64),
                |(tok, m), i| {
                    tok.pin();
                    tok.defer_delete(objs[i]);
                    tok.unpin();
                    *m += 1;
                    if *m % 16 == 0 {
                        tok.try_reclaim();
                    }
                },
            );
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            let s = em.stats();
            assert_eq!(s.objects_deferred, num_objects as u64);
            assert_eq!(s.objects_reclaimed, num_objects as u64);
        });
    }

    #[test]
    fn tokens_usable_from_every_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            rt.coforall_locales(|l| {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, l as u64));
                tok.unpin();
            });
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(em.tokens_allocated(), 4, "one slot per locale");
        });
    }

    #[test]
    fn a_panic_in_the_winner_or_a_handler_releases_both_election_flags() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Hook {
            Advance,
            Reclaim,
        }
        /// Panics the first time `hook` fires, then never again.
        struct PanicOnce {
            hook: Hook,
            fired: AtomicBool,
        }
        impl PanicOnce {
            fn trip(&self, hook: Hook) {
                if hook == self.hook && !self.fired.swap(true, Ordering::SeqCst) {
                    panic!("observer boom in {hook:?}");
                }
            }
        }
        impl ReclaimObserver for PanicOnce {
            fn on_defer(&self, _: usize, _: u64) {}
            fn on_advance(&self, _: u64) {
                self.trip(Hook::Advance);
            }
            fn on_reclaim(&self, _: usize, _: u64, _: u64, _: bool) {
                self.trip(Hook::Reclaim);
            }
        }

        /// Six `try_reclaim` calls, the observer panicking in one of them.
        /// Under `EpochManager`, `Advance` panics on the winner between the
        /// two fan-outs and `Reclaim` inside locale 1's drain handler, and
        /// reaches the winner through the reply; under `LocalEpochManager`
        /// both panic inline on the caller. The drain's first object is lost
        /// with it: leaked, not freed.
        fn six_calls_one_panic<R: Reclaimer>(hook: Hook, leaked: i64) {
            let rt = zrt(2);
            rt.run(|| {
                let em = R::default();
                let row = format!("{} {hook:?}", em.backend_name());
                em.set_observer(Arc::new(PanicOnce {
                    hook,
                    fired: AtomicBool::new(false),
                }));
                let defer_on_locale_1 = |n: u64| {
                    rt.coforall_locales(|l| {
                        if l == 1 {
                            let tok = em.register();
                            tok.pin();
                            for i in 0..n {
                                tok.defer_delete(alloc_local(&rt, i));
                            }
                            tok.unpin();
                        }
                    })
                };
                defer_on_locale_1(1);
                let mut panics = 0;
                let mut advances = 0;
                for _ in 0..6 {
                    match catch_unwind(AssertUnwindSafe(|| em.try_reclaim())) {
                        Ok(advanced) => advances += advanced as u32,
                        Err(_) => panics += 1,
                    }
                }
                assert_eq!(panics, 1, "{row}: the observer panics once");
                assert_eq!(
                    advances, 5,
                    "{row}: every later call wins the elections again"
                );
                defer_on_locale_1(7);
                em.clear();
                assert_eq!(rt.live_objects(), leaked, "{row}");
                let s = em.stats();
                assert_eq!(s.objects_deferred, 8, "{row}");
                assert_eq!(s.lost_local_election + s.lost_global_election, 0, "{row}");
            });
        }

        for (hook, leaked) in [(Hook::Advance, 0), (Hook::Reclaim, 1)] {
            six_calls_one_panic::<EpochManager>(hook, leaked);
            six_calls_one_panic::<LocalEpochManager>(hook, leaked);
        }
    }

    #[test]
    fn two_managers_reclaiming_toward_each_other_finish() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        // Task `l` wins manager `l`'s elections; the objects waiting in that
        // manager's list on the *other* locale are owned by locale `l`. A
        // drain handler that shipped them home itself would wait for locale
        // `l`'s one progress thread while occupying its own — and the other
        // manager's handler does the same in the opposite direction.
        let (done, watchdog) = channel();
        let worker = std::thread::spawn(move || {
            let rt = Runtime::new(RuntimeConfig::cluster(2));
            assert_eq!(rt.config.progress_threads, 1);
            rt.run(|| {
                let ems = [EpochManager::new(), EpochManager::new()];
                rt.coforall_locales(|l| {
                    let other = 1 - l;
                    let mine = &ems[l as usize];
                    let theirs = ems[other as usize].register();
                    for i in 0..1500u64 {
                        theirs.pin();
                        theirs.defer_delete(alloc_on(&rt, other, i));
                        theirs.unpin();
                        if i % 4 == 0 {
                            mine.try_reclaim();
                        }
                    }
                });
                for em in &ems {
                    em.clear();
                    let s = em.stats();
                    assert_eq!(s.objects_deferred, 1500);
                    assert_eq!(s.objects_reclaimed, 1500);
                    assert!(s.advances > 0);
                }
                assert_eq!(rt.live_objects(), 0);
            });
            let _ = done.send(());
        });
        match watchdog.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(()) => worker.join().expect("worker panicked after finishing"),
            // The worker dropped its sender by panicking: show that panic.
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                worker.join().expect_err("sender dropped without a panic"),
            ),
            Err(RecvTimeoutError::Timeout) => {
                panic!("two reclaiming managers deadlocked on their progress threads")
            }
        }
    }

    #[test]
    fn winner_frees_its_own_inline_and_sends_one_bulk_am_per_other_owner() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            // Locale 0 will win. Its own list holds 6 objects of locale 2;
            // locale 1's holds 5 of locale 0, 4 of locale 2 and 3 of its own.
            rt.coforall_locales(|l| {
                let deferred: &[(LocaleId, u64)] = match l {
                    0 => &[(2, 6)],
                    1 => &[(0, 5), (2, 4), (1, 3)],
                    _ => &[],
                };
                let tok = em.register();
                tok.pin();
                for &(owner, n) in deferred {
                    for i in 0..n {
                        tok.defer_delete(alloc_on(&rt, owner, i));
                    }
                }
                tok.unpin();
            });
            assert_eq!(rt.live_objects(), 18);
            rt.reset_metrics();
            assert!(em.try_reclaim());
            assert!(em.try_reclaim());
            assert_eq!(rt.live_objects(), 0);
            let s = rt.total_comm();
            assert_eq!(
                s.bulk_frees, 1,
                "locale 0's five come home in the reply and cost no bulk free; \
                 locale 2's ten, from two lists, share one"
            );
            assert_eq!(s.remote_frees, 0);
            assert_eq!(s.bulk_freed_objects, 18);
            assert_eq!(
                s.am_sent, 9,
                "per advance one scan and one drain message to each of two \
                 locales, plus the one bulk free"
            );
            // The reply is not free: locale 1's handler is charged a PUT of
            // the nine records it hands back, as the winner's scatter is for
            // the ten it ships to locale 2.
            let record = std::mem::size_of::<Erased>() as u64;
            let from_1 = rt.locale(1).stats.snapshot();
            assert_eq!((from_1.puts, from_1.bytes_put), (1, 9 * record));
            let from_0 = rt.locale(0).stats.snapshot();
            assert_eq!((from_0.puts, from_0.bytes_put), (1, 10 * record));
            assert_eq!(rt.locale(2).stats.snapshot().puts, 0);

            let r = em.stats();
            assert_eq!(r.objects_deferred, 18);
            assert_eq!(r.objects_reclaimed, 18);
            checker.check().expect("two-advance reclamation is legal");
        });
    }

    #[test]
    fn manager_dropped_outside_run_still_reclaims() {
        fn dropped_outside_run<R: Reclaimer>() {
            let rt = zrt(2);
            let em = rt.run(|| {
                let em = R::default();
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_on(&rt, 1, 5u64));
                tok.unpin();
                drop(tok);
                em
            });
            assert_eq!(rt.live_objects(), 1);
            drop(em); // re-enters the runtime to clear
            assert_eq!(rt.live_objects(), 0, "{}", std::any::type_name::<R>());
        }
        dropped_outside_run::<EpochManager>();
        dropped_outside_run::<LocalEpochManager>();
    }

    #[test]
    fn a_bag_of_deletions_costs_one_pool_dcas_and_one_exchange() {
        use crate::limbo::BAG;
        let rt = Runtime::cluster(2); // network atomics on: every charge counts
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            let mut objs: Vec<_> = (0..2 * BAG as u64).map(|i| alloc_on(&rt, 1, i)).collect();
            tok.pin();
            rt.reset_metrics();
            let counts = || {
                let s = rt.total_comm();
                (s.cpu_dcas, s.rdma_atomics, em.stats().objects_deferred)
            };
            for _ in 1..BAG {
                tok.defer_delete(objs.pop().unwrap());
            }
            assert_eq!(
                counts(),
                (1, 0, 0),
                "opening the bag read the (empty) pool once; the rest were stores"
            );
            tok.defer_delete(objs.pop().unwrap());
            assert_eq!(counts(), (1, 1, BAG as u64), "the full bag went out");
            while let Some(o) = objs.pop() {
                tok.defer_delete(o);
            }
            assert_eq!(counts(), (2, 2, 2 * BAG as u64));
            tok.unpin();
            drop(tok);
            em.clear();
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn clear_publishes_the_bags_of_live_tokens() {
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let ready = std::sync::Barrier::new(2);
            let cleared = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                // A task on locale 1 keeps its token, and the five deletions
                // in its open bag, alive across the clear. A task, not an `on`
                // body: clear needs locale 1's progress thread.
                s.spawn(|| {
                    rt.run_on(1, || {
                        let tok = em.register();
                        tok.pin();
                        for i in 0..5 {
                            tok.defer_delete(alloc_on(&rt, 0, i));
                        }
                        tok.unpin();
                        ready.wait();
                        cleared.wait();
                    });
                });
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_on(&rt, 1, 5u64));
                tok.unpin();
                ready.wait();
                assert_eq!(rt.live_objects(), 6);
                em.clear();
                assert_eq!(rt.live_objects(), 0, "both tokens' bags were cleared");
                let s = em.stats();
                assert_eq!((s.objects_deferred, s.objects_reclaimed), (6, 6));
                cleared.wait();
            });
            assert_eq!(em.stats().objects_deferred, 6, "nothing published twice");
        });
    }

    #[test]
    fn an_open_bag_frees_nothing_before_its_latest_deletion_is_two_advances_old() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            let tok = em.register();
            tok.pin(); // in epoch 1
            tok.defer_delete(alloc_on(&rt, 1, 0u64));
            assert!(em.try_reclaim(), "1 → 2; the pinned token keeps its bag");
            tok.unpin();
            tok.pin(); // in epoch 2
            tok.defer_delete(alloc_on(&rt, 1, 1u64)); // into the same open bag
            tok.unpin();
            assert!(
                em.try_reclaim(),
                "publishes the idle bag, then advances to 3"
            );
            assert_eq!(
                rt.live_objects(),
                2,
                "the bag went to epoch 2's list, not epoch 1's, which the \
                 advance to 3 drained: the paper frees the first object here"
            );
            assert!(em.try_reclaim());
            assert_eq!(rt.live_objects(), 0, "the advance to 1 drains epoch 2's");
            assert_eq!((checker.defers(), checker.reclaims()), (2, 2));
            checker.check().expect("no list drained early");
        });
    }

    #[test]
    fn an_advance_publishes_the_bags_of_live_unpinned_tokens_on_every_locale() {
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            let ready = std::sync::Barrier::new(3);
            let reclaimed = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                // Tasks on locales 1 and 2 keep their tokens, and the
                // deletions in their open bags, alive across the advances.
                for l in 1..3 {
                    let (em, rt, ready, reclaimed) = (&em, &rt, &ready, &reclaimed);
                    s.spawn(move || {
                        rt.run_on(l, || {
                            let tok = em.register();
                            tok.pin();
                            for i in 0..5 {
                                tok.defer_delete(alloc_on(rt, 0, i));
                            }
                            tok.unpin();
                            ready.wait();
                            reclaimed.wait();
                        });
                    });
                }
                ready.wait();
                assert_eq!(rt.live_objects(), 10);
                assert!(em.try_reclaim());
                assert_eq!(rt.live_objects(), 10, "one advance is not enough");
                assert!(em.try_reclaim());
                assert_eq!(rt.live_objects(), 0, "freed on the advance to e+2");
                let s = em.stats();
                assert_eq!((s.objects_deferred, s.objects_reclaimed), (10, 10));
                reclaimed.wait();
            });
        });
    }

    #[test]
    fn a_token_pinned_at_every_advance_holds_back_at_most_bag_minus_one() {
        use crate::limbo::BAG;
        const PER_PIN: u64 = 3;
        let rt = zrt(1);
        rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            for round in 0..4 * BAG as u64 {
                tok.pin();
                for i in 0..PER_PIN {
                    tok.defer_delete(alloc_local(&rt, round * PER_PIN + i));
                }
                assert!(em.try_reclaim(), "pinned in the current epoch");
                tok.unpin();
                // The paper frees all but this pin's deletions here: the
                // previous pin's epoch is two advances old now.
                let held_back = (rt.live_objects() as u64)
                    .checked_sub(PER_PIN)
                    .expect("this pin's deletions were freed early");
                assert!(
                    held_back < BAG as u64,
                    "round {round}: {held_back} deletions held back"
                );
            }
            assert!(em.try_reclaim(), "finds the token unpinned");
            assert!(em.try_reclaim());
            assert_eq!(rt.live_objects(), 0, "nothing held back once unpinned");
        });
    }
}
