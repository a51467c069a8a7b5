//! `HazardReclaimer` — distributed hazard pointers as a first-class
//! [`crate::Reclaimer`] backend.
//!
//! Michael's hazard pointers (§I refs \[7\]/\[9\]) in the full PGAS
//! setting, so the structure layer can swap them in for the
//! `EpochManager`. The trade is classic: hazard pointers bound unreclaimed
//! garbage per task and tolerate stalled readers, but every pointer
//! *acquisition* costs a store + fence + validating re-read, whereas EBR
//! amortizes protection over a whole pinned region. The paper chooses EBR
//! for exactly that amortization; on a one-locale runtime this backend is
//! the shared-memory baseline that makes the choice measurable
//! (`harness -- ablations`, A6).
//!
//! Each locale keeps the two lock-free parts of an epoch manager's locale
//! instance, a [`TokenRegistry`] and a limbo ([`crate::limbo`]):
//!
//! - **Registry.** A guard registers like a `Token`, in a slot that carries
//!   the [`DIST_HP_SLOTS`] hazard words; a handler gets its progress
//!   thread's standing slot. A scan reads *every* slot on *every* locale,
//!   each cross-locale read charged as a remote atomic — the honest
//!   distributed scan cost that EBR's single epoch counter amortizes away.
//! - **Limbo.** A retire goes into the slot's bag, with the slot's epoch
//!   word set only while it writes it, so a scan may publish the bag of a
//!   slot that is not mid-retire (the handshake in [`crate::limbo`]). A
//!   scan on another locale pays for that handshake and for each exchange
//!   on the locale's lists as remote atomics too.
//! - **Scans.** `try_reclaim` publishes the idle bags, detaches every
//!   locale's list, collects the hazards, frees what none covers by the
//!   `EpochManager`'s scatter bulk free (one active message per remote
//!   owner), and puts the rest back; a guard does the same for its own
//!   locale after every [`SCAN_THRESHOLD`] retires of its slot. Nothing
//!   locks, so a parked scan holds up neither another scan nor a retire.
//! - **Stall tolerance.** A guard that never unpins blocks nothing: only
//!   the ≤ [`DIST_HP_SLOTS`] addresses it has published stay live, so
//!   garbage is bounded per slot — by `SCAN_THRESHOLD − 1` open retires
//!   plus `DIST_HP_SLOTS` protected objects, times the slots ever
//!   allocated — the property ablation A8 measures against EBR's unbounded
//!   limbo growth under the `stalled_task` plan.
//!
//! Stats mapping onto [`ReclaimSnapshot`]: scans count as `advances`,
//! retires as `objects_deferred`, frees as `objects_reclaimed`,
//! hazard-blocked frees as `unsafe_scans`, and validated protections as
//! `hazard_protects`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pgas_atomics::{Aba, AtomicAbaObject, AtomicObject};
use pgas_sim::engine;
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::telemetry::OpClass;
use pgas_sim::{ctx, vtime, Erased, GlobalPtr, Privatized, RuntimeHandle};

use crate::limbo::Limbo;
use crate::manager::{scatter_free, Shared};
use crate::reclaim::{ReclaimGuard, Reclaimer};
use crate::stats::{ReclaimSnapshot, Stat};
use crate::token::{TokenRegistry, TokenSlot, QUIESCENT};

/// Retires through one slot between two of its holders' inline scans.
pub const SCAN_THRESHOLD: usize = 64;

/// Hazard slots per participant. The structures shipped here use at
/// most two (hand-over-hand walking pairs, or the queue's head +
/// successor); the rest is headroom for richer multi-slot protocols
/// without a participant-record layout change.
pub const DIST_HP_SLOTS: usize = 16;

/// The epoch word of a slot mid-retire, and the one limbo list's epoch.
const RETIRING: u64 = 1;

/// What a hazard-pointer slot carries besides its epoch word and bag.
#[derive(Default)]
struct Hazards {
    words: [AtomicUsize; DIST_HP_SLOTS],
    /// Retires through the slot since one of its holders last scanned.
    retires: AtomicUsize,
}

/// One locale's registry and limbo.
struct HpLocale {
    tokens: TokenRegistry<Hazards>,
    limbo: Limbo,
}

/// Distributed hazard-pointer reclamation (see module docs).
pub struct HazardReclaimer {
    /// The runtime, counters and observer, kept as the epoch managers keep
    /// them.
    shared: Shared,
    locales: Privatized<HpLocale>,
}

impl HazardReclaimer {
    /// Create a reclaimer spanning every locale of the current runtime.
    pub fn new() -> HazardReclaimer {
        let shared = Shared::new(true);
        let locales = Privatized::new(&shared.rt, |_| HpLocale {
            tokens: TokenRegistry::with_charges(false),
            limbo: Limbo::new(),
        });
        HazardReclaimer { shared, locales }
    }

    /// Every address currently published in any slot on any locale. Each
    /// slot read is charged as a remote atomic toward the owning locale —
    /// the distributed scan cost.
    fn collect_hazards(&self) -> Vec<usize> {
        let mut hazards = Vec::new();
        for (locale, l) in self.locales.iter() {
            for slot in l.tokens.iter() {
                for h in &slot.extra.words {
                    engine::charge_atomic_u64(locale);
                    let a = h.load(Ordering::SeqCst);
                    if a != 0 {
                        hazards.push(a);
                    }
                }
            }
        }
        hazards.sort_unstable();
        hazards
    }

    /// Publish the idle bags and detach the lists of the locales `of`, *then*
    /// collect every locale's hazards (if `respect`), then free what no
    /// hazard covers and put the rest back; `clear` tells the observer. The
    /// detach-before-collect order is what makes helping sound: anything
    /// detached was retired — hence unlinked — before the collection, so a
    /// validated protection of it must already be visible. Returns the
    /// number freed.
    fn scan<'a>(&self, of: impl Iterator<Item = &'a HpLocale>, respect: bool, clear: bool) -> u64 {
        let detached: Vec<_> = of
            .filter_map(|l| {
                l.limbo.publish_idle_bags(&l.tokens);
                let empty = l.limbo.is_empty(RETIRING);
                (!empty).then(|| (&l.limbo, l.limbo.detach(RETIRING)))
            })
            .collect();
        if detached.is_empty() {
            return 0;
        }
        self.shared.stats.bump(Stat::Advances);
        let hazards = if respect {
            self.collect_hazards()
        } else {
            Vec::new()
        };
        let observer = self.shared.observer.get();
        let recycle = &self.locales.get().limbo;
        let mut kept = 0;
        let freed = ctx::with_core(|core, here| {
            let stats = &core.locale(here).stats;
            let mut unprotected = Vec::new();
            for (limbo, (list, first)) in detached {
                let keep = |e: &Erased| hazards.binary_search(&e.addr()).is_ok();
                let (n, held) = limbo.drain_detached(list, RETIRING, recycle, keep, |e| {
                    if let Some(obs) = observer {
                        obs.on_reclaim(e.addr(), 0, 0, clear);
                    }
                    unprotected.push(e);
                });
                kept += held;
                if first != u64::MAX {
                    stats.record(OpClass::Reclaim, vtime::now().saturating_sub(first));
                }
                stats.record(OpClass::LimboDepth, n + held);
            }
            let freed = unprotected.len() as u64;
            // SAFETY: no hazard covers anything unprotected (or the caller
            // guaranteed quiescence for clear()).
            unsafe { scatter_free(core, here, unprotected) };
            freed
        });
        self.shared.stats.add(Stat::ObjectsReclaimed, freed);
        self.shared.stats.add(Stat::UnsafeScans, kept);
        freed
    }

    /// Deliberately run a scan that ignores every published hazard, with
    /// no quiescence excuse — the planted bug for checker self-tests,
    /// mirroring `EpochManager::debug_reclaim_current_epoch_early`. An
    /// installed `InvariantChecker` must flag any free of a validated
    /// protection.
    #[doc(hidden)]
    pub fn debug_scan_ignoring_hazards(&self) {
        self.scan(self.locales.iter().map(|(_, l)| l), false, false);
    }

    /// Registry slots ever allocated, across all locales.
    pub fn participants_allocated(&self) -> u64 {
        self.locales
            .iter()
            .map(|(_, l)| l.tokens.allocated_count())
            .sum()
    }
}

impl Default for HazardReclaimer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HazardReclaimer {
    fn drop(&mut self) {
        self.shared.rt.clone().run_here_or_enter(|| self.clear());
    }
}

/// A registered participant's guard. `!Sync`: the slots and the shadow
/// protection table belong to one task.
pub struct HpGuard<'a> {
    dom: &'a HazardReclaimer,
    /// The locale the guard registered on, and its slot there.
    locale: &'a HpLocale,
    slot: &'a TokenSlot<Hazards>,
    /// The held flag of a progress thread's standing slot, `None` for a
    /// slot from the free stack.
    standing: Option<&'a AtomicBool>,
    /// Addresses whose protection has been *validated* per slot (0 =
    /// none) — the observer-facing shadow of the published slots.
    validated: [Cell<usize>; DIST_HP_SLOTS],
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl<'a> HpGuard<'a> {
    /// Publish `addr` in `slot` (charged SeqCst store). Any previously
    /// *validated* protection in the slot is released first: from this
    /// store on, scans may free the old object.
    fn publish(&self, slot: usize, addr: usize) {
        assert!(slot < DIST_HP_SLOTS);
        self.end_validated(slot);
        engine::charge_local_atomic_u64();
        self.slot.extra.words[slot].store(addr, Ordering::SeqCst);
    }

    /// Report the protection validated in `slot`, if any, as released.
    fn end_validated(&self, slot: usize) {
        let old = self.validated[slot].replace(0);
        if old != 0 {
            if let Some(obs) = self.dom.shared.observer.get() {
                obs.on_release(old);
            }
        }
    }

    /// Record that the protection published in `slot` was validated.
    fn validated_protect(&self, slot: usize, addr: usize) {
        if addr != 0 {
            self.dom.shared.stats.bump(Stat::HazardProtects);
            self.validated[slot].set(addr);
            if let Some(obs) = self.dom.shared.observer.get() {
                obs.on_protect(addr);
            }
        }
    }

    /// The backing reclaimer.
    pub fn reclaimer(&self) -> &HazardReclaimer {
        self.dom
    }
}

impl ReclaimGuard for HpGuard<'_> {
    /// Hazard pointers have no epochs: entering a region is free (the
    /// per-pointer `protect*` calls carry the cost instead).
    #[inline]
    fn pin(&self) {}

    #[inline]
    fn unpin(&self) {}

    #[inline]
    fn is_pinned(&self) -> bool {
        true
    }

    /// Retire a logically-removed object (any locale); freed by a later
    /// scan once no slot protects it.
    fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>) {
        self.dom.shared.stats.bump(Stat::ObjectsDeferred);
        if let Some(obs) = self.dom.shared.observer.get() {
            obs.on_defer(ptr.addr(), 0);
        }
        self.slot.set_epoch_fenced(RETIRING);
        // SAFETY: this guard holds the slot, of its own locale, and marked
        // it retiring.
        unsafe {
            self.locale
                .limbo
                .defer(&self.slot.bag, Erased::new(ptr), RETIRING)
        };
        self.slot.set_epoch_fenced(QUIESCENT);
        let retires = &self.slot.extra.retires;
        let n = retires.load(Ordering::Relaxed) + 1;
        if n < SCAN_THRESHOLD {
            retires.store(n, Ordering::Relaxed);
        } else {
            // Only this locale's lists: a retire may run in a handler, which
            // must not send other locales' owners blocking bulk frees. This
            // list sends none while handlers retire only their own locale's
            // objects, as the structures' handlers do.
            retires.store(0, Ordering::Relaxed);
            self.dom.scan(std::iter::once(self.locale), true, false);
        }
    }

    fn try_reclaim(&self) -> bool {
        self.dom.try_reclaim()
    }

    fn protect_root<T>(&self, slot: usize, cell: &AtomicObject<T>) -> GlobalPtr<T> {
        loop {
            let p = cell.read();
            self.publish(slot, p.without_mark().addr());
            if cell.read() == p {
                self.validated_protect(slot, p.without_mark().addr());
                return p;
            }
        }
    }

    fn protect_root_aba<T>(&self, slot: usize, cell: &AtomicAbaObject<T>) -> Aba<T> {
        loop {
            let p = cell.read_aba();
            self.publish(slot, p.get_object().without_mark().addr());
            if cell.read_aba() == p {
                self.validated_protect(slot, p.get_object().without_mark().addr());
                return p;
            }
        }
    }

    fn protect_ptr<T>(
        &self,
        slot: usize,
        ptr: GlobalPtr<T>,
        revalidate: impl FnOnce() -> bool,
    ) -> bool {
        let addr = ptr.without_mark().addr();
        self.publish(slot, addr);
        if revalidate() {
            self.validated_protect(slot, addr);
            true
        } else {
            false
        }
    }

    /// Copy an already-protected pointer into `slot`: the existing
    /// hazard keeps the object live across the store, so no validation
    /// is needed.
    fn protect_copy<T>(&self, slot: usize, ptr: GlobalPtr<T>) {
        let addr = ptr.without_mark().addr();
        self.publish(slot, addr);
        self.validated_protect(slot, addr);
    }

    fn release(&self, slot: usize) {
        self.publish(slot, 0);
    }
}

impl Drop for HpGuard<'_> {
    fn drop(&mut self) {
        for slot in 0..DIST_HP_SLOTS {
            self.end_validated(slot);
            self.slot.extra.words[slot].store(0, Ordering::SeqCst);
        }
        // The bag stays in the slot, for the next scan to publish.
        self.locale.tokens.release(self.slot, self.standing);
    }
}

impl Reclaimer for HazardReclaimer {
    type Guard<'a> = HpGuard<'a>;

    const NEEDS_PROTECT: bool = true;
    const PROTECT_SLOTS: usize = DIST_HP_SLOTS;

    /// A handler on a progress thread gets the thread's standing slot.
    fn register(&self) -> HpGuard<'_> {
        let locale = self.locales.get();
        let (slot, standing) = locale.tokens.acquire();
        HpGuard {
            dom: self,
            locale,
            slot,
            standing,
            validated: std::array::from_fn(|_| Cell::new(0)),
            _not_sync: std::marker::PhantomData,
        }
    }

    /// Scan all retire lists, freeing everything unprotected. Returns
    /// `true` when anything was freed.
    fn try_reclaim(&self) -> bool {
        self.scan(self.locales.iter().map(|(_, l)| l), true, false) > 0
    }

    /// Free *everything* retired, ignoring hazards; callers guarantee
    /// quiescence (all guards dropped or released).
    fn clear(&self) {
        self.scan(self.locales.iter().map(|(_, l)| l), false, true);
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
        "hp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, alloc_on, Runtime, RuntimeConfig};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    impl HazardReclaimer {
        /// Upper bound on un-reclaimed garbage while no scan runs, with `p`
        /// slots ever allocated. A scan frees all that no hazard covers in
        /// the idle open bags and lists it covers, so they hold at most the
        /// `SCAN_THRESHOLD − 1` retires each slot made since its last
        /// inline scan, plus the `DIST_HP_SLOTS` objects each slot's
        /// hazards may keep.
        fn garbage_bound(&self) -> u64 {
            let p = self.participants_allocated();
            p * (SCAN_THRESHOLD as u64 - 1) + p * DIST_HP_SLOTS as u64
        }
    }

    #[test]
    fn retire_scan_roundtrip_across_locales() {
        let rt = zrt(4);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            rt.coforall_locales(|l| {
                let g = dom.register();
                // Retire remote objects too: each locale retires onto the
                // next one over.
                for i in 0..10u64 {
                    let owner = ((l as usize + 1) % 4) as pgas_sim::LocaleId;
                    let p = ctx::with_core(|core, _| alloc_on(core, owner, i));
                    g.defer_delete(p);
                }
            });
            assert!(dom.try_reclaim());
            assert_eq!(dom.stats().objects_reclaimed, 40);
            assert_eq!(dom.stats().objects_deferred, 40);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn protected_object_survives_scans_until_release() {
        let rt = zrt(2);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let reader = dom.register();
            let writer = dom.register();
            let obj = ctx::with_core(|core, _| alloc_local(core, 42u64));
            let cell = AtomicObject::new(obj);

            let protected = reader.protect_root(0, &cell);
            assert_eq!(protected, obj);

            let fresh = ctx::with_core(|core, _| alloc_local(core, 43u64));
            let old = cell.exchange(fresh);
            writer.defer_delete(old);
            dom.try_reclaim();
            assert_eq!(dom.stats().objects_reclaimed, 0, "hazard blocks the scan");
            assert_eq!(unsafe { *protected.deref() }, 42);

            reader.release(0);
            assert!(dom.try_reclaim());
            assert_eq!(dom.stats().objects_reclaimed, 1);

            writer.defer_delete(cell.read());
            drop(reader);
            drop(writer);
            dom.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn remote_frees_ride_the_scatter_path() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let g = dom.register();
            for i in 0..20u64 {
                let p = ctx::with_core(|core, _| alloc_on(core, 1, i));
                g.defer_delete(p);
            }
            rt.reset_metrics();
            assert!(dom.try_reclaim());
            let s = rt.total_comm();
            assert_eq!(s.bulk_frees, 1, "one bulk AM for the remote batch");
            assert_eq!(s.bulk_freed_objects, 20);
            assert_eq!(s.remote_frees, 0, "no per-object remote frees");
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn stalled_guard_does_not_block_unrelated_reclamation() {
        // The property the backend exists for: a guard that holds a
        // protection forever (a stalled reader) pins only its own
        // object; everything else keeps getting freed.
        let rt = zrt(1);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let staller = dom.register();
            let worker = dom.register();
            let pinned = ctx::with_core(|core, _| alloc_local(core, 7u64));
            let cell = AtomicObject::new(pinned);
            let _held = staller.protect_root(0, &cell);
            // Worker churns way past the stalled protection.
            for i in 0..(SCAN_THRESHOLD as u64 * 4) {
                let p = ctx::with_core(|core, _| alloc_local(core, i));
                worker.defer_delete(p);
            }
            dom.try_reclaim();
            let s = dom.stats();
            assert!(
                s.objects_reclaimed >= SCAN_THRESHOLD as u64 * 3,
                "reclamation proceeded despite the stalled guard: {s}"
            );
            assert!(rt.live_objects() <= dom.garbage_bound() as i64 + 1);
            worker.defer_delete(cell.read());
            drop(staller);
            drop(worker);
            dom.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn participant_churn_reacquires_slots() {
        let rt = zrt(1);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            for _ in 0..5 {
                let g = dom.register();
                let p = ctx::with_core(|core, _| alloc_local(core, 1u64));
                g.defer_delete(p);
            }
            assert_eq!(
                dom.participants_allocated(),
                1,
                "sequential churn reuses one record"
            );
            dom.clear();
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn scan_with_zero_active_participants() {
        let rt = zrt(2);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            assert!(!dom.try_reclaim(), "nothing to free on an empty domain");
            {
                let g = dom.register();
                let p = ctx::with_core(|core, _| alloc_local(core, 9u64));
                g.defer_delete(p);
            } // guard dropped: no active participants, list non-empty
            assert!(dom.try_reclaim(), "scan frees orphaned retire lists");
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn retire_overflow_exactly_at_threshold_triggers_scan() {
        let rt = zrt(1);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let g = dom.register();
            for i in 0..(SCAN_THRESHOLD as u64 - 1) {
                let p = ctx::with_core(|core, _| alloc_local(core, i));
                g.defer_delete(p);
            }
            assert_eq!(dom.stats().advances, 0, "below threshold: no scan yet");
            // The slot is not a runtime-heap allocation.
            assert_eq!(rt.live_objects() as usize, SCAN_THRESHOLD - 1);
            let p = ctx::with_core(|core, _| alloc_local(core, 0u64));
            g.defer_delete(p); // exactly SCAN_THRESHOLD
            assert_eq!(dom.stats().advances, 1, "threshold retire scans inline");
            assert_eq!(dom.stats().objects_reclaimed, SCAN_THRESHOLD as u64);
            assert_eq!(rt.live_objects(), 0, "nothing remains");
        });
    }

    #[test]
    fn an_inline_scan_sends_nothing_for_other_locales_retires() {
        // A retire may run in a handler, which must not wait on another
        // locale's progress thread: its inline scan frees only what its own
        // locale holds.
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let retire = |g: &HpGuard<'_>, n: u64| {
                for i in 0..n {
                    g.defer_delete(ctx::with_core(|core, _| alloc_local(core, i)));
                }
            };
            rt.coforall_locales(|l| {
                if l == 1 {
                    retire(&dom.register(), 10);
                }
            });
            let g = dom.register();
            retire(&g, SCAN_THRESHOLD as u64 - 1);
            rt.reset_metrics();
            retire(&g, 1);
            assert_eq!(dom.stats().objects_reclaimed, SCAN_THRESHOLD as u64);
            assert_eq!(rt.total_comm().am_sent, 0, "a message to locale 1");
            drop(g);
            assert!(
                dom.try_reclaim(),
                "locale 1's retires wait for a scan of all"
            );
            assert_eq!(dom.stats().objects_reclaimed, SCAN_THRESHOLD as u64 + 10);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn a_parked_scan_holds_up_no_other_scan_or_retire() {
        // Parks the first scan that reports a free until released.
        #[derive(Default)]
        struct Park {
            parked: AtomicBool,
            released: AtomicBool,
        }
        impl ReclaimObserver for Park {
            fn on_defer(&self, _: usize, _: u64) {}
            fn on_advance(&self, _: u64) {}
            fn on_reclaim(&self, _: usize, _: u64, _: u64, _: bool) {
                if !self.parked.swap(true, Ordering::SeqCst) {
                    while !self.released.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            }
        }
        let rt = zrt(1);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let park = Arc::new(Park::default());
            dom.set_observer(park.clone());
            let retire = || {
                let g = dom.register();
                for i in 0..SCAN_THRESHOLD as u64 {
                    g.defer_delete(ctx::with_core(|core, _| alloc_local(core, i)));
                }
            };
            let done = AtomicUsize::new(0);
            let in_time = AtomicBool::new(false);
            rt.coforall_tasks(4, |t| {
                if t == 0 {
                    // The last retire's inline scan parks.
                    return retire();
                }
                while !park.parked.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                match t {
                    1 => drop(dom.try_reclaim()),
                    2 => retire(),
                    _ => {
                        let start = std::time::Instant::now();
                        while done.load(Ordering::SeqCst) < 2
                            && start.elapsed() < std::time::Duration::from_secs(5)
                        {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        in_time.store(done.load(Ordering::SeqCst) == 2, Ordering::SeqCst);
                        park.released.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                in_time.into_inner(),
                "a scan or a retire waited for the parked scan"
            );
            dom.clear();
            assert_eq!(dom.stats().objects_reclaimed, 2 * SCAN_THRESHOLD as u64);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    #[test]
    fn planted_hazard_ignoring_scan_is_caught_by_checker() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(1);
        rt.run(|| {
            let checker = InvariantChecker::new();
            let dom = HazardReclaimer::new();
            dom.set_observer(checker.clone());
            let reader = dom.register();
            let writer = dom.register();
            let obj = ctx::with_core(|core, _| alloc_local(core, 11u64));
            let cell = AtomicObject::new(obj);
            let _held = reader.protect_root(0, &cell);
            let fresh = ctx::with_core(|core, _| alloc_local(core, 12u64));
            writer.defer_delete(cell.exchange(fresh));
            // A correct scan keeps the protected object.
            dom.try_reclaim();
            assert!(checker.check().is_ok());
            // The planted bug frees it anyway; the checker must object.
            dom.debug_scan_ignoring_hazards();
            let errs = checker.check().unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains("hazard violation")),
                "{errs:?}"
            );
            // Teardown: the protected object was (incorrectly) freed by
            // the planted bug; only the current cell object remains.
            release_and_teardown(reader, writer, &cell, &dom);
        });
        assert_eq!(rt.live_objects(), 0);
    }

    fn release_and_teardown(
        reader: HpGuard<'_>,
        writer: HpGuard<'_>,
        cell: &AtomicObject<u64>,
        dom: &HazardReclaimer,
    ) {
        writer.defer_delete(cell.read());
        drop(reader);
        drop(writer);
        dom.clear();
    }

    #[test]
    fn scan_cost_charges_remote_atomics_per_slot() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let dom = HazardReclaimer::new();
            let g0 = dom.register();
            rt.coforall_locales(|l| {
                if l == 1 {
                    let _g1 = dom.register();
                }
            });
            let p = ctx::with_core(|core, _| alloc_local(core, 1u64));
            g0.defer_delete(p);
            rt.reset_metrics();
            dom.try_reclaim();
            let s = rt.total_comm();
            // Two participants × DIST_HP_SLOTS slot reads, one of them on
            // a remote locale (the AM-atomics path since this cluster
            // config keeps network atomics on; either way they are
            // charged).
            assert!(
                s.rdma_atomics + s.cpu_atomics + s.am_sent >= DIST_HP_SLOTS as u64 * 2,
                "scan must pay per-slot: {s:?}"
            );
        });
        assert_eq!(rt.live_objects(), 0);
    }
}
