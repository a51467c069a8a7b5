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
//! - **Per-locale slot tables.** Each locale keeps an append-only list
//!   of participant records, allocated through `GlobalPtr` so any locale
//!   can address them. A scan reads *every* slot on *every* locale; each
//!   cross-locale slot read is charged as a remote atomic — the honest
//!   distributed scan cost that EBR's single epoch counter amortizes
//!   away.
//! - **Remote retire lists.** Retired objects may live on any locale. A
//!   scan partitions the unprotected ones by owner and frees them over
//!   the same `Batcher`/scatter bulk-free path the `EpochManager` uses
//!   (one active message per remote destination).
//! - **Stall tolerance.** A guard that never unpins blocks nothing: only
//!   the ≤ [`DIST_HP_SLOTS`] addresses it has published stay live, so
//!   per-participant garbage is bounded by `SCAN_THRESHOLD` plus the
//!   fleet's slot count — the property ablation A8 measures against
//!   EBR's unbounded limbo growth under the `stalled_task` plan.
//!
//! Stats mapping onto [`ReclaimSnapshot`]: scans count as `advances`,
//! retires as `objects_deferred`, frees as `objects_reclaimed`,
//! hazard-blocked frees as `unsafe_scans`, and validated protections as
//! `hazard_protects`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use pgas_atomics::{Aba, AtomicAbaObject, AtomicObject};
use pgas_sim::engine::{self, Batcher};
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::telemetry::OpClass;
use pgas_sim::{ctx, vtime, Erased, GlobalPtr, Privatized, RuntimeHandle};

use crate::reclaim::{ReclaimGuard, Reclaimer};
use crate::stats::{ReclaimSnapshot, ReclaimStats, Stat};

/// Retired objects a participant accumulates before scanning.
pub const SCAN_THRESHOLD: usize = 64;

/// Hazard slots per participant. The structures shipped here use at
/// most two (hand-over-hand walking pairs, or the queue's head +
/// successor); the rest is headroom for richer multi-slot protocols
/// without a participant-record layout change.
pub const DIST_HP_SLOTS: usize = 16;

/// One registered task's record: its published hazards and its private
/// retire list. Lives behind a `GlobalPtr` so remote scans can address
/// it.
struct HpParticipant {
    hazards: [AtomicUsize; DIST_HP_SLOTS],
    /// Heap address of the next participant on the same locale
    /// (append-only list).
    next: AtomicUsize,
    /// 1 while registered; inactive records are re-used.
    active: AtomicU64,
    retired: parking_lot::Mutex<Vec<Erased>>,
    /// Virtual time of the oldest un-scanned retire (`u64::MAX` when the
    /// list was just scanned) — feeds the pin-to-reclaim histogram.
    first_retire_vtime: AtomicU64,
}

impl HpParticipant {
    fn new() -> HpParticipant {
        HpParticipant {
            hazards: std::array::from_fn(|_| AtomicUsize::new(0)),
            next: AtomicUsize::new(0),
            active: AtomicU64::new(1),
            retired: parking_lot::Mutex::new(Vec::new()),
            first_retire_vtime: AtomicU64::new(u64::MAX),
        }
    }
}

/// One locale's participant registry.
struct HpLocaleTable {
    /// Heap address of the first participant (0 = empty).
    head: AtomicUsize,
    /// Participant records ever allocated on this locale.
    allocated: AtomicU64,
}

impl HpLocaleTable {
    fn iter(&self) -> impl Iterator<Item = &HpParticipant> {
        let mut cur = self.head.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            if cur == 0 {
                return None;
            }
            // SAFETY: participants are append-only and freed only by the
            // reclaimer's Drop, which requires exclusive access.
            let p = unsafe { &*(cur as *const HpParticipant) };
            cur = p.next.load(Ordering::Acquire);
            Some(p)
        })
    }
}

/// Distributed hazard-pointer reclamation (see module docs).
pub struct HazardReclaimer {
    rt: RuntimeHandle,
    tables: Privatized<HpLocaleTable>,
    stats: ReclaimStats,
    observer: OnceLock<Arc<dyn ReclaimObserver>>,
}

// SAFETY: all shared state is atomics, locks, and append-only lists.
unsafe impl Send for HazardReclaimer {}
unsafe impl Sync for HazardReclaimer {}

impl HazardReclaimer {
    /// Create a reclaimer spanning every locale of the current runtime.
    pub fn new() -> HazardReclaimer {
        let rt = ctx::current_runtime();
        let tables = Privatized::new(&rt, |_| HpLocaleTable {
            head: AtomicUsize::new(0),
            allocated: AtomicU64::new(0),
        });
        HazardReclaimer {
            rt,
            tables,
            stats: ReclaimStats::default(),
            observer: OnceLock::new(),
        }
    }

    /// Install a [`ReclaimObserver`]; it sees retires (`on_defer` with
    /// epoch 0), scans' frees (`on_reclaim` with epochs 0), and validated
    /// protections (`on_protect`/`on_release`).
    ///
    /// # Panics
    /// If an observer is already installed.
    pub fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        if self.observer.set(obs).is_err() {
            panic!("HazardReclaimer observer already installed");
        }
    }

    /// Register the calling task with its locale's table.
    pub fn register(&self) -> HpGuard<'_> {
        let table = self.tables.get();
        // Reuse an inactive participant if any.
        let mut cur = table.head.load(Ordering::Acquire);
        while cur != 0 {
            let p = unsafe { &*(cur as *const HpParticipant) };
            if p.active
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return HpGuard::new(self, p);
            }
            cur = p.next.load(Ordering::Acquire);
        }
        // Allocate on this locale (through the global heap, so the
        // record has a `GlobalPtr` identity remote scans can name) and
        // CAS-push.
        let ptr = ctx::with_core(|core, _| pgas_sim::alloc_local(core, HpParticipant::new()));
        table.allocated.fetch_add(1, Ordering::Relaxed);
        let addr = ptr.addr();
        let p = unsafe { &*(addr as *const HpParticipant) };
        let mut head = table.head.load(Ordering::Acquire);
        loop {
            p.next.store(head, Ordering::Relaxed);
            match table
                .head
                .compare_exchange_weak(head, addr, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        HpGuard::new(self, p)
    }

    /// Every address currently published in any slot on any locale. Each
    /// slot read is charged as a remote atomic toward the owning locale —
    /// the distributed scan cost.
    fn collect_hazards(&self) -> Vec<usize> {
        let mut hazards = Vec::new();
        for (locale, table) in self.tables.iter() {
            for p in table.iter() {
                for h in &p.hazards {
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

    /// Partition `retired` against `hazards`, free the unprotected part
    /// by owner over the scatter path, and put survivors back. Returns
    /// the number freed. `hazards` must have been collected *after* the
    /// retired list was fixed (stolen or locked).
    fn scan_list(
        &self,
        retired: &mut Vec<Erased>,
        hazards: &[usize],
        first_retire: u64,
        during_clear: bool,
    ) -> u64 {
        self.stats.bump(Stat::Advances);
        let n = retired.len() as u64;
        let observer = self.observer.get();
        let mut kept = Vec::new();
        let freed = ctx::with_core(|core, here| {
            let src = here;
            let mut scatter = Batcher::new(core, usize::MAX, move |dest, batch: Vec<Erased>| {
                // SAFETY: no hazard covers anything in the batch (or the
                // caller guaranteed quiescence for clear()); the handler
                // runs on `dest`, where every object in the batch lives.
                unsafe { pgas_sim::free_erased_local_batch(core, batch, dest != src) };
            });
            let mut freed = 0u64;
            for e in retired.drain(..) {
                if hazards.binary_search(&e.addr()).is_ok() {
                    kept.push(e);
                } else {
                    if let Some(obs) = observer {
                        obs.on_reclaim(e.addr(), 0, 0, during_clear);
                    }
                    scatter.aggregate(e.owner(), e);
                    freed += 1;
                }
            }
            scatter.flush();
            let stats = &core.locale(here).stats;
            if first_retire != u64::MAX {
                stats.record(OpClass::Reclaim, vtime::now().saturating_sub(first_retire));
            }
            stats.record(OpClass::LimboDepth, n);
            freed
        });
        *retired = kept;
        self.stats.add(Stat::ObjectsReclaimed, freed);
        self.stats.add(Stat::UnsafeScans, n - freed);
        freed
    }

    /// One full scan pass: steal every participant's retire list (on
    /// every locale), *then* collect hazards, then free what no hazard
    /// covers. The steal-before-collect order is what makes helping
    /// sound: anything stolen was retired — hence unlinked — before the
    /// collection, so a validated protection of it must already be
    /// visible.
    fn scan_pass(&self, respect_hazards: bool, during_clear: bool) -> u64 {
        let mut stolen: Vec<(&HpParticipant, Vec<Erased>, u64)> = Vec::new();
        for (_, table) in self.tables.iter() {
            for p in table.iter() {
                let mut retired = p.retired.lock();
                if retired.is_empty() {
                    continue;
                }
                let first = p.first_retire_vtime.swap(u64::MAX, Ordering::Relaxed);
                stolen.push((p, std::mem::take(&mut *retired), first));
            }
        }
        if stolen.is_empty() {
            return 0;
        }
        let hazards = if respect_hazards {
            self.collect_hazards()
        } else {
            Vec::new()
        };
        let mut freed = 0;
        for (p, mut list, first) in stolen {
            freed += self.scan_list(&mut list, &hazards, first, during_clear);
            if !list.is_empty() {
                // Survivors go back to their owner's list; refresh the
                // age stamp so the next scan still reports their wait.
                p.first_retire_vtime
                    .fetch_min(vtime::now(), Ordering::Relaxed);
                p.retired.lock().append(&mut list);
            }
        }
        freed
    }

    /// Scan all retire lists, freeing everything unprotected. Returns
    /// `true` when anything was freed.
    pub fn try_reclaim(&self) -> bool {
        self.scan_pass(true, false) > 0
    }

    /// Free *everything* retired, ignoring hazards; callers guarantee
    /// quiescence (all guards dropped or released), as for
    /// `EpochManager::clear`.
    pub fn clear(&self) {
        self.scan_pass(false, true);
    }

    /// Deliberately run a scan that ignores every published hazard, with
    /// no quiescence excuse — the planted bug for checker self-tests,
    /// mirroring `EpochManager::debug_reclaim_current_epoch_early`. An
    /// installed `InvariantChecker` must flag any free of a validated
    /// protection.
    #[doc(hidden)]
    pub fn debug_scan_ignoring_hazards(&self) {
        self.scan_pass(false, false);
    }

    /// Reclamation counters (see module docs for the HP mapping).
    pub fn stats(&self) -> ReclaimSnapshot {
        self.stats.snapshot()
    }

    /// The runtime this reclaimer was created under.
    pub fn runtime(&self) -> RuntimeHandle {
        self.rt.clone()
    }

    /// Participant records ever allocated, across all locales.
    pub fn participants_allocated(&self) -> u64 {
        self.tables
            .iter()
            .map(|(_, t)| t.allocated.load(Ordering::Relaxed))
            .sum()
    }

    /// Upper bound on un-reclaimed garbage with `p` participants ever
    /// registered: each list holds fewer than `SCAN_THRESHOLD` objects
    /// between scans, plus everything the fleet's slots can pin.
    pub fn garbage_bound(&self) -> u64 {
        let p = self.participants_allocated();
        p * (SCAN_THRESHOLD as u64 + DIST_HP_SLOTS as u64)
    }
}

impl Default for HazardReclaimer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HazardReclaimer {
    fn drop(&mut self) {
        let teardown = || {
            self.clear();
            ctx::with_core(|core, _| {
                for (locale, table) in self.tables.iter() {
                    let mut cur = table.head.load(Ordering::Relaxed);
                    while cur != 0 {
                        let p = unsafe { &*(cur as *const HpParticipant) };
                        debug_assert!(p.retired.lock().is_empty());
                        let next = p.next.load(Ordering::Relaxed);
                        let gp: GlobalPtr<HpParticipant> =
                            GlobalPtr::from_raw_parts(locale, cur as *mut HpParticipant);
                        // SAFETY: exclusive access (Drop); allocated via
                        // alloc_local and never freed elsewhere.
                        unsafe { pgas_sim::free(core, gp) };
                        cur = next;
                    }
                }
            });
        };
        self.rt.clone().run_here_or_enter(teardown);
    }
}

/// A registered participant's guard. `!Sync`: the slots and the shadow
/// protection table belong to one task.
pub struct HpGuard<'a> {
    dom: &'a HazardReclaimer,
    participant: &'a HpParticipant,
    /// Addresses whose protection has been *validated* per slot (0 =
    /// none) — the observer-facing shadow of the published slots.
    validated: [Cell<usize>; DIST_HP_SLOTS],
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl<'a> HpGuard<'a> {
    fn new(dom: &'a HazardReclaimer, participant: &'a HpParticipant) -> HpGuard<'a> {
        HpGuard {
            dom,
            participant,
            validated: std::array::from_fn(|_| Cell::new(0)),
            _not_sync: std::marker::PhantomData,
        }
    }

    /// Publish `addr` in `slot` (charged SeqCst store). Any previously
    /// *validated* protection in the slot is released first: from this
    /// store on, scans may free the old object.
    fn publish(&self, slot: usize, addr: usize) {
        assert!(slot < DIST_HP_SLOTS);
        let old = self.validated[slot].replace(0);
        if old != 0 {
            if let Some(obs) = self.dom.observer.get() {
                obs.on_release(old);
            }
        }
        engine::charge_atomic_u64(pgas_sim::here());
        self.participant.hazards[slot].store(addr, Ordering::SeqCst);
    }

    /// Record that the protection published in `slot` was validated.
    fn validated_protect(&self, slot: usize, addr: usize) {
        if addr != 0 {
            self.dom.stats.bump(Stat::HazardProtects);
            self.validated[slot].set(addr);
            if let Some(obs) = self.dom.observer.get() {
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
        self.dom.stats.bump(Stat::ObjectsDeferred);
        if let Some(obs) = self.dom.observer.get() {
            obs.on_defer(ptr.addr(), 0);
        }
        self.participant
            .first_retire_vtime
            .fetch_min(vtime::now(), Ordering::Relaxed);
        let mut retired = self.participant.retired.lock();
        retired.push(Erased::new(ptr));
        if retired.len() >= SCAN_THRESHOLD {
            // List fixed (lock held) before hazards are collected.
            let hazards = self.dom.collect_hazards();
            let first = self
                .participant
                .first_retire_vtime
                .swap(u64::MAX, Ordering::Relaxed);
            self.dom.scan_list(&mut retired, &hazards, first, false);
            if !retired.is_empty() {
                self.participant
                    .first_retire_vtime
                    .fetch_min(vtime::now(), Ordering::Relaxed);
            }
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
            let old = self.validated[slot].replace(0);
            if old != 0 {
                if let Some(obs) = self.dom.observer.get() {
                    obs.on_release(old);
                }
            }
            self.participant.hazards[slot].store(0, Ordering::SeqCst);
        }
        self.participant.active.store(0, Ordering::Release);
    }
}

impl Reclaimer for HazardReclaimer {
    type Guard<'a> = HpGuard<'a>;

    const NEEDS_PROTECT: bool = true;
    const PROTECT_SLOTS: usize = DIST_HP_SLOTS;

    fn new_in_runtime() -> Self {
        HazardReclaimer::new()
    }

    fn register(&self) -> HpGuard<'_> {
        HazardReclaimer::register(self)
    }

    fn try_reclaim(&self) -> bool {
        HazardReclaimer::try_reclaim(self)
    }

    fn clear(&self) {
        HazardReclaimer::clear(self)
    }

    fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        HazardReclaimer::set_observer(self, obs)
    }

    fn stats(&self) -> ReclaimSnapshot {
        HazardReclaimer::stats(self)
    }

    fn runtime(&self) -> RuntimeHandle {
        HazardReclaimer::runtime(self)
    }

    fn backend_name(&self) -> &'static str {
        "hp"
    }

    fn tolerates_stalled_readers(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, alloc_on, Runtime, RuntimeConfig};

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
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
            // +1: the participant record itself is a heap allocation.
            assert_eq!(rt.live_objects() as usize, SCAN_THRESHOLD);
            let p = ctx::with_core(|core, _| alloc_local(core, 0u64));
            g.defer_delete(p); // exactly SCAN_THRESHOLD
            assert_eq!(dom.stats().advances, 1, "threshold retire scans inline");
            assert_eq!(dom.stats().objects_reclaimed, SCAN_THRESHOLD as u64);
            assert_eq!(rt.live_objects(), 1, "only the participant record remains");
        });
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
