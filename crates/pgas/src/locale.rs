//! Per-locale state: AM inbox, statistics, heap accounting, and the
//! progress-service virtual clocks (server slots).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;

use crate::am::{AmMsg, Inbox};
use crate::engine::combine::CombineHub;
use crate::globalptr::LocaleId;
use crate::stats::HeapStats;
use crate::telemetry::Registry;

/// The virtual clocks of a locale's AM service, one *slot* per progress
/// thread.
///
/// Active-message handling is a multi-server queue: `progress_threads`
/// identical servers draining one shared arrival stream. Real OS scheduling
/// decides which thread picks up which message, which is nondeterministic —
/// so a handling thread does **not** own a fixed clock. Instead it acquires
/// the free slot with the *smallest* clock (the server that would be idle
/// first), runs the handler on that clock, and releases the slot at the
/// handler's completion time. Virtual time therefore load-balances across
/// servers deterministically, no matter how the OS interleaves the threads.
pub(crate) struct ServerSlots {
    state: Mutex<SlotState>,
}

struct SlotState {
    /// Last release time of each slot; the authoritative clock value
    /// (`release` never rewinds it, and debug builds validate heap entries
    /// against it).
    clocks: Vec<u64>,
    busy: Vec<bool>,
    /// Min-heap of the *free* slots keyed by `(clock, index)`, so `acquire`
    /// is O(log n) instead of an O(n) scan. A slot's clock only changes at
    /// `release`, which is also the only point that re-inserts it — heap
    /// entries therefore never go stale.
    free: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ServerSlots {
    fn new(n: usize) -> ServerSlots {
        ServerSlots {
            state: Mutex::new(SlotState {
                clocks: vec![0; n],
                busy: vec![false; n],
                free: (0..n).map(|i| Reverse((0, i))).collect(),
            }),
        }
    }

    /// Claim the free slot with the earliest clock, returning `(slot index,
    /// clock value)`. A free slot always exists: there are exactly as many
    /// progress threads as slots and each thread holds at most one. Ties
    /// resolve to the lowest slot index (the heap key orders by clock, then
    /// index).
    pub(crate) fn acquire(&self) -> (usize, u64) {
        let mut st = self.state.lock();
        let Reverse((clock, i)) = st
            .free
            .pop()
            .expect("no free progress-service slot (more handlers than threads?)");
        debug_assert!(!st.busy[i]);
        debug_assert_eq!(clock, st.clocks[i], "free-slot heap entry went stale");
        st.busy[i] = true;
        (i, clock)
    }

    /// Release a slot, advancing its clock to `until` (the virtual time at
    /// which the server becomes free again) and returning it to the free
    /// heap.
    pub(crate) fn release(&self, slot: usize, until: u64) {
        let mut st = self.state.lock();
        debug_assert!(st.busy[slot], "releasing a slot that was not acquired");
        st.busy[slot] = false;
        if st.clocks[slot] < until {
            st.clocks[slot] = until;
        }
        let key = st.clocks[slot];
        st.free.push(Reverse((key, slot)));
    }

    fn reset(&self) {
        let mut st = self.state.lock();
        for c in st.clocks.iter_mut() {
            *c = 0;
        }
        st.free.clear();
        let rebuilt: BinaryHeap<_> = st
            .busy
            .iter()
            .enumerate()
            .filter(|&(_, &b)| !b)
            .map(|(i, _)| Reverse((0, i)))
            .collect();
        st.free = rebuilt;
    }
}

/// One simulated compute node.
pub struct Locale {
    /// This locale's id (its index in the runtime's locale table).
    pub id: LocaleId,
    /// Telemetry registry for operations *initiated by or handled on* this
    /// locale: the communication counters ([`crate::stats::Counter`]) plus
    /// per-class latency histograms.
    pub stats: Registry,
    /// Allocation accounting for objects whose affinity is this locale.
    pub heap: HeapStats,
    /// This locale's symmetric heap: the offset-addressed registered
    /// region engine backends target without exchanging pointers (see
    /// [`crate::symheap`]).
    pub sym: crate::symheap::SymHeap,
    /// Server slots of this locale's AM service (one per progress thread;
    /// they model the serialization of active-message handling).
    pub(crate) server: ServerSlots,
    /// Per-destination publication lists for remote-operation combining
    /// (see [`crate::engine::combine`]); announce/election state for tasks
    /// *on this locale* issuing combinable remote operations.
    pub(crate) combine: CombineHub,
    /// The AM queue; this locale's progress threads consume it.
    pub(crate) inbox: Inbox<AmMsg>,
    /// AM-handler dispatch-cost multiplier: 1 normally, larger when a
    /// fault plan (see [`crate::faults`]) names this locale as the
    /// straggler. Cached here at construction so progress threads read it
    /// without consulting the plan per message.
    pub(crate) am_slowdown: u64,
    /// Causal-trace span-id sequence (see [`Locale::next_span_id`]). Only
    /// ever bumped while a telemetry sink is installed.
    span_seq: std::sync::atomic::AtomicU64,
    /// Process-wide construction epoch of this locale (see
    /// [`Locale::next_span_id`]): one trace file commonly covers *many*
    /// runtimes (the harness builds one per data point), and per-runtime
    /// sequences alone would reuse ids across them.
    span_epoch: u64,
}

/// Process-wide count of [`Locale`] constructions, the `span_epoch`
/// source. Deterministic for a deterministic program: runtimes (and their
/// locales) are constructed in program order.
static LOCALE_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Locale {
    pub(crate) fn new(
        id: LocaleId,
        progress_threads: usize,
        num_locales: usize,
        am_slowdown: u64,
        sym_heap_bytes: usize,
    ) -> Self {
        Locale {
            id,
            stats: Registry::default(),
            heap: HeapStats::default(),
            sym: crate::symheap::SymHeap::new(sym_heap_bytes),
            server: ServerSlots::new(progress_threads),
            combine: CombineHub::new(num_locales),
            inbox: Inbox::new(),
            am_slowdown,
            span_seq: std::sync::atomic::AtomicU64::new(0),
            span_epoch: LOCALE_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Allocate a causal-trace span id on this locale. Ids pack the locale
    /// into the top 16 bits, the locale's process-wide construction epoch
    /// into the next 20, and a per-locale sequence into the low 28
    /// (`(id + 1) << 48 | epoch << 28 | seq`), so they are unique across
    /// locales *and* across every runtime the process builds, never zero
    /// (0 means "no parent"), and — for a deterministic workload —
    /// identical from run to run of the program. The sequence deliberately
    /// survives [`Locale::reset_metrics`]: a trace file spans phase
    /// resets, and reused ids would corrupt its trees.
    pub(crate) fn next_span_id(&self) -> u64 {
        let seq = self
            .span_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        ((self.id as u64 + 1) << 48) | ((self.span_epoch & 0xf_ffff) << 28) | (seq & 0x0fff_ffff)
    }

    /// Reset this locale's virtual clocks, counters, and latency
    /// histograms. Callers must ensure no operations are in flight.
    pub fn reset_metrics(&self) {
        self.stats.reset(); // Registry::reset — counters *and* histograms
        self.server.reset();
    }
}

impl std::fmt::Debug for Locale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locale")
            .field("id", &self.id)
            .field("live_objects", &self.heap.live_objects())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_earliest_free_slot() {
        let s = ServerSlots::new(2);
        let (a, t_a) = s.acquire();
        assert_eq!(t_a, 0);
        s.release(a, 1000);
        // Both free; the other slot is still at 0 and must win.
        let (b, t_b) = s.acquire();
        assert_ne!(a, b);
        assert_eq!(t_b, 0);
        s.release(b, 500);
        // Now clocks are {1000, 500}: the 500 slot wins.
        let (c, t_c) = s.acquire();
        assert_eq!(c, b);
        assert_eq!(t_c, 500);
        s.release(c, 600);
    }

    #[test]
    fn busy_slots_are_skipped() {
        let s = ServerSlots::new(2);
        let (a, _) = s.acquire();
        s.release(a, 10_000);
        // Slot `a` is far ahead but free; hold the other slot busy and the
        // next acquire must pick `a` anyway.
        let (b, _) = s.acquire();
        assert_ne!(a, b);
        let (c, t_c) = s.acquire();
        assert_eq!(c, a);
        assert_eq!(t_c, 10_000);
        s.release(b, 1);
        s.release(c, 10_001);
    }

    #[test]
    fn heap_matches_linear_reference_under_churn() {
        // Drive a pseudo-random acquire/release sequence and check the free
        // heap keeps returning the earliest-free slot (lowest index on
        // ties), exactly like the old linear scan.
        let n = 4;
        let s = ServerSlots::new(n);
        let mut clocks = vec![0u64; n];
        let mut busy = vec![false; n];
        let mut held: Vec<usize> = Vec::new();
        let mut seed = 0x9e37_79b9_u64;
        for _ in 0..200 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if held.len() < n && (held.is_empty() || seed.is_multiple_of(2)) {
                let (i, t) = s.acquire();
                let expect = (0..n)
                    .filter(|&j| !busy[j])
                    .min_by_key(|&j| (clocks[j], j))
                    .unwrap();
                assert_eq!(i, expect);
                assert_eq!(t, clocks[i]);
                busy[i] = true;
                held.push(i);
            } else {
                let i = held.swap_remove((seed % held.len() as u64) as usize);
                let until = clocks[i] + (seed >> 32) % 500;
                s.release(i, until);
                busy[i] = false;
                clocks[i] = clocks[i].max(until);
            }
        }
    }

    #[test]
    fn reset_restores_all_slots_to_zero() {
        let s = ServerSlots::new(2);
        let (a, _) = s.acquire();
        s.release(a, 777);
        s.reset();
        let (x, tx) = s.acquire();
        let (y, ty) = s.acquire();
        assert_ne!(x, y);
        assert_eq!((tx, ty), (0, 0));
        s.release(x, 1);
        s.release(y, 2);
    }

    #[test]
    fn release_never_rewinds_a_clock() {
        let s = ServerSlots::new(1);
        let (a, _) = s.acquire();
        s.release(a, 100);
        let (a, t) = s.acquire();
        assert_eq!(t, 100);
        s.release(a, 50); // stale completion must not rewind
        let (_, t) = s.acquire();
        assert_eq!(t, 100);
    }
}
