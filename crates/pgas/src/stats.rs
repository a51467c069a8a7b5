//! Per-locale communication and heap statistics.
//!
//! Every simulated communication primitive increments a counter here, so
//! tests can assert *exact* communication behaviour (e.g. "privatized access
//! performs zero communication", "the scatter list issues one bulk free per
//! locale") independently of the latency model. The live cells are
//! per-thread shards ([`crate::per_thread`]); [`Counter`] names a cell of a
//! locale's [`crate::telemetry::Registry`].

use std::fmt;

use crate::per_thread::{bump, PerThread};

macro_rules! counters {
    ($($(#[$m:meta])* $name:ident = $variant:ident),+ $(,)?) => {
        /// The communication counters of a locale's
        /// [`crate::telemetry::Registry`], bumped with
        /// [`crate::telemetry::Registry::add`]. One variant per
        /// [`CommSnapshot`] field, in declaration order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$m])* $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration order (the cell index order).
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];
        }

        /// A plain-old-data snapshot of a locale's counters, subtractable
        /// to measure deltas across a benchmark phase.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct CommSnapshot {
            $($(#[$m])* pub $name: u64,)+
        }

        impl CommSnapshot {
            /// Build a snapshot from the merged counter cells, indexed by
            /// [`Counter`].
            pub(crate) fn from_cells(cells: &[u64]) -> CommSnapshot {
                CommSnapshot {
                    $($name: cells[Counter::$variant as usize],)+
                }
            }

            /// The value of `counter`.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$name,)+
                }
            }

            /// Render every counter as a hand-rolled JSON object, keys in
            /// declaration order. Serde-free by design (the vendor set is
            /// frozen); generated by the `counters!` macro so it can never
            /// drift from the counter list.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(16 * 32);
                out.push('{');
                $(
                    out.push_str(concat!("\"", stringify!($name), "\": "));
                    out.push_str(&self.$name.to_string());
                    out.push_str(", ");
                )+
                out.truncate(out.len() - 2);
                out.push('}');
                out
            }
        }

        impl std::ops::Sub for CommSnapshot {
            type Output = CommSnapshot;
            fn sub(self, rhs: CommSnapshot) -> CommSnapshot {
                CommSnapshot {
                    $($name: self.$name.wrapping_sub(rhs.$name),)+
                }
            }
        }

        impl std::ops::Add for CommSnapshot {
            type Output = CommSnapshot;
            fn add(self, rhs: CommSnapshot) -> CommSnapshot {
                CommSnapshot {
                    $($name: self.$name.wrapping_add(rhs.$name),)+
                }
            }
        }

        impl fmt::Display for CommSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(writeln!(f, "{:>24}: {}", stringify!($name), self.$name)?;)+
                Ok(())
            }
        }
    };
}

counters! {
    /// 64-bit atomics executed on the (simulated) NIC — RDMA atomics.
    rdma_atomics = RdmaAtomics,
    /// Atomics executed by the local CPU (network atomics disabled, local
    /// target).
    cpu_atomics = CpuAtomics,
    /// 128-bit double-word CAS operations executed by the local CPU.
    cpu_dcas = CpuDcas,
    /// Active messages *sent* from this locale.
    am_sent = AmSent,
    /// Active messages *handled* by this locale's progress threads.
    am_handled = AmHandled,
    /// Batched active messages sent from this locale — bulk AMs that carry
    /// many aggregated operations (scatter-list frees, [`crate::engine::Batcher`]
    /// flushes). Each batch is also counted once in `am_sent`.
    am_batches = AmBatches,
    /// Individual operations carried inside batched active messages.
    am_batch_items = AmBatchItems,
    /// Combined active messages shipped by the combining layer
    /// ([`crate::engine::combine`]): each carries the pending operations of
    /// several tasks toward one destination and is also counted once in
    /// `am_sent`, `am_batches`.
    combines = Combines,
    /// Individual operations that rode combined active messages.
    combined_ops = CombinedOps,
    /// One-sided PUT operations issued from this locale.
    puts = Puts,
    /// One-sided GET operations issued from this locale.
    gets = Gets,
    /// Bytes moved by PUTs.
    bytes_put = BytesPut,
    /// Bytes moved by GETs.
    bytes_got = BytesGot,
    /// Objects allocated on this locale at a remote task's request.
    remote_allocs = RemoteAllocs,
    /// Objects freed individually via a remote free request.
    remote_frees = RemoteFrees,
    /// Bulk-free active messages handled by this locale (scatter-list
    /// path); each covers many objects.
    bulk_frees = BulkFrees,
    /// Objects released through bulk frees.
    bulk_freed_objects = BulkFreedObjects,
    /// Remote operations re-sent after a fault-injected drop or timeout
    /// (see [`crate::faults`]). Always zero without a fault plan.
    retries = Retries,
    /// Remote operations whose retry budget was exhausted and that were
    /// escalated to a reliable (un-droppable) send. Always zero without a
    /// fault plan.
    gave_up = GaveUp,
    /// Sends dropped by fault injection before reaching the destination.
    injected_drops = InjectedDrops,
    /// Remote operations whose arrival was delayed by fault injection.
    injected_delays = InjectedDelays,
    /// Deliveries duplicated by fault injection (the duplicate is
    /// discarded by the receiver after paying dispatch cost).
    injected_dups = InjectedDups,
    /// Versioned (seqlock) fast reads that validated on the optimistic
    /// path — no DCAS, no handler involvement. Always zero unless
    /// [`crate::RuntimeConfig::vread_fastpath`] is enabled.
    vread_fast = VreadFast,
    /// Optimistic versioned-read attempts re-run because the sequence
    /// counter moved inside the read window (torn window).
    vread_retries = VreadRetries,
    /// Versioned reads that exhausted their retry budget and escalated to
    /// the DCAS slow path.
    vread_fallbacks = VreadFallbacks,
}

impl CommSnapshot {
    /// Total communication *events* that crossed the network (excludes
    /// CPU-local atomics).
    pub fn network_events(&self) -> u64 {
        self.rdma_atomics + self.am_sent + self.puts + self.gets
    }

    /// True when no counter is set — i.e. a phase performed zero
    /// communication and zero tracked local atomics.
    pub fn is_zero(&self) -> bool {
        *self == CommSnapshot::default()
    }
}

/// Heap accounting for one locale. `live_objects` can be asserted to reach
/// zero at the end of a test to prove reclamation completeness.
#[derive(Debug)]
pub struct HeapStats(PerThread);

impl Default for HeapStats {
    fn default() -> Self {
        HeapStats(PerThread::new(3, 0))
    }
}

impl HeapStats {
    // Cell indices. `LIVE` is a signed gauge kept in two's complement: a
    // thread that only frees holds a negative shard, and the wrapping sum
    // over shards is the true count.
    const LIVE: usize = 0;
    const ALLOCS: usize = 1;
    const FREES: usize = 2;

    pub(crate) fn on_alloc(&self) {
        self.0.with(|c| {
            bump(&c[Self::LIVE], 1);
            bump(&c[Self::ALLOCS], 1);
        });
    }

    pub(crate) fn on_free(&self) {
        self.on_free_n(1);
    }

    /// Count `n` frees in one visit of the caller's shard.
    pub(crate) fn on_free_n(&self, n: u64) {
        self.0.with(|c| {
            bump(&c[Self::LIVE], n.wrapping_neg());
            bump(&c[Self::FREES], n);
        });
    }

    /// Number of currently-live tracked objects.
    pub fn live_objects(&self) -> i64 {
        self.0.get(Self::LIVE) as i64
    }

    /// Lifetime allocation count.
    pub fn allocations(&self) -> u64 {
        self.0.get(Self::ALLOCS)
    }

    /// Lifetime free count.
    pub fn frees(&self) -> u64 {
        self.0.get(Self::FREES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;

    #[test]
    fn snapshot_sub_gives_delta() {
        let s = Registry::default();
        s.add(Counter::AmSent, 3);
        let a = s.snapshot();
        s.add(Counter::AmSent, 4);
        s.add(Counter::Puts, 1);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.am_sent, 4);
        assert_eq!(d.puts, 1);
        assert_eq!(d.gets, 0);
    }

    #[test]
    fn network_events_excludes_cpu_atomics() {
        let mut s = CommSnapshot {
            cpu_atomics: 100,
            cpu_dcas: 50,
            ..CommSnapshot::default()
        };
        assert_eq!(s.network_events(), 0);
        s.rdma_atomics = 2;
        s.am_sent = 3;
        s.puts = 4;
        s.gets = 5;
        assert_eq!(s.network_events(), 14);
    }

    #[test]
    fn is_zero_detects_clean_phase() {
        let s = Registry::default();
        assert!(s.snapshot().is_zero());
        s.add(Counter::Gets, 1);
        assert!(!s.snapshot().is_zero());
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = Registry::default();
        s.add(Counter::RdmaAtomics, 9);
        s.reset();
        assert!(s.snapshot().is_zero());
    }

    #[test]
    fn every_counter_lands_in_its_own_snapshot_field() {
        let s = Registry::default();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "declaration order is the cell order");
            s.add(c, i as u64 + 1);
        }
        let snap = s.snapshot();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(snap.get(c), i as u64 + 1, "{c:?}");
        }
        assert_eq!(snap.rdma_atomics, 1);
        assert_eq!(snap.vread_fallbacks, Counter::ALL.len() as u64);
    }

    #[test]
    fn heap_stats_track_live_across_threads() {
        let h = HeapStats::default();
        h.on_alloc();
        h.on_alloc();
        // A thread that only frees holds a negative shard until it exits.
        std::thread::scope(|s| {
            s.spawn(|| h.on_free());
        });
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.allocations(), 2);
        assert_eq!(h.frees(), 1);
        h.on_free();
        h.on_free();
        assert_eq!(h.live_objects(), -1);
    }

    #[test]
    fn to_json_lists_every_counter_in_order() {
        let s = Registry::default();
        s.add(Counter::AmSent, 7);
        let j = s.snapshot().to_json();
        assert!(j.starts_with("{\"rdma_atomics\": 0, "));
        assert!(j.ends_with("\"vread_fallbacks\": 0}"));
        assert!(j.contains("\"am_sent\": 7"));
        // Exactly one key per counter, no trailing separator.
        assert_eq!(j.matches("\": ").count(), 25);
        assert!(!j.contains(", }"));
    }

    #[test]
    fn display_lists_every_counter() {
        let s = CommSnapshot::default();
        let text = format!("{s}");
        assert!(text.contains("rdma_atomics"));
        assert!(text.contains("bulk_freed_objects"));
    }
}
