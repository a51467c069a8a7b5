//! Runtime and network configuration.
//!
//! The simulator models a Cray-XC-class machine: each *locale* (compute
//! node) has worker tasks and one or more *progress threads* that service
//! active messages, and the network interface controller (NIC) can perform
//! 64-bit remote atomic operations without involving the target CPU.
//!
//! The `network_atomics` flag mirrors Chapel's `CHPL_NETWORK_ATOMICS`: when
//! enabled, *every* atomic operation — even one whose target is local — is
//! routed through the NIC, because NIC-side atomics are not coherent with
//! CPU-side atomics (per §III of the paper, an order-of-magnitude penalty
//! for local operations).

/// How wide pointers are represented by [`crate::globalptr`] consumers.
///
/// `Compressed` packs a 48-bit virtual address and a 16-bit locale id into a
/// single `u64`, enabling single-word (RDMA-capable) atomics. `Wide` keeps
/// the full 128-bit `{address, locale}` pair, which is what an installation
/// with more than 2^16 locales would be forced to use; atomics on wide
/// pointers require a double-word compare-and-swap and (remotely) an active
/// message instead of a NIC-side atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerMode {
    /// 48-bit address + 16-bit locale id in one `u64` (default).
    Compressed,
    /// Full 128-bit wide pointer; forces the DCAS/active-message path.
    Wide,
}

/// Latency/cost model for the simulated interconnect, in nanoseconds of
/// *virtual time* (see [`crate::vtime`]).
///
/// Defaults are Aries-class numbers: RDMA atomics around a microsecond,
/// active messages a few microseconds including handler dispatch, CPU
/// atomics tens of nanoseconds.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Simulated `CHPL_NETWORK_ATOMICS`. When `true`, all 64-bit atomic
    /// operations (local or remote) are performed "by the NIC" and charged
    /// [`Self::nic_atomic_ns`]. When `false`, local atomics are CPU atomics
    /// and remote atomics fall back to active messages.
    pub network_atomics: bool,
    /// Cost of a CPU-side atomic operation (load/store/CAS/exchange).
    pub cpu_atomic_ns: u64,
    /// Cost of a CPU-side 128-bit double-word CAS (`CMPXCHG16B`).
    pub cpu_dcas_ns: u64,
    /// Cost of a NIC-mediated (RDMA) 64-bit atomic, one-sided.
    pub nic_atomic_ns: u64,
    /// One-way wire latency of an active message.
    pub am_wire_ns: u64,
    /// Fixed dispatch overhead charged on the target progress thread for
    /// each active message, before the handler body runs.
    pub am_handler_ns: u64,
    /// Base latency of a one-sided PUT or GET.
    pub rma_ns: u64,
    /// Per-byte payload cost (inverse bandwidth), in femtoseconds per byte
    /// expressed as ns per KiB to stay integral: total = bytes * per_kib /
    /// 1024.
    pub rma_ns_per_kib: u64,
    /// Cost of one heap allocation or deallocation performed inside an
    /// active-message handler (remote alloc/free).
    pub remote_heap_op_ns: u64,
    /// Per-item dispatch cost inside a *combined* active-message handler
    /// (see [`crate::engine::combine`]): each operation that rode a
    /// combined batch pays this on top of its own body cost, while the
    /// wire and `am_handler_ns` are paid once per batch.
    pub combine_item_ns: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            network_atomics: true,
            cpu_atomic_ns: 20,
            cpu_dcas_ns: 35,
            nic_atomic_ns: 950,
            am_wire_ns: 700,
            am_handler_ns: 1100,
            rma_ns: 850,
            rma_ns_per_kib: 60,
            remote_heap_op_ns: 120,
            combine_item_ns: 150,
        }
    }
}

impl NetworkConfig {
    /// A model where every operation costs zero virtual time. Useful in
    /// unit tests that only care about semantics and communication counts.
    fn zero_cost() -> Self {
        NetworkConfig {
            network_atomics: true,
            cpu_atomic_ns: 0,
            cpu_dcas_ns: 0,
            nic_atomic_ns: 0,
            am_wire_ns: 0,
            am_handler_ns: 0,
            rma_ns: 0,
            rma_ns_per_kib: 0,
            remote_heap_op_ns: 0,
            combine_item_ns: 0,
        }
    }
}

/// Which communication backend a [`crate::Runtime`] routes remote traffic
/// through (see [`crate::engine::CommEngine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The in-process simulator backend ([`crate::engine::SimEngine`]):
    /// every locale lives in this process, costs come from the virtual-time
    /// model. The default.
    #[default]
    Sim,
    /// A real multi-process transport: each locale is an OS process and
    /// remote operations cross a wire. The engine object itself lives in a
    /// separate crate (`pgas-net`); construct the runtime with
    /// [`crate::Runtime::with_engine`].
    Proc,
}

/// Top-level configuration for a [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of simulated locales (compute nodes). Must be ≥ 1 and, in
    /// [`PointerMode::Compressed`], ≤ 2^16.
    pub num_locales: usize,
    /// Progress threads per locale servicing active messages.
    pub progress_threads: usize,
    /// Interconnect model.
    pub network: NetworkConfig,
    /// Pointer representation (see [`PointerMode`]).
    pub pointer_mode: PointerMode,
    /// Enable remote-operation *combining* (flat combining over the AM
    /// fallback path): concurrent same-destination remote atomics and
    /// deferred frees issued by tasks on one locale are coalesced into a
    /// single bulk active message by an elected combiner task (see
    /// [`crate::engine::combine`]). Off by default so per-op communication
    /// counts stay exact unless explicitly opted in.
    pub combining: bool,
    /// Maximum operations a single combined active message may carry;
    /// larger drains are shipped as consecutive chunks in announce order.
    pub combine_max_batch: usize,
    /// Seeded fault-injection plan (see [`crate::faults`]). `None` — the
    /// default — disables every injection hook; counters and virtual-time
    /// charges are then bit-identical to a faults-free build.
    pub faults: Option<crate::faults::FaultPlan>,
    /// Enable the versioned (seqlock) fast-read path for 128-bit atomic
    /// cells: `read`/`read_aba` become optimistic two-load-and-validate
    /// sequences riding the one-sided GET cost model, with the full DCAS
    /// round trip demoted to a bounded-retry fallback. Off by default so
    /// per-op communication counts stay bit-identical to the pre-seqlock
    /// build unless explicitly opted in.
    pub vread_fastpath: bool,
    /// Maximum optimistic attempts a versioned read makes before falling
    /// back to the DCAS slow path. Must be ≥ 1 when `vread_fastpath` is on.
    pub vread_max_tries: u32,
    /// Which communication backend the runtime uses (see [`EngineKind`]).
    /// [`EngineKind::Sim`] — the default — is built in;
    /// [`EngineKind::Proc`] requires constructing the runtime with
    /// [`crate::Runtime::with_engine`] and a transport engine instance.
    pub engine: EngineKind,
    /// Size in bytes of each locale's *symmetric heap* (see
    /// [`crate::symheap::SymHeap`]): a registered, offset-addressed memory
    /// region every engine backend can target without exchanging pointers.
    /// The same offset names the same logical cell on every locale. Each
    /// heap is reserved at construction and committed page by page on
    /// first touch, so untouched bytes cost address space, not memory; a
    /// `ProcEngine` rank never touches the heaps of locales it cannot
    /// reach.
    pub sym_heap_bytes: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_locales: 1,
            progress_threads: 1,
            network: NetworkConfig::default(),
            pointer_mode: PointerMode::Compressed,
            combining: false,
            combine_max_batch: 64,
            faults: None,
            vread_fastpath: false,
            vread_max_tries: 4,
            engine: EngineKind::Sim,
            sym_heap_bytes: 1 << 20,
        }
    }
}

impl RuntimeConfig {
    /// Single locale, pure shared-memory semantics (no network atomics, so
    /// local atomics are CPU atomics).
    pub fn shared_memory() -> Self {
        RuntimeConfig {
            num_locales: 1,
            network: NetworkConfig {
                network_atomics: false,
                ..NetworkConfig::default()
            },
            ..RuntimeConfig::default()
        }
    }

    /// An `n`-locale cluster with the default (Aries-like) network model
    /// and RDMA network atomics enabled.
    pub fn cluster(n: usize) -> Self {
        RuntimeConfig {
            num_locales: n,
            ..RuntimeConfig::default()
        }
    }

    /// An `n`-locale cluster whose operations cost zero virtual time;
    /// intended for semantic tests that assert on communication *counts*.
    pub fn zero_latency(n: usize) -> Self {
        RuntimeConfig {
            num_locales: n,
            network: NetworkConfig::zero_cost(),
            ..RuntimeConfig::default()
        }
    }

    /// Disable simulated RDMA network atomics (`CHPL_NETWORK_ATOMICS=off`):
    /// local atomics become CPU atomics, remote atomics become active
    /// messages.
    pub fn without_network_atomics(mut self) -> Self {
        self.network.network_atomics = false;
        self
    }

    /// Force the 128-bit wide-pointer representation (the > 2^16-locale
    /// fallback described in §II-A).
    pub fn with_wide_pointers(mut self) -> Self {
        self.pointer_mode = PointerMode::Wide;
        self
    }

    /// Override the number of progress threads per locale.
    pub fn with_progress_threads(mut self, p: usize) -> Self {
        self.progress_threads = p.max(1);
        self
    }

    /// Enable or disable remote-operation combining (see
    /// [`Self::combining`]).
    pub fn with_combining(mut self, on: bool) -> Self {
        self.combining = on;
        self
    }

    /// Override the maximum size of a combined active message (see
    /// [`Self::combine_max_batch`]).
    pub fn with_combine_max_batch(mut self, max: usize) -> Self {
        self.combine_max_batch = max;
        self
    }

    /// Install a seeded fault-injection plan (see [`crate::faults`]).
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable or disable the versioned (seqlock) fast-read path for wide
    /// atomic cells (see [`Self::vread_fastpath`]).
    pub fn with_vread_fastpath(mut self, on: bool) -> Self {
        self.vread_fastpath = on;
        self
    }

    /// Override the optimistic retry bound of the versioned fast-read path
    /// (see [`Self::vread_max_tries`]).
    pub fn with_vread_max_tries(mut self, tries: u32) -> Self {
        self.vread_max_tries = tries;
        self
    }

    /// Select the communication backend (see [`EngineKind`]).
    pub fn with_engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Override the per-locale symmetric-heap size in bytes (see
    /// [`Self::sym_heap_bytes`]).
    pub fn with_sym_heap_bytes(mut self, bytes: usize) -> Self {
        self.sym_heap_bytes = bytes;
        self
    }

    /// Validate invariants, panicking with a descriptive message on
    /// misconfiguration.
    pub(crate) fn validate(&self) {
        assert!(self.num_locales >= 1, "need at least one locale");
        if self.pointer_mode == PointerMode::Compressed {
            assert!(
                self.num_locales <= 1 << 16,
                "compressed pointers support at most 2^16 locales; \
                 use PointerMode::Wide"
            );
        }
        assert!(
            self.progress_threads >= 1,
            "need at least one progress thread"
        );
        assert!(
            self.combine_max_batch >= 1,
            "combined messages must carry at least one operation"
        );
        if self.vread_fastpath {
            assert!(
                self.vread_max_tries >= 1,
                "versioned reads need at least one optimistic attempt"
            );
        }
        assert!(
            self.sym_heap_bytes >= 64 && self.sym_heap_bytes.is_multiple_of(8),
            "symmetric heap must be at least 64 bytes and word-aligned"
        );
        if let Some(plan) = &self.faults {
            plan.validate(self.num_locales);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RuntimeConfig::default();
        c.validate();
        assert_eq!(c.num_locales, 1);
        assert!(c.network.network_atomics);
        assert_eq!(c.pointer_mode, PointerMode::Compressed);
    }

    #[test]
    fn cluster_preset() {
        let c = RuntimeConfig::cluster(8);
        c.validate();
        assert_eq!(c.num_locales, 8);
    }

    #[test]
    fn without_network_atomics_flips_flag() {
        let c = RuntimeConfig::cluster(4).without_network_atomics();
        assert!(!c.network.network_atomics);
    }

    #[test]
    fn zero_cost_model_is_all_zero() {
        let n = NetworkConfig::zero_cost();
        assert_eq!(n.cpu_atomic_ns, 0);
        assert_eq!(n.nic_atomic_ns, 0);
        assert_eq!(n.am_wire_ns, 0);
    }

    #[test]
    #[should_panic(expected = "at least one locale")]
    fn zero_locales_rejected() {
        RuntimeConfig {
            num_locales: 0,
            ..RuntimeConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "2^16")]
    fn too_many_compressed_locales_rejected() {
        RuntimeConfig {
            num_locales: (1 << 16) + 1,
            ..RuntimeConfig::default()
        }
        .validate();
    }

    #[test]
    fn vread_fastpath_defaults_off() {
        let c = RuntimeConfig::default();
        assert!(!c.vread_fastpath);
        let c = RuntimeConfig::cluster(4).with_vread_fastpath(true);
        assert!(c.vread_fastpath);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one optimistic attempt")]
    fn vread_zero_tries_rejected() {
        RuntimeConfig::cluster(2)
            .with_vread_fastpath(true)
            .with_vread_max_tries(0)
            .validate();
    }

    #[test]
    fn engine_defaults_to_sim() {
        let c = RuntimeConfig::default();
        assert_eq!(c.engine, EngineKind::Sim);
        assert_eq!(c.sym_heap_bytes, 1 << 20);
        let c = RuntimeConfig::cluster(4)
            .with_engine(EngineKind::Proc)
            .with_sym_heap_bytes(4096);
        assert_eq!(c.engine, EngineKind::Proc);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "symmetric heap")]
    fn tiny_sym_heap_rejected() {
        RuntimeConfig::default().with_sym_heap_bytes(8).validate();
    }

    #[test]
    fn wide_mode_lifts_locale_cap() {
        let c = RuntimeConfig {
            num_locales: (1 << 16) + 1,
            pointer_mode: PointerMode::Wide,
            // do not actually start this many locales in tests!
            ..RuntimeConfig::default()
        };
        c.validate();
    }
}
