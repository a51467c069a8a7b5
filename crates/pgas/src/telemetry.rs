//! Structured telemetry: a typed metric registry, per-operation spans, and
//! pluggable sinks.
//!
//! The paper's evaluation is about *where time goes* — RDMA vs
//! remote-execution paths, queueing at saturated progress threads, EBR
//! overhead — so flat event counts ([`crate::stats::CommSnapshot`]) are not
//! enough. This module adds the latency half:
//!
//! * [`OpClass`] — the operation classes the simulator distinguishes
//!   (NIC atomic, AM round trip, handler queue wait, combine occupancy, …).
//! * [`HistSnapshot`] — a fixed-bucket log2 histogram (64 buckets, no
//!   dependencies; the vendor set is frozen). Percentiles come from a
//!   cumulative bucket walk; the maximum is tracked exactly so tail
//!   latencies are not bucket-rounded.
//! * [`Registry`] — one per locale: the [`Counter`] cells behind
//!   [`CommSnapshot`] and one histogram per [`OpClass`], all in one block
//!   of per-thread shards ([`crate::per_thread`]), so recording is a plain
//!   load and store on memory only the recording thread writes.
//! * [`Span`] — one record per remote operation, stamped from the virtual
//!   time points that already exist (issue → wire → queue → handle →
//!   reply), plus the causal-trace triple `trace`/`span`/`parent`.
//! * [`trace`] — the causal context ([`trace::TraceCtx`]) carried in a
//!   thread-local and propagated across AM boundaries, so every span knows
//!   which logical operation caused it.
//! * [`OpSpan`] — an RAII root span opened by public structure/atomic
//!   operations, tagged with op kind, key hash, and CAS-retry count.
//! * [`Sink`] — where spans go: [`NullSink`] (zero-cost default — no sink
//!   installed means one relaxed atomic load per op and nothing else),
//!   [`RingSink`] (in-memory ring buffer for tests), [`JsonLinesSink`]
//!   (hand-rolled JSON-lines writer for the harness).
//!
//! ## Overhead budget
//!
//! Histogram recording is always on and costs one thread-local lookup plus
//! four plain load/store pairs on the recording thread's own shard — no
//! lock-prefixed instruction, no lock, no allocation once the thread has
//! recorded on the registry before. It charges **no virtual time** and
//! touches **no counters**, so results-guard quantities (A1 scatter AM counts,
//! A7 combining wins) are bit-for-bit unaffected. A snapshot sums the
//! shards: exact for everything that happens-before it (a join, an AM
//! reply, a barrier), approximate while writers run. Span emission is
//! gated on an installed sink — the default is a single `OnceLock::get`
//! returning `None`.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::globalptr::LocaleId;
use crate::per_thread::{bump, raise, PerThread};
use crate::stats::{CommSnapshot, Counter};

/// Operation classes tracked by the telemetry registry. Each class gets its
/// own latency (or occupancy) histogram per locale, and spans are keyed by
/// it.
///
/// This is distinct from [`crate::faults::RetryClass`] (idempotent vs not,
/// which governs *drop eligibility*); this enum classifies *what kind of
/// remote operation* a sample describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// 64-bit atomic executed on the simulated NIC (RDMA atomic). Sample =
    /// full virtual-time span charged to the issuing task, including any
    /// fault-injected delays and retry penalties.
    RdmaAtomic,
    /// Atomic executed by the local CPU. Sample = `cpu_atomic_ns`.
    CpuAtomic,
    /// 128-bit double-word CAS executed by the local CPU.
    CpuDcas,
    /// Sender-observed active-message round trip: issue → wire → queue →
    /// handler → reply, including retries of dropped sends.
    AmRoundTrip,
    /// Time an AM spent queued at a saturated progress thread: handler
    /// start minus arrival (zero when a server slot was free on arrival).
    AmQueue,
    /// Handler service time: dispatch cost (× straggler slowdown) plus the
    /// user body, measured on the destination locale.
    AmService,
    /// Occupancy of batched active messages ([`crate::engine::Batcher`] /
    /// `bulk_on`): sample = operations carried per bulk AM.
    BatchOccupancy,
    /// Occupancy of combined active messages
    /// ([`crate::engine::combine`]): sample = operations per shipped chunk.
    CombineOccupancy,
    /// One-sided PUT: sample = virtual-time cost (latency + bandwidth
    /// term). Local puts are free and not sampled.
    Put,
    /// One-sided GET: sample = virtual-time cost. Local gets are free and
    /// not sampled.
    Get,
    /// Fault-injected retry: sample = the backoff penalty (timeout +
    /// exponential backoff + jitter) charged for one dropped attempt. The
    /// matching span's `tag` is the fault decision index.
    Retry,
    /// Epoch reclamation pin-to-reclaim latency: virtual time from the
    /// first `defer_delete` into a limbo list until that list is drained.
    Reclaim,
    /// Depth of a limbo list at the moment it was drained (object count).
    LimboDepth,
    /// Root span of a public `DistStack` operation. Sample = whole-op
    /// virtual duration; the span `tag` packs op kind, CAS-retry count and
    /// key hash (see [`pack_op_tag`]).
    StackOp,
    /// Root span of a public `DistQueue` operation (tag as [`OpClass::StackOp`]).
    QueueOp,
    /// Root span of a public `DistList` operation (tag as [`OpClass::StackOp`]).
    ListOp,
    /// Root span of a public `DistHashMap` operation (tag as [`OpClass::StackOp`]).
    MapOp,
    /// Root span of a public `DistSkipList` operation (tag as [`OpClass::StackOp`]).
    SkipListOp,
    /// Root span of a public `RcuArray` operation (tag as [`OpClass::StackOp`]).
    RcuArrayOp,
    /// Root span of a public `AtomicObject`/`AtomicAbaObject` operation
    /// (read/write/exchange/CAS/DCAS; tag as [`OpClass::StackOp`]).
    AtomicObjectOp,
    /// One rider's end-to-end trip through the flat-combining layer:
    /// publish → executed on the destination → reply wire. Emitted by the
    /// publishing task (see [`crate::engine::combine`]); the bulk AM that
    /// carried the chunk nests under the *last* rider's span.
    CombineRide,
    /// Versioned (seqlock) fast read of a 128-bit cell: optimistic
    /// two-load-and-validate riding the one-sided GET cost model instead of
    /// the DCAS/handler path. Sample = full virtual-time span including
    /// torn-window re-reads; fallbacks to the DCAS slow path are *not*
    /// sampled here (they record under the handler classes as before).
    VersionedRead,
    /// Root span of a public `ShardedHashMap` operation — the privatized
    /// per-locale-sharded map of the global-view tier (tag as
    /// [`OpClass::StackOp`]). Local-shard and remote-shard ops share the
    /// class; the latency split shows up in the percentiles (local ops are
    /// CPU-priced, remote ops carry an AM round trip).
    ShardedMapOp,
    /// Root span of a public `WorkStealingDeque` operation (tag as
    /// [`OpClass::StackOp`]); steals carry `opkind::STEAL`.
    DequeOp,
    /// Root span of a public `GlobalOrderedSet` operation — the sharded
    /// skiplist wrapper of the global-view tier (tag as
    /// [`OpClass::StackOp`]); cross-shard scans carry `opkind::RANGE`.
    OrderedSetOp,
}

impl OpClass {
    /// Number of classes (length of [`OpClass::ALL`]).
    pub const COUNT: usize = 25;

    /// Every class, in declaration order (the histogram index order).
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::RdmaAtomic,
        OpClass::CpuAtomic,
        OpClass::CpuDcas,
        OpClass::AmRoundTrip,
        OpClass::AmQueue,
        OpClass::AmService,
        OpClass::BatchOccupancy,
        OpClass::CombineOccupancy,
        OpClass::Put,
        OpClass::Get,
        OpClass::Retry,
        OpClass::Reclaim,
        OpClass::LimboDepth,
        OpClass::StackOp,
        OpClass::QueueOp,
        OpClass::ListOp,
        OpClass::MapOp,
        OpClass::SkipListOp,
        OpClass::RcuArrayOp,
        OpClass::AtomicObjectOp,
        OpClass::CombineRide,
        OpClass::VersionedRead,
        OpClass::ShardedMapOp,
        OpClass::DequeOp,
        OpClass::OrderedSetOp,
    ];

    /// Stable snake_case name used as the JSON key for this class.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::RdmaAtomic => "rdma_atomic",
            OpClass::CpuAtomic => "cpu_atomic",
            OpClass::CpuDcas => "cpu_dcas",
            OpClass::AmRoundTrip => "am_round_trip",
            OpClass::AmQueue => "am_queue",
            OpClass::AmService => "am_service",
            OpClass::BatchOccupancy => "batch_occupancy",
            OpClass::CombineOccupancy => "combine_occupancy",
            OpClass::Put => "put",
            OpClass::Get => "get",
            OpClass::Retry => "retry",
            OpClass::Reclaim => "reclaim",
            OpClass::LimboDepth => "limbo_depth",
            OpClass::StackOp => "stack_op",
            OpClass::QueueOp => "queue_op",
            OpClass::ListOp => "list_op",
            OpClass::MapOp => "map_op",
            OpClass::SkipListOp => "skiplist_op",
            OpClass::RcuArrayOp => "rcu_array_op",
            OpClass::AtomicObjectOp => "atomic_object_op",
            OpClass::CombineRide => "combine_ride",
            OpClass::VersionedRead => "versioned_read",
            OpClass::ShardedMapOp => "sharded_map_op",
            OpClass::DequeOp => "deque_op",
            OpClass::OrderedSetOp => "ordered_set_op",
        }
    }

    /// Parse a class from its stable [`OpClass::name`].
    pub fn from_name(name: &str) -> Option<OpClass> {
        OpClass::ALL.iter().copied().find(|c| c.name() == name)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Causal trace context: the ambient `(trace id, parent span id)` pair a
/// task carries in a thread-local and that the AM layer propagates across
/// locale boundaries, so every emitted [`Span`] can name the logical
/// operation that caused it.
///
/// Span ids are allocated from a per-locale counter salted with the
/// locale's process-wide construction epoch
/// (`(locale+1) << 48 | epoch << 28 | seq`), so ids are unique across
/// locales and across every runtime the process builds, never zero, and —
/// for a deterministic workload — identical from run to run of the
/// program. Id `0` means "no parent" (the span roots its own trace).
pub mod trace {
    use std::cell::Cell;

    /// The ambient causal context: which trace the current task is working
    /// for, and which span is the current parent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TraceCtx {
        /// Trace id — the span id of the trace's root span.
        pub trace: u64,
        /// The span id new child spans should name as their parent.
        pub span: u64,
    }

    thread_local! {
        static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    }

    /// The current task's trace context, if any.
    #[inline]
    pub fn current() -> Option<TraceCtx> {
        CURRENT.with(|c| c.get())
    }

    /// Install `ctx` as the ambient trace context (or clear it with
    /// `None`); the previous value is restored when the guard drops.
    pub fn enter(ctx: Option<TraceCtx>) -> TraceGuard {
        let prev = CURRENT.with(|c| c.replace(ctx));
        TraceGuard { prev }
    }

    /// Restores the previous trace context on drop (see [`enter`]).
    pub struct TraceGuard {
        prev: Option<TraceCtx>,
    }

    impl Drop for TraceGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Op-kind constants packed into a root span's `tag` (see [`pack_op_tag`]).
/// Stable small integers, shared by the structures and the trace analyzer.
#[allow(missing_docs)] // names are self-describing; `name()` maps them back
pub mod opkind {
    pub const PUSH: u64 = 1;
    pub const POP: u64 = 2;
    pub const ENQUEUE: u64 = 3;
    pub const DEQUEUE: u64 = 4;
    pub const INSERT: u64 = 5;
    pub const REMOVE: u64 = 6;
    pub const CONTAINS: u64 = 7;
    pub const GET: u64 = 8;
    pub const READ: u64 = 9;
    pub const WRITE: u64 = 10;
    pub const GROW: u64 = 11;
    pub const EXCHANGE: u64 = 12;
    pub const CAS: u64 = 13;
    pub const RANGE: u64 = 14;
    pub const LEN: u64 = 15;
    pub const BULK_INSERT: u64 = 16;
    pub const BULK_GET: u64 = 17;
    pub const STEAL: u64 = 18;
    pub const REBALANCE: u64 = 19;

    /// Human-readable name for a packed op kind (for the analyzer).
    pub fn name(kind: u64) -> &'static str {
        match kind {
            PUSH => "push",
            POP => "pop",
            ENQUEUE => "enqueue",
            DEQUEUE => "dequeue",
            INSERT => "insert",
            REMOVE => "remove",
            CONTAINS => "contains",
            GET => "get",
            READ => "read",
            WRITE => "write",
            GROW => "grow",
            EXCHANGE => "exchange",
            CAS => "cas",
            RANGE => "range",
            LEN => "len",
            BULK_INSERT => "bulk_insert",
            BULK_GET => "bulk_get",
            STEAL => "steal",
            REBALANCE => "rebalance",
            _ => "op",
        }
    }
}

/// Pack a root span's tag: bits 0–7 the [`opkind`] constant, bits 8–23 the
/// CAS-retry count (saturated), bits 24–63 the low 40 bits of the key hash.
#[inline]
pub fn pack_op_tag(kind: u64, retries: u64, key_hash: u64) -> u64 {
    (kind & 0xff) | (retries.min(0xffff) << 8) | ((key_hash & 0xff_ffff_ffff) << 24)
}

/// Unpack a root span tag into `(kind, retries, key_hash_low40)` — the
/// inverse of [`pack_op_tag`], used by the trace analyzer.
#[inline]
pub fn unpack_op_tag(tag: u64) -> (u64, u64, u64) {
    (tag & 0xff, (tag >> 8) & 0xffff, tag >> 24)
}

/// Deterministically hash a key for a root span's tag. Uses the std
/// `DefaultHasher` with its fixed default keys, so the same key hashes the
/// same in every run (traces stay bit-reproducible).
pub fn key_hash64<K: std::hash::Hash + ?Sized>(key: &K) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// RAII root span for a public structure/atomic operation.
///
/// `start` stamps the issue vtime and — when a telemetry sink is installed —
/// allocates a span id on the current locale, installs the matching
/// [`trace::TraceCtx`] so every remote-op span emitted inside the operation
/// nests under it, and on drop emits the root [`Span`] (src == dest ==
/// issuing locale; `issue == arrive == start`) with its tag packing op
/// kind, CAS-retry count, and key hash.
///
/// The per-class duration histogram is recorded unconditionally (histogram
/// recording is always on, charges no vtime, touches no counters), so the
/// zero-drift guarantee of the default [`NullSink`] path holds.
///
/// Off-runtime (no ambient PGAS context) the guard is inert.
pub struct OpSpan {
    class: OpClass,
    kind: u64,
    key_hash: u64,
    retries: std::cell::Cell<u64>,
    begin: u64,
    ids: Option<(u64, u64, u64)>, // (trace, span, parent)
    _guard: Option<trace::TraceGuard>,
    active: bool,
}

impl OpSpan {
    /// Open a root span for one `class` operation of kind `kind` (an
    /// [`opkind`] constant) on key hash `key_hash` (0 when keyless).
    pub fn start(class: OpClass, kind: u64, key_hash: u64) -> OpSpan {
        let mut begin = 0;
        let mut ids = None;
        let mut guard = None;
        let active = crate::ctx::try_with_core(|core, locale| {
            begin = crate::vtime::now();
            if core.tracing() {
                let triple = core.span_ids(locale);
                let (trace_id, own, _) = triple;
                guard = Some(trace::enter(Some(trace::TraceCtx {
                    trace: trace_id,
                    span: own,
                })));
                ids = Some(triple);
            }
        })
        .is_some();
        OpSpan {
            class,
            kind,
            key_hash,
            retries: std::cell::Cell::new(0),
            begin,
            ids,
            _guard: guard,
            active,
        }
    }

    /// Count one CAS-retry (or other optimistic-loop repeat) for the tag.
    #[inline]
    pub fn retry(&self) {
        self.retries.set(self.retries.get() + 1);
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = crate::ctx::try_with_core(|core, locale| {
            let end = crate::vtime::now();
            core.locale(locale)
                .stats
                .record(self.class, end.saturating_sub(self.begin));
            if let Some((trace_id, own, parent)) = self.ids {
                let tag = pack_op_tag(self.kind, self.retries.get(), self.key_hash);
                core.emit_span(|| Span {
                    class: self.class,
                    src: locale,
                    dest: locale,
                    issue_vtime: self.begin,
                    arrive_vtime: self.begin,
                    start_vtime: self.begin,
                    end_vtime: end,
                    tag,
                    trace: trace_id,
                    span: own,
                    parent,
                });
            }
        });
    }
}

/// Number of log2 buckets. Bucket 0 holds the value 0; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; the last bucket absorbs everything
/// above `2^62`.
const BUCKETS: usize = 64;

#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`, used as the percentile estimate.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket log2 histogram as plain old data: what a [`Registry`]
/// snapshot holds per [`OpClass`], mergeable with `+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Record one sample — the sequential form of [`Registry::record`].
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded sample (not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at or below which `p` percent of samples fall, estimated
    /// as the inclusive upper bound of the log2 bucket containing that
    /// rank, clamped by the exact maximum (so `percentile(100.0) == max`).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

impl std::ops::Add for HistSnapshot {
    type Output = HistSnapshot;
    fn add(self, rhs: HistSnapshot) -> HistSnapshot {
        // Wrapping, like recording: `sum` of saturated vtime samples
        // overflows long before anything else is wrong.
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_add(rhs.buckets[i])),
            count: self.count.wrapping_add(rhs.count),
            sum: self.sum.wrapping_add(rhs.sum),
            max: self.max.max(rhs.max),
        }
    }
}

/// Number of [`Counter`] cells at the front of a registry's block.
const COUNTERS: usize = Counter::ALL.len();
/// Summed cells per class histogram: the buckets, then `count`, then `sum`.
const HIST_SUMS: usize = BUCKETS + 2;
/// Every summed cell; one `max` cell per class follows.
const SUMS: usize = COUNTERS + OpClass::COUNT * HIST_SUMS;

/// The per-locale metric registry: the [`Counter`] cells (the counter half
/// — [`CommSnapshot`]'s names and semantics) and one log2 histogram per
/// [`OpClass`] (the latency half), laid out in one [`PerThread`] block.
///
/// Recording threads each write a private shard, so neither [`Registry::add`]
/// nor [`Registry::record`] issues an atomic read-modify-write; see
/// [`crate::per_thread`] for the single-writer argument and the visibility
/// rule of snapshots.
#[derive(Debug)]
pub struct Registry {
    cells: PerThread,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            cells: PerThread::new(SUMS, OpClass::COUNT),
        }
    }
}

impl Registry {
    /// Add `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.cells.add(counter as usize, n);
    }

    /// Record one latency/occupancy sample. Charges no virtual time and
    /// touches no counters.
    #[inline]
    pub fn record(&self, class: OpClass, value: u64) {
        let hist = COUNTERS + class as usize * HIST_SUMS;
        self.cells.with(|c| {
            bump(&c[hist + bucket_of(value)], 1);
            bump(&c[hist + BUCKETS], 1);
            bump(&c[hist + BUCKETS + 1], value);
            raise(&c[SUMS + class as usize], value);
        });
    }

    /// Zero both halves. Callers must ensure quiescence.
    pub fn reset(&self) {
        self.cells.reset();
    }

    /// Capture the counter half.
    pub fn snapshot(&self) -> CommSnapshot {
        let mut cells = [0; COUNTERS];
        self.cells.read(0, &mut cells);
        CommSnapshot::from_cells(&cells)
    }

    /// Capture both halves as one [`TelemetrySnapshot`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut cells = [0; SUMS + OpClass::COUNT];
        self.cells.read(0, &mut cells);
        TelemetrySnapshot {
            comm: CommSnapshot::from_cells(&cells[..COUNTERS]),
            latency: std::array::from_fn(|class| {
                let hist = &cells[COUNTERS + class * HIST_SUMS..][..HIST_SUMS];
                HistSnapshot {
                    buckets: std::array::from_fn(|i| hist[i]),
                    count: hist[BUCKETS],
                    sum: hist[BUCKETS + 1],
                    max: cells[SUMS + class],
                }
            }),
        }
    }

    /// Per-thread shards currently listed (see
    /// [`PerThread::live_shards`]).
    pub fn live_shards(&self) -> usize {
        self.cells.live_shards()
    }
}

/// A plain-old-data snapshot of a [`Registry`]: the communication counters
/// plus one histogram snapshot per op class. Mergeable with `+` to fold
/// per-locale registries into cluster totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The counter half (see [`CommSnapshot`]).
    pub comm: CommSnapshot,
    latency: [HistSnapshot; OpClass::COUNT],
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            comm: CommSnapshot::default(),
            latency: [HistSnapshot::default(); OpClass::COUNT],
        }
    }
}

impl TelemetrySnapshot {
    /// The histogram snapshot for `class`.
    pub fn class(&self, class: OpClass) -> &HistSnapshot {
        &self.latency[class as usize]
    }

    /// Iterate `(class, histogram)` pairs for classes that recorded at
    /// least one sample.
    pub fn nonempty(&self) -> impl Iterator<Item = (OpClass, &HistSnapshot)> {
        OpClass::ALL
            .iter()
            .map(move |&c| (c, self.class(c)))
            .filter(|(_, h)| !h.is_empty())
    }

    /// Render the non-empty classes as a hand-rolled JSON object:
    /// `{"am_round_trip": {"count": …, "p50": …, "p99": …, "p999": …,
    /// "max": …, "mean": …}, …}`. Serde-free by design.
    pub fn latency_json(&self) -> String {
        let mut out = String::from("{");
        for (c, h) in self.nonempty() {
            if out.len() > 1 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(c.name());
            out.push_str("\": {\"count\": ");
            out.push_str(&h.count().to_string());
            out.push_str(", \"p50\": ");
            out.push_str(&h.percentile(50.0).to_string());
            out.push_str(", \"p99\": ");
            out.push_str(&h.percentile(99.0).to_string());
            out.push_str(", \"p999\": ");
            out.push_str(&h.percentile(99.9).to_string());
            out.push_str(", \"max\": ");
            out.push_str(&h.max().to_string());
            out.push_str(", \"mean\": ");
            out.push_str(&h.mean().to_string());
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl std::ops::Add for TelemetrySnapshot {
    type Output = TelemetrySnapshot;
    fn add(self, rhs: TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            comm: self.comm + rhs.comm,
            latency: std::array::from_fn(|i| self.latency[i] + rhs.latency[i]),
        }
    }
}

/// One record per remote operation, stamped from the virtual-time points
/// that already exist in the simulator: issue at the sender, arrival after
/// the wire (plus any injected delay), handler start after queueing behind
/// busy server slots, handler end, and the reply landing back at the
/// sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What kind of operation this span describes.
    pub class: OpClass,
    /// Locale that issued the operation.
    pub src: LocaleId,
    /// Locale that serviced it.
    pub dest: LocaleId,
    /// Sender virtual time when the operation was issued.
    pub issue_vtime: u64,
    /// Destination virtual time when the message arrived (issue + wire +
    /// injected delay).
    pub arrive_vtime: u64,
    /// Virtual time the handler actually started — `max(arrival, slot
    /// free)`; `start - arrive` is the queueing delay.
    pub start_vtime: u64,
    /// Virtual time the handler (or the operation) completed.
    pub end_vtime: u64,
    /// Class-specific tag: the fault decision index for
    /// [`OpClass::Retry`], the server-slot index for
    /// [`OpClass::AmRoundTrip`], the packed op kind/retries/key hash for
    /// root spans (see [`pack_op_tag`]), zero otherwise.
    pub tag: u64,
    /// Trace id: the span id of this span's root. Zero when tracing is off
    /// (no sink installed when the span was stamped).
    pub trace: u64,
    /// This span's id — unique per run, allocated from a per-locale
    /// counter. Zero when tracing is off.
    pub span: u64,
    /// Parent span id; zero for a root span.
    pub parent: u64,
}

impl Span {
    /// Render as one hand-rolled JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"class\": \"{}\", \"src\": {}, \"dest\": {}, \"issue\": {}, \
             \"arrive\": {}, \"start\": {}, \"end\": {}, \"tag\": {}, \
             \"trace\": {}, \"span\": {}, \"parent\": {}}}",
            self.class.name(),
            self.src,
            self.dest,
            self.issue_vtime,
            self.arrive_vtime,
            self.start_vtime,
            self.end_vtime,
            self.tag,
            self.trace,
            self.span,
            self.parent
        )
    }
}

/// Where spans go. Implementations must be cheap and thread-safe: sinks
/// are called from progress threads and task threads concurrently.
pub trait Sink: Send + Sync + 'static {
    /// Record one span.
    fn record(&self, span: &Span);
    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The zero-cost default: discards everything. Installing it is equivalent
/// to installing no sink at all (the uninstalled fast path is a single
/// `OnceLock::get`), but makes the "telemetry adds zero counter drift"
/// guarantee testable end to end.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _span: &Span) {}
}

/// An in-memory ring buffer of the most recent `capacity` spans, for
/// tests.
///
/// **Full-buffer semantics: oldest-dropped.** Recording into a full ring
/// evicts the oldest buffered span and always accepts the new one — a
/// trace's most recent history is what post-mortem debugging wants, and a
/// sink that silently *rejects* new spans would bias every tail-latency
/// question toward the warm-up phase. Asserted by
/// `ring_sink_full_buffer_drops_oldest_never_rejects`.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Span>>,
}

impl RingSink {
    /// A ring that keeps the most recent `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Drain and return every buffered span, oldest first.
    pub fn take(&self) -> Vec<Span> {
        self.buf
            .lock()
            .map(|mut b| b.drain(..).collect())
            .unwrap_or_default()
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.buf.lock().map(|b| b.len()).unwrap_or(0)
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingSink {
    fn record(&self, span: &Span) {
        if let Ok(mut b) = self.buf.lock() {
            if b.len() == self.capacity {
                b.pop_front();
            }
            b.push_back(*span);
        }
    }
}

/// Writes one hand-rolled JSON object per span, newline-delimited, to a
/// file — the harness trace format.
///
/// Spans are buffered in memory and written at flush (or drop) time
/// **sorted by `(issue vtime, span id)`**: raw emission order races
/// between progress threads and the senders their replies unblock, so
/// arrival order is scheduling-dependent even for fully deterministic
/// workloads. The sort keys are pure vtime/counter values, so a
/// deterministic run produces a bit-identical trace file (the bench
/// crate's determinism test asserts this). Flush once, at the end of the
/// run: each flush sorts only the spans buffered since the previous one.
#[derive(Debug)]
pub struct JsonLinesSink {
    out: Mutex<JsonLinesInner>,
}

#[derive(Debug)]
struct JsonLinesInner {
    file: File,
    /// `(issue vtime, span id, rendered line)` — the canonical sort key
    /// plus the line it orders.
    pending: Vec<(u64, u64, String)>,
}

impl JsonLinesSink {
    /// Create (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonLinesSink {
            out: Mutex::new(JsonLinesInner {
                file,
                pending: Vec::new(),
            }),
        })
    }

    /// Flush buffered spans, *returning* the I/O error instead of
    /// swallowing it like the infallible [`Sink::flush`] does. Callers that
    /// care whether the trace actually hit the disk (the harness at exit)
    /// should use this. Buffered spans stay queued if the write fails.
    pub fn try_flush(&self) -> std::io::Result<()> {
        let mut inner = self
            .out
            .lock()
            .map_err(|_| std::io::Error::other("trace writer poisoned"))?;
        let JsonLinesInner { file, pending } = &mut *inner;
        if pending.is_empty() {
            return file.flush();
        }
        pending.sort_unstable();
        let mut out = String::with_capacity(pending.iter().map(|p| p.2.len() + 1).sum());
        for (_, _, line) in pending.iter() {
            out.push_str(line);
            out.push('\n');
        }
        file.write_all(out.as_bytes())?;
        pending.clear();
        file.flush()
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, span: &Span) {
        if let Ok(mut inner) = self.out.lock() {
            inner
                .pending
                .push((span.issue_vtime, span.span, span.to_json()));
        }
    }

    fn flush(&self) {
        let _ = self.try_flush();
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Bucket i's upper bound really is the largest value mapping to i.
        for i in 1..62 {
            assert_eq!(bucket_of(bucket_upper(i)), i);
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn percentiles_and_exact_max() {
        let mut s = HistSnapshot::default();
        for v in [100u64, 200, 300, 400, 10_000] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 11_000);
        assert_eq!(s.max(), 10_000);
        // p50 (the median, 300) falls in the bucket [256, 511].
        assert_eq!(s.percentile(50.0), 511);
        // The tail percentiles are clamped by the exact max, not the
        // bucket bound (16383).
        assert_eq!(s.percentile(99.0), 10_000);
        assert_eq!(s.percentile(100.0), 10_000);
        // Percentiles are monotone in p.
        assert!(s.percentile(10.0) <= s.percentile(90.0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = HistSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn snapshot_merge_adds_counts_and_maxes() {
        let mut a = HistSnapshot::default();
        let mut b = HistSnapshot::default();
        a.record(10);
        b.record(1000);
        b.record(1);
        let m = a + b;
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 1011);
        assert_eq!(m.max(), 1000);
    }

    #[test]
    fn snapshot_merge_wraps_like_recording() {
        // `vtime::charge` saturates, so a sample can be u64::MAX; recording
        // two of them wraps `sum`, and so must merging two snapshots (an
        // unchecked `+` panicked here in debug builds).
        let mut a = HistSnapshot::default();
        let mut b = HistSnapshot::default();
        a.record(u64::MAX);
        b.record(u64::MAX);
        let mut both = HistSnapshot::default();
        both.record(u64::MAX);
        both.record(u64::MAX);
        assert_eq!(a + b, both);
        assert_eq!((a + b).sum(), u64::MAX - 1);
        // The same through a registry, whose snapshot merges shards.
        let r = Registry::default();
        r.record(OpClass::Reclaim, u64::MAX);
        std::thread::scope(|s| {
            s.spawn(|| r.record(OpClass::Reclaim, u64::MAX));
        });
        assert_eq!(*r.telemetry_snapshot().class(OpClass::Reclaim), both);
    }

    #[test]
    fn registry_counts_and_resets_both_halves() {
        let r = Registry::default();
        r.add(Counter::AmSent, 2);
        r.record(OpClass::AmRoundTrip, 2500);
        let t = r.telemetry_snapshot();
        assert_eq!(t.comm.am_sent, 2);
        assert_eq!(t.class(OpClass::AmRoundTrip).count(), 1);
        r.reset();
        let t = r.telemetry_snapshot();
        assert!(t.comm.is_zero());
        assert!(t.class(OpClass::AmRoundTrip).is_empty());
    }

    #[test]
    fn telemetry_snapshot_merge_and_json() {
        let r1 = Registry::default();
        let r2 = Registry::default();
        r1.record(OpClass::Put, 910);
        r2.record(OpClass::Put, 1810);
        let t = r1.telemetry_snapshot() + r2.telemetry_snapshot();
        assert_eq!(t.class(OpClass::Put).count(), 2);
        assert_eq!(t.class(OpClass::Put).max(), 1810);
        let j = t.latency_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"put\": {\"count\": 2"));
        assert!(j.contains("\"max\": 1810"));
        // Empty classes are omitted.
        assert!(!j.contains("rdma_atomic"));
    }

    fn mk_span(tag: u64) -> Span {
        Span {
            class: OpClass::AmService,
            src: 0,
            dest: 1,
            issue_vtime: 0,
            arrive_vtime: 700,
            start_vtime: 700,
            end_vtime: 1800,
            tag,
            trace: 0,
            span: 0,
            parent: 0,
        }
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let ring = RingSink::new(2);
        for t in 0..5 {
            ring.record(&mk_span(t));
        }
        assert_eq!(ring.len(), 2);
        let spans = ring.take();
        assert!(ring.is_empty());
        assert_eq!(spans.iter().map(|s| s.tag).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn ring_sink_full_buffer_drops_oldest_never_rejects() {
        // The documented full-buffer contract: a full ring evicts the
        // *oldest* span and always accepts the new one. Every record call
        // must land, and after N > capacity records the buffer holds the
        // last `capacity` spans in order.
        let cap = 3;
        let ring = RingSink::new(cap);
        for t in 0..10u64 {
            ring.record(&mk_span(t));
            assert!(
                ring.len() <= cap,
                "ring must never exceed its capacity ({cap})"
            );
            // The newest span was accepted, not rejected.
            assert_eq!(ring.len(), (t as usize + 1).min(cap));
        }
        let tags: Vec<u64> = ring.take().iter().map(|s| s.tag).collect();
        assert_eq!(tags, [7, 8, 9], "oldest spans dropped, newest kept");
    }

    #[test]
    fn json_lines_sink_try_flush_reports_io_errors() {
        // Happy path: a writable file flushes cleanly.
        let path = std::env::temp_dir().join(format!(
            "pgas_trace_flush_test_{}.jsonl",
            std::process::id()
        ));
        let sink = JsonLinesSink::create(&path).unwrap();
        sink.record(&mk_span(1));
        assert!(sink.try_flush().is_ok());
        drop(sink);
        let _ = std::fs::remove_file(&path);

        // Error path: /dev/full accepts the open but fails the flush with
        // ENOSPC, which try_flush must surface (the Sink::flush impl
        // swallows it by contract).
        #[cfg(target_os = "linux")]
        {
            let sink = JsonLinesSink::create("/dev/full").unwrap();
            // More than the BufWriter could absorb silently on flush.
            sink.record(&mk_span(2));
            let err = sink
                .try_flush()
                .expect_err("/dev/full flush must report ENOSPC");
            assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC: {err}");
        }
    }

    #[test]
    fn span_json_shape() {
        let s = Span {
            class: OpClass::Retry,
            src: 3,
            dest: 0,
            issue_vtime: 10,
            arrive_vtime: 20,
            start_vtime: 30,
            end_vtime: 40,
            tag: 7,
            trace: 99,
            span: 100,
            parent: 99,
        };
        let j = s.to_json();
        assert_eq!(
            j,
            "{\"class\": \"retry\", \"src\": 3, \"dest\": 0, \"issue\": 10, \
             \"arrive\": 20, \"start\": 30, \"end\": 40, \"tag\": 7, \
             \"trace\": 99, \"span\": 100, \"parent\": 99}"
        );
    }

    #[test]
    fn op_tag_packs_and_unpacks() {
        let tag = pack_op_tag(opkind::ENQUEUE, 5, 0xdead_beef_cafe);
        let (kind, retries, hash) = unpack_op_tag(tag);
        assert_eq!(kind, opkind::ENQUEUE);
        assert_eq!(retries, 5);
        assert_eq!(hash, 0xdead_beef_cafe & 0xff_ffff_ffff);
        // Retries saturate rather than bleed into the hash bits.
        let (_, r, h) = unpack_op_tag(pack_op_tag(opkind::POP, u64::MAX, 0));
        assert_eq!(r, 0xffff);
        assert_eq!(h, 0);
    }

    #[test]
    fn key_hash_is_deterministic() {
        assert_eq!(key_hash64(&42u64), key_hash64(&42u64));
        assert_ne!(key_hash64(&42u64), key_hash64(&43u64));
    }

    #[test]
    fn trace_ctx_enter_nests_and_restores() {
        use super::trace::{current, enter, TraceCtx};
        assert_eq!(current(), None);
        {
            let _g1 = enter(Some(TraceCtx { trace: 1, span: 1 }));
            assert_eq!(current(), Some(TraceCtx { trace: 1, span: 1 }));
            {
                let _g2 = enter(Some(TraceCtx { trace: 1, span: 2 }));
                assert_eq!(current().unwrap().span, 2);
            }
            assert_eq!(current().unwrap().span, 1);
            {
                let _g3 = enter(None);
                assert_eq!(current(), None);
            }
            assert_eq!(current().unwrap().span, 1);
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn percentile_single_sample_edges() {
        // Bucket-boundary edge values: a single-sample histogram must
        // report that exact sample at every percentile (the bucket upper
        // bound is clamped by the exact max).
        for v in [0u64, 1, 2, 3, u64::MAX] {
            let mut s = HistSnapshot::default();
            s.record(v);
            for p in [0.0, 0.1, 50.0, 99.0, 99.9, 100.0] {
                assert_eq!(s.percentile(p), v, "single sample {v} at p{p}");
            }
        }
    }

    mod percentile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn monotone_in_p(
                samples in proptest::collection::vec(0u64..=u64::MAX, 1..64),
                // Permille points, mapped to f64 percentiles below (the
                // vendored proptest has no float range strategy).
                mut ps_permille in proptest::collection::vec(0u64..=1000, 2..8),
            ) {
                let mut s = HistSnapshot::default();
                for &v in &samples {
                    s.record(v);
                }
                ps_permille.sort_unstable();
                let ps: Vec<f64> = ps_permille.iter().map(|&m| m as f64 / 10.0).collect();
                for w in ps.windows(2) {
                    prop_assert!(
                        s.percentile(w[0]) <= s.percentile(w[1]),
                        "p{} -> {} must be <= p{} -> {}",
                        w[0], s.percentile(w[0]), w[1], s.percentile(w[1]),
                    );
                }
            }

            #[test]
            fn agrees_with_sorted_vec_reference(
                samples in proptest::collection::vec(0u64..100_000, 1..40),
                p_permille in 0u64..=1000,
            ) {
                let p = p_permille as f64 / 10.0;
                let mut s = HistSnapshot::default();
                for &v in &samples {
                    s.record(v);
                }
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                let exact = sorted[rank - 1];
                // The estimate is exactly the inclusive upper bound of the
                // log2 bucket holding the rank-th sample, clamped by the
                // true maximum — never below the exact answer.
                let est = s.percentile(p);
                prop_assert!(est >= exact);
                prop_assert_eq!(est, bucket_upper(bucket_of(exact)).min(s.max()));
            }
        }
    }

    #[test]
    fn all_names_unique_and_indexed() {
        let mut names: Vec<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpClass::COUNT);
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
