//! The communication engine: the backend contract, and the
//! shared-address-space model the simulator adds on top of it.
//!
//! **The backend contract** is [`CommEngine`]: the ten methods a transport
//! must implement to carry a runtime. Seven move data or run code on
//! another locale and name their target by *position*, never by address —
//! a byte offset into the owner's symmetric heap
//! ([`CommEngine::sym_atomic_u64`], [`CommEngine::sym_dcas_u128`],
//! [`CommEngine::sym_read_u128`], [`CommEngine::sym_get`],
//! [`CommEngine::sym_put`]) or the id of a registered handler function
//! ([`CommEngine::on_handler`], [`CommEngine::on_handler_async`]) — so a
//! backend whose locales are separate processes can honour every one of
//! them. Three are lifecycle ([`CommEngine::entry_locale`],
//! [`CommEngine::bind`], [`CommEngine::shutdown`]). Tasks reach the seven
//! through the [`crate::symheap`] and [`crate::handlers`] free functions.
//! [`SimEngine`] implements them in-process; `pgas_net::ProcEngine` over
//! loopback TCP.
//!
//! **The shared-address-space model** is everything else in this module:
//! plain functions over the simulated NIC's routing tables (`comm`), the
//! progress-thread active-message transport (`am`) and the [`combine`]
//! layer, the first two crate-private. They exist because the simulator's
//! locales live in one process, so a closure or a raw address means the
//! same thing on every locale:
//!
//! * **Atomics on a cell in memory** — [`atomic_u64`] and [`atomic_u128`]
//!   run an operation on a cell owned by some locale. They decide the path
//!   (CPU atomic, NIC atomic, or an active message to the owner), charge
//!   both sides and ship the message; no caller sees the decision.
//!   [`vread_u128`] is the optimistic versioned read of a 128-bit cell;
//!   [`get`]/[`put`] price one-sided transfers of raw memory.
//! * **Closures on another locale** — [`on`] (blocking, Chapel's `on`
//!   statement), [`on_async`] (fire-and-forget with a [`Completion`]
//!   handle; the sender's clock does not advance until — unless — it
//!   waits), [`on_combined`] (may share a bulk message with other tasks'
//!   closures when [`crate::config::RuntimeConfig::combining`] is set) and
//!   [`bulk_on`] (one message carrying many aggregated operations, counted
//!   in `am_batches` / `am_batch_items`; [`Batcher`] provides the per-task,
//!   per-destination send buffers on top of it).
//!
//! Most code reaches these through [`RuntimeCore::on`],
//! [`RuntimeCore::on_async`] and [`RuntimeCore::on_combining`], which add
//! the generic return value.
//!
//! None of this can cross a process boundary. A runtime built around an
//! external backend ([`crate::runtime::Runtime::with_engine`]) has no
//! progress threads to serve a closure and no meaning for a peer's raw
//! address, so there the model is confined to the calling rank: work aimed
//! at the own locale runs inline, anything else panics with a pointer at
//! [`crate::handlers`] and [`crate::symheap`]. That rule is one check,
//! `RuntimeCore::confined_to_rank`, made where the routing functions and
//! the active-message send path begin.

pub mod combine;

use std::panic::resume_unwind;

use crate::am;
use crate::comm::{self, AtomicPath};
pub use crate::comm::{
    charge_get as get, charge_put as put, debug_vread_skip_validate, vread_u128,
};
use crate::ctx;
use crate::globalptr::{GlobalPtr, LocaleId};
use crate::handlers::{self, HandlerId};
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::symheap::SymOp64;
use crate::vtime;

/// Default per-destination batch capacity (items) for [`Batcher`].
pub const DEFAULT_BUFFER_CAP: usize = 1024;

/// What a communication backend must implement. One engine instance per
/// runtime carries every operation that names its target by symmetric-heap
/// offset or handler id, with the counting that goes with it
/// ([`crate::stats::Counter`]), so a different transport can be slotted
/// in without touching the code above (see the module docs for what is
/// *not* part of the contract, and why).
///
/// The trait is object-safe.
pub trait CommEngine: Send + Sync {
    /// Execute a 64-bit atomic descriptor against `owner`'s symmetric heap
    /// at byte offset `offset`, returning the word's previous value (see
    /// [`crate::symheap::SymOp64`]).
    fn sym_atomic_u64(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, op: SymOp64) -> u64;

    /// 128-bit compare-and-swap on the [`crate::symheap::WideCell`] at
    /// `offset` in `owner`'s symmetric heap. Returns `(succeeded, previous value)`.
    fn sym_dcas_u128(
        &self,
        core: &RuntimeCore,
        owner: LocaleId,
        offset: u64,
        expected: u128,
        new: u128,
    ) -> (bool, u128);

    /// Read the [`crate::symheap::WideCell`] at `offset` in `owner`'s
    /// symmetric heap.
    /// With [`crate::config::RuntimeConfig::vread_fastpath`] enabled this
    /// attempts an optimistic versioned read first; otherwise — or once the
    /// retry budget is exhausted — it falls back to a value-preserving
    /// [`Self::sym_dcas_u128`] round trip (compare against an arbitrary
    /// expected value; the returned current value is the read).
    fn sym_read_u128(&self, core: &RuntimeCore, owner: LocaleId, offset: u64) -> u128;

    /// One-sided GET of `out.len()` bytes from `owner`'s symmetric heap at
    /// `offset`. Free and uncounted when the data is local.
    fn sym_get(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, out: &mut [u8]);

    /// One-sided PUT of `data` into `owner`'s symmetric heap at `offset`.
    /// Free and uncounted when the target is local.
    fn sym_put(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, data: &[u8]);

    /// Execute registered handler `h` on `dest` with `args`, blocking for
    /// its reply bytes (see [`crate::handlers`]). Runs inline when `dest`
    /// is the current locale; otherwise one `am_sent`.
    fn on_handler(&self, core: &RuntimeCore, dest: LocaleId, h: HandlerId, args: &[u8]) -> Vec<u8>;

    /// Fire-and-forget variant of [`Self::on_handler`]: ship the descriptor
    /// and return a [`Completion`] immediately; the reply bytes are
    /// discarded.
    fn on_handler_async(
        &self,
        core: &RuntimeCore,
        dest: LocaleId,
        h: HandlerId,
        args: Vec<u8>,
    ) -> Completion;

    /// The locale [`RuntimeCore::run`] enters on this backend. The
    /// simulator always enters locale 0 (it owns all locales); a process
    /// backend enters the one locale this OS process *is*.
    fn entry_locale(&self) -> LocaleId {
        0
    }

    /// Called once, right after the runtime core is constructed, with the
    /// owning `Arc`. A transport backend uses this to start its progress
    /// service with a [`std::sync::Weak`] back-reference; the simulator
    /// needs nothing.
    fn bind(&self, _core: &std::sync::Arc<RuntimeCore>) {}

    /// Called from the runtime's `Drop` before the simulator's own AM
    /// shutdown: stop progress services, close sockets, join threads. Must
    /// be idempotent.
    fn shutdown(&self) {}
}

/// The in-process backend. Every locale's symmetric heap is in this
/// process, so each operation is the shared-address-space function of the
/// same shape applied to the owner's heap: its counters and virtual-time
/// charges are exactly those of the equivalent atomic on a cell in memory.
#[derive(Debug, Default)]
pub struct SimEngine;

impl CommEngine for SimEngine {
    fn sym_atomic_u64(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, op: SymOp64) -> u64 {
        atomic_u64(core, owner, || core.locale(owner).sym.apply64(offset, op))
    }

    fn sym_dcas_u128(
        &self,
        core: &RuntimeCore,
        owner: LocaleId,
        offset: u64,
        expected: u128,
        new: u128,
    ) -> (bool, u128) {
        atomic_u128(core, owner, || {
            core.locale(owner).sym.wide_dcas(offset, expected, new)
        })
    }

    fn sym_read_u128(&self, core: &RuntimeCore, owner: LocaleId, offset: u64) -> u128 {
        let cell = core.locale(owner).sym.wide(offset);
        vread_u128(core, owner, cell)
            .unwrap_or_else(|| self.sym_dcas_u128(core, owner, offset, 0, 0).1)
    }

    fn sym_get(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, out: &mut [u8]) {
        get(core, owner, out.len());
        core.locale(owner).sym.read_bytes(offset, out);
    }

    fn sym_put(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, data: &[u8]) {
        put(core, owner, data.len());
        core.locale(owner).sym.write_bytes(offset, data);
    }

    fn on_handler(&self, core: &RuntimeCore, dest: LocaleId, h: HandlerId, args: &[u8]) -> Vec<u8> {
        core.on(dest, || handlers::invoke(h, core, args))
    }

    fn on_handler_async(
        &self,
        core: &RuntimeCore,
        dest: LocaleId,
        h: HandlerId,
        args: Vec<u8>,
    ) -> Completion {
        on_async(
            core,
            dest,
            Box::new(move || {
                ctx::with_core(|c, _| {
                    let _ = handlers::invoke(h, c, &args);
                });
            }),
        )
    }
}

// ---------------------------------------------------------------------------
// The shared-address-space model (see the module docs): atomics on cells in
// memory, one-sided transfers of raw memory, closures on another locale.
// ---------------------------------------------------------------------------

/// Run `op` on a 64-bit cell owned by `owner` and return its result. With
/// network atomics enabled the operation runs here and pays the NIC cost
/// even for a local cell (the `CHPL_NETWORK_ATOMICS` quirk); without them a
/// local cell costs a CPU atomic, and a remote one ships `op` to `owner` as
/// a combinable active message ([`on_combined`]) whose handler pays the CPU
/// atomic there.
pub fn atomic_u64<R: Send>(
    core: &RuntimeCore,
    owner: LocaleId,
    op: impl FnOnce() -> R + Send,
) -> R {
    match comm::route_atomic_u64(core, owner) {
        AtomicPath::Nic | AtomicPath::CpuLocal => op(),
        AtomicPath::ActiveMessage => core.on_combining(owner, move || {
            comm::charge_handler_atomic(core);
            op()
        }),
    }
}

/// Run `op` on a 128-bit (double-word CAS) cell owned by `owner` and return
/// its result. RDMA atomics max out at 64 bits, so a local cell costs a CPU
/// DCAS and a remote one always ships `op` to `owner` as a combinable
/// active message whose handler pays the DCAS there.
pub fn atomic_u128<R: Send>(
    core: &RuntimeCore,
    owner: LocaleId,
    op: impl FnOnce() -> R + Send,
) -> R {
    match comm::route_atomic_u128(core, owner) {
        AtomicPath::CpuLocal => op(),
        AtomicPath::ActiveMessage => core.on_combining(owner, move || {
            comm::charge_handler_dcas(core);
            op()
        }),
        AtomicPath::Nic => unreachable!("128-bit atomics never take the NIC path"),
    }
}

/// Charge the issuing side of a 64-bit atomic on a cell owned by `owner`
/// through the network model (the cost depends on whether network atomics
/// are enabled), for a task that performs the memory operation itself on
/// shared memory (the reclaimers' bookkeeping words). A target that
/// [`atomic_u64`] would reach by active message is not charged.
pub fn charge_atomic_u64(owner: LocaleId) {
    ctx::with_core(|core, _| {
        let _ = comm::route_atomic_u64(core, owner);
    });
}

/// GET a `Copy` value through a global pointer, charging RMA costs.
///
/// # Safety
/// The object must be alive; see [`crate::globalptr::GlobalPtr::deref`].
pub unsafe fn get_val<T: Copy>(core: &RuntimeCore, ptr: GlobalPtr<T>) -> T {
    get(core, ptr.locale(), std::mem::size_of::<T>());
    unsafe { *ptr.as_ptr() }
}

/// PUT a `Copy` value through a global pointer, charging RMA costs.
///
/// # Safety
/// The object must be alive and no other task may be reading or writing
/// it concurrently (one-sided PUTs have no synchronization, exactly like
/// the real thing).
pub unsafe fn put_val<T: Copy>(core: &RuntimeCore, ptr: GlobalPtr<T>, v: T) {
    put(core, ptr.locale(), std::mem::size_of::<T>());
    unsafe { *ptr.as_ptr() = v };
}

/// Chapel's `on Locales[dest] do f()`: execute `f` on locale `dest`,
/// blocking until it finishes. Runs inline (zero communication) when
/// the caller is already on `dest`; otherwise ships an active message
/// whose handling serializes on the target's progress service. Closures
/// cross boxed; [`RuntimeCore::on`] adds the generic return value.
pub fn on<'a>(core: &RuntimeCore, dest: LocaleId, f: Box<dyn FnOnce() + Send + 'a>) {
    let src = ctx::here();
    if src == dest {
        f();
    } else {
        am::remote_call(core, src, dest, f);
    }
}

/// Fire-and-forget remote execution: ship `f` to `dest` and return a
/// [`Completion`] immediately. The sender's virtual clock does *not*
/// advance; waiting on the handle merges the handler's completion time
/// (plus the reply wire) back in, exactly like a blocking [`on`] would
/// have. Runs inline (already complete) when `dest` is the current locale.
pub fn on_async(
    core: &RuntimeCore,
    dest: LocaleId,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> Completion {
    let src = ctx::here();
    if src == dest {
        f();
        return Completion::done();
    }
    let (tx, rx) = am::remote_post(core, src, dest, f);
    Completion {
        rx: Some((tx, rx, core.config.network.am_wire_ns)),
        ready: None,
        waiter: None,
    }
}

/// Like [`on`], but *combinable*: when the runtime's `combining` toggle is
/// set, concurrent calls from different tasks on this locale toward the
/// same `dest` may be coalesced into one bulk active message by an elected
/// combiner task (see [`combine`]). Still blocks until `f` has executed on
/// `dest`, still runs inline when the caller is already there, and is a
/// plain [`on`] when combining is disabled.
pub fn on_combined<'a>(core: &RuntimeCore, dest: LocaleId, f: Box<dyn FnOnce() + Send + 'a>) {
    let src = ctx::here();
    if src == dest {
        f();
    } else if core.config.combining {
        combine::submit(core, src, dest, f);
    } else {
        am::remote_call(core, src, dest, f);
    }
}

/// Ship one *bulk* active message carrying `items` aggregated operations
/// to `dest` and block until the handler has run. Counted as one `am_sent`
/// plus one `am_batches` (with `items` added to `am_batch_items`); runs
/// inline and uncounted when `dest` is the current locale. The handler
/// itself is responsible for per-item charging.
pub fn bulk_on<'a>(
    core: &RuntimeCore,
    dest: LocaleId,
    items: u64,
    f: Box<dyn FnOnce() + Send + 'a>,
) {
    let src = ctx::here();
    if src == dest {
        f();
        return;
    }
    let stats = &core.locale(src).stats;
    stats.add(Counter::AmBatches, 1);
    stats.add(Counter::AmBatchItems, items);
    // Batch occupancy histogram: how full bulk AMs actually are.
    stats.record(crate::telemetry::OpClass::BatchOccupancy, items);
    am::remote_call(core, src, dest, f);
}

/// Backend-supplied completion source for [`Completion::from_waiter`]: a
/// transport engine that cannot use the simulator's in-process reply
/// channels (a socket awaiting a reply frame, say) implements this pair of
/// poll/block primitives instead.
pub trait CompletionWaiter: Send {
    /// Non-blocking: has the remote handler finished?
    fn poll(&mut self) -> bool;

    /// Block until the remote handler has finished, propagating a remote
    /// panic by panicking here.
    fn wait(self: Box<Self>);
}

/// Handle to a fire-and-forget [`on_async`] (or
/// [`CommEngine::on_handler_async`]) call.
///
/// Dropping the handle abandons the result (the handler still runs);
/// [`Completion::wait`] blocks for the handler, merges its virtual finish
/// time (plus the reply wire latency) into the caller's clock, and
/// propagates a handler panic.
#[must_use = "dropping a Completion abandons the result; call wait() to join"]
pub struct Completion {
    /// `(pooled reply sender, reply channel, am_wire_ns)`; `None` once
    /// consumed or when the call ran inline. The sender half is only kept
    /// so a drained pair can go back to the reply-channel pool on
    /// [`Completion::wait`].
    rx: Option<(
        crossbeam_channel::Sender<am::Reply>,
        crossbeam_channel::Receiver<am::Reply>,
        u64,
    )>,
    /// A reply already taken off the channel by [`Completion::completed`].
    ready: Option<am::Reply>,
    /// Backend-supplied completion source (see [`CompletionWaiter`]);
    /// exclusive with `rx`.
    waiter: Option<Box<dyn CompletionWaiter>>,
}

impl Completion {
    /// An already-complete handle, for calls that ran inline.
    pub fn done() -> Completion {
        Completion {
            rx: None,
            ready: None,
            waiter: None,
        }
    }

    /// A handle driven by a backend-supplied [`CompletionWaiter`] (used by
    /// transport engines whose replies arrive over a wire rather than the
    /// simulator's in-process channels).
    pub fn from_waiter(w: Box<dyn CompletionWaiter>) -> Completion {
        Completion {
            rx: None,
            ready: None,
            waiter: Some(w),
        }
    }

    /// True once the remote handler has finished (non-blocking poll). Does
    /// not advance the caller's clock — only [`Completion::wait`] does.
    pub fn completed(&mut self) -> bool {
        if let Some(w) = &mut self.waiter {
            return w.poll();
        }
        if self.ready.is_some() {
            return true;
        }
        match &self.rx {
            None => true,
            Some((_, rx, _)) => match rx.try_recv() {
                Ok(reply) => {
                    self.ready = Some(reply);
                    true
                }
                Err(_) => false,
            },
        }
    }

    /// Block until the handler has run, advance the caller's virtual clock
    /// to the completion time plus the reply wire latency, and propagate
    /// any handler panic.
    pub fn wait(mut self) {
        if let Some(w) = self.waiter.take() {
            return w.wait();
        }
        let Some((tx, rx, wire_ns)) = self.rx.take() else {
            return;
        };
        let (out, end) = match self.ready.take() {
            Some(reply) => reply,
            None => rx
                .recv()
                .expect("progress thread terminated while an async call was pending"),
        };
        // The single reply is consumed either way; the pair is pristine.
        am::recycle_reply_channel(tx, rx);
        vtime::advance_to(end + wire_ns);
        if let Err(payload) = out {
            resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("pending", &(self.rx.is_some() || self.waiter.is_some()))
            .finish()
    }
}

/// A task-private, per-destination buffering proxy for remote operations —
/// the Chapel Aggregation Library pattern, and the generalization of the
/// paper's scatter list (§II-C).
///
/// Instead of issuing one small remote operation per item, a `Batcher`
/// buffers items per destination locale and ships each buffer through the
/// bulk path ([`bulk_on`]): N small remote ops become
/// one bulk active message, charged once for its payload on the wire and
/// per-item in the destination-side handler.
///
/// A batcher is `&mut self` (one per task, like CAL's per-task aggregation
/// buffers) so the buffering itself needs no synchronization; the
/// destination-side handler runs on the destination locale's progress
/// service and must be thread-safe. Buffers auto-flush when they reach
/// capacity and on drop (the epoch/phase boundary); call
/// [`Batcher::flush`] to force remote effects before relying on them.
///
/// A **high watermark** ([`Batcher::with_high_watermark`]) bounds memory
/// beyond the fixed per-destination capacity: it caps the *total* buffered
/// items across all destinations, and when reached the fullest buffer is
/// flushed. This covers skewed or many-destination workloads where no
/// single buffer fills.
pub struct Batcher<'h, T: Send> {
    buffers: Vec<Vec<T>>,
    /// Causal-trace context captured when each destination's buffer got its
    /// *first* item since the last flush: a bulk AM aggregates many
    /// logical operations but can only nest under one, so the batch is
    /// attributed to its first appender (coarse but causally sound — the
    /// flush cannot depart before that operation existed).
    trace_ctxs: Vec<Option<crate::telemetry::trace::TraceCtx>>,
    capacity: usize,
    high_watermark: Option<usize>,
    pending_count: usize,
    handler: Box<dyn Fn(LocaleId, Vec<T>) + Send + Sync + 'h>,
    flushes: u64,
    items: u64,
}

impl<'h, T: Send> Batcher<'h, T> {
    /// Create a batcher whose `handler` is executed **on the destination
    /// locale** with each flushed batch.
    pub fn new(
        core: &RuntimeCore,
        capacity: usize,
        handler: impl Fn(LocaleId, Vec<T>) + Send + Sync + 'h,
    ) -> Batcher<'h, T> {
        assert!(capacity >= 1, "aggregation buffers need capacity >= 1");
        Batcher {
            buffers: (0..core.num_locales()).map(|_| Vec::new()).collect(),
            trace_ctxs: vec![None; core.num_locales()],
            capacity,
            high_watermark: None,
            pending_count: 0,
            handler: Box::new(handler),
            flushes: 0,
            items: 0,
        }
    }

    /// Cap the *total* number of items buffered across all destinations:
    /// when an [`Batcher::aggregate`] would exceed `watermark`, the fullest
    /// buffer is flushed first. Bounds memory when items spread over many
    /// destinations without any single buffer reaching capacity.
    pub fn with_high_watermark(mut self, watermark: usize) -> Self {
        assert!(watermark >= 1, "high watermark must be >= 1");
        self.high_watermark = Some(watermark);
        self
    }

    /// Buffer `item` for `dest`, flushing that destination's buffer if it
    /// reaches capacity (and the fullest buffer if the total crosses the
    /// high watermark).
    pub fn aggregate(&mut self, dest: LocaleId, item: T) {
        let buf = &mut self.buffers[dest as usize];
        if buf.is_empty() {
            self.trace_ctxs[dest as usize] = crate::telemetry::trace::current();
        }
        buf.push(item);
        self.items += 1;
        self.pending_count += 1;
        if buf.len() >= self.capacity {
            self.flush_one(dest);
        } else if let Some(hw) = self.high_watermark {
            if self.pending_count >= hw {
                self.flush_fullest();
            }
        }
    }

    /// Flush the destination currently holding the most buffered items
    /// (no-op when nothing is pending).
    fn flush_fullest(&mut self) {
        if let Some(dest) = (0..self.buffers.len())
            .max_by_key(|&d| self.buffers[d].len())
            .filter(|&d| !self.buffers[d].is_empty())
        {
            self.flush_one(dest as LocaleId);
        }
    }

    /// Flush one destination's buffer (no-op when empty): a single bulk
    /// active message carrying the whole batch, charged for its payload on
    /// the wire and per-item on the handler side.
    pub fn flush_one(&mut self, dest: LocaleId) {
        let batch = std::mem::take(&mut self.buffers[dest as usize]);
        if batch.is_empty() {
            return;
        }
        self.flushes += 1;
        self.pending_count -= batch.len();
        // Ship under the first appender's trace context (see `trace_ctxs`),
        // so the bulk AM's span nests under the operation that opened the
        // batch.
        let tctx = self.trace_ctxs[dest as usize].take();
        let _tg = tctx.map(|c| crate::telemetry::trace::enter(Some(c)));
        ctx::with_core(|core, here| {
            if dest == here {
                // Local batch: apply directly, no communication.
                (self.handler)(dest, batch);
            } else {
                let n = batch.len() as u64;
                let bytes = batch.len() * std::mem::size_of::<T>();
                put(core, dest, bytes);
                let handler = &self.handler;
                bulk_on(
                    core,
                    dest,
                    n,
                    Box::new(move || {
                        // Per-item processing cost on the handler side, so
                        // bulk work is not modeled as free.
                        vtime::charge((core.config.network.remote_heap_op_ns / 4 + 1) * n);
                        handler(dest, batch);
                    }),
                );
            }
        });
    }

    /// Flush every destination (call before relying on remote effects;
    /// also done automatically on drop).
    pub fn flush(&mut self) {
        for dest in 0..self.buffers.len() as LocaleId {
            self.flush_one(dest);
        }
    }

    /// Items aggregated so far (including flushed ones).
    pub fn items_aggregated(&self) -> u64 {
        self.items
    }

    /// Batches flushed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Items currently buffered (not yet flushed).
    pub fn pending(&self) -> usize {
        debug_assert_eq!(
            self.pending_count,
            self.buffers.iter().map(Vec::len).sum::<usize>()
        );
        self.pending_count
    }
}

impl<T: Send> Drop for Batcher<'_, T> {
    fn drop(&mut self) {
        if ctx::try_here().is_some() {
            self.flush();
        } else {
            debug_assert_eq!(
                self.pending(),
                0,
                "batcher dropped outside a runtime context while holding \
                 unflushed items"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn on_async_does_not_advance_sender_clock() {
        let rt = Runtime::cluster(2);
        let ((), span) = rt.run_measured(|| {
            let c = rt.on_async(1, || {});
            // A blocking call behind it synchronizes (FIFO per locale with
            // one progress thread), proving the handler ran.
            rt.on(1, || ());
            c.wait();
        });
        // The async handler overlaps with the blocking round trip; the
        // measured span is bounded by the two sequentialized round trips.
        let net = &rt.config.network;
        let round_trip = 2 * net.am_wire_ns + net.am_handler_ns;
        assert!(span < 2 * round_trip, "async must overlap: span={span}");
        assert_eq!(rt.total_comm().am_sent, 2);
    }

    #[test]
    fn on_async_wait_matches_blocking_round_trip() {
        let rt = Runtime::cluster(2);
        let ((), span) = rt.run_measured(|| {
            rt.on_async(1, || {}).wait();
        });
        let net = &rt.config.network;
        assert_eq!(span, 2 * net.am_wire_ns + net.am_handler_ns);
    }

    #[test]
    fn on_async_local_is_inline_and_complete() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let hit = std::sync::Arc::new(AtomicU64::new(0));
            let hit2 = std::sync::Arc::clone(&hit);
            let mut c = rt.on_async(0, move || {
                hit2.fetch_add(1, Ordering::Relaxed);
            });
            assert!(c.completed());
            c.wait();
            assert_eq!(hit.load(Ordering::Relaxed), 1);
            assert_eq!(rt.total_comm().am_sent, 0);
        });
    }

    #[test]
    fn on_async_completion_polls_to_done() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let mut c = rt.on_async(1, || {});
            while !c.completed() {
                std::thread::yield_now();
            }
            c.wait();
        });
    }

    #[test]
    #[should_panic(expected = "async boom")]
    fn on_async_wait_propagates_handler_panic() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            rt.on_async(1, || panic!("async boom")).wait();
        });
    }

    #[test]
    fn bulk_on_counts_batches_and_items() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            bulk_on(&rt, 1, 25, Box::new(|| {}));
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1);
            assert_eq!(s.am_batches, 1);
            assert_eq!(s.am_batch_items, 25);
        });
    }

    #[test]
    fn bulk_on_local_is_free() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let hit = AtomicU64::new(0);
            bulk_on(
                &rt,
                0,
                9,
                Box::new(|| {
                    hit.fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert_eq!(hit.load(Ordering::Relaxed), 1);
            assert!(rt.total_comm().is_zero());
        });
    }

    // --- Batcher (the generalized scatter-list / CAL aggregation) ---

    #[test]
    fn items_reach_their_destination_handler() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(3));
        rt.run(|| {
            let per_locale: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
            {
                let mut agg = Batcher::new(&rt, 4, |dest, batch: Vec<u64>| {
                    // handler runs ON the destination
                    assert_eq!(crate::ctx::here(), dest);
                    per_locale[dest as usize].fetch_add(batch.iter().sum(), Ordering::Relaxed);
                });
                for i in 0..30u64 {
                    agg.aggregate((i % 3) as LocaleId, i);
                }
                agg.flush();
            }
            let totals: Vec<u64> = per_locale
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            assert_eq!(totals.iter().sum::<u64>(), (0..30).sum::<u64>());
            assert_eq!(totals[0], (0..30).step_by(3).sum::<u64>());
        });
    }

    #[test]
    fn buffering_caps_message_count() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let sink = AtomicU64::new(0);
            let n = 100u64;
            let cap = 16;
            rt.reset_metrics();
            {
                let mut agg = Batcher::new(&rt, cap, |_, batch: Vec<u64>| {
                    sink.fetch_add(batch.len() as u64, Ordering::Relaxed);
                });
                for i in 0..n {
                    agg.aggregate(1, i); // everything remote
                }
            } // drop flushes the tail
            assert_eq!(sink.load(Ordering::Relaxed), n);
            let s = rt.total_comm();
            let expected_ams = n.div_ceil(cap as u64);
            assert_eq!(s.am_sent, expected_ams, "one AM per full buffer");
            assert_eq!(s.puts, expected_ams, "payload charged per batch");
            assert_eq!(s.am_batches, expected_ams, "each flush is a bulk AM");
            assert_eq!(s.am_batch_items, n, "every item rode a batch");
        });
    }

    #[test]
    fn local_batches_do_not_communicate() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let count = AtomicU64::new(0);
            rt.reset_metrics();
            let mut agg = Batcher::new(&rt, 8, |_, b: Vec<u64>| {
                count.fetch_add(b.len() as u64, Ordering::Relaxed);
            });
            for i in 0..20 {
                agg.aggregate(0, i); // local destination
            }
            agg.flush();
            assert_eq!(count.load(Ordering::Relaxed), 20);
            assert!(rt.total_comm().is_zero());
        });
    }

    #[test]
    fn stats_track_items_and_flushes() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            let mut agg = Batcher::new(&rt, 4, |_, _: Vec<u8>| {});
            for i in 0..10 {
                agg.aggregate((i % 2) as LocaleId, i as u8);
            }
            assert_eq!(agg.items_aggregated(), 10);
            assert_eq!(agg.flushes(), 2, "two buffers hit capacity 4+4");
            assert_eq!(agg.pending(), 2);
            agg.flush();
            assert_eq!(agg.pending(), 0);
            assert_eq!(agg.flushes(), 4);
        });
    }

    #[test]
    fn high_watermark_bounds_total_pending() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let mut agg = Batcher::new(&rt, 1024, |_, _: Vec<u64>| {}).with_high_watermark(8);
            for i in 0..100u64 {
                agg.aggregate((i % 4) as LocaleId, i);
                assert!(agg.pending() <= 8, "watermark must bound buffered items");
            }
            assert_eq!(agg.items_aggregated(), 100);
            agg.flush();
            assert_eq!(agg.pending(), 0);
        });
    }

    #[test]
    fn aggregation_beats_per_item_messages_in_vtime() {
        let n = 512u64;
        // per-item remote ops
        let rt = Runtime::cluster(2);
        let ((), per_item) = rt.run_measured(|| {
            for _ in 0..n {
                rt.on(1, || {});
            }
        });
        // aggregated
        let rt = Runtime::cluster(2);
        let ((), aggregated) = rt.run_measured(|| {
            let mut agg = Batcher::new(&rt, 128, |_, _: Vec<u64>| {});
            for i in 0..n {
                agg.aggregate(1, i);
            }
            agg.flush();
        });
        assert!(
            aggregated * 10 < per_item,
            "aggregation should win by >10x: {aggregated} vs {per_item}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let _ = Batcher::new(&rt, 0, |_, _: Vec<u8>| {});
        });
    }
}
