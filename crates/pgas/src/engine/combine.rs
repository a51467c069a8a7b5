//! Remote-operation combining — flat combining over the AM fallback path.
//!
//! When several tasks on one locale concurrently issue remote operations
//! toward the *same* destination (remote atomics with network atomics off,
//! wide-pointer DCAS, deferred frees), each would normally pay a full
//! active-message round trip, and the destination's progress service would
//! serialize the handlers one dispatch at a time. Combining turns that
//! N-message burst into one: tasks *announce* their operation on a
//! per-destination publication list (a lock-free Treiber stack of
//! stack-allocated nodes), and one task — the elected *combiner* — drains
//! the list, ships the whole batch as a single bulk active message, and
//! executes every rider in announce order inside one handler dispatch.
//!
//! Protocol (flat combining, Hendler et al., adapted to a blocking PGAS
//! `on`):
//!
//! 1. **Announce.** The caller stack-allocates an `OpNode` holding its
//!    closure and publication vtime and CAS-pushes it onto the destination
//!    queue's announce list.
//! 2. **Elect.** While its node is not `done`, the caller tries to CAS the
//!    queue's `combiner` flag. Losers spin/yield; the winner drains the
//!    announce list (swap to null, reverse for FIFO) into the queue's
//!    reusable batch buffer and ships batches until the list is empty or
//!    its own operation completed, then releases the role (a drop guard,
//!    so also when it unwinds). Before shipping it *lingers* — bounded
//!    yield-and-redrain rounds, so batch formation does not depend on
//!    hardware parallelism — but only when the queue has company: this
//!    drain or the previous batch on this queue carried two or more
//!    riders (a queue that has not shipped yet counts as having company).
//!    A lone publisher ships at once. A round that brings nobody new ends
//!    the linger only once the batch is as large as the previous one,
//!    whose riders are likely on their way back. A node can never strand:
//!    any announced node belongs to a blocked caller, and a blocked caller
//!    keeps volunteering.
//! 3. **Ship.** The combiner advances its clock to the latest publication
//!    vtime in the batch (causality: the message cannot depart before the
//!    operations it carries exist), then, per
//!    [`crate::config::RuntimeConfig::combine_max_batch`]-sized chunk,
//!    posts one AM (`am::post`) and waits on a completion word in its own
//!    stack frame until the chunk has executed: a few yields (the thread
//!    serving `dest` may share its core), then a park. It keeps the role
//!    meanwhile. Its clock, `AmRoundTrip` sample and span are those of a
//!    blocking `on` of the chunk: the chunk's end vtime plus the reply
//!    wire.
//! 4. **Execute.** The destination handler runs the riders in announce
//!    order, straight out of the combiner's batch buffer. Each rider
//!    charges `combine_item_ns` dispatch plus its own body cost, records
//!    its completion vtime in its node, and sets `done` (Release). Once
//!    the progress loop has recorded the chunk's service, the message's
//!    drop writes the chunk's end vtime into the combiner's completion
//!    word and unparks it. The wire and the fixed
//!    `am_handler_ns` are paid once per chunk — that is the entire win.
//!    The completion word is written by a drop guard the message owns: a
//!    chunk dropped unexecuted fails its riders and wakes the combiner,
//!    which panics as a blocking `on` would, so nobody waits forever.
//! 5. **Distribute.** Each waiting task observes `done` (Acquire), advances
//!    its own clock to its rider's completion time plus the reply wire, and
//!    re-raises its rider's panic, exactly as a private blocking `on` would
//!    have.
//!
//! Accounting: each shipped chunk counts one `am_sent` + `am_batches` +
//! `combines`, with the rider count added to `am_batch_items` and
//! `combined_ops` — so `combined_ops` conserves the operation total and
//! `am_sent == combines` for a purely combined workload.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::thread::Thread;

use crate::am::{self, LOST_TEXT};
use crate::comm;
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::telemetry::{
    trace::{self, TraceCtx},
    OpClass, Span,
};
use crate::vtime;

/// One announced remote operation, stack-allocated in the publishing task's
/// [`submit`] frame. The publisher blocks until `done`, which is what keeps
/// the node alive for the combiner and the remote handler.
struct OpNode {
    /// The operation body; taken exactly once by the destination handler.
    thunk: UnsafeCell<Option<Box<dyn FnOnce() + Send + 'static>>>,
    /// The publisher's virtual clock at announce time.
    publish_vtime: u64,
    /// Causal-trace ids of this rider's [`OpClass::CombineRide`] span —
    /// `(trace, span, parent)`, allocated by the publisher at announce
    /// time (all-zero when tracing is off). The destination handler
    /// installs the matching context around the rider's thunk, and the
    /// bulk AM carrying the chunk is parented under the *last* rider's
    /// span (the AM's interval nests exactly inside that ride).
    ride: (u64, u64, u64),
    /// Virtual time at which the rider finished on the destination.
    end_vtime: AtomicU64,
    /// A panic raised by the rider, to be re-thrown at the publisher.
    panic: UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
    /// Set (Release) by the handler after `end_vtime`/`panic` are written.
    done: AtomicBool,
    /// Next node in the announce list (Treiber stack link).
    next: AtomicPtr<OpNode>,
}

impl OpNode {
    fn new(
        thunk: Box<dyn FnOnce() + Send + 'static>,
        publish_vtime: u64,
        ride: (u64, u64, u64),
    ) -> OpNode {
        OpNode {
            thunk: UnsafeCell::new(Some(thunk)),
            publish_vtime,
            ride,
            end_vtime: AtomicU64::new(0),
            panic: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// How many yield-and-redrain rounds the combiner spends gathering riders
/// before a non-empty batch departs, when it lingers at all (see the
/// module docs, step 2). Each round lets every runnable peer task announce
/// (one `yield_now` cycles the run queue on a saturated host); the loop
/// exits early once a round adds nothing and the batch is as large as the
/// previous one.
const LINGER_ROUNDS: u32 = 3;

/// A raw pointer to an [`OpNode`], sendable into the handler thunk. Safety
/// rests on the protocol: the publishing task keeps its node alive until
/// `done`, and only the shipping handler touches the cells before that.
#[derive(Clone, Copy)]
struct NodePtr(*const OpNode);

// SAFETY: see NodePtr — access is serialized by the combining protocol.
unsafe impl Send for NodePtr {}

/// Announce list + combiner election flag for one (source locale,
/// destination locale) pair.
pub(crate) struct CombineQueue {
    head: AtomicPtr<OpNode>,
    combiner: AtomicBool,
    /// State only the holder of the combiner role touches (see [`Role`]).
    held: UnsafeCell<Held>,
}

// SAFETY: `held` is reached only through a `Role`, which the `combiner`
// flag makes exclusive (Acquire on election, Release on release); the
// rest is atomics.
unsafe impl Sync for CombineQueue {}

/// The combiner role's private state, handed from one holder to the next.
struct Held {
    /// The drained batch. Its buffer outlives every batch, so a warm queue
    /// drains without allocating; a posted chunk's handler reads its riders
    /// straight out of it, which is why nothing else may touch it until
    /// the chunk has executed.
    batch: Vec<NodePtr>,
    /// How many riders the previous batch on this queue carried. Starts at
    /// two: until a queue has shipped once, nothing says it is alone.
    last: usize,
}

/// The combiner role on one queue, released on drop — also when the
/// combiner unwinds, so a panic cannot wedge the queue.
struct Role<'a>(&'a CombineQueue);

impl Role<'_> {
    fn held(&mut self) -> &mut Held {
        // SAFETY: the role is exclusive (see `CombineQueue`'s `Sync`).
        unsafe { &mut *self.0.held.get() }
    }
}

impl Drop for Role<'_> {
    fn drop(&mut self) {
        self.0.combiner.store(false, Ordering::Release);
    }
}

impl CombineQueue {
    fn new() -> CombineQueue {
        CombineQueue {
            head: AtomicPtr::new(std::ptr::null_mut()),
            combiner: AtomicBool::new(false),
            held: UnsafeCell::new(Held {
                batch: Vec::new(),
                last: 2,
            }),
        }
    }

    /// Try to take the combiner role.
    fn elect(&self) -> Option<Role<'_>> {
        self.combiner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Role(self))
    }

    /// CAS-push `node` onto the announce list. ABA-safe without tags: a
    /// successful CAS proves the observed head is the *currently linked*
    /// node at that address (drains take the whole list atomically and
    /// nodes are never re-pushed), so the `next` we stored still points at
    /// the true remainder of the list.
    fn push(&self, node: &OpNode) {
        let ptr = node as *const OpNode as *mut OpNode;
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            node.next.store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange_weak(head, ptr, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
    }

    /// Atomically take the whole announce list and append it to `out` in
    /// FIFO (announce) order.
    fn drain_fifo(&self, out: &mut Vec<NodePtr>) {
        let mut p = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        let start = out.len();
        while !p.is_null() {
            out.push(NodePtr(p));
            // SAFETY: the node's publisher is blocked in `submit` until
            // `done`, which nobody has set yet.
            p = unsafe { (*p).next.load(Ordering::Relaxed) };
        }
        out[start..].reverse();
    }
}

/// Per-destination [`CombineQueue`]s for one source locale; lives in
/// [`crate::locale::Locale`].
pub(crate) struct CombineHub {
    queues: Box<[CombineQueue]>,
}

impl CombineHub {
    pub(crate) fn new(num_locales: usize) -> CombineHub {
        CombineHub {
            queues: (0..num_locales).map(|_| CombineQueue::new()).collect(),
        }
    }
}

/// Announce `f` toward `dest`, block until it has executed there, merge its
/// virtual completion time back into the caller's clock, and propagate a
/// panic. Must not be called with `dest == here()` — the engine handles the
/// inline case.
pub(crate) fn submit(
    core: &RuntimeCore,
    src: LocaleId,
    dest: LocaleId,
    f: Box<dyn FnOnce() + Send + '_>,
) {
    debug_assert_ne!(src, dest, "combining requires a remote destination");
    // Checked before the announce, not only where the batch is sent: a
    // rank-confined runtime must refuse the operation before its caller can
    // become a combiner and carry anyone else's.
    core.confined_to_rank(dest);
    // SAFETY: lifetime erasure under the same contract as
    // `am::remote_call` — this function blocks until the operation has
    // executed, so borrows inside `f` cannot outlive this frame.
    let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
    let node = OpNode::new(f, vtime::now(), core.span_ids(src));
    let q = &core.locale(src).combine.queues[dest as usize];
    q.push(&node);

    let mut spins = 0u32;
    while !node.done.load(Ordering::Acquire) {
        if let Some(mut role) = q.elect() {
            combine(core, src, dest, &mut role, &node);
        } else {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    let end = node.end_vtime.load(Ordering::Acquire);
    vtime::advance_to(end + core.config.network.am_wire_ns);
    // The rider's end-to-end combining trip: publish → executed on dest →
    // reply wire. Emitted by the publisher (the only task that knows both
    // endpoints), under the ids allocated at announce time.
    let (ride_trace, ride_span, ride_parent) = node.ride;
    if ride_span != 0 {
        core.emit_span(|| Span {
            class: OpClass::CombineRide,
            src,
            dest,
            issue_vtime: node.publish_vtime,
            arrive_vtime: node.publish_vtime,
            start_vtime: node.publish_vtime,
            end_vtime: end + core.config.network.am_wire_ns,
            tag: 0,
            trace: ride_trace,
            span: ride_span,
            parent: ride_parent,
        });
    }
    // SAFETY: `done` was set with Release after the handler wrote the
    // panic cell; the Acquire loads above synchronize, and the node is
    // private again once done.
    if let Some(payload) = unsafe { (*node.panic.get()).take() } {
        resume_unwind(payload);
    }
}

/// The combiner's turn: drain and ship until the announce list is empty or
/// `own` has been carried by a batch.
fn combine(core: &RuntimeCore, src: LocaleId, dest: LocaleId, role: &mut Role<'_>, own: &OpNode) {
    let q = role.0;
    let max_batch = core.config.combine_max_batch.max(1);
    let held = role.held();
    loop {
        held.batch.clear();
        q.drain_fifo(&mut held.batch);
        if held.batch.is_empty() {
            break;
        }
        // Linger before shipping, when the queue has company: peers that
        // are runnable but not currently scheduled (batch formation must
        // not depend on hardware parallelism — the host may be a single
        // core) get a chance to announce and ride this message. A lone
        // publisher ships at once.
        if held.last >= 2 || held.batch.len() >= 2 {
            for _ in 0..LINGER_ROUNDS {
                if held.batch.len() >= max_batch {
                    break;
                }
                let before = held.batch.len();
                std::thread::yield_now();
                q.drain_fifo(&mut held.batch);
                // Riders of the previous batch are likely on their way back:
                // an empty round ends the wait only once they could all be
                // aboard.
                if held.batch.len() == before && before >= held.last {
                    break;
                }
            }
        }
        held.last = held.batch.len();
        ship(core, src, dest, &held.batch);
        if own.done.load(Ordering::Acquire) {
            break;
        }
    }
}

/// Ship a drained batch to `dest` as one AM per `combine_max_batch` chunk,
/// each waited for before the next departs, executing the riders in
/// announce order inside the handler.
fn ship(core: &RuntimeCore, src: LocaleId, dest: LocaleId, batch: &[NodePtr]) {
    // Causality: the combined message cannot depart before the latest
    // publication it carries (`advance_to` never rewinds).
    let depart = batch
        .iter()
        // SAFETY: publishers are blocked until their node is done.
        .map(|p| unsafe { (*p.0).publish_vtime })
        .max()
        .unwrap_or(0);
    vtime::advance_to(depart);
    let stats = &core.locale(src).stats;
    let max_batch = core.config.combine_max_batch.max(1);
    let mut unposted = Unposted(batch);
    while !unposted.0.is_empty() {
        let (chunk, rest) = unposted.0.split_at(max_batch.min(unposted.0.len()));
        // From here on the chunk belongs to its message (see `Release`).
        unposted.0 = rest;
        let n = chunk.len() as u64;
        stats.add(Counter::Combines, 1);
        stats.add(Counter::CombinedOps, n);
        stats.add(Counter::AmBatches, 1);
        stats.add(Counter::AmBatchItems, n);
        // Combine occupancy histogram: how many riders each combined
        // message actually carried (the whole point of the layer).
        stats.record(crate::telemetry::OpClass::CombineOccupancy, n);
        // Causal tracing: the bulk AM is parented under the *last* rider's
        // CombineRide span — the AM's end (last rider's finish + reply
        // wire) is exactly that ride's end, so the AM interval nests
        // inside it. Each rider's thunk then runs under its *own* ride
        // context, so spans a rider causes join the rider's trace, not the
        // shipping combiner's.
        // SAFETY: the chunk's riders are live, and their publishers are
        // blocked until `done`, which has not been set yet.
        let last_ride = unsafe { (*chunk.last().expect("non-empty chunk").0).ride };
        let ship_ctx = (last_ride.1 != 0).then(|| {
            trace::enter(Some(TraceCtx {
                trace: last_ride.0,
                span: last_ride.1,
            }))
        });
        // The sender-observed round trip, as a blocking `on` records it. No
        // drop-and-retry: the batch carries other tasks' riders (CAS
        // publishes, deferred frees) that must execute exactly once, so a
        // combined message is never droppable, whatever the combiner's own
        // operation's class.
        let t_issue = vtime::now();
        let end = post_and_park(core, src, dest, chunk);
        vtime::advance_to(end + core.config.network.am_wire_ns);
        stats.record(OpClass::AmRoundTrip, vtime::now().saturating_sub(t_issue));
        drop(ship_ctx);
    }
}

/// Fail a rider that will never run: its publisher re-raises [`LOST_TEXT`].
///
/// # Safety
/// The rider must not have run, so its publisher is still blocked and the
/// node alive, and nobody else may touch its cells.
unsafe fn abandon(rider: NodePtr) {
    // SAFETY: per the contract; `done` (Release) is the last touch.
    unsafe {
        let rider = &*rider.0;
        *rider.panic.get() = Some(Box::new(LOST_TEXT));
        rider.done.store(true, Ordering::Release);
    }
}

/// Riders of a drained batch not yet handed to a message. Failed if the
/// combiner unwinds before posting them: they are off the announce list,
/// and nobody else would ever ship them.
struct Unposted<'a>(&'a [NodePtr]);

impl Drop for Unposted<'_> {
    fn drop(&mut self) {
        for &p in self.0 {
            // SAFETY: never posted, so never run.
            unsafe { abandon(p) };
        }
    }
}

/// A chunk's completion word before its handler has finished. Any other
/// value but [`LOST`] is the virtual time at which it finished.
const PENDING: u64 = u64::MAX;
/// A chunk's completion word once its message was dropped unexecuted.
const LOST: u64 = u64::MAX - 1;

/// A chunk's message: the riders it has yet to run, and the combiner to
/// release. Running it runs the riders in order; dropping it — after the
/// progress loop's bookkeeping, or with the message unexecuted — fails the
/// riders still listed, writes `end` into the combiner's completion word
/// and unparks the combiner.
struct Release<'a> {
    core: &'a RuntimeCore,
    riders: &'a [NodePtr],
    done: &'a AtomicU64,
    end: u64,
    waiter: Thread,
}

// SAFETY: `riders` is the one non-`Send` field: its node pointers are
// governed by the combining protocol (see `NodePtr`), and the slice and
// `done` live in the combiner's batch buffer and frame, which it keeps
// until `done` is written. `core` is a shared reference to the `Sync`
// runtime; `end` and `waiter` are `Send`.
unsafe impl Send for Release<'_> {}

impl am::Handler for Release<'_> {
    fn run(&mut self) {
        while let Some((&p, rest)) = self.riders.split_first() {
            // SAFETY: the publisher blocks in `submit` until `done`, keeping
            // the node alive; only this handler touches its cells first.
            unsafe { run_rider(self.core, p) };
            self.riders = rest;
        }
        self.end = vtime::now();
    }
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        for &p in self.riders {
            // SAFETY: still listed, so not run (the handler unlists a
            // rider only after it has run).
            unsafe { abandon(p) };
        }
        // The last touch of the combiner's frame: it may return at once.
        self.done.store(self.end, Ordering::Release);
        self.waiter.unpark();
    }
}

/// Post `chunk` to `dest` as one active message and wait — a few yields,
/// then a park — until its handler has run; returns the virtual time at
/// which it finished.
fn post_and_park(core: &RuntimeCore, src: LocaleId, dest: LocaleId, chunk: &[NodePtr]) -> u64 {
    let done = AtomicU64::new(PENDING);
    let release: Box<dyn am::Handler + '_> = Box::new(Release {
        core,
        riders: chunk,
        done: &done,
        end: LOST,
        waiter: std::thread::current(),
    });
    // SAFETY: lifetime erasure. `release` borrows this frame, the runtime
    // and the batch buffer, but this function returns only once `done` has
    // left PENDING, which `Release` writes as its last access — when it is
    // dropped, after running or unexecuted.
    let release: Box<dyn am::Handler> = unsafe { std::mem::transmute(release) };
    am::post(core, src, dest, release);
    // Yield before parking, as an idle progress thread does (see
    // `am::WAIT_YIELDS`); an unpark of a running thread leaves a token, not
    // a wake.
    let mut yields = 0;
    loop {
        match done.load(Ordering::Acquire) {
            PENDING if yields < am::WAIT_YIELDS => {
                yields += 1;
                std::thread::yield_now();
            }
            PENDING => std::thread::park(),
            LOST => panic!("{LOST_TEXT}"),
            end => return end,
        }
    }
}

/// Run one rider on the destination: charge its dispatch, run its thunk
/// under its own ride context, record its finish, and set `done`.
///
/// # Safety
/// The rider's publisher must be blocked in `submit`, and nobody else may
/// touch the node's cells until `done`.
unsafe fn run_rider(core: &RuntimeCore, p: NodePtr) {
    // SAFETY: per the contract; `done` (Release) is the last touch.
    unsafe {
        let rider = &*p.0;
        comm::charge_combine_item(core);
        let thunk = (*rider.thunk.get())
            .take()
            .expect("combined operation executed twice");
        let rctx = (rider.ride.1 != 0).then(|| {
            trace::enter(Some(TraceCtx {
                trace: rider.ride.0,
                span: rider.ride.1,
            }))
        });
        let out = catch_unwind(AssertUnwindSafe(thunk));
        drop(rctx);
        if let Err(payload) = out {
            *rider.panic.get() = Some(payload);
        }
        rider.end_vtime.store(vtime::now(), Ordering::Relaxed);
        rider.done.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    fn combining_cluster() -> Runtime {
        Runtime::new(
            RuntimeConfig::cluster(2)
                .without_network_atomics()
                .with_combining(true),
        )
    }

    #[test]
    fn singleton_combined_op_counts_once() {
        let rt = combining_cluster();
        rt.run(|| {
            rt.reset_metrics();
            let v = rt.on_combining(1, || 42u32);
            assert_eq!(v, 42);
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1);
            assert_eq!(s.am_handled, 1);
            assert_eq!(s.combines, 1);
            assert_eq!(s.combined_ops, 1);
            assert_eq!(s.am_batches, 1);
            assert_eq!(s.am_batch_items, 1);
        });
    }

    #[test]
    fn concurrent_ops_conserve_totals_and_coalesce() {
        let rt = combining_cluster();
        rt.run(|| {
            let target = AtomicU64::new(0);
            let tasks = 4usize;
            let per_task = 64u64;
            rt.reset_metrics();
            rt.coforall_tasks(tasks, |_| {
                for _ in 0..per_task {
                    rt.on_combining(1, || {
                        target.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let n = tasks as u64 * per_task;
            assert_eq!(target.load(Ordering::Relaxed), n, "memory effect");
            let s = rt.total_comm();
            assert_eq!(s.combined_ops, n, "every op rode the combining layer");
            assert_eq!(s.am_batch_items, n);
            assert_eq!(s.am_sent, s.combines, "one AM per combined batch");
            assert_eq!(s.am_handled, s.am_sent);
            assert!(s.am_sent <= n);
        });
    }

    #[test]
    fn combining_disabled_leaves_counters_untouched() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            rt.reset_metrics();
            rt.on_combining(1, || ());
            let s = rt.total_comm();
            assert_eq!(s.am_sent, 1);
            assert_eq!(s.combines, 0, "toggle off must use the plain AM path");
            assert_eq!(s.combined_ops, 0);
        });
    }

    #[test]
    fn combined_batches_survive_fault_injection_in_fifo_order() {
        use crate::faults::{with_class, FaultPlan, RetryClass};
        // Aggressive drops + dups + delays. Combined messages are pinned
        // to the non-droppable class by `ship`, so even with every task in
        // an idempotent scope nothing may be lost, and each task's ops
        // must still execute in announce (issue) order.
        let rt = Runtime::new(
            RuntimeConfig::zero_latency(2)
                .without_network_atomics()
                .with_combining(true)
                .with_faults(
                    FaultPlan::seeded(77)
                        .with_drops(500)
                        .with_dups(300)
                        .with_delays(300, 2_000),
                ),
        );
        rt.run(|| {
            let tasks = 4usize;
            let per_task = 50u64;
            let order: Vec<parking_lot::Mutex<Vec<u64>>> = (0..tasks)
                .map(|_| parking_lot::Mutex::new(Vec::new()))
                .collect();
            let order = &order;
            rt.coforall_tasks(tasks, |t| {
                for i in 0..per_task {
                    with_class(RetryClass::Idempotent, || {
                        rt.on_combining(1, || {
                            order[t].lock().push(i);
                        })
                    });
                }
            });
            let s = rt.total_comm();
            for (t, seen) in order.iter().enumerate() {
                let seen = seen.lock();
                assert_eq!(seen.len() as u64, per_task, "task {t}: nothing lost");
                assert!(
                    seen.windows(2).all(|w| w[0] < w[1]),
                    "task {t}: per-destination FIFO broken: {:?}",
                    &*seen
                );
            }
            assert_eq!(s.combined_ops, tasks as u64 * per_task);
            assert_eq!(
                s.injected_drops, 0,
                "combined messages are never droppable, whatever the \
                 electing task's class scope"
            );
        });
    }

    #[test]
    #[should_panic(expected = "combined boom")]
    fn rider_panic_propagates_to_its_publisher() {
        let rt = combining_cluster();
        rt.run(|| {
            rt.on_combining(1, || panic!("combined boom"));
        });
    }

    /// Run `f` on a thread of its own and fail, rather than hang, if it has
    /// not finished within two minutes.
    fn watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (finished, wait) = channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = finished.send(());
        });
        match wait.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("{what}: hung"),
        }
    }

    #[test]
    fn max_batch_chunks_large_drains() {
        // Every chunk size against 2–4 locales, under a watchdog: nothing
        // hangs, nothing runs twice or out of order, no chunk is too big.
        for locales in 2..=4 {
            for max_batch in [1, 2, 3, 8] {
                watchdog(
                    &format!("{locales} locales, max batch {max_batch}"),
                    move || stress(locales, max_batch),
                );
            }
        }
    }

    /// Four tasks per locale, each publishing to every other locale in
    /// turn; every op must run exactly once, in its publisher's order.
    fn stress(locales: usize, max_batch: usize) {
        const TASKS: usize = 4;
        const OPS: u64 = 48;
        let rt = Runtime::new(
            RuntimeConfig::cluster(locales)
                .without_network_atomics()
                .with_combining(true)
                .with_combine_max_batch(max_batch),
        );
        let logs: Vec<parking_lot::Mutex<Vec<u64>>> = (0..locales * TASKS)
            .map(|_| parking_lot::Mutex::new(Vec::new()))
            .collect();
        rt.run(|| {
            rt.coforall_locales(|l| {
                rt.coforall_tasks(TASKS, |t| {
                    let me = l as usize * TASKS + t;
                    for i in 0..OPS {
                        let hop = 1 + (i as usize + t) % (locales - 1);
                        let dest = (l as usize + hop) % locales;
                        rt.on_combining(dest as LocaleId, || logs[me].lock().push(i));
                    }
                });
            });
        });
        for (p, log) in logs.iter().enumerate() {
            assert_eq!(
                *log.lock(),
                (0..OPS).collect::<Vec<_>>(),
                "publisher {p}: every op once, in issue order"
            );
        }
        let n = (locales * TASKS) as u64 * OPS;
        let s = rt.total_comm();
        assert_eq!(s.combined_ops, n);
        assert_eq!(s.am_batch_items, n);
        // One AM per chunk, plus the task spawn on each other locale.
        assert_eq!(s.am_sent, s.combines + locales as u64 - 1);
        if max_batch == 1 {
            assert_eq!(s.combines, n, "chunk size 1 gives every rider its own AM");
        }
        let t = rt.total_telemetry();
        let occupancy = t.class(OpClass::CombineOccupancy);
        assert_eq!(occupancy.count(), s.combines);
        assert!(occupancy.max() <= max_batch as u64);
    }

    #[test]
    fn a_warm_singleton_records_one_round_trip_sample_with_the_vtime_of_on() {
        for cfg in [RuntimeConfig::zero_latency(2), RuntimeConfig::cluster(2)] {
            let item_ns = cfg.network.combine_item_ns;
            let rt = Runtime::new(cfg.without_network_atomics().with_combining(true));
            rt.run(|| {
                // Warm both paths: shards, the pooled reply channel, the
                // queue's batch buffer.
                rt.on(1, || ());
                rt.on_combining(1, || ());
                let trip = |op: &dyn Fn()| {
                    rt.reset_metrics();
                    let t0 = vtime::now();
                    op();
                    let dt = vtime::now() - t0;
                    let t = rt.total_telemetry();
                    let rt_class = t.class(OpClass::AmRoundTrip);
                    (dt, rt_class.count(), rt_class.sum(), t.comm)
                };
                let (on_dt, on_n, on_sum, _) = trip(&|| rt.on(1, || ()));
                assert_eq!((on_n, on_sum), (1, on_dt), "a blocking on's sample");
                let (dt, n, sum, c) = trip(&|| rt.on_combining(1, || ()));
                assert_eq!(n, 1, "one AmRoundTrip sample per combined chunk");
                assert_eq!(sum, dt, "the sample is the combiner's clock advance");
                assert_eq!(
                    dt,
                    on_dt + item_ns,
                    "a blocking on plus one rider's dispatch"
                );
                assert_eq!((c.am_sent, c.combines, c.combined_ops), (1, 1, 1));
            });
        }
    }

    #[test]
    fn a_traced_singleton_nests_its_round_trip_under_the_ride() {
        use crate::telemetry::RingSink;
        let rt = combining_cluster();
        let ring = std::sync::Arc::new(RingSink::new(64));
        assert!(rt.set_telemetry_sink(ring.clone()));
        rt.run(|| rt.on_combining(1, || ()));
        // Dropping the runtime joins the progress threads, so the AM span
        // (emitted after the reply) is in the ring.
        drop(rt);
        let spans = ring.take();
        let of = |class| {
            spans
                .iter()
                .filter(|s| s.class == class)
                .collect::<Vec<_>>()
        };
        let (rides, trips) = (of(OpClass::CombineRide), of(OpClass::AmRoundTrip));
        assert_eq!((rides.len(), trips.len()), (1, 1), "{spans:?}");
        assert_eq!(trips[0].trace, rides[0].trace);
        assert_eq!(trips[0].parent, rides[0].span);
        assert_eq!(
            trips[0].end_vtime, rides[0].end_vtime,
            "the AM ends with the ride"
        );
    }

    #[test]
    fn a_chunk_dropped_unexecuted_fails_its_riders_and_wakes_the_combiner() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        watchdog("dropped chunk", || {
            let rt = combining_cluster();
            let (gate, entered) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            rt.run(|| {
                // Occupy locale 1's only progress thread, so the chunk waits
                // in the inbox.
                let (g, e) = (gate.clone(), entered.clone());
                let busy = rt.on_async(1, move || {
                    e.store(true, Ordering::SeqCst);
                    while !g.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
                while !entered.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // A rider announced ahead of the combiner, as if by a
                // blocked task: the combiner drains both into one chunk.
                let rider_ran = AtomicBool::new(false);
                let rider = OpNode::new(
                    Box::new(|| panic!("a dropped chunk's rider ran")),
                    vtime::now(),
                    (0, 0, 0),
                );
                rt.locale(0).combine.queues[1].push(&rider);
                std::thread::scope(|s| {
                    let combiner = s.spawn(|| {
                        rt.run_on(0, || {
                            rt.on_combining(1, || rider_ran.store(true, Ordering::SeqCst))
                        })
                    });
                    // Drop the chunk as a shutdown would.
                    while rt.discard_inbox(1) == 0 {
                        std::thread::yield_now();
                    }
                    let payload = combiner.join().expect_err("the combiner must panic");
                    assert_eq!(
                        payload.downcast_ref::<String>().map(String::as_str),
                        Some(LOST_TEXT)
                    );
                });
                assert!(!rider_ran.load(Ordering::SeqCst));
                assert!(
                    rider.done.load(Ordering::Acquire),
                    "the announced rider is released"
                );
                // SAFETY: done, so the node is private again.
                let payload = unsafe { (*rider.panic.get()).take() }.expect("it fails");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&LOST_TEXT));
                gate.store(true, Ordering::SeqCst);
                busy.wait();
                // The role came back: the queue still combines.
                assert_eq!(rt.on_combining(1, || 7), 7);
            });
        });
    }

    proptest! {
        #[test]
        fn interleaved_pushes_and_drains_preserve_fifo(
            segments in proptest::collection::vec(0usize..8, 1..8),
        ) {
            let q = CombineQueue::new();
            let total: usize = segments.iter().sum();
            let nodes: Vec<Box<OpNode>> = (0..total)
                .map(|_| Box::new(OpNode::new(Box::new(|| {}), 0, (0, 0, 0))))
                .collect();
            let mut idx = 0;
            let mut drained: Vec<*const OpNode> = Vec::new();
            let mut out = Vec::new();
            for &seg in &segments {
                for _ in 0..seg {
                    q.push(&nodes[idx]);
                    idx += 1;
                }
                out.clear();
                q.drain_fifo(&mut out);
                drained.extend(out.iter().map(|p| p.0));
            }
            let want: Vec<*const OpNode> =
                nodes.iter().map(|b| &**b as *const OpNode).collect();
            prop_assert_eq!(drained, want);
        }
    }
}
