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
//! 1. **Announce.** The caller stack-allocates an [`OpNode`] holding its
//!    closure and publication vtime and CAS-pushes it onto the destination
//!    queue's announce list.
//! 2. **Elect.** While its node is not `done`, the caller tries to CAS the
//!    queue's `combiner` flag. Losers spin/yield; the winner drains the
//!    announce list (swap to null, reverse for FIFO), *lingers* briefly
//!    (bounded yield-and-redrain rounds, so batch formation does not depend
//!    on hardware parallelism) and ships batches until the list is empty or
//!    its own operation completed, then releases the role. A node can never
//!    strand: any announced node belongs to a blocked caller, and a blocked
//!    caller keeps volunteering.
//! 3. **Ship.** The combiner advances its clock to the latest publication
//!    vtime in the batch (causality: the message cannot depart before the
//!    operations it carries exist), then sends one blocking AM per
//!    [`crate::config::RuntimeConfig::combine_max_batch`]-sized chunk.
//! 4. **Execute.** The destination handler runs the riders in announce
//!    order. Each rider charges `combine_item_ns` dispatch plus its own
//!    body cost, records its completion vtime in its node, and sets `done`
//!    (Release). The wire and the fixed `am_handler_ns` are paid once per
//!    chunk — that is the entire win.
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

use crate::am;
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
/// before a non-empty batch departs. Each round lets every runnable peer
/// task announce (one `yield_now` cycles the run queue on a saturated
/// host); the loop exits early the moment a round adds nothing.
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
}

impl CombineQueue {
    fn new() -> CombineQueue {
        CombineQueue {
            head: AtomicPtr::new(std::ptr::null_mut()),
            combiner: AtomicBool::new(false),
        }
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
    // combiner that panicked in `ship` would keep the role, and the next
    // caller would spin behind it forever.
    core.confined_to_rank(dest);
    // SAFETY: lifetime erasure under the same contract as
    // `am::remote_call` — this function blocks until the operation has
    // executed, so borrows inside `f` cannot outlive this frame.
    let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
    let node = OpNode::new(f, vtime::now(), core.span_ids(src));
    let q = &core.locale(src).combine.queues[dest as usize];
    q.push(&node);

    let mut spins = 0u32;
    let mut batch: Vec<NodePtr> = Vec::new();
    while !node.done.load(Ordering::Acquire) {
        if q.combiner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // We are the combiner: drain and ship until the announce list
            // is empty or our own operation has been carried by a batch.
            loop {
                batch.clear();
                q.drain_fifo(&mut batch);
                if batch.is_empty() {
                    break;
                }
                // Linger before shipping: peers that are runnable but not
                // currently scheduled (batch formation must not depend on
                // hardware parallelism — the host may be a single core)
                // get a chance to announce and ride this message. Bounded:
                // stop as soon as a linger round finds no new riders.
                let max_batch = core.config.combine_max_batch.max(1);
                for _ in 0..LINGER_ROUNDS {
                    if batch.len() >= max_batch {
                        break;
                    }
                    let before = batch.len();
                    std::thread::yield_now();
                    q.drain_fifo(&mut batch);
                    if batch.len() == before {
                        break;
                    }
                }
                ship(core, src, dest, &batch);
                if node.done.load(Ordering::Acquire) {
                    break;
                }
            }
            q.combiner.store(false, Ordering::Release);
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

/// Ship a drained batch to `dest` as one blocking bulk AM per
/// `combine_max_batch` chunk, executing the riders in announce order inside
/// the handler.
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
    for chunk in batch.chunks(core.config.combine_max_batch.max(1)) {
        let n = chunk.len() as u64;
        stats.add(Counter::Combines, 1);
        stats.add(Counter::CombinedOps, n);
        stats.add(Counter::AmBatches, 1);
        stats.add(Counter::AmBatchItems, n);
        // Combine occupancy histogram: how many riders each combined
        // message actually carried (the whole point of the layer).
        stats.record(crate::telemetry::OpClass::CombineOccupancy, n);
        let riders: Vec<NodePtr> = chunk.to_vec();
        // Causal tracing: the bulk AM is parented under the *last* rider's
        // CombineRide span — the AM's end (last rider's finish + reply
        // wire) is exactly that ride's end, so the AM interval nests
        // inside it. Each rider's thunk then runs under its *own* ride
        // context, so spans a rider causes join the rider's trace, not the
        // shipping combiner's.
        // SAFETY (both reads): publishers are blocked until done.
        let last_ride = unsafe { (*chunk.last().expect("non-empty chunk").0).ride };
        let ship_ctx = (last_ride.1 != 0).then(|| {
            trace::enter(Some(TraceCtx {
                trace: last_ride.0,
                span: last_ride.1,
            }))
        });
        // The combiner may have been elected while *its own* operation was
        // in an idempotent-class scope, but the batch carries other tasks'
        // riders (CAS publishes, deferred frees) that must execute exactly
        // once. Pin the send to the non-droppable class so fault injection
        // can never lose a combined message, whatever the electing task's
        // class was.
        crate::faults::with_class(crate::faults::RetryClass::NonIdempotent, || {
            am::remote_call(
                core,
                src,
                dest,
                Box::new(move || {
                    for p in &riders {
                        // SAFETY: the publishing task blocks in `submit` until
                        // `done`, keeping the node alive; only this handler
                        // touches the thunk/panic cells before `done` is set.
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
                }),
            );
        });
        drop(ship_ctx);
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

    #[test]
    fn max_batch_chunks_large_drains() {
        let rt = Runtime::new(
            RuntimeConfig::cluster(2)
                .without_network_atomics()
                .with_combining(true)
                .with_combine_max_batch(1),
        );
        rt.run(|| {
            rt.reset_metrics();
            rt.coforall_tasks(4, |_| {
                for _ in 0..8 {
                    rt.on_combining(1, || ());
                }
            });
            let s = rt.total_comm();
            // Chunk size 1 degenerates every rider to its own AM.
            assert_eq!(s.combined_ops, 32);
            assert_eq!(s.combines, 32);
            assert_eq!(s.am_sent, 32);
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
