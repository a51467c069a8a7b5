//! Active messages.
//!
//! Chapel's `on` statement — and, when RDMA atomics are unavailable, every
//! remote atomic — executes as an *active message*: a closure shipped to the
//! target locale and run by one of its progress threads. The progress
//! threads are a real serialization point; a locale bombarded with AMs
//! services them `progress_threads` at a time, which is why the paper's AM
//! fallback path scales worse than NIC atomics.
//!
//! The virtual-time protocol: a message sent at task time `t` arrives at
//! `t + am_wire_ns`. The service acquires the earliest-free server slot
//! (see [`crate::locale`]), starts the handler no earlier than both that
//! slot's clock and the arrival time, and charges `am_handler_ns` dispatch
//! plus whatever the body itself charges. The reply lands back at the
//! sender at `end + am_wire_ns`; the server slot stays occupied until
//! `end + am_wire_ns` too — injecting the reply ties up the service lane,
//! so a saturated progress thread's throughput is bounded by
//! `am_handler_ns + body + am_wire_ns` per message, not just the handler
//! cost. (The sender-observed round trip of an *uncontended* message is
//! unchanged: `2·am_wire_ns + am_handler_ns + body`.)
//!
//! This module is internal plumbing of the shared-address-space model: all
//! traffic enters through the [`crate::engine`] functions, and every
//! message leaves through [`post`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam_channel::{bounded, Receiver, Sender};

use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::telemetry::{
    trace::{self, TraceCtx},
    OpClass, Span,
};
use crate::vtime;

/// A message bound for a locale's progress threads.
pub(crate) enum AmMsg {
    /// Execute the closure. `send_vtime` is the virtual arrival time at the
    /// target NIC (sender clock + wire latency); `src` is the issuing
    /// locale (carried for the telemetry span); `ctx` is the sender's
    /// causal-trace context, installed around the handler so spans emitted
    /// on the destination nest under the operation that caused them.
    Call {
        thunk: Box<dyn FnOnce() + Send + 'static>,
        send_vtime: u64,
        src: LocaleId,
        ctx: Option<TraceCtx>,
    },
    /// Terminate one progress thread (sent once per thread at shutdown).
    Shutdown,
}

/// What a handler reports back: its panic status and the virtual time at
/// which it finished.
pub(crate) type Reply = (std::thread::Result<()>, u64);

thread_local! {
    /// Reusable one-shot reply channels. A remote call consumes exactly one
    /// message per pair, so a drained pair is as good as new — recycling
    /// avoids a channel allocation on every blocking remote operation (the
    /// hottest allocation in the AM fallback path).
    static REPLY_POOL: std::cell::RefCell<Vec<(Sender<Reply>, Receiver<Reply>)>> =
        std::cell::RefCell::new(Vec::new());
}

/// A task rarely has more than a couple of calls in flight; keep the pool
/// tiny so abandoned bursts don't pin memory.
const REPLY_POOL_CAP: usize = 4;

/// Take a reply channel from the calling thread's pool, or allocate one.
fn pooled_reply_channel() -> (Sender<Reply>, Receiver<Reply>) {
    REPLY_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| bounded(1))
}

/// Return a reply channel to the pool once its single message has been
/// consumed. Pairs that might still carry (or later receive) a message —
/// e.g. from an abandoned `Completion` — must simply be dropped instead.
pub(crate) fn recycle_reply_channel(tx: Sender<Reply>, rx: Receiver<Reply>) {
    // Only a provably-drained pair is reusable; the channel has no
    // emptiness query, so probe with `try_recv`.
    if rx.try_recv().is_ok() {
        return;
    }
    REPLY_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < REPLY_POOL_CAP {
            p.push((tx, rx));
        }
    });
}

/// The body of progress thread `index` of locale `locale`. Its handlers
/// see `index` as [`crate::ctx::progress_thread`].
///
/// Holds its own `Arc` to the runtime so the context pointer stays valid
/// for the lifetime of the loop.
pub(crate) fn progress_loop(
    core: Arc<RuntimeCore>,
    locale: LocaleId,
    index: usize,
    rx: Receiver<AmMsg>,
) {
    // SAFETY: `core` is kept alive by the Arc above until this function —
    // and therefore the guard — ends.
    let _guard = unsafe { crate::ctx::enter_progress(Arc::as_ptr(&core), locale, index) };
    let net = &core.config.network;
    let slots = &core.locale(locale).server;
    // A fault plan may name this locale as the straggler: its handler
    // dispatch is slowed by a constant multiplier for the whole run (the
    // multiplier is cached on the locale at construction).
    let handler_ns = net
        .am_handler_ns
        .saturating_mul(core.locale(locale).am_slowdown);
    while let Ok(msg) = rx.recv() {
        match msg {
            AmMsg::Shutdown => break,
            AmMsg::Call {
                thunk,
                send_vtime,
                src,
                ctx,
            } => {
                // Min-clock service discipline: run on whichever server slot
                // frees up first, regardless of which OS thread we are.
                let (slot, free_at) = slots.acquire();
                let start = free_at.max(send_vtime);
                vtime::set(start + handler_ns);
                let lstats = &core.locale(locale).stats;
                // Count before the body runs: the thunk's last act is the
                // reply send, and the unblocked sender may read the stats
                // immediately — the counter must already be there. It is a
                // plain store to this thread's shard; the reply channel's
                // send/recv is the release/acquire pair that publishes it.
                // The queue-wait sample is also known now (`start - arrival`).
                lstats.add(Counter::AmHandled, 1);
                lstats.record(OpClass::AmQueue, start - send_vtime);
                // Causal tracing: the round-trip span gets its own id on
                // this locale, parented under the sender's context (or
                // self-rooted when the sender had none), and the matching
                // context wraps the handler so spans emitted inside nest
                // under this AM.
                let (trace_id, am_span, parent) = if core.tracing() {
                    let own = core.locale(locale).next_span_id();
                    match ctx {
                        Some(c) => (c.trace, own, c.span),
                        None => (own, own, 0),
                    }
                } else {
                    (0, 0, 0)
                };
                let tguard = (am_span != 0).then(|| {
                    trace::enter(Some(TraceCtx {
                        trace: trace_id,
                        span: am_span,
                    }))
                });
                // A panicking handler must not take the progress thread
                // down with it; the panic is forwarded to the sender via
                // the reply channel inside the thunk.
                let _ = catch_unwind(AssertUnwindSafe(thunk));
                drop(tguard);
                let end = vtime::now();
                lstats.record(OpClass::AmService, end - start);
                // One span per remote operation, stamped from the vtime
                // points this loop already computes: issue (arrival minus
                // the wire), arrival, queued start, and the reply landing
                // back at the sender. The tag is the server-slot index
                // (one Perfetto track per progress-thread slot).
                core.emit_span(|| Span {
                    class: OpClass::AmRoundTrip,
                    src,
                    dest: locale,
                    issue_vtime: send_vtime.saturating_sub(net.am_wire_ns),
                    arrive_vtime: send_vtime,
                    start_vtime: start,
                    end_vtime: end + net.am_wire_ns,
                    tag: slot as u64,
                    trace: trace_id,
                    span: am_span,
                    parent,
                });
                // The slot is busy until the reply has been injected back
                // onto the wire.
                slots.release(slot, end + net.am_wire_ns);
            }
        }
    }
}

/// Execute `f` on locale `dest`, blocking until it completes, and merge its
/// virtual time back into the caller. Must not be called when
/// `dest == here()` — the caller handles the inline case.
pub(crate) fn remote_call(
    core: &RuntimeCore,
    src: LocaleId,
    dest: LocaleId,
    f: Box<dyn FnOnce() + Send + '_>,
) {
    let cfg = &core.config.network;
    let stats = &core.locale(src).stats;
    let t_issue = vtime::now();

    // Fault injection, part 1: drop + retry. Only idempotent-class sends
    // are droppable; a dropped message is lost *before* execution, so the
    // sender pays the wire cost plus the detection timeout and backoff,
    // then re-sends. After `max_attempts` consecutive drops the send is
    // escalated to a reliable channel (`remote_post` cannot drop it), so
    // the operation never hangs.
    if let Some(fs) = core.faults() {
        if crate::faults::current_class() == crate::faults::RetryClass::Idempotent {
            let mut attempt = 0;
            while attempt < fs.max_attempts() {
                let Some(decision) = fs.inject_drop_indexed() else {
                    break;
                };
                stats.add(Counter::AmSent, 1);
                stats.add(Counter::InjectedDrops, 1);
                let before = vtime::now();
                let penalty = fs.retry_penalty_ns(attempt);
                vtime::charge(cfg.am_wire_ns + penalty);
                stats.add(Counter::Retries, 1);
                stats.record(OpClass::Retry, penalty);
                // A retry span per dropped attempt, tagged with the global
                // fault decision index that dropped it.
                let (trace_id, span_id, parent) = core.span_ids(src);
                core.emit_span(|| Span {
                    class: OpClass::Retry,
                    src,
                    dest,
                    issue_vtime: before,
                    arrive_vtime: before + cfg.am_wire_ns,
                    start_vtime: before + cfg.am_wire_ns,
                    end_vtime: before + cfg.am_wire_ns + penalty,
                    tag: decision,
                    trace: trace_id,
                    span: span_id,
                    parent,
                });
                attempt += 1;
            }
            if attempt >= fs.max_attempts() {
                stats.add(Counter::GaveUp, 1);
            }
        }
    }

    // SAFETY: lifetime erasure. `f` may borrow the caller's stack, but this
    // function blocks on `rx.recv()` until `f` has finished executing (or
    // is provably never going to run because the channel disconnected), so
    // no borrow outlives this frame.
    let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
    let (tx, rx) = remote_post(core, src, dest, f);
    let (out, end) = rx
        .recv()
        .expect("progress thread terminated while a remote call was pending");
    // The one message is consumed; the pair is pristine again.
    recycle_reply_channel(tx, rx);
    vtime::advance_to(end + cfg.am_wire_ns);
    // The sender-observed round trip, retries and queueing included.
    stats.record(OpClass::AmRoundTrip, vtime::now().saturating_sub(t_issue));
    if let Err(payload) = out {
        resume_unwind(payload);
    }
}

/// Ship `f` to locale `dest` without waiting, with a reply channel: the
/// returned pair yields the handler's completion status once it has run
/// (the sender half is returned so the consumer can hand the drained pair
/// back to [`recycle_reply_channel`]). The sender's clock does not advance.
/// Must not be called when `dest == here()`.
pub(crate) fn remote_post(
    core: &RuntimeCore,
    src: LocaleId,
    dest: LocaleId,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> (Sender<Reply>, Receiver<Reply>) {
    let (tx, rx) = pooled_reply_channel();
    let reply_tx = tx.clone();
    post(
        core,
        src,
        dest,
        Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            let end = vtime::now();
            // Nobody may be waiting: a dropped `Completion` or a sending task
            // that panicked disconnects the channel, and then nobody cares
            // about the reply.
            let _ = reply_tx.send((out, end));
        }),
    );
    (tx, rx)
}

/// Ship `thunk` to locale `dest` without waiting — the one place an
/// [`AmMsg::Call`] is built and sent: one `am_sent`, the fault plan's
/// arrival delay and duplicate delivery, and the sender's causal context.
/// The sender's clock does not advance, and nothing reports back: a caller
/// that waits puts its own completion signal inside `thunk`, and must be
/// released from `thunk`'s drop too, since a message can be dropped
/// unexecuted. Must not be called when `dest == here()`.
pub(crate) fn post(
    core: &RuntimeCore,
    src: LocaleId,
    dest: LocaleId,
    thunk: Box<dyn FnOnce() + Send + 'static>,
) {
    debug_assert_ne!(src, dest, "an active message requires a remote destination");
    // Without a shared address space nobody serves this queue: panic here,
    // before anything is counted, rather than wait forever for a reply.
    core.confined_to_rank(dest);
    let cfg = &core.config.network;
    let stats = &core.locale(src).stats;
    // The sender's causal context rides the message so the destination's
    // round-trip span (and everything it causes) joins this trace.
    let tctx = trace::current();
    stats.add(Counter::AmSent, 1);
    let mut send_vtime = vtime::now() + cfg.am_wire_ns;
    let mut duplicate = false;
    // Fault injection, part 2: arrival delay and duplicate delivery, both
    // of which preserve delivery. Drops are injected only by the blocking
    // caller's retry loop: a fire-and-forget sender is not blocked and
    // cannot observe a timeout.
    if let Some(fs) = core.faults() {
        if let Some(extra) = fs.inject_delay() {
            stats.add(Counter::InjectedDelays, 1);
            send_vtime += extra;
        }
        duplicate = fs.inject_dup();
    }

    core.send_am(
        dest,
        AmMsg::Call {
            thunk,
            send_vtime,
            src,
            ctx: tctx,
        },
    );
    if duplicate {
        // At-least-once delivery: the network delivered a second copy.
        // The receiver's dedup discards it, modelled as a no-op handler
        // that still occupies a server slot and pays dispatch cost.
        stats.add(Counter::InjectedDups, 1);
        core.send_am(
            dest,
            AmMsg::Call {
                thunk: Box::new(|| {}),
                send_vtime,
                src,
                ctx: tctx,
            },
        );
    }
}
