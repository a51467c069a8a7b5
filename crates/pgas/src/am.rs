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
//!
//! The hand-off. A locale's messages wait in its [`Inbox`], which all of its
//! progress threads consume. A sender pushes under the queue lock and
//! signals only when a consumer is parked; the parked count is kept under
//! that same lock, so either the push sees the consumer counted or the
//! consumer sees the message before it parks, and no wake-up is lost. An
//! idle consumer re-checks the queue and yields up to [`WAIT_YIELDS`] times
//! before it parks, because the thread that serves a locale may share its
//! sender's core: a message that lands during those yields costs neither
//! side a futex call.
//!
//! The reply. Every sender that waits — a blocking call, a posted call's
//! handle, the combiner's chunk — waits on one [`Done`] cell, which the
//! message's drop writes once: the result, or a lost-call failure when the
//! message is dropped unexecuted. A blocking call keeps its cell on its
//! stack and parks at once; a posted call shares an `Arc` of it with its
//! handle; the combiner polls its cell through [`WAIT_YIELDS`] yields
//! before it parks. The progress loop drops a message last — after it has
//! recorded the service sample, emitted the round-trip span and released
//! the server slot — so a sender that reads the statistics on its reply
//! sees all of them.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;

use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::telemetry::{
    trace::{self, TraceCtx},
    OpClass, Span,
};
use crate::vtime;

/// How many times an idle waiter re-checks and yields before it parks: a
/// progress thread waiting for its inbox, and a combiner waiting for its
/// chunk's [`Done`] (see the module docs).
pub(crate) const WAIT_YIELDS: u32 = 3;

/// A many-producer queue whose consumers park when it is empty (see the
/// module docs for the hand-off protocol).
///
/// Not the vendored `crossbeam-channel`: that shim disconnects only when
/// every sender has dropped, while every task of a runtime may hold a
/// locale's inbox until the runtime drops it. An inbox closes by a flag
/// instead, and drains without closing.
pub(crate) struct Inbox<T> {
    state: Mutex<InboxState<T>>,
    /// Signalled by a push that finds a consumer parked, and by `close`.
    ready: Condvar,
}

struct InboxState<T> {
    queue: VecDeque<T>,
    /// Consumers waiting on `ready` (or woken and not yet back under the
    /// lock).
    parked: usize,
    closed: bool,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Inbox<T> {
        Inbox {
            state: Mutex::new(InboxState {
                queue: VecDeque::new(),
                parked: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InboxState<T>> {
        // Nothing panics under the lock, so the queue cannot be poisoned.
        self.state.lock().expect("active-message queue poisoned")
    }

    /// Append `msg`, waking one consumer if any is parked.
    ///
    /// # Panics
    /// If the inbox has been closed.
    pub(crate) fn push(&self, msg: T) {
        let mut st = self.lock();
        if st.closed {
            drop(st);
            panic!("active-message queue closed");
        }
        st.queue.push_back(msg);
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Take the oldest message, waiting while the inbox is empty: up to
    /// [`WAIT_YIELDS`] yields, then a park. `None` once the inbox is closed
    /// and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut yields = 0;
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Some(msg);
            }
            if st.closed {
                return None;
            }
            if yields < WAIT_YIELDS {
                yields += 1;
                drop(st);
                std::thread::yield_now();
                st = self.lock();
            } else {
                st.parked += 1;
                st = self.ready.wait(st).expect("active-message queue poisoned");
                st.parked -= 1;
            }
        }
    }

    /// Drop every queued message without closing the inbox, and return
    /// how many there were.
    pub(crate) fn discard(&self) -> usize {
        let taken = std::mem::take(&mut self.lock().queue);
        // Dropped outside the lock: a message's drop releases its waiter.
        taken.len()
    }

    /// Refuse further pushes and wake every parked consumer; consumers
    /// still serve what is queued, then `pop` returns `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Consumers currently parked.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.lock().parked
    }
}

/// The work an active message carries. The progress loop calls `run` once
/// and then drops the handler; dropping it writes the [`Done`] of whoever
/// waits on the message, and so does dropping it unexecuted (a discarded
/// inbox). The write is the drop's last access to anything the waiter
/// lends it.
pub(crate) trait Handler: Send {
    /// The body, run on the destination's progress thread.
    fn run(&mut self);
}

/// A message bound for a locale's progress threads.
pub(crate) struct AmMsg {
    /// The work; dropped last (see [`Handler`]).
    handler: Box<dyn Handler>,
    /// The virtual arrival time at the target NIC (sender clock + wire
    /// latency).
    send_vtime: u64,
    /// The issuing locale (carried for the telemetry span).
    src: LocaleId,
    /// The sender's causal-trace context, installed around the handler so
    /// spans emitted on the destination nest under the operation that
    /// caused them.
    ctx: Option<TraceCtx>,
}

/// What a call's handler reports back: its panic status and the virtual
/// time at which it finished.
pub(crate) type Reply = (std::thread::Result<()>, u64);

/// What a waiter panics with when its message was dropped unexecuted.
pub(crate) const LOST_TEXT: &str = "progress thread terminated while a remote call was pending";

// `Done`'s state word: nothing written yet; the waiter has stored its
// `Thread` and parks; the value is written.
const PENDING: u8 = 0;
const ARMED: u8 = 1;
const SET: u8 = 2;

/// A one-shot completion cell (see the module docs): one writer `set`s it
/// once, and one waiter waits once. The writer clones the waiter's
/// `Thread` before the Release store that publishes the value, so a waiter
/// that returns at once may free it.
pub(crate) struct Done<T> {
    state: AtomicU8,
    /// Written by the writer before `SET`, taken by the waiter after.
    value: UnsafeCell<Option<T>>,
    /// Written by the waiter before `ARMED`, read by the writer after.
    waiter: UnsafeCell<Option<Thread>>,
}

// SAFETY: the state word hands each slot from one side to the other with a
// Release/Acquire pair (see the field docs), so only a `T: Send` crosses.
unsafe impl<T: Send> Sync for Done<T> {}

impl<T> Done<T> {
    pub(crate) fn new() -> Done<T> {
        Done {
            state: AtomicU8::new(PENDING),
            value: UnsafeCell::new(None),
            waiter: UnsafeCell::new(None),
        }
    }

    /// True once the cell has been written (a poll; never blocks).
    pub(crate) fn is_set(&self) -> bool {
        self.state.load(Ordering::Acquire) == SET
    }

    /// Write the cell.
    ///
    /// # Safety
    /// At most one call per cell: the slot is the writer's until `SET`.
    pub(crate) unsafe fn set(&self, value: T) {
        // SAFETY: the one writer; the waiter reads the slot only after SET.
        unsafe { *self.value.get() = Some(value) };
        let armed = self
            .state
            .compare_exchange(PENDING, SET, Ordering::Release, Ordering::Acquire);
        if armed.is_err() {
            // SAFETY: ARMED (Acquire) published the waiter's slot, and the
            // waiter writes it no more.
            let waiter = unsafe { (*self.waiter.get()).clone() }.expect("an armed cell's waiter");
            self.state.store(SET, Ordering::Release);
            waiter.unpark();
        }
    }

    /// Park until the cell is written, re-checking after every unpark (an
    /// unpark may be stale), and take its value.
    ///
    /// # Safety
    /// At most one call per cell: the waiter's slot is the caller's.
    pub(crate) unsafe fn wait(&self) -> T {
        if !self.is_set() {
            // SAFETY: the writer reads the slot only once ARMED is stored.
            unsafe { *self.waiter.get() = Some(std::thread::current()) };
            let armed =
                self.state
                    .compare_exchange(PENDING, ARMED, Ordering::Release, Ordering::Acquire);
            while armed.is_ok() && !self.is_set() {
                std::thread::park();
            }
        }
        // SAFETY: SET (Acquire) ordered the writer's store before this read,
        // and the writer touches the cell no more.
        unsafe { (*self.value.get()).take() }.expect("a written cell holds its value")
    }
}

/// The body of progress thread `index` of locale `locale`: serve the
/// locale's [`Inbox`] until it is closed and drained. Its handlers see
/// `index` as [`crate::ctx::progress_thread`].
///
/// Holds its own `Arc` to the runtime so the context pointer stays valid
/// for the lifetime of the loop.
pub(crate) fn progress_loop(core: Arc<RuntimeCore>, locale: LocaleId, index: usize) {
    // SAFETY: `core` is kept alive by the Arc above until this function —
    // and therefore the guard — ends.
    let _guard = unsafe { crate::ctx::enter_progress(Arc::as_ptr(&core), locale, index) };
    let net = &core.config.network;
    let here = core.locale(locale);
    let slots = &here.server;
    let lstats = &here.stats;
    // A fault plan may name this locale as the straggler: its handler
    // dispatch is slowed by a constant multiplier for the whole run (the
    // multiplier is cached on the locale at construction).
    let handler_ns = net.am_handler_ns.saturating_mul(here.am_slowdown);
    while let Some(AmMsg {
        mut handler,
        send_vtime,
        src,
        ctx,
    }) = here.inbox.pop()
    {
        // Min-clock service discipline: run on whichever server slot frees
        // up first, regardless of which OS thread we are.
        let (slot, free_at) = slots.acquire();
        let start = free_at.max(send_vtime);
        vtime::set(start + handler_ns);
        // Plain stores to this thread's shard; the waiter's release at the
        // end of this iteration is the release/acquire pair that publishes
        // them, with the service sample and the span below.
        lstats.add_record(Counter::AmHandled, OpClass::AmQueue, start - send_vtime);
        // Causal tracing: the round-trip span gets its own id on this
        // locale, parented under the sender's context (or self-rooted when
        // the sender had none), and the matching context wraps the handler
        // so spans emitted inside nest under this AM.
        let (trace_id, am_span, parent) = if core.tracing() {
            let own = here.next_span_id();
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
        // A panicking handler must not take the progress thread down with
        // it; the handlers forward their own panics to their waiters.
        let _ = catch_unwind(AssertUnwindSafe(|| handler.run()));
        drop(tguard);
        let end = vtime::now();
        lstats.record(OpClass::AmService, end - start);
        // One span per remote operation, stamped from the vtime points this
        // loop already computes: issue (arrival minus the wire), arrival,
        // queued start, and the reply landing back at the sender. The tag
        // is the server-slot index (one Perfetto track per progress-thread
        // slot).
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
        // The slot is busy until the reply has been injected back onto the
        // wire.
        slots.release(slot, end + net.am_wire_ns);
        // Last: release the waiter, so everything above is visible to it.
        drop(handler);
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
    // escalated to a reliable channel (`post` cannot drop it), so
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
                stats.add_record(Counter::Retries, OpClass::Retry, penalty);
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

    let done = Done::new();
    let call: Box<dyn Handler + '_> = Box::new(Call {
        f: Some(f),
        reply: None,
        done: &done,
    });
    // SAFETY: lifetime erasure. The message borrows `done`, and `f` may
    // borrow the caller's stack, but this function returns only after
    // `done.wait()`, and `Call`'s drop writes `done` as its last access,
    // after it has consumed `f`: `f` has run, or is dropped there when the
    // message is dropped unexecuted. So no borrow outlives this frame.
    let call: Box<dyn Handler> = unsafe { std::mem::transmute(call) };
    post(core, src, dest, call);
    // SAFETY: `done` is this frame's, and this is its one wait.
    let (out, end) = unsafe { done.wait() };
    vtime::advance_to(end + cfg.am_wire_ns);
    // The sender-observed round trip, retries and queueing included.
    stats.record(OpClass::AmRoundTrip, vtime::now().saturating_sub(t_issue));
    if let Err(payload) = out {
        resume_unwind(payload);
    }
}

/// A call's message: runs the closure, and its drop writes the reply (or,
/// unexecuted, a [`LOST_TEXT`] failure) into the waiter's [`Done`]. `D` is
/// a `&Done` on a blocking caller's stack ([`remote_call`]) or an
/// `Arc<Done>` shared with a posted call's handle ([`remote_post`]).
struct Call<'a, D: Deref<Target = Done<Reply>>> {
    f: Option<Box<dyn FnOnce() + Send + 'a>>,
    reply: Option<Reply>,
    done: D,
}

impl<D: Deref<Target = Done<Reply>> + Send> Handler for Call<'_, D> {
    fn run(&mut self) {
        let f = self.f.take().expect("active message executed twice");
        let out = catch_unwind(AssertUnwindSafe(f));
        self.reply = Some((out, vtime::now()));
    }
}

impl<D: Deref<Target = Done<Reply>>> Drop for Call<'_, D> {
    fn drop(&mut self) {
        // An unexecuted closure may own values that borrow the waiter's
        // frame (see `remote_call`): drop it before the write releases the
        // waiter, and do not let a panic in its drop skip the write.
        let _ = catch_unwind(AssertUnwindSafe(|| drop(self.f.take())));
        let reply = self
            .reply
            .take()
            .unwrap_or_else(|| (Err(Box::new(LOST_TEXT)), 0));
        // SAFETY: a cell has one message, and a message drops once.
        unsafe { self.done.set(reply) };
    }
}

/// The second copy of a message duplicated by the fault plan: the
/// receiver's dedup discards it, so it runs nothing and releases nobody.
struct Duplicate;

impl Handler for Duplicate {
    fn run(&mut self) {}
}

/// Ship `f` to locale `dest` without waiting, and return the cell its
/// message writes once the handler has run. The sender's clock does not
/// advance. Must not be called when `dest == here()`.
pub(crate) fn remote_post(
    core: &RuntimeCore,
    src: LocaleId,
    dest: LocaleId,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> Arc<Done<Reply>> {
    let done = Arc::new(Done::new());
    let call = Call {
        f: Some(f),
        reply: None,
        done: Arc::clone(&done),
    };
    post(core, src, dest, Box::new(call));
    done
}

/// Ship `handler` to locale `dest` without waiting — the one place an
/// [`AmMsg`] is built and sent: one `am_sent`, the fault plan's arrival
/// delay and duplicate delivery, and the sender's causal context. The
/// sender's clock does not advance, and nothing reports back: a caller that
/// waits is released by the handler's drop (see [`Handler`]). Must not be
/// called when `dest == here()`.
pub(crate) fn post(core: &RuntimeCore, src: LocaleId, dest: LocaleId, handler: Box<dyn Handler>) {
    debug_assert_ne!(src, dest, "an active message requires a remote destination");
    // Without a shared address space nobody serves this queue: panic here,
    // before anything is counted, rather than wait forever for a reply.
    core.confined_to_rank(dest);
    let cfg = &core.config.network;
    let stats = &core.locale(src).stats;
    // The sender's causal context rides the message so the destination's
    // round-trip span (and everything it causes) joins this trace.
    let ctx = trace::current();
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
        AmMsg {
            handler,
            send_vtime,
            src,
            ctx,
        },
    );
    if duplicate {
        // At-least-once delivery: the network delivered a second copy.
        // The receiver's dedup discards it, modelled as a no-op handler
        // that still occupies a server slot and pays dispatch cost.
        stats.add(Counter::InjectedDups, 1);
        core.send_am(
            dest,
            AmMsg {
                handler: Box::new(Duplicate),
                send_vtime,
                src,
                ctx,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Run `f` on a thread of its own and fail, rather than hang, if it has
    /// not finished within two minutes: a lost wake-up hangs.
    fn watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (finished, wait) = channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = finished.send(());
        });
        match wait.recv_timeout(Duration::from_secs(120)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("{what}: hung"),
        }
    }

    /// Spin until `inbox` has `n` parked consumers.
    fn await_parked<T>(inbox: &Inbox<T>, n: usize) {
        while inbox.parked() != n {
            std::thread::yield_now();
        }
    }

    fn exactly_once_in_fifo_order(consumers: usize) {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 10_000;
        let inbox = Inbox::new();
        let logs: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..consumers)
                .map(|_| {
                    s.spawn(|| {
                        let mut log = Vec::new();
                        while let Some(m) = inbox.pop() {
                            log.push(m);
                        }
                        log
                    })
                })
                .collect();
            let writers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let inbox = &inbox;
                    s.spawn(move || (0..PER_PRODUCER).for_each(|i| inbox.push((p, i))))
                })
                .collect();
            writers.into_iter().for_each(|w| w.join().unwrap());
            inbox.close();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let mut seen = vec![vec![false; PER_PRODUCER]; PRODUCERS];
        for log in &logs {
            let mut last = [None; PRODUCERS];
            for &(p, i) in log {
                assert!(!seen[p][i], "message {p}.{i} delivered twice");
                seen[p][i] = true;
                assert!(last[p] < Some(i), "producer {p} out of order at {i}");
                last[p] = Some(i);
            }
        }
        assert!(seen.iter().flatten().all(|&s| s), "a message was lost");
    }

    #[test]
    fn every_message_is_delivered_exactly_once_in_producer_order() {
        watchdog("exactness", || {
            exactly_once_in_fifo_order(1);
            exactly_once_in_fifo_order(2);
        });
    }

    #[test]
    fn a_push_to_a_parked_consumer_wakes_it_every_time() {
        watchdog("lost wake-up", || {
            const N: usize = 200;
            let inbox = Inbox::new();
            let taken = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let mut log = Vec::new();
                    while let Some(m) = inbox.pop() {
                        log.push(m);
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                    log
                });
                for i in 0..N {
                    // The consumer has spent its yields and sleeps: only
                    // this push's signal can wake it, and the next push
                    // waits until it has.
                    await_parked(&inbox, 1);
                    inbox.push(i);
                    while taken.load(Ordering::SeqCst) <= i {
                        std::thread::yield_now();
                    }
                }
                inbox.close();
                assert_eq!(consumer.join().unwrap(), (0..N).collect::<Vec<_>>());
            });
        });
    }

    #[test]
    fn a_drained_consumer_parks_within_its_yield_budget() {
        watchdog("idle parking", || {
            let inbox = Inbox::new();
            std::thread::scope(|s| {
                let consumers: Vec<_> = (0..2).map(|_| s.spawn(|| inbox.pop())).collect();
                let deadline = Instant::now() + Duration::from_secs(10);
                while inbox.parked() < 2 {
                    assert!(Instant::now() < deadline, "an idle consumer never parked");
                    std::thread::yield_now();
                }
                inbox.push(7);
                await_parked(&inbox, 1);
                inbox.close();
                let mut got: Vec<_> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
                got.sort();
                assert_eq!(got, [None, Some(7)]);
                assert_eq!(inbox.parked(), 0);
            });
        });
    }

    #[test]
    #[should_panic(expected = "active-message queue closed")]
    fn a_push_after_close_panics() {
        let inbox = Inbox::new();
        inbox.close();
        inbox.push(1);
    }

    #[test]
    fn discard_drops_the_queue_and_leaves_the_inbox_open() {
        let inbox = Inbox::new();
        (0..3).for_each(|i| inbox.push(i));
        assert_eq!(inbox.discard(), 3);
        inbox.push(4);
        assert_eq!(inbox.pop(), Some(4));
    }

    /// A call dropped unexecuted fails its waiter rather than leaving it
    /// parked on its cell, and drops its closure first: a blocking
    /// `on`'s closure may own values that borrow the waiter's frame, so
    /// nothing of it may outlive the reply.
    #[test]
    fn a_call_dropped_unexecuted_fails_its_waiter() {
        use std::sync::atomic::AtomicBool;
        /// Records its drop, late enough that a waiter released first sees
        /// it unrecorded.
        struct SlowDrop(Arc<AtomicBool>);
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(50));
                self.0.store(true, Ordering::SeqCst);
            }
        }
        watchdog("dropped call", || {
            let rt = Runtime::cluster(2);
            let (gate, entered, dropped) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            rt.run(|| {
                // Occupy locale 1's only progress thread, so the calls wait
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
                let lost = rt.on_async(1, || panic!("a dropped call ran"));
                let (blocking, dropped_first) = std::thread::scope(|s| {
                    let caller = s.spawn(|| {
                        rt.run_on(0, || {
                            let probe = SlowDrop(dropped.clone());
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                rt.on(1, move || drop(probe));
                            }));
                            (out, dropped.load(Ordering::SeqCst))
                        })
                    });
                    // Discarded from this thread while the caller waits.
                    let mut discarded = 0;
                    while discarded < 2 {
                        discarded += rt.discard_inbox(1);
                        std::thread::yield_now();
                    }
                    caller.join().unwrap()
                });
                let posted = catch_unwind(AssertUnwindSafe(|| lost.wait()));
                gate.store(true, Ordering::SeqCst);
                busy.wait();
                for out in [posted, blocking] {
                    let payload = out.expect_err("a dropped call fails its waiter");
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&LOST_TEXT));
                }
                assert!(
                    dropped_first,
                    "the waiter returned before its closure dropped"
                );
            });
        });
    }

    /// A dropped `Completion` abandons its result, not its cell: the
    /// message keeps the cell it shares with the handle, runs its body once
    /// and writes the result into live memory, which the message's drop then
    /// frees. The body panics with a probe, so the result is observable: it
    /// must be dropped exactly once, and a write into a cell already freed
    /// would leak it instead.
    #[test]
    fn an_abandoned_completion_runs_once_and_frees_its_cell_after_the_write() {
        use std::sync::atomic::AtomicBool;
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        watchdog("abandoned completion", || {
            let rt = Runtime::cluster(2);
            let (gate, entered) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            let (ran, freed) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
            rt.run(|| {
                // Occupy locale 1's only progress thread, so the handler
                // waits in the inbox while its handle is dropped.
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
                let (r, f) = (ran.clone(), freed.clone());
                drop(rt.on_async(1, move || {
                    r.fetch_add(1, Ordering::SeqCst);
                    std::panic::panic_any(Probe(f));
                }));
                assert_eq!(ran.load(Ordering::SeqCst), 0, "the handler waits");
                gate.store(true, Ordering::SeqCst);
                busy.wait();
                // One progress thread serves in order and drops each message
                // before it takes the next: once this call returns, the
                // abandoned message has run and been dropped.
                rt.on(1, || ());
                assert_eq!(ran.load(Ordering::SeqCst), 1, "the handler runs once");
                assert_eq!(
                    freed.load(Ordering::SeqCst),
                    1,
                    "the result is dropped once, with its cell"
                );
            });
        });
    }

    /// Many blocking calls park on their own stack cells at once: every
    /// writer's unpark must reach its waiter, whether it lands before the
    /// park (a token) or after. A lost wake-up hangs the watchdog.
    #[test]
    fn concurrent_blocking_calls_lose_no_wake_up() {
        watchdog("concurrent blocking calls", || {
            const TASKS: usize = 4;
            const CALLS: usize = 2000;
            let rt = Runtime::cluster(2);
            let counter = AtomicUsize::new(0);
            rt.run(|| {
                rt.coforall_tasks(TASKS, |_| {
                    for _ in 0..CALLS {
                        rt.on(1, || {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
            assert_eq!(counter.load(Ordering::Relaxed), TASKS * CALLS);
        });
    }

    /// The reply is the progress loop's last act: a sender that reads the
    /// destination's statistics on return sees the service sample of the
    /// call it just made. The race it checks is narrow, hence the many
    /// calls.
    #[test]
    fn the_service_sample_lands_before_the_reply() {
        watchdog("reply order", || {
            let rt = Runtime::cluster(2);
            rt.run(|| {
                for _ in 0..10_000 {
                    rt.on(1, || {});
                    let t = rt.locale(1).stats.telemetry_snapshot();
                    assert_eq!(t.class(OpClass::AmService).count(), t.comm.am_handled);
                }
            });
        });
    }
}
