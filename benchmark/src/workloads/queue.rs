//! `queue-mailbox`: one `MsQueue` homed on each locale; each driver
//! alternates an `enqueue` into the other locale's queue with a `dequeue`
//! from its own.

use std::sync::Mutex;

use pgas_nb::prelude::*;

use super::{counted_rounds, Checks, Opts, Workload};
use crate::harness::{measure, sim_runtime, Cluster, DriverTask, Measured, Plan, Sim, LOCALES};
use crate::trace::TraceParent;

/// Operations per driver per round, half of them enqueues. Rounds are
/// counted, not timed: the drivers feed each other, and equal counts put
/// every inbox back to [`PREFILL`] entries at each barrier.
const ROUND_OPS: u64 = 8192;
/// Entries in each inbox before the first round: as many as a driver can
/// dequeue in one round, so a `dequeue` never finds its inbox empty even if
/// the other driver stalls for the whole round.
pub const PREFILL: u64 = ROUND_OPS / 2;
pub const RECLAIM_EVERY: u64 = 1024;
/// Operations per timed sample: one enqueue and one dequeue.
const PAIR: u32 = 2;
/// Producer id of the prefilled entries (the drivers are 0 and 1).
const PREFILLER: u64 = 2;

fn value(producer: u64, seq: u64) -> u64 {
    (producer << 56) | seq
}

/// Two queues on a default `cluster(2)` runtime, `queues[l]` homed on `l`
/// and prefilled from the other locale (so its nodes live where a driver's
/// would). Both locales prefill at once: a lone task would pay an idle-core
/// wake-up on every remote DCAS.
pub fn build(rt: &Runtime, prefill: u64) -> Vec<MsQueue<u64>> {
    let queues: Vec<MsQueue<u64>> = rt.run(|| {
        (0..LOCALES)
            .map(|l| rt.on(l as LocaleId, MsQueue::new))
            .collect()
    });
    Sim(rt).each_locale(&|l| {
        let q = &queues[1 - l];
        let tok = q.register();
        for seq in 1..=prefill {
            q.enqueue(&tok, value(PREFILLER, seq));
        }
    });
    queues
}

/// Empty both inboxes, each from its own locale and both at once, feeding
/// every entry to that inbox's order check.
pub fn drain(rt: &Runtime, queues: &[MsQueue<u64>], inboxes: &[Mutex<Inbox>]) {
    Sim(rt).each_locale(&|l| {
        let q = &queues[l];
        let tok = q.register();
        let mut inbox = inboxes[l].lock().expect("inbox poisoned");
        while let Some(v) = q.dequeue(&tok) {
            inbox.take(Some(v));
        }
    });
}

pub struct Mailbox;

pub struct MailboxInstance {
    // Dropped before the runtime they live in.
    queues: Vec<MsQueue<u64>>,
    rt: Runtime,
    /// What each driver did, for teardown's books.
    counts: Mutex<[MailboxCounts; 2]>,
}

/// Per-consumer order check: entries of one producer must come out in the
/// order they went in.
#[derive(Debug, Default, Clone, Copy)]
pub struct Inbox {
    last_seq: [u64; 3],
    pub dequeued: u64,
    pub dequeued_sum: u64,
    pub empty: u64,
    pub out_of_order: u64,
}

impl Inbox {
    pub fn take(&mut self, got: Option<u64>) {
        match got {
            None => self.empty += 1,
            Some(v) => {
                let (producer, seq) = ((v >> 56) as usize, v & ((1 << 56) - 1));
                if producer > 2 || seq <= self.last_seq[producer] {
                    self.out_of_order += 1;
                } else {
                    self.last_seq[producer] = seq;
                }
                self.dequeued += 1;
                self.dequeued_sum = self.dequeued_sum.wrapping_add(v);
            }
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct MailboxCounts {
    pub enqueued: u64,
    pub enqueued_sum: u64,
    pub inbox: Inbox,
}

struct MailboxDriver<'a> {
    own: &'a MsQueue<u64>,
    other: &'a MsQueue<u64>,
    own_tok: Token<'a>,
    other_tok: Token<'a>,
    me: u64,
    ops: u64,
    counts: MailboxCounts,
}

impl DriverTask for MailboxDriver<'_> {
    type Out = MailboxCounts;

    /// One sample is a pair — one enqueue, one dequeue — because the two
    /// halves are populations an order of magnitude apart in equal numbers,
    /// and the median of their mixture would sit on the cliff between them.
    fn step(&mut self) {
        self.counts.enqueued += 1;
        let v = value(self.me, self.counts.enqueued);
        self.counts.enqueued_sum = self.counts.enqueued_sum.wrapping_add(v);
        self.other.enqueue(&self.other_tok, v);
        let got = self.own.dequeue(&self.own_tok);
        self.counts.inbox.take(got);
        self.ops += PAIR as u64;
        if self.ops.is_multiple_of(RECLAIM_EVERY) {
            self.own_tok.try_reclaim();
        }
    }

    fn finish(self) -> MailboxCounts {
        self.counts
    }
}

/// One line on the sizes in use, for the summary's header.
pub fn sizes() -> String {
    format!(
        "{ROUND_OPS} ops per driver per round, {PREFILL} entries prefilled per inbox, \
         try_reclaim every {RECLAIM_EVERY}, one timed sample = 1 enqueue + 1 dequeue"
    )
}

impl Workload for Mailbox {
    type Instance = MailboxInstance;

    fn episodes(&self) -> usize {
        10
    }

    fn plan(&self, opts: &Opts) -> Plan {
        counted_rounds(opts, ROUND_OPS, PAIR, 2 << 20)
    }

    fn setup(&self) -> MailboxInstance {
        let rt = sim_runtime(RuntimeConfig::cluster(2));
        let queues = build(&rt, PREFILL);
        MailboxInstance {
            queues,
            rt,
            counts: Mutex::default(),
        }
    }

    fn measure(
        &self,
        inst: &MailboxInstance,
        plan: &Plan,
        tracer: TraceParent<'_>,
        checks: &mut Checks,
    ) -> Measured {
        let q = &inst.queues;
        let (measured, outs) = measure(&Sim(&inst.rt), plan, tracer, &|l| MailboxDriver {
            own: &q[l],
            other: &q[1 - l],
            own_tok: q[l].register(),
            other_tok: q[1 - l].register(),
            me: l as u64,
            ops: 0,
            counts: MailboxCounts::default(),
        });
        let ops: u64 = outs.iter().map(|c| 2 * c.enqueued).sum();
        checks.expect(ops == measured.ops(), || {
            format!("drivers counted {ops} ops, the harness {}", measured.ops())
        });
        *inst.counts.lock().expect("counts poisoned") = [outs[0], outs[1]];
        measured
    }

    /// Drain both inboxes, still checking order, balance the books, then
    /// reclaim and drop. A never-measured instance drains its prefill.
    fn teardown(&self, inst: MailboxInstance, checks: &mut Checks) {
        let MailboxInstance { queues, rt, counts } = inst;
        let counts = counts.into_inner().expect("counts poisoned");
        let inboxes = counts.map(|c| Mutex::new(c.inbox));
        drain(&rt, &queues, &inboxes);
        let prefilled_sum =
            (1..=PREFILL).fold(0u64, |sum, s| sum.wrapping_add(value(PREFILLER, s)));
        for (l, inbox) in inboxes.into_iter().enumerate() {
            let inbox = inbox.into_inner().expect("inbox poisoned");
            // A driver alternates the two, so it dequeued as often as it
            // enqueued; the drained entries were order-checked as well.
            checks.ops(
                2 * counts[l].enqueued + PREFILL,
                inbox.empty + inbox.out_of_order,
                "dequeues found the inbox empty or broke per-producer FIFO order",
            );
            let fed = counts[1 - l].enqueued_sum.wrapping_add(prefilled_sum);
            checks.expect(inbox.dequeued_sum == fed, || {
                format!(
                    "inbox {l}: dequeued sum {} differs from enqueued sum {fed}",
                    inbox.dequeued_sum
                )
            });
        }
        rt.run(|| {
            for q in &queues {
                q.clear_reclaim();
            }
            drop(queues);
        });
        let live = rt.live_objects();
        checks.expect(live == 0, || {
            format!("{live} objects live after queue teardown")
        });
    }
}
