//! The six workloads and the frame they share: set up, measure, tear down,
//! check the outputs — several times over when untraced, so `setup_s` and
//! `teardown_s` are medians over the run.

use std::time::{Duration, Instant};

use crate::affinity;
use crate::harness::{Measured, Plan, RoundEnd, Rounds};
use crate::stats;
use crate::trace::{TraceParent, Tracer};

pub mod atomics;
pub mod map;
pub mod procmix;
pub mod queue;
pub mod reclaim;

/// Name and reason of every workload, in the order they run. The reasons
/// are the `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "map-read",
        "ShardedHashMap, 2^16 keys, Zipf 0.99, 90% get / 5% insert / 5% remove: chain search and the combining AM path do the work, half the ops are remote-routed, epoch only pins",
    ),
    (
        "map-write",
        "Same map and keys at 50% get / 25% insert / 25% remove: node allocation, defer_delete, reclamation and DCAS unlink run on half the ops, so a read-path gain that taxes writers shows",
    ),
    (
        "queue-mailbox",
        "One MsQueue per locale, each driver enqueues to the other's and dequeues its own: ABA DCAS over the AM path, RDMA-path reads and one deferred node per dequeue; router and combining bypassed",
    ),
    (
        "reclaim-churn",
        "The paper's Fig. 4 loop: pin / defer_delete / unpin over pre-allocated objects, half on the other locale, try_reclaim every 1024: limbo lists, election and bulk remote free do all the work",
    ),
    (
        "atomics-local",
        "Fig. 3 shared-memory panel: read/write/CAS/exchange on task-private AtomicObject and ABA cells, zero AMs: the control on which any AM, combining, epoch or transport change must show no change",
    ),
    (
        "proc-mix",
        "Two ProcEngine ranks over real loopback TCP, both driving the peer with fetch_add, dcas, 64-byte get/put, read_wide and a handler call: wire codec, ProcEngine and the kernel do all the work",
    ),
];

/// Reasons an output check failed, and the counts behind `failed_ops_share`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Account `attempted` operations of which `failed` gave a wrong output.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("{failed} of {attempted} {what}"));
        }
    }

    /// `failed ÷ attempted`: the benchmark's `failed_ops_share`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One end-of-run condition.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Three rounds per workload, one set-up: numbers are not comparable.
    pub quick: bool,
}

pub trait Workload {
    /// A constructed runtime plus the preloaded structure.
    type Instance;
    /// How many instances an untraced run sets up, measures and tears down.
    fn episodes(&self) -> usize;
    fn plan(&self, opts: &Opts) -> Plan;
    fn setup(&self) -> Self::Instance;
    fn measure(
        &self,
        inst: &Self::Instance,
        plan: &Plan,
        tracer: TraceParent<'_>,
        checks: &mut Checks,
    ) -> Measured;
    fn teardown(&self, inst: Self::Instance, checks: &mut Checks);
}

/// Time-based rounds: thirty of them fill `seconds`.
pub fn timed_rounds(opts: &Opts, batch: u32, sample_cap: usize) -> Plan {
    let rounds = if opts.quick { 3 } else { 30 };
    Plan {
        round: RoundEnd::After(Duration::from_secs_f64(opts.seconds / rounds as f64)),
        rounds: Rounds::Exactly(rounds),
        batch,
        sample_cap,
    }
}

/// Count-based rounds of `ops` per driver, as many as fit `seconds`.
pub fn counted_rounds(opts: &Opts, ops: u64, batch: u32, sample_cap: usize) -> Plan {
    Plan {
        round: RoundEnd::Ops(ops),
        rounds: if opts.quick {
            Rounds::Exactly(3)
        } else {
            Rounds::For(Duration::from_secs_f64(opts.seconds))
        },
        batch,
        sample_cap,
    }
}

pub struct Report {
    pub setup_s: Vec<f64>,
    pub teardown_s: Vec<f64>,
    pub measured: Measured,
    pub checks: Checks,
}

/// Run one workload. Untraced, the run is [`Workload::episodes`] episodes
/// — set up, measure an equal share of the rounds, tear down — so the
/// set-ups and teardowns behind `setup_s` and `teardown_s` are spread over
/// the whole run like the rounds are, and a stretch of seconds in which the
/// host runs slower reaches a minority of each. Traced (or quick), it is one
/// episode, with `setup`, `measure` and `teardown` spans under `tracer`'s root.
pub fn run<W: Workload>(w: &W, opts: &Opts, tracer: TraceParent<'_>) -> Report {
    let episodes = if opts.quick || tracer.is_some() {
        1
    } else {
        w.episodes()
    };
    let plan = w.plan(opts).per_episode(episodes);
    let mut checks = Checks::default();
    let (mut setup_s, mut teardown_s) = (Vec::new(), Vec::new());
    let mut measured: Option<Measured> = None;
    for _ in 0..episodes {
        let inst = Tracer::spanned(tracer, "setup", |_| {
            let t = Instant::now();
            let inst = w.setup();
            setup_s.push(t.elapsed().as_secs_f64());
            affinity::breathe(t);
            inst
        });
        let m = Tracer::spanned(tracer, "measure", |parent| {
            w.measure(&inst, &plan, parent, &mut checks)
        });
        match &mut measured {
            Some(all) => all.absorb(m),
            None => measured = Some(m),
        }
        Tracer::spanned(tracer, "teardown", |_| {
            let t = Instant::now();
            w.teardown(inst, &mut checks);
            teardown_s.push(t.elapsed().as_secs_f64());
            affinity::breathe(t);
        });
    }
    Report {
        setup_s,
        teardown_s,
        measured: measured.expect("at least one episode"),
        checks,
    }
}

/// Dispatch on the workload's name; `None` for a name that is not one.
pub fn run_named(name: &str, opts: &Opts, tracer: TraceParent<'_>) -> Option<Report> {
    Some(match name {
        "map-read" => run(&map::MapMix::new(opts.seed, map::READ_MOSTLY), opts, tracer),
        "map-write" => run(&map::MapMix::new(opts.seed, map::WRITE_HEAVY), opts, tracer),
        "queue-mailbox" => run(&queue::Mailbox, opts, tracer),
        "reclaim-churn" => run(&reclaim::Churn::new(opts.seed), opts, tracer),
        "atomics-local" => run(&atomics::LocalMix::new(opts.seed), opts, tracer),
        "proc-mix" => run(&procmix::ProcMix, opts, tracer),
        _ => return None,
    })
}

/// One line on the sizes `name` runs at, for the summary's header.
pub fn sizes_of(name: &str) -> String {
    match name {
        "map-read" | "map-write" => map::sizes(),
        "queue-mailbox" => queue::sizes(),
        "reclaim-churn" => reclaim::sizes(),
        "atomics-local" => atomics::sizes(),
        "proc-mix" => procmix::sizes(),
        _ => String::new(),
    }
}

/// A named value with its unit, in the order produced.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The end-to-end metrics of an untraced run. All host wall clock;
/// the simulated clock is a per-layer number (`sim.vtime_ns_per_op`).
pub fn end_to_end(r: &Report) -> Metrics {
    let m = &r.measured;
    let mut out = Metrics::default();
    out.put("ops_per_s", stats::median(&m.round_rates(false)), "1/s");
    out.put("op_p50_us", m.op_us(50.0), "us");
    out.put(
        "cpu_user_us_per_op",
        stats::median(&m.round_user_us_per_op()),
        "us",
    );
    out.put("setup_s", stats::median(&r.setup_s), "s");
    out.put("teardown_s", stats::midmean(&r.teardown_s), "s");
    out.put("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
    out
}
