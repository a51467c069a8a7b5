//! The closed-loop driver shared by every workload.
//!
//! One process, two locales, **one driver task per locale** (the paper's
//! `coforall loc in Locales` shape): each driver issues its next operation
//! only when the previous one returned. The measured phase is a sequence of
//! equal rounds separated by barriers. Every locale drives at all times —
//! a configuration that lets a core go idle flips between two modes 4x
//! apart from run to run, because a remote operation then pays an idle-core
//! wake-up in each direction.
//!
//! Everything here is host wall clock (`Instant`), except `vtime_ns`, which
//! is the library's simulated clock read through its public `vtime::now()`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pgas_nb::prelude::*;
use pgas_nb::sim::{vtime, CommSnapshot};

use crate::affinity;
use crate::host::{self, CpuTimes};
use crate::trace::{Span, TraceParent, OP_SAMPLE_EVERY};

/// Two locales, one driver each: the benchmark is sized for a two-core box.
pub const LOCALES: usize = 2;

/// The two locales a workload drives, whatever engine connects them.
pub trait Cluster: Sync {
    /// Run `f(l)` as one task on each locale, concurrently, and join.
    fn each_locale(&self, f: &(dyn Fn(usize) + Sync));
    /// Sum of the communication counters of every locale.
    fn comm(&self) -> CommSnapshot;
}

/// A simulator runtime with its progress threads placed (see [`affinity`]).
pub fn sim_runtime(config: RuntimeConfig) -> Runtime {
    let rt = Runtime::new(config);
    affinity::place_progress_threads();
    rt
}

/// Both locales inside one simulator runtime.
pub struct Sim<'a>(pub &'a Runtime);

impl Cluster for Sim<'_> {
    fn each_locale(&self, f: &(dyn Fn(usize) + Sync)) {
        self.0.run(|| {
            self.0.coforall_locales(|l| {
                affinity::pin_driver(l as usize);
                f(l as usize)
            })
        });
    }

    fn comm(&self) -> CommSnapshot {
        self.0.total_comm()
    }
}

/// One `ProcEngine` runtime per rank, wired over loopback TCP.
pub struct Proc<'a>(pub &'a [Runtime]);

impl Cluster for Proc<'_> {
    fn each_locale(&self, f: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .0
                .iter()
                .enumerate()
                .map(|(r, rt)| {
                    s.spawn(move || {
                        affinity::pin_driver(r);
                        rt.run(|| f(r))
                    })
                })
                .collect();
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
    }

    fn comm(&self) -> CommSnapshot {
        self.0
            .iter()
            .map(|rt| rt.total_comm())
            .fold(CommSnapshot::default(), |a, b| a + b)
    }
}

/// Run `f(l)` on both locales, released together; what each returned, by
/// locale.
pub fn on_both<R: Send>(c: &dyn Cluster, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
    let start = Barrier::new(LOCALES);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..LOCALES).map(|_| None).collect());
    c.each_locale(&|l| {
        start.wait();
        let r = f(l);
        out.lock().expect("a task on the other locale panicked")[l] = Some(r);
    });
    out.into_inner()
        .expect("a task on the other locale panicked")
        .into_iter()
        .map(|r| r.expect("both locales ran the task"))
        .collect()
}

/// What one driver does. Created on the driver's own thread, inside its
/// locale, so tokens register where they are used.
pub trait DriverTask {
    /// What the driver hands back for the output checks.
    type Out: Send;
    /// Untimed work after every round, the last one too (e.g. allocating the
    /// objects the next round of `reclaim-churn` deletes; what the last call
    /// prepared is handed back by `finish`). The first round's inputs come
    /// from set-up.
    fn prepare(&mut self) {}
    /// One timed sample: `Plan::batch` operations.
    fn step(&mut self);
    fn finish(self) -> Self::Out;
}

#[derive(Debug, Clone, Copy)]
pub enum RoundEnd {
    /// Each driver stops at the first operation boundary past this long.
    After(Duration),
    /// Each driver does exactly this many operations (a multiple of the
    /// batch). For workloads whose drivers depend on each other's progress.
    Ops(u64),
}

#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    Exactly(usize),
    /// As many as fit, and at least three.
    For(Duration),
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub round: RoundEnd,
    pub rounds: Rounds,
    /// Operations per timed sample: 1 where an operation takes microseconds,
    /// 1024 where it takes nanoseconds and a clock read would dominate.
    pub batch: u32,
    /// Raw samples kept per driver. The buffer is touched before the first
    /// round, so peak memory does not depend on how fast the program ran; with
    /// a fixed number of rounds each round may fill an equal share of it, so
    /// a faster program drops the tail of every round, not the last rounds.
    pub sample_cap: usize,
}

impl Plan {
    /// This plan's share of a run cut into `episodes` equal measured phases,
    /// each on an instance of its own.
    pub fn per_episode(self, episodes: usize) -> Plan {
        Plan {
            rounds: match self.rounds {
                Rounds::Exactly(n) => Rounds::Exactly(n.div_ceil(episodes)),
                Rounds::For(d) => Rounds::For(d / episodes as u32),
            },
            sample_cap: self.sample_cap / episodes,
            ..self
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Operations both drivers completed.
    pub ops: u64,
    /// The longer of the two drivers' times.
    pub secs: f64,
    /// Simulated nanoseconds (the later of the two drivers' clocks).
    pub vtime_ns: u64,
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Process CPU time and communication counters over the timed part.
    pub cpu: CpuTimes,
    pub comm: CommSnapshot,
}

pub struct Measured {
    pub rounds: Vec<Round>,
    /// Nanoseconds per sample (one batch), both drivers, every round,
    /// ascending.
    pub samples: Vec<u32>,
    /// Samples that did not fit `Plan::sample_cap`.
    pub samples_dropped: u64,
    pub batch: u32,
}

impl Measured {
    /// Add the rounds and samples of another episode of the same plan.
    pub fn absorb(&mut self, other: Measured) {
        assert_eq!(self.batch, other.batch, "episodes of one plan");
        self.rounds.extend(other.rounds);
        self.samples.extend(other.samples);
        self.samples.sort_unstable();
        self.samples_dropped += other.samples_dropped;
    }

    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Microseconds of user CPU per operation in each round.
    pub fn round_user_us_per_op(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.cpu.user_s * 1e6 / r.ops as f64)
            .collect()
    }

    /// Process CPU time over the timed part of every round (the untimed
    /// `prepare` is excluded).
    pub fn cpu(&self) -> CpuTimes {
        self.rounds.iter().fold(CpuTimes::default(), |mut a, r| {
            a += r.cpu;
            a
        })
    }

    /// Communication counters over the timed part of every round.
    pub fn comm(&self) -> CommSnapshot {
        self.rounds
            .iter()
            .fold(CommSnapshot::default(), |a, r| a + r.comm)
    }

    /// `p`-th percentile of the time of one operation, in microseconds.
    pub fn op_us(&self, p: f64) -> f64 {
        crate::stats::percentile(&self.samples, p) as f64 / self.batch as f64 / 1e3
    }

    /// Per-round throughput of the rounds with (`traced`) or without spans.
    pub fn round_rates(&self, traced: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.ops as f64 / r.secs)
            .collect()
    }
}

struct DriverLog {
    rounds: Vec<Round>,
    samples: Vec<u32>,
    dropped: u64,
}

/// Run the measured phase. With a tracer, every second round records a
/// `round` span per driver under span `parent` and one `op` span per
/// [`OP_SAMPLE_EVERY`] samples, so traced and untraced rounds alternate
/// through the same phase of the run and their throughputs can be compared.
pub fn measure<T: DriverTask>(
    cluster: &dyn Cluster,
    plan: &Plan,
    tracer: TraceParent<'_>,
    make: &(dyn Fn(usize) -> T + Sync),
) -> (Measured, Vec<T::Out>) {
    let barrier = Barrier::new(LOCALES);
    let stop = AtomicBool::new(false);
    let totals: Mutex<Vec<(CpuTimes, CommSnapshot)>> = Mutex::new(Vec::new());
    let batch = plan.batch as u64;
    let phase_start = Instant::now();

    let (logs, outs): (Vec<DriverLog>, Vec<T::Out>) = on_both(cluster, &|l| {
        let mut task = make(l);
        // Non-zero fill so every page is resident before the first round.
        let mut samples = vec![1u32; plan.sample_cap];
        samples.clear();
        let mut dropped = 0u64;
        let mut rounds: Vec<Round> = Vec::new();
        let mut spans: Vec<Span> = Vec::new();
        let mut op_index = 0u64;
        let mut busy_since = Instant::now();
        let round_quota = match plan.rounds {
            Rounds::Exactly(n) => plan.sample_cap / n,
            Rounds::For(_) => plan.sample_cap,
        };
        loop {
            let round_cap = (samples.len() + round_quota).min(plan.sample_cap);
            barrier.wait();
            // The leader reads the process-wide counters while the other
            // driver waits, so they bracket exactly the timed part.
            let before = (l == 0).then(|| (host::cpu_times(), cluster.comm()));
            barrier.wait();

            let traced = tracer.is_some() && rounds.len() % 2 == 1;
            let round_span = tracer.filter(|_| traced).map(|(t, _)| t.next_id());
            let v0 = vtime::now();
            let t0 = Instant::now();
            let mut prev = t0;
            let mut ops = 0u64;
            loop {
                task.step();
                let now = Instant::now();
                ops += batch;
                let ns = (now - prev).as_nanos().min(u32::MAX as u128) as u32;
                if samples.len() < round_cap {
                    samples.push(ns);
                } else {
                    dropped += 1;
                }
                if let (Some((t, _)), Some(round_id)) = (tracer, round_span) {
                    if (ops / batch).is_multiple_of(OP_SAMPLE_EVERY as u64) {
                        spans.push(Span {
                            name: "op",
                            id: t.next_id(),
                            parent: round_id,
                            op: op_index + ops - batch,
                            start_ns: t.ns(prev),
                            end_ns: t.ns(now),
                            every: OP_SAMPLE_EVERY,
                        });
                    }
                }
                prev = now;
                let done = match plan.round {
                    RoundEnd::After(d) => now - t0 >= d,
                    RoundEnd::Ops(q) => ops >= q,
                };
                if done {
                    break;
                }
            }
            let vtime_ns = vtime::now() - v0;
            if let (Some((t, parent)), Some(id)) = (tracer, round_span) {
                spans.push(Span {
                    name: "round",
                    id,
                    parent,
                    op: 0,
                    start_ns: t.ns(t0),
                    end_ns: t.ns(prev),
                    every: 1,
                });
            }
            op_index += ops;
            rounds.push(Round {
                ops,
                secs: (prev - t0).as_secs_f64(),
                vtime_ns,
                traced,
                ..Round::default()
            });

            barrier.wait();
            if let Some((cpu0, comm0)) = before {
                totals
                    .lock()
                    .expect("totals poisoned")
                    .push((host::cpu_times() - cpu0, cluster.comm() - comm0));
                let done = match plan.rounds {
                    Rounds::Exactly(n) => rounds.len() >= n,
                    Rounds::For(d) => rounds.len() >= 3 && phase_start.elapsed() >= d,
                };
                stop.store(done, Ordering::SeqCst);
            }
            barrier.wait();
            task.prepare();
            affinity::breathe(busy_since);
            busy_since = Instant::now();
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if let Some((t, _)) = tracer {
            t.extend(spans);
        }
        let log = DriverLog {
            rounds,
            samples,
            dropped,
        };
        (log, task.finish())
    })
    .into_iter()
    .unzip();

    let totals = totals.into_inner().expect("totals poisoned");
    let rounds = totals
        .into_iter()
        .enumerate()
        .map(|(r, (cpu, comm))| {
            logs.iter().fold(
                Round {
                    traced: logs[0].rounds[r].traced,
                    cpu,
                    comm,
                    ..Round::default()
                },
                |acc, log| Round {
                    ops: acc.ops + log.rounds[r].ops,
                    secs: acc.secs.max(log.rounds[r].secs),
                    vtime_ns: acc.vtime_ns.max(log.rounds[r].vtime_ns),
                    ..acc
                },
            )
        })
        .collect();
    let samples_dropped = logs.iter().map(|l| l.dropped).sum();
    let mut samples: Vec<u32> = logs.into_iter().flat_map(|l| l.samples).collect();
    samples.sort_unstable();
    (
        Measured {
            rounds,
            samples,
            samples_dropped,
            batch: plan.batch,
        },
        outs,
    )
}
