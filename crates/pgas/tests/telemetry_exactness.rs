//! Exactness of the per-thread-sharded telemetry registry.
//!
//! `Registry` recording is a plain load + store on a shard only the
//! recording thread writes (`pgas_sim::per_thread`), and a snapshot merges
//! the shards. These tests pin that no interleaving of `add` / `record` /
//! `add_record` / `snapshot` / `reset` / thread exit loses or invents a
//! count: every counter and every histogram bucket, count, sum and max
//! equals what a sequential model of the same script holds — at every
//! snapshot that a hand-off orders after the writes, and after the final
//! join. A histogram's count has no cell of its own (the snapshot totals
//! the buckets), so the model's count checks that derivation.
//!
//! A third property drives a runtime's registries through the charge path
//! (`engine::atomic_u64`, which records into the shard the thread's context
//! record caches) between context entries, nested ones included, and
//! across thread exits, mixed with direct registry calls.
//!
//! The last test pins the one place the runtime itself depends on that
//! ordering: an active message's `am_handled` count must be visible to the
//! sender the moment its blocking call returns.

use std::sync::{mpsc, Arc};

use proptest::prelude::*;

use pgas_sim::stats::Counter;
use pgas_sim::telemetry::{HistSnapshot, OpClass, Registry, TelemetrySnapshot};
use pgas_sim::{ctx, engine, LocaleId, Runtime, RuntimeConfig};

/// The sequential reference: what the registry must report.
#[derive(Clone)]
struct Model {
    counters: Vec<u64>,
    hists: Vec<HistSnapshot>,
    /// Samples per class, counted apart from the buckets.
    samples: Vec<u64>,
}

impl Model {
    fn new() -> Model {
        Model {
            counters: vec![0; Counter::ALL.len()],
            hists: vec![HistSnapshot::default(); OpClass::COUNT],
            samples: vec![0; OpClass::COUNT],
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Add(c, n) => {
                self.counters[c as usize] = self.counters[c as usize].wrapping_add(n);
            }
            Op::Record(class, v) => {
                self.hists[class as usize].record(v);
                self.samples[class as usize] += 1;
            }
            Op::AddRecord(c, class, v) => {
                self.apply(Op::Add(c, 1));
                self.apply(Op::Record(class, v));
            }
        }
    }

    fn check(&self, got: &TelemetrySnapshot, when: &str) -> Result<(), TestCaseError> {
        for &c in Counter::ALL {
            prop_assert_eq!(
                got.comm.get(c),
                self.counters[c as usize],
                "{:?} {}",
                c,
                when
            );
        }
        for class in OpClass::ALL {
            prop_assert_eq!(
                got.class(class).count(),
                self.samples[class as usize],
                "{} count {}",
                class,
                when
            );
            prop_assert_eq!(
                got.class(class),
                &self.hists[class as usize],
                "{} histogram {}",
                class,
                when
            );
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(Counter, u64),
    Record(OpClass, u64),
    AddRecord(Counter, OpClass, u64),
}

impl Op {
    fn run(self, r: &Registry) {
        match self {
            Op::Add(c, n) => r.add(c, n),
            Op::Record(class, v) => r.record(class, v),
            Op::AddRecord(c, class, v) => r.add_record(c, class, v),
        }
    }
}

/// Decode one generated `(selector, index, value)` triple. Values cover the
/// whole `u64` range on purpose: `vtime::charge` saturates, so `u64::MAX`
/// samples are real and `sum` must wrap the same way in model and registry.
fn decode(sel: u64, idx: usize, value: u64) -> Op {
    // A third of the values are extreme, the rest small enough to collide
    // in low buckets.
    let value = match value % 3 {
        0 => u64::MAX - value % 7,
        1 => value % 1000,
        _ => value,
    };
    let counter = Counter::ALL[idx % Counter::ALL.len()];
    let class = OpClass::ALL[idx % OpClass::COUNT];
    match sel % 3 {
        0 => Op::Add(counter, value),
        1 => Op::Record(class, value),
        _ => Op::AddRecord(counter, class, value),
    }
}

/// One step of a recording thread.
type Job = Box<dyn FnOnce() + Send>;

/// A recording thread driven one step at a time: the channel hand-off
/// forces the interleaving the script names, and orders each step before
/// the driver's next snapshot.
struct Worker {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Worker {
    fn spawn() -> Worker {
        let (jobs, rx) = mpsc::channel::<Job>();
        let (ack, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for job in rx {
                job();
                ack.send(()).unwrap();
            }
        });
        Worker { jobs, done, thread }
    }

    fn run(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs.send(Box::new(job)).unwrap();
        self.done.recv().unwrap();
    }

    fn exit(self) {
        drop(self.jobs);
        self.thread.join().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forced interleavings: every step names a thread slot and what it
    /// does — record, snapshot (checked against the model on the spot),
    /// reset (all workers idle: the quiescence contract), or exit (the
    /// slot's next op runs on a fresh thread, the old shard folded).
    #[test]
    fn forced_interleavings_match_the_sequential_model(
        steps in proptest::collection::vec((0usize..4, 0u64..16, 0usize..64, 0u64..=u64::MAX), 1..120),
    ) {
        // Leaked: worker threads need `'static`, and 14 KB per case is
        // cheaper than an `Arc` in every op.
        let r: &'static Registry = Box::leak(Box::new(Registry::default()));
        let mut model = Model::new();
        let mut workers: Vec<Option<Worker>> = (0..4).map(|_| None).collect();
        for (i, &(slot, kind, idx, value)) in steps.iter().enumerate() {
            match kind {
                0 => model.check(&r.telemetry_snapshot(), &format!("at step {i}"))?,
                1 => {
                    r.reset();
                    model = Model::new();
                }
                2 => {
                    if let Some(w) = workers[slot].take() {
                        w.exit();
                    }
                }
                _ => {
                    let op = decode(kind, idx, value);
                    workers[slot].get_or_insert_with(Worker::spawn).run(move || op.run(r));
                    model.apply(op);
                }
            }
        }
        let live = workers.iter().flatten().count();
        prop_assert_eq!(r.live_shards(), live, "one shard per live recording thread");
        for w in workers.into_iter().flatten() {
            w.exit();
        }
        prop_assert_eq!(r.live_shards(), 0, "every exit folded its shard");
        model.check(&r.telemetry_snapshot(), "after the final join")?;
    }

    /// Free-running threads: each runs its own script with no hand-off,
    /// short scripts exit while long ones still record, and a reader
    /// snapshots throughout. After the join the totals are the model's —
    /// sums commute, and nothing a concurrent snapshot or fold does may
    /// disturb them.
    #[test]
    fn concurrent_threads_sum_exactly_after_join(
        scripts in proptest::collection::vec(
            proptest::collection::vec((2u64..16, 0usize..64, 0u64..=u64::MAX), 0..400),
            1..6,
        ),
    ) {
        let r = Registry::default();
        let mut model = Model::new();
        let scripts: Vec<Vec<Op>> = scripts
            .iter()
            .map(|s| s.iter().map(|&(k, i, v)| decode(k, i, v)).collect())
            .collect();
        for op in scripts.iter().flatten() {
            model.apply(*op);
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    // Histogram counts only grow while nobody resets.
                    let t = r.telemetry_snapshot();
                    for class in OpClass::ALL {
                        assert!(t.class(class).count() <= model.samples[class as usize]);
                    }
                }
            });
            let writers: Vec<_> = scripts
                .iter()
                .map(|script| s.spawn(|| script.iter().for_each(|op| op.run(&r))))
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            reader.join().unwrap();
        });
        prop_assert_eq!(r.live_shards(), 0);
        model.check(&r.telemetry_snapshot(), "after join")?;
    }
}

/// Charge `n` 64-bit atomics on a cell of the current locale through the
/// routing path: without network atomics, `n` CPU atomics.
fn charge_here(n: u64) {
    for _ in 0..n {
        ctx::with_core(|core, here| engine::atomic_u64(core, here, here, || ()));
    }
}

/// What a charge-path step does, for the model.
fn charges(model: &mut Model, n: u64, ns: u64) {
    for _ in 0..n {
        model.apply(Op::AddRecord(Counter::CpuAtomics, OpClass::CpuAtomic, ns));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced interleavings on a runtime's two registries: a step records
    /// directly on a locale's registry, or charges through a fresh
    /// `run_on` context (whose first charge resolves the shard its record
    /// caches), or charges, enters the other locale and charges there, and
    /// charges again after the nested guard restored the outer context.
    /// Snapshots, resets and thread exits as above.
    #[test]
    fn charge_path_steps_between_context_entries_match_the_model(
        steps in proptest::collection::vec((0usize..3, 0u64..12, 0usize..64, 0u64..=u64::MAX), 1..80),
    ) {
        let rt = Arc::new(Runtime::new(RuntimeConfig::cluster(2).without_network_atomics()));
        let ns = rt.config.network.cpu_atomic_ns;
        let mut models = [Model::new(), Model::new()];
        let mut workers: Vec<Option<Worker>> = (0..3).map(|_| None).collect();
        for (i, &(slot, kind, idx, value)) in steps.iter().enumerate() {
            let l = (idx % 2) as LocaleId;
            let other = 1 - l;
            let (n, m) = (1 + value % 5, 1 + (value >> 8) % 3);
            let rt2 = rt.clone();
            let job: Job = match kind {
                0 => {
                    for l in 0..2 {
                        let got = rt.locale(l).stats.telemetry_snapshot();
                        models[l as usize].check(&got, &format!("locale {l} at step {i}"))?;
                    }
                    continue;
                }
                1 => {
                    rt.locales().for_each(|loc| loc.stats.reset());
                    models = [Model::new(), Model::new()];
                    continue;
                }
                2 => {
                    if let Some(w) = workers[slot].take() {
                        w.exit();
                    }
                    continue;
                }
                3..=5 => {
                    let op = decode(kind, idx, value);
                    models[l as usize].apply(op);
                    Box::new(move || op.run(&rt2.locale(l).stats))
                }
                6..=8 => {
                    charges(&mut models[l as usize], n, ns);
                    Box::new(move || rt2.run_on(l, || charge_here(n)))
                }
                _ => {
                    charges(&mut models[l as usize], 2 * n, ns);
                    charges(&mut models[other as usize], m, ns);
                    Box::new(move || {
                        rt2.run_on(l, || {
                            charge_here(n);
                            rt2.run_on(other, || charge_here(m));
                            charge_here(n);
                        })
                    })
                }
            };
            workers[slot].get_or_insert_with(Worker::spawn).run(job);
        }
        for w in workers.into_iter().flatten() {
            w.exit();
        }
        for l in 0..2 {
            let got = rt.locale(l).stats.telemetry_snapshot();
            models[l as usize].check(&got, &format!("locale {l} after the final join"))?;
        }
    }
}

/// `progress_loop` counts `am_handled` and samples `AmQueue` *before* the
/// handler body, because the body's last act is the reply and the unblocked
/// sender may read the stats at once. With shards that count is a plain
/// store by the progress thread; the reply hand-off must publish it.
#[test]
fn am_counts_are_visible_to_the_unblocked_sender() {
    let rt = Runtime::cluster(2);
    rt.run(|| {
        for i in 1..=20_000u64 {
            rt.on(1, || {});
            let there = rt.locale(1).stats.telemetry_snapshot();
            assert_eq!(there.comm.am_handled, i, "am_handled behind the reply");
            assert_eq!(there.class(OpClass::AmQueue).count(), i);
            let here = rt.locale(0).stats.telemetry_snapshot();
            assert_eq!(here.comm.am_sent, i);
            assert_eq!(here.class(OpClass::AmRoundTrip).count(), i);
        }
    });
}
