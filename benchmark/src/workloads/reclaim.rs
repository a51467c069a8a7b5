//! `reclaim-churn`: the paper's Fig. 4 deletion loop.

use std::sync::Mutex;

use pgas_nb::prelude::*;

use super::{counted_rounds, Checks, Opts, Workload};
use crate::harness::{measure, on_both, sim_runtime, DriverTask, Measured, Plan, Sim};
use crate::rng::Rng;
use crate::trace::TraceParent;

/// Deletions per timed sample, each sample ending in one `try_reclaim`.
pub const BATCH: u32 = 1024;
/// Objects each driver deletes per round. They are allocated untimed: the
/// first round's in set-up, every later round's after the round before it.
const ROUND_OBJECTS: u64 = 32 * BATCH as u64;
/// One owner choice per object of a round; the same choices every round.
const REMOTE_SHARE_PCT: u64 = 50;

pub struct Churn {
    /// `remote[l][i]`: driver `l` allocates its `i`-th object of a round on
    /// the other locale.
    remote: [Vec<bool>; 2],
}

impl Churn {
    pub fn new(seed: u64) -> Churn {
        Churn {
            remote: [0, 1].map(|l| remote_choices(seed, 0x200 + l, ROUND_OBJECTS as usize)),
        }
    }
}

pub fn remote_choices(seed: u64, lane: u64, n: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed, lane);
    (0..n).map(|_| rng.below(100) < REMOTE_SHARE_PCT).collect()
}

/// One round's worth of live objects per driver.
type Objects = Vec<Mutex<Vec<GlobalPtr<u64>>>>;

pub struct ChurnInstance {
    // Dropped before the runtime it lives in.
    em: EpochManager,
    rt: Runtime,
    /// Allocated and not yet deleted: by set-up for the first round, by the
    /// drivers (after their last round) for teardown.
    objects: Objects,
    /// Deletions the drivers issued, for teardown's books.
    deferred: Mutex<u64>,
}

/// Allocate one object per entry of `remote` — on the other locale where it
/// says so — as a task on locale `here`.
pub fn allocate(rt: &RuntimeHandle, here: usize, remote: &[bool], out: &mut Vec<GlobalPtr<u64>>) {
    let other = (1 - here) as LocaleId;
    out.extend(remote.iter().enumerate().map(|(i, &r)| {
        if r {
            alloc_on(rt, other, i as u64)
        } else {
            alloc_local(rt, i as u64)
        }
    }));
}

/// The Fig. 4 loop body over everything in `objects`.
fn retire(tok: &Token<'_>, objects: &mut Vec<GlobalPtr<u64>>) -> u64 {
    let n = objects.len() as u64;
    while let Some(obj) = objects.pop() {
        tok.pin();
        tok.defer_delete(obj);
        tok.unpin();
    }
    n
}

struct ChurnDriver<'a> {
    tok: Token<'a>,
    rt: RuntimeHandle,
    here: usize,
    remote: &'a [bool],
    objects: Vec<GlobalPtr<u64>>,
    deferred: u64,
}

impl DriverTask for ChurnDriver<'_> {
    /// Deletions issued, and the objects allocated for a round that never ran.
    type Out = (u64, Vec<GlobalPtr<u64>>);

    fn prepare(&mut self) {
        allocate(&self.rt, self.here, self.remote, &mut self.objects);
    }

    fn step(&mut self) {
        for _ in 0..BATCH {
            let obj = self
                .objects
                .pop()
                .expect("a round deletes what was allocated for it");
            self.tok.pin();
            self.tok.defer_delete(obj);
            self.tok.unpin();
        }
        self.deferred += BATCH as u64;
        self.tok.try_reclaim();
    }

    fn finish(self) -> Self::Out {
        (self.deferred, self.objects)
    }
}

/// One line on the sizes in use, for the summary's header.
pub fn sizes() -> String {
    format!(
        "{ROUND_OBJECTS} objects per driver per round, {REMOTE_SHARE_PCT}% on the other locale, \
         try_reclaim every {BATCH} (one timed sample = {BATCH} deletions + 1 try_reclaim); set-up \
         allocates the first round's objects, teardown retires one round's and clears"
    )
}

impl Workload for Churn {
    type Instance = ChurnInstance;

    fn episodes(&self) -> usize {
        10
    }

    fn plan(&self, opts: &Opts) -> Plan {
        counted_rounds(opts, ROUND_OBJECTS, BATCH, 1 << 16)
    }

    /// Runtime, manager, and the first round's objects ("until the first
    /// timed round").
    fn setup(&self) -> ChurnInstance {
        let rt = sim_runtime(RuntimeConfig::cluster(2));
        let em = rt.run(EpochManager::new);
        let objects = on_both(&Sim(&rt), &|l| {
            let mut mine = Vec::with_capacity(ROUND_OBJECTS as usize);
            allocate(&rt.handle(), l, &self.remote[l], &mut mine);
            Mutex::new(mine)
        });
        ChurnInstance {
            em,
            rt,
            objects,
            deferred: Mutex::new(0),
        }
    }

    fn measure(
        &self,
        inst: &ChurnInstance,
        plan: &Plan,
        tracer: TraceParent<'_>,
        _checks: &mut Checks,
    ) -> Measured {
        let (measured, outs) = measure(&Sim(&inst.rt), plan, tracer, &|l| ChurnDriver {
            tok: inst.em.register(),
            rt: inst.rt.handle(),
            here: l,
            remote: &self.remote[l],
            objects: std::mem::take(&mut *inst.objects[l].lock().expect("objects poisoned")),
            deferred: 0,
        });
        let mut deferred = inst.deferred.lock().expect("count poisoned");
        for (l, (n, left)) in outs.into_iter().enumerate() {
            *deferred += n;
            *inst.objects[l].lock().expect("objects poisoned") = left;
        }
        measured
    }

    /// Retire the round's worth of objects still live, then
    /// `EpochManager::clear` — the teardown users pay. After it nothing may be
    /// left behind: every object deferred was freed, the heaps are empty.
    fn teardown(&self, inst: ChurnInstance, checks: &mut Checks) {
        let ChurnInstance {
            em,
            rt,
            objects,
            deferred,
        } = inst;
        let retired = on_both(&Sim(&rt), &|l| {
            retire(
                &em.register(),
                &mut objects[l].lock().expect("objects poisoned"),
            )
        });
        let deferred = deferred.into_inner().expect("count poisoned") + retired.iter().sum::<u64>();
        let stats = rt.run(|| {
            em.clear();
            let stats = em.stats();
            drop(em);
            stats
        });
        let live = rt.live_objects();
        let lost = deferred.abs_diff(stats.objects_reclaimed) + live.unsigned_abs();
        checks.ops(
            deferred,
            lost.min(deferred),
            &format!(
                "deletions unaccounted for (drivers deferred {deferred}, library counted {} \
                 deferred and {} reclaimed, {live} objects live)",
                stats.objects_deferred, stats.objects_reclaimed
            ),
        );
        checks.expect(stats.objects_deferred == deferred && live == 0, || {
            format!(
                "library counted {} deferrals, drivers issued {deferred}; {live} objects live",
                stats.objects_deferred
            )
        });
    }
}
