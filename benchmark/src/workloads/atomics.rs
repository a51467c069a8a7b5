//! `atomics-local`: the Fig. 3 shared-memory panel, and the control workload
//! — zero active messages, zero hand-offs.

use pgas_nb::prelude::*;

use super::{timed_rounds, Checks, Opts, Workload};
use crate::harness::{measure, on_both, sim_runtime, DriverTask, Measured, Plan, Sim};
use crate::rng::Rng;
use crate::trace::TraceParent;

/// Operations per timed sample: an operation takes tens of nanoseconds.
pub const BATCH: u32 = 1024;
/// Entries in one driver's input stream, one operation each.
const STREAM_LEN: usize = 1 << 20;
/// Objects each driver allocates in set-up and installs into its cells: a
/// pointer-compression working set of many addresses, not two. Teardown
/// frees them.
pub const POOL: usize = 1 << 16;

pub const READ: u8 = 0;
pub const WRITE: u8 = 1;
pub const CAS: u8 = 2;
pub const EXCHANGE: u8 = 3;

/// One entry per op: bits 0-1 the kind (25% each), bit 2 the cell (plain
/// or ABA-protected), bits 8 and up which pool object to install.
pub fn op_stream(seed: u64, lane: u64, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, lane);
    (0..len)
        .map(|_| {
            let r = rng.next_u64();
            ((r & 7) | ((r >> 8) % POOL as u64) << 8) as u32
        })
        .collect()
}

pub struct LocalMix {
    streams: [Vec<u32>; 2],
}

impl LocalMix {
    pub fn new(seed: u64) -> LocalMix {
        LocalMix {
            streams: [0, 1].map(|l| op_stream(seed, 0x300 + l, STREAM_LEN)),
        }
    }
}

/// One driver's objects, allocated on its own locale.
pub type Pool = Vec<GlobalPtr<u64>>;

/// Allocate a pool as a task on the locale that will use it.
pub fn allocate_pool(rt: &RuntimeHandle, n: usize) -> Pool {
    (0..n as u64).map(|i| alloc_local(rt, i)).collect()
}

/// Free a pool as a task on the locale that allocated it.
pub fn free_pool(rt: &RuntimeHandle, pool: &[GlobalPtr<u64>]) {
    for &o in pool {
        // SAFETY: allocated by `allocate_pool`, and every cell that pointed
        // into the pool has been dropped.
        unsafe { free(rt, o) };
    }
}

/// A task-private pair of cells on the driver's own locale, with the value
/// each must hold: nobody else touches them, so every output is known.
pub struct Cells<'a> {
    pool: &'a [GlobalPtr<u64>],
    plain: AtomicObject<u64>,
    aba: AtomicAbaObject<u64>,
    plain_now: GlobalPtr<u64>,
    aba_now: GlobalPtr<u64>,
    pub ops: u64,
    pub wrong: u64,
}

impl<'a> Cells<'a> {
    /// Cells on the calling task's own locale, which must own `pool`.
    pub fn new(pool: &'a [GlobalPtr<u64>]) -> Cells<'a> {
        Cells::new_on(here(), pool)
    }

    /// Cells owned by locale `owner`, used by the calling task only.
    pub fn new_on(owner: LocaleId, pool: &'a [GlobalPtr<u64>]) -> Cells<'a> {
        Cells {
            pool,
            plain: AtomicObject::new_on(owner, pool[0]),
            aba: AtomicAbaObject::new_on(owner, pool[0]),
            plain_now: pool[0],
            aba_now: pool[0],
            ops: 0,
            wrong: 0,
        }
    }

    #[inline]
    pub fn apply(&mut self, op: u32) {
        let target = self.pool[(op >> 8) as usize];
        self.ops += 1;
        if op >> 2 & 1 == 0 {
            let now = &mut self.plain_now;
            match (op & 3) as u8 {
                READ => self.wrong += u64::from(self.plain.read() != *now),
                WRITE => {
                    self.plain.write(target);
                    *now = target;
                }
                CAS => {
                    let cur = self.plain.read();
                    let ok = self.plain.compare_and_swap(cur, target);
                    self.wrong += u64::from(!ok || cur != *now);
                    *now = target;
                }
                _ => {
                    self.wrong += u64::from(self.plain.exchange(target) != *now);
                    *now = target;
                }
            }
        } else {
            let now = &mut self.aba_now;
            match (op & 3) as u8 {
                READ => self.wrong += u64::from(self.aba.read_aba().get_object() != *now),
                WRITE => {
                    self.aba.write_aba(target);
                    *now = target;
                }
                CAS => {
                    let cur = self.aba.read_aba();
                    let ok = self.aba.compare_and_swap_aba(cur, target);
                    self.wrong += u64::from(!ok || cur.get_object() != *now);
                    *now = target;
                }
                _ => {
                    self.wrong += u64::from(self.aba.exchange_aba(target).get_object() != *now);
                    *now = target;
                }
            }
        }
    }
}

struct LocalDriver<'a> {
    cells: Cells<'a>,
    stream: &'a [u32],
    cursor: usize,
}

impl DriverTask for LocalDriver<'_> {
    /// Operations done, and how many returned a wrong value.
    type Out = (u64, u64);

    fn step(&mut self) {
        let batch = &self.stream[self.cursor..self.cursor + BATCH as usize];
        self.cursor = (self.cursor + BATCH as usize) % self.stream.len();
        for &op in batch {
            self.cells.apply(op);
        }
    }

    fn finish(self) -> (u64, u64) {
        (self.cells.ops, self.cells.wrong)
    }
}

/// One line on the sizes in use, for the summary's header.
pub fn sizes() -> String {
    format!(
        "two task-private cells per driver (AtomicObject, AtomicAbaObject) over a pool of {POOL} \
         local objects per driver, input stream {STREAM_LEN} ops per driver, one timed sample = \
         {BATCH} ops"
    )
}

pub struct LocalInstance {
    /// One pool per driver, allocated on its locale.
    pools: Vec<Pool>,
    rt: Runtime,
}

impl Workload for LocalMix {
    type Instance = LocalInstance;

    fn episodes(&self) -> usize {
        30
    }

    fn plan(&self, opts: &Opts) -> Plan {
        timed_rounds(opts, BATCH, 1 << 18)
    }

    fn setup(&self) -> LocalInstance {
        let rt = sim_runtime(RuntimeConfig::cluster(2).without_network_atomics());
        let pools = on_both(&Sim(&rt), &|_| allocate_pool(&rt.handle(), POOL));
        LocalInstance { pools, rt }
    }

    fn measure(
        &self,
        inst: &LocalInstance,
        plan: &Plan,
        tracer: TraceParent<'_>,
        checks: &mut Checks,
    ) -> Measured {
        let (measured, outs) = measure(&Sim(&inst.rt), plan, tracer, &|l| LocalDriver {
            cells: Cells::new(&inst.pools[l]),
            stream: &self.streams[l],
            cursor: 0,
        });
        for (ops, wrong) in outs {
            checks.ops(
                ops,
                wrong,
                "atomic ops returned a value the cell did not hold",
            );
        }
        // The control property: not one active message, not one NIC atomic.
        let c = measured.comm();
        checks.expect(
            c.am_sent == 0 && c.rdma_atomics == 0 && c.gets + c.puts == 0,
            || {
                format!(
                    "atomics-local communicated: {} AMs, {} NIC atomics, {} GET/PUT",
                    c.am_sent,
                    c.rdma_atomics,
                    c.gets + c.puts
                )
            },
        );
        measured
    }

    fn teardown(&self, inst: LocalInstance, checks: &mut Checks) {
        let LocalInstance { pools, rt } = inst;
        on_both(&Sim(&rt), &|l| free_pool(&rt.handle(), &pools[l]));
        let live = rt.live_objects();
        checks.expect(live == 0, || format!("{live} objects live after teardown"));
    }
}
