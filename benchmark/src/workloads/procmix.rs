//! `proc-mix`: two `ProcEngine` ranks in this one process over real loopback
//! TCP (as `tests/engine_parity.rs` builds them), both driving the peer.
//! The traffic crosses the kernel's loopback interface, not a link: wire
//! latency and bandwidth are not measured here, per-message software cost is.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use pgas_nb::prelude::*;
use pgas_nb::sim::{handlers, symheap, EngineKind, HandlerId, RuntimeCore, SymOp64};
use pgas_net::ProcEngine;

use super::{timed_rounds, Checks, Opts, Workload};
use crate::affinity;
use crate::harness::{measure, Cluster, DriverTask, Measured, Plan, Proc, LOCALES};
use crate::trace::TraceParent;

// The same fixed layout on every rank's (zeroed) symmetric heap.
pub const OFF_COUNTER: u64 = 0; // fetch_add target
pub const OFF_HANDLER_COUNTER: u64 = 8; // bumped by the registered handler
pub const OFF_WIDE: u64 = 16; // 24-byte versioned wide cell
pub const OFF_GET: u64 = 64; // 64 bytes the owner wrote, peers GET
pub const OFF_PUT: u64 = 128; // 64 bytes peers PUT
pub const BUF: usize = 64;

/// Every sixteenth operation is a handler call; the rest go round-robin
/// over these five.
pub const HANDLER_EVERY: u64 = 16;
/// Operations per timed sample: one period of the mix. A single operation is
/// one round trip, two (`read_wide`) or one with a hop through the handler
/// thread, and the median of that mixture sits on the cliffs between them;
/// every period holds the same sixteen.
pub const PERIOD: u32 = HANDLER_EVERY as u32;
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    FetchAdd,
    Dcas,
    Get,
    Put,
    ReadWide,
    Handler,
}
pub const ROUND_ROBIN: [Op; 5] = [Op::FetchAdd, Op::Dcas, Op::Get, Op::Put, Op::ReadWide];

/// The bytes rank `rank` publishes at `OFF_GET` of its own heap.
pub fn get_pattern(rank: usize) -> [u8; BUF] {
    std::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(rank as u8 + 1))
}

/// The bytes a rank's `n`-th PUT carries.
fn put_pattern(rank: usize, n: u64) -> [u8; BUF] {
    std::array::from_fn(|i| (i as u8) ^ (n as u8) ^ ((rank as u8 + 1) << 6))
}

/// `args = [delta: u64 LE]`: fetch-add into the local heap's handler
/// counter, reply with the previous value.
fn bench_add(core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    let delta = u64::from_le_bytes(args[0..8].try_into().expect("8-byte handler argument"));
    core.locale(here())
        .sym
        .apply64(OFF_HANDLER_COUNTER, SymOp64::FetchAdd(delta))
        .to_le_bytes()
        .to_vec()
}

/// Operations each rank issues in set-up, before anything is timed: the
/// pooled connections exist and every code path of the mix has run once
/// "until the first timed round". Whole periods, so timed samples start on one.
pub const WARMUP_OPS: u64 = 32 * PERIOD as u64;

pub struct Ranks {
    pub runtimes: Vec<Runtime>,
    /// Each rank's model of what it did to its peer; a driver takes it for
    /// the measured phase and hands it back.
    pub peers: [Mutex<Option<Peer>>; LOCALES],
}

/// Bind two loopback listeners, start one runtime per rank, publish each
/// rank's GET pattern, and run [`WARMUP_OPS`] of the mix from both ranks.
pub fn connect() -> Ranks {
    let add = handlers::register("benchmark.add", bench_add);
    let listeners: Vec<TcpListener> = (0..LOCALES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener"))
        .collect();
    let peers: Vec<std::net::SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let runtimes: Vec<Runtime> = listeners
        .into_iter()
        .enumerate()
        .map(|(r, listener)| {
            // The engine's acceptor, readers and handler inherit the placement
            // of the thread that starts them.
            affinity::as_service_of(r, || {
                Runtime::with_engine(
                    RuntimeConfig::cluster(LOCALES)
                        .with_engine(EngineKind::Proc)
                        .with_vread_fastpath(true),
                    Box::new(ProcEngine::new(r as LocaleId, listener, peers.clone())),
                )
            })
        })
        .collect();
    for (r, rt) in runtimes.iter().enumerate() {
        rt.locale(r as LocaleId)
            .sym
            .write_bytes(OFF_GET, &get_pattern(r));
    }
    let peers = [0, 1].map(|r| Mutex::new(Some(Peer::new(r, add))));
    Proc(&runtimes).each_locale(&|r| {
        let mut guard = peers[r].lock().expect("peer poisoned");
        let peer = guard.as_mut().expect("peer present in set-up");
        for _ in 0..WARMUP_OPS {
            peer.next();
        }
    });
    Ranks { runtimes, peers }
}

impl Ranks {
    /// Compare every rank's heap with what its peer did to it, then shut
    /// each engine down from the core its threads run on.
    pub fn audit_and_close(self, checks: &mut Checks) {
        let Ranks { runtimes, peers } = self;
        for p in peers {
            let p = p
                .into_inner()
                .expect("peer poisoned")
                .expect("peer handed back");
            let peer = 1 - p.rank;
            p.audit(&runtimes[peer].locale(peer as LocaleId).sym, checks);
        }
        for (r, rt) in runtimes.into_iter().enumerate() {
            affinity::as_service_of(r, || drop(rt));
        }
    }
}

/// One rank's side of the mix, with the model of what the peer's heap holds:
/// this rank is the only writer of the peer's counter, wide cell and PUT
/// buffer, so every output is known exactly.
pub struct Peer {
    pub rank: usize,
    peer: LocaleId,
    add: HandlerId,
    wide: u128,
    pub issued: u64,
    pub fetch_adds: u64,
    pub handler_calls: u64,
    pub puts: u64,
    pub wrong: u64,
}

impl Peer {
    pub fn new(rank: usize, add: HandlerId) -> Peer {
        Peer {
            rank,
            peer: (1 - rank) as LocaleId,
            add,
            wide: 0,
            issued: 0,
            fetch_adds: 0,
            handler_calls: 0,
            puts: 0,
            wrong: 0,
        }
    }

    /// The operation `next` will issue.
    pub fn upcoming(&self) -> Op {
        if self.issued % HANDLER_EVERY == HANDLER_EVERY - 1 {
            Op::Handler
        } else {
            let n = self.issued - self.issued / HANDLER_EVERY;
            ROUND_ROBIN[(n % ROUND_ROBIN.len() as u64) as usize]
        }
    }

    pub fn next(&mut self) {
        let op = self.upcoming();
        self.issue(op);
    }

    /// Issue `op` against the peer and check what comes back.
    pub fn issue(&mut self, op: Op) {
        self.issued += 1;
        match op {
            Op::FetchAdd => {
                let prev = symheap::fetch_add(self.peer, OFF_COUNTER, 1);
                self.wrong += u64::from(prev != self.fetch_adds);
                self.fetch_adds += 1;
            }
            Op::Dcas => {
                let (ok, seen) = symheap::dcas(self.peer, OFF_WIDE, self.wide, self.wide + 1);
                self.wrong += u64::from(!ok || seen != self.wide);
                self.wide += 1;
            }
            Op::Get => {
                let mut buf = [0u8; BUF];
                symheap::get(self.peer, OFF_GET, &mut buf);
                self.wrong += u64::from(buf != get_pattern(self.peer as usize));
            }
            Op::Put => {
                self.puts += 1;
                symheap::put(self.peer, OFF_PUT, &put_pattern(self.rank, self.puts));
            }
            Op::ReadWide => {
                let seen = symheap::read_wide(self.peer, OFF_WIDE);
                self.wrong += u64::from(seen != self.wide);
            }
            Op::Handler => {
                let prev = handlers::call(self.peer, self.add, &1u64.to_le_bytes());
                self.wrong += u64::from(prev != self.handler_calls.to_le_bytes());
                self.handler_calls += 1;
            }
        }
    }

    /// Compare the peer's heap with what this rank did to it.
    pub fn audit(&self, peer_heap: &pgas_nb::sim::SymHeap, checks: &mut Checks) {
        let rank = self.rank;
        checks.ops(
            self.issued,
            self.wrong,
            "proc ops returned a value the peer's heap did not hold",
        );
        let counter = peer_heap.word(OFF_COUNTER).load(Ordering::SeqCst);
        checks.expect(counter == self.fetch_adds, || {
            format!(
                "rank {rank} issued {} fetch_adds, the peer's counter reads {counter}",
                self.fetch_adds
            )
        });
        let handled = peer_heap.word(OFF_HANDLER_COUNTER).load(Ordering::SeqCst);
        checks.expect(handled == self.handler_calls, || {
            format!(
                "rank {rank} made {} handler calls, the peer counted {handled}",
                self.handler_calls
            )
        });
        let wide = peer_heap.wide_load(OFF_WIDE);
        checks.expect(wide == self.wide, || {
            format!(
                "rank {rank} installed {} by dcas, the peer's wide cell reads {wide}",
                self.wide
            )
        });
        if self.puts > 0 {
            let mut buf = [0u8; BUF];
            peer_heap.read_bytes(OFF_PUT, &mut buf);
            checks.expect(buf == put_pattern(rank, self.puts), || {
                format!("the peer's PUT buffer does not hold rank {rank}'s last pattern")
            });
        }
    }
}

impl DriverTask for Peer {
    type Out = Peer;

    fn step(&mut self) {
        for _ in 0..PERIOD {
            self.next();
        }
    }

    fn finish(self) -> Peer {
        self
    }
}

pub struct ProcMix;

/// One line on the sizes in use, for the summary's header.
pub fn sizes() -> String {
    format!(
        "2 ranks over loopback TCP (not a link), round-robin fetch_add / dcas / get {BUF} B / \
         put {BUF} B / read_wide, handler call every {HANDLER_EVERY}th op (one timed sample = one period of {PERIOD} ops), \
         {WARMUP_OPS} warm-up ops per rank in set-up"
    )
}

impl Workload for ProcMix {
    type Instance = Ranks;

    fn episodes(&self) -> usize {
        30
    }

    fn plan(&self, opts: &Opts) -> Plan {
        timed_rounds(opts, PERIOD, 1 << 17)
    }

    fn setup(&self) -> Ranks {
        connect()
    }

    fn measure(
        &self,
        ranks: &Ranks,
        plan: &Plan,
        tracer: TraceParent<'_>,
        _checks: &mut Checks,
    ) -> Measured {
        let take = |r: usize| {
            ranks.peers[r]
                .lock()
                .expect("peer poisoned")
                .take()
                .expect("peer present")
        };
        let (measured, outs) = measure(&Proc(&ranks.runtimes), plan, tracer, &take);
        for p in outs {
            let slot = &ranks.peers[p.rank];
            *slot.lock().expect("peer poisoned") = Some(p);
        }
        measured
    }

    fn teardown(&self, ranks: Ranks, checks: &mut Checks) {
        ranks.audit_and_close(checks);
    }
}
