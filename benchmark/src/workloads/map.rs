//! `map-read` and `map-write`: the global-view tier's headline mixes.

use std::hash::{Hash, Hasher};

use pgas_nb::prelude::*;

use super::{timed_rounds, Checks, Opts, Workload};
use crate::harness::{measure, sim_runtime, DriverTask, Measured, Plan, Sim, LOCALES};
use crate::rng::Rng;
use crate::trace::TraceParent;
use crate::zipf::Zipf;

pub const KEYS: u64 = 1 << 16;
pub const THETA: f64 = 0.99;
/// A11's bucket budget: eight keys per chain, split over the two shards.
pub const BUCKETS_PER_SHARD: usize = (KEYS as usize / 8) / 2;
/// Operations in one driver's input stream; the driver cycles through it.
const STREAM_LEN: usize = 1 << 19;

pub const GET: u64 = 0;
pub const INSERT: u64 = 1;
pub const REMOVE: u64 = 2;

/// Percent of `get`s; the rest splits evenly into `insert` and `remove`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get_pct: u64,
}
pub const READ_MOSTLY: Mix = Mix { get_pct: 90 };
pub const WRITE_HEAVY: Mix = Mix { get_pct: 50 };

/// The value stored under `key` by `writer`: the key is embedded, so every
/// `get` hit can be checked without knowing who wrote last.
pub fn value_for(key: u64, writer: u64) -> u64 {
    (key << 8) | writer
}

/// Share of each driver's operations, by Zipf mass, that lands on keys the
/// *other* locale owns. With one popularity order for both drivers the share
/// is exactly one half by symmetry, and the median operation then sits on
/// the cliff between the local population (about 1 us) and the remote one
/// (about 10 us), flipping sides from seed to seed. Five eighths puts the
/// median a safe fifth of the way into the remote population, where it
/// tracks the AM round trip.
pub const REMOTE_MASS: f64 = 0.625;

/// Stream entry: `kind << 62 | remote << 61 | key`.
pub const REMOTE_BIT: u64 = 1 << 61;
const KEY_MASK: u64 = REMOTE_BIT - 1;

/// The locale that owns `key`: the library's routing function over the
/// library's key hash, both computable before any runtime exists.
pub fn owner_of(key: u64) -> usize {
    pgas_nb::sim::shard::owner_of(key_hash(key), LOCALES) as usize
}

/// Driver `l`'s popularity order: `order[rank]` is the key of that rank,
/// with [`REMOTE_BIT`] set when the other locale owns it. Keys are dealt out
/// rank by rank, from the remote-owned pile whenever the remote share of the
/// mass dealt so far is behind [`REMOTE_MASS`], so the share holds at every
/// popularity level.
pub fn popularity_order(l: usize, keys: u64, theta: f64) -> Vec<u64> {
    let (mut local, mut remote): (Vec<u64>, Vec<u64>) = (0..keys).partition(|&k| owner_of(k) == l);
    local.reverse();
    remote.reverse();
    let (mut mass, mut remote_mass) = (0.0, 0.0);
    (1..=keys)
        .map(|rank| {
            let p = (rank as f64).powf(-theta);
            let take_remote = if local.is_empty() || remote.is_empty() {
                local.is_empty()
            } else {
                remote_mass <= REMOTE_MASS * mass
            };
            mass += p;
            if take_remote {
                remote_mass += p;
                remote.pop().expect("one key per rank") | REMOTE_BIT
            } else {
                local.pop().expect("one key per rank")
            }
        })
        .collect()
}

/// One driver's inputs, drawn from `(seed, lane)`: a Zipf rank looked up in
/// the driver's popularity `order`, and an operation kind from the mix.
pub fn op_stream(
    seed: u64,
    lane: u64,
    mix: Mix,
    zipf: &Zipf,
    order: &[u64],
    len: usize,
) -> Vec<u64> {
    let mut rng = Rng::new(seed, lane);
    let writes = 100 - mix.get_pct;
    (0..len)
        .map(|_| {
            let key = order[zipf.sample(&mut rng) as usize];
            let dice = rng.below(100);
            let kind = if dice < mix.get_pct {
                GET
            } else if dice < mix.get_pct + writes / 2 {
                INSERT
            } else {
                REMOVE
            };
            (kind << 62) | key
        })
        .collect()
}

/// The library's key hash (`DefaultHasher::new()` over the key), repeated
/// here so a driver can ask `m.router()` where an operation will run before
/// issuing it. The ladder checks the prediction against `ShardSnapshot`.
pub fn key_hash(key: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

pub fn config() -> RuntimeConfig {
    RuntimeConfig::cluster(2)
        .without_network_atomics()
        .with_combining(true)
}

/// Build the map on `rt` and preload every key through the bulk path.
pub fn preload(rt: &Runtime, keys: u64, buckets_per_shard: usize) -> ShardedHashMap<u64, u64> {
    rt.run(|| {
        let m = ShardedHashMap::new(buckets_per_shard);
        let inserted = m.insert_bulk((0..keys).map(|k| (k, value_for(k, 0xFF))).collect());
        assert_eq!(inserted as u64, keys, "preload inserts every key once");
        m
    })
}

pub struct MapMix {
    streams: [Vec<u64>; 2],
}

impl MapMix {
    pub fn new(seed: u64, mix: Mix) -> MapMix {
        let zipf = Zipf::new(KEYS, THETA);
        let lane = 0x100 + mix.get_pct;
        MapMix {
            streams: [0, 1].map(|l| {
                let order = popularity_order(l, KEYS, THETA);
                op_stream(seed, lane * 2 + l as u64, mix, &zipf, &order, STREAM_LEN)
            }),
        }
    }
}

pub struct MapInstance {
    // Dropped before the runtime it lives in.
    map: ShardedHashMap<u64, u64>,
    rt: Runtime,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct MapCounts {
    pub ops: u64,
    /// Operations the input generator predicted would run remotely.
    pub remote: u64,
    pub inserts_ok: u64,
    pub removes_ok: u64,
    /// `get` hits whose value did not carry the key.
    pub bad_values: u64,
}

/// Apply one stream entry to `m`; returns whether the output was wrong.
#[inline]
pub fn apply<'a>(
    m: &'a ShardedHashMap<u64, u64>,
    tok: &Token<'a>,
    writer: u64,
    entry: u64,
    counts: &mut MapCounts,
) {
    let key = entry & KEY_MASK;
    counts.ops += 1;
    counts.remote += u64::from(entry & REMOTE_BIT != 0);
    match entry >> 62 {
        GET => {
            if let Some(v) = m.get(tok, &key) {
                counts.bad_values += u64::from(v >> 8 != key);
            }
        }
        INSERT => counts.inserts_ok += u64::from(m.insert(tok, key, value_for(key, writer))),
        _ => counts.removes_ok += u64::from(m.remove(tok, &key)),
    }
}

struct MapDriver<'a> {
    m: &'a ShardedHashMap<u64, u64>,
    tok: Token<'a>,
    stream: &'a [u64],
    writer: u64,
    cursor: usize,
    counts: MapCounts,
}

impl DriverTask for MapDriver<'_> {
    type Out = MapCounts;

    /// Reclamation runs between rounds, untimed: one `try_reclaim` costs as
    /// much as hundreds of map operations, and in the timed loop it would
    /// bury the chain search and the AM path these two workloads are for.
    /// `reclaim-churn` and `queue-mailbox` time it; `teardown_s` pays for
    /// what is still deferred at the end.
    fn prepare(&mut self) {
        self.tok.try_reclaim();
    }

    fn step(&mut self) {
        let entry = self.stream[self.cursor];
        self.cursor = (self.cursor + 1) % self.stream.len();
        apply(self.m, &self.tok, self.writer, entry, &mut self.counts);
    }

    fn finish(self) -> MapCounts {
        self.counts
    }
}

/// One line on the sizes in use, for the summary's header.
pub fn sizes() -> String {
    format!(
        "{KEYS} keys preloaded, {BUCKETS_PER_SHARD} buckets per shard, Zipf theta {THETA} with \
         {REMOTE_MASS} of each driver's mass on keys the other locale owns, input stream {STREAM_LEN} ops per driver, try_reclaim between rounds"
    )
}

impl Workload for MapMix {
    type Instance = MapInstance;

    fn episodes(&self) -> usize {
        6
    }

    fn plan(&self, opts: &Opts) -> Plan {
        timed_rounds(opts, 1, 3 << 19)
    }

    fn setup(&self) -> MapInstance {
        let rt = sim_runtime(config());
        let map = preload(&rt, KEYS, BUCKETS_PER_SHARD);
        MapInstance { map, rt }
    }

    fn measure(
        &self,
        inst: &MapInstance,
        plan: &Plan,
        tracer: TraceParent<'_>,
        checks: &mut Checks,
    ) -> Measured {
        let routed_before = inst.map.shard_snapshot().remote_ops;
        let (measured, outs) = measure(&Sim(&inst.rt), plan, tracer, &|l| MapDriver {
            m: &inst.map,
            tok: inst.map.register(),
            stream: &self.streams[l],
            writer: l as u64,
            cursor: 0,
            counts: MapCounts::default(),
        });
        let total = outs.iter().fold(MapCounts::default(), |a, c| MapCounts {
            ops: a.ops + c.ops,
            remote: a.remote + c.remote,
            inserts_ok: a.inserts_ok + c.inserts_ok,
            removes_ok: a.removes_ok + c.removes_ok,
            bad_values: a.bad_values + c.bad_values,
        });
        checks.ops(
            total.ops,
            total.bad_values,
            "get hits carried another key's value",
        );
        let routed = inst.map.shard_snapshot().remote_ops - routed_before;
        checks.expect(routed == total.remote, || {
            format!(
                "the inputs were generated for {} remote ops, the map routed {routed}: \
                 `key_hash` no longer matches the library's",
                total.remote
            )
        });
        let len = inst.rt.run(|| inst.map.len()) as u64;
        checks.expect(KEYS + total.inserts_ok - total.removes_ok == len, || {
            format!(
                "map holds {len} keys, expected {KEYS} + {} inserted - {} removed",
                total.inserts_ok, total.removes_ok
            )
        });
        measured
    }

    fn teardown(&self, inst: MapInstance, checks: &mut Checks) {
        let MapInstance { map, rt } = inst;
        rt.run(|| {
            map.clear_reclaim();
            drop(map);
        });
        let live = rt.live_objects();
        checks.expect(live == 0, || {
            format!("{live} objects live after map teardown")
        });
    }
}
