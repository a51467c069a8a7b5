//! The layer ladder: one rung per module of the library, each timed from
//! here around calls into that module's public functions, bottom (wire
//! codec) to top (structure operation).
//!
//! Every rung with a remote side runs on both locales at once — the same
//! "no idle core" rule as the workloads, for the same reason. The ladder is
//! the same whatever workload the traced run is for; only the exact counts
//! (`pgas.am_per_op` and friends) belong to the workload.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pgas_nb::prelude::*;
use pgas_nb::sim::SymOp64;
use pgas_net::wire::{self, Msg};

use crate::affinity;
use crate::harness::{measure, on_both, sim_runtime, Plan, Proc, RoundEnd, Rounds, Sim, LOCALES};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::atomics::{self, Cells};
use crate::workloads::map::{self, MapCounts};
use crate::workloads::procmix::{self, Op, Peer};
use crate::workloads::{queue, reclaim, Checks, Metrics};
use crate::zipf::Zipf;

/// Nanoseconds of each of `n` calls of `op`.
fn time_each(n: usize, mut op: impl FnMut()) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    let mut prev = Instant::now();
    for _ in 0..n {
        op();
        let now = Instant::now();
        out.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        prev = now;
    }
    out
}

/// Mean nanoseconds per call over `n` calls of `op`.
fn time_mean(n: usize, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        op();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of the merged samples, in microseconds.
fn p50_us(parts: Vec<Vec<u32>>) -> f64 {
    percentile_us(parts, 50.0)
}

fn percentile_us(parts: Vec<Vec<u32>>, p: f64) -> f64 {
    let mut all: Vec<u32> = parts.into_iter().flatten().collect();
    if all.is_empty() {
        return 0.0;
    }
    all.sort_unstable();
    stats::percentile(&all, p) as f64 / 1e3
}

/// Climb the whole ladder, one span per rung under `parent`.
pub fn climb(seed: u64, tracer: &Tracer, parent: u32, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    type Rung<'a> = (&'static str, &'a dyn Fn(&mut Metrics, &mut Checks));
    let rungs: [Rung<'_>; 6] = [
        ("ladder.wire", &|m, _| wire_rung(m)),
        ("ladder.net", &net_rung),
        ("ladder.pgas", &|m, _| pgas_rung(m)),
        ("ladder.atomics", &|m, c| atomics_rung(seed, m, c)),
        ("ladder.epoch", &|m, c| epoch_rung(seed, m, c)),
        ("ladder.structures", &|m, c| structures_rung(seed, m, c)),
    ];
    for (name, rung) in rungs {
        let t = Instant::now();
        tracer.scope(name, parent, |_| rung(&mut m, checks));
        affinity::breathe(t);
    }
    m
}

// --- net::wire ----------------------------------------------------------

/// The request and reply frames of one `proc-mix` operation.
fn frames_of(op: Op) -> Vec<(Msg, Msg)> {
    let get = |len: u32| {
        (
            Msg::Get {
                offset: procmix::OFF_GET,
                len,
            },
            Msg::ReplyBytes(vec![0xA5; len as usize]),
        )
    };
    match op {
        Op::FetchAdd => vec![(
            Msg::Atomic64 {
                offset: procmix::OFF_COUNTER,
                op: SymOp64::FetchAdd(1),
            },
            Msg::ReplyU64(7),
        )],
        Op::Dcas => vec![(
            Msg::Dcas {
                offset: procmix::OFF_WIDE,
                expected: 7,
                new: 8,
            },
            Msg::ReplyDcas {
                ok: true,
                current: 7,
            },
        )],
        Op::Get => vec![get(procmix::BUF as u32)],
        Op::Put => vec![(
            Msg::Put {
                offset: procmix::OFF_PUT,
                data: vec![0x5A; procmix::BUF],
            },
            Msg::ReplyUnit,
        )],
        // The versioned read is two GETs: sequence + low half, then the cell.
        Op::ReadWide => vec![get(16), get(24)],
        Op::Handler => vec![(
            Msg::Handler {
                id: 0,
                args: 1u64.to_le_bytes().to_vec(),
            },
            Msg::ReplyBytes(0u64.to_le_bytes().to_vec()),
        )],
    }
}

/// The frames of sixteen consecutive `proc-mix` operations (one period of
/// the mix), and how many operations that is.
fn mix_frames() -> (Vec<Msg>, u64) {
    let mut probe = Peer::new(0, pgas_nb::sim::HandlerId(0));
    let mut frames = Vec::new();
    for _ in 0..procmix::HANDLER_EVERY {
        for (req, reply) in frames_of(probe.upcoming()) {
            frames.push(req);
            frames.push(reply);
        }
        probe.issued += 1;
    }
    (frames, procmix::HANDLER_EVERY)
}

fn wire_rung(m: &mut Metrics) {
    let (frames, ops) = mix_frames();
    const REPS: usize = 4000;
    let encode_ns = time_mean(REPS, || {
        for (i, f) in frames.iter().enumerate() {
            std::hint::black_box(wire::encode_payload(i as u64, std::hint::black_box(f)));
        }
    }) / frames.len() as f64;
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| wire::encode_payload(i as u64, f))
        .collect();
    let decode_ns = time_mean(REPS, || {
        for p in &payloads {
            std::hint::black_box(
                wire::decode_payload(std::hint::black_box(p)).expect("own frame decodes"),
            );
        }
    }) / frames.len() as f64;
    let bytes: usize = payloads.iter().map(|p| 4 + p.len()).sum();
    m.put("wire.encode_ns", encode_ns, "ns");
    m.put("wire.decode_ns", decode_ns, "ns");
    // Computed from the frame sizes, both directions, not measured on a NIC.
    m.put("wire.bytes_per_op", bytes as f64 / ops as f64, "B");
}

// --- net (ProcEngine) -----------------------------------------------------

/// The floor under every `ProcEngine` round trip: a plain `TcpStream`
/// ping-pong of frames as long as a `fetch_add` request and its reply, both
/// sides driving, with no codec, no dispatch and no handler thread.
fn tcp_echo_p50_us(round_trips: usize) -> f64 {
    let (req, reply) = &frames_of(Op::FetchAdd)[0];
    let req_len = 4 + wire::encode_payload(1, req).len();
    let reply_len = 4 + wire::encode_payload(1, reply).len();
    let listeners: Vec<TcpListener> = (0..LOCALES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let start = Barrier::new(LOCALES);
    let samples = std::thread::scope(|s| {
        let servers: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                s.spawn(move || {
                    // Where `ProcEngine`'s threads serving rank `i` would be.
                    affinity::pin_driver(1 - i);
                    let (mut conn, _) = listener.accept().expect("accept the echo client");
                    conn.set_nodelay(true).expect("TCP_NODELAY");
                    let mut buf = vec![0u8; req_len];
                    let reply = vec![0x42u8; reply_len];
                    while conn.read_exact(&mut buf).is_ok() {
                        conn.write_all(&reply).expect("echo reply");
                    }
                })
            })
            .collect();
        let clients: Vec<_> = (0..LOCALES)
            .map(|l| {
                let (addr, start) = (addrs[1 - l], &start);
                s.spawn(move || {
                    affinity::pin_driver(l);
                    let mut conn = TcpStream::connect(addr).expect("connect to the echo server");
                    conn.set_nodelay(true).expect("TCP_NODELAY");
                    let req = vec![0x24u8; req_len];
                    let mut buf = vec![0u8; reply_len];
                    start.wait();
                    time_each(round_trips, || {
                        conn.write_all(&req).expect("echo request");
                        conn.read_exact(&mut buf).expect("echo reply");
                    })
                    // Dropping `conn` ends the server's loop.
                })
            })
            .collect();
        let samples: Vec<Vec<u32>> = clients
            .into_iter()
            .map(|c| c.join().expect("echo client panicked"))
            .collect();
        for srv in servers {
            srv.join().expect("echo server panicked");
        }
        samples
    });
    p50_us(samples)
}

fn net_rung(m: &mut Metrics, checks: &mut Checks) {
    let echo = tcp_echo_p50_us(4000);
    m.put("proc.tcp_echo_p50_us", echo, "us");

    let ranks = procmix::connect();
    let cluster = Proc(&ranks.runtimes);
    let peers = &ranks.peers;
    let mut fetch_add = 0.0;
    for (op, name) in [
        (Op::FetchAdd, "proc.fetch_add_p50_us"),
        (Op::Dcas, "proc.dcas_p50_us"),
        (Op::Get, "proc.get64_p50_us"),
        (Op::Put, "proc.put64_p50_us"),
        (Op::ReadWide, "proc.read_wide_p50_us"),
        (Op::Handler, "proc.handler_call_p50_us"),
    ] {
        let p50 = p50_us(on_both(&cluster, &|r| {
            let mut guard = peers[r].lock().expect("peer poisoned");
            let peer = guard.as_mut().expect("peer present between rungs");
            time_each(1500, || peer.issue(op))
        }));
        if op == Op::FetchAdd {
            fetch_add = p50;
        }
        m.put(name, p50, "us");
    }
    // What ProcEngine adds over the bare socket: codec, dispatch, and the
    // hop through the peer's handler thread.
    m.put("proc.over_echo_us", fetch_add - echo, "us");

    // The mix itself, briefly, for its exact counts and its kernel share.
    let plan = Plan {
        round: RoundEnd::After(Duration::from_millis(50)),
        rounds: Rounds::Exactly(8),
        batch: procmix::PERIOD,
        sample_cap: 1 << 16,
    };
    let (mix, outs) = measure(&cluster, &plan, None, &|r| {
        peers[r]
            .lock()
            .expect("peer poisoned")
            .take()
            .expect("peer present for the mix")
    });
    let ops = mix.ops() as f64;
    m.put("proc.mix_p50_us", mix.op_us(50.0), "us");
    m.put(
        "proc.am_sent_per_op",
        mix.comm().am_sent as f64 / ops,
        "count",
    );
    m.put("proc.gets_per_op", mix.comm().gets as f64 / ops, "count");
    m.put("proc.sys_cpu_us_per_op", mix.cpu().sys_s * 1e6 / ops, "us");
    for p in outs {
        let slot = &peers[p.rank];
        *slot.lock().expect("peer poisoned") = Some(p);
    }
    ranks.audit_and_close(checks);
}

// --- pgas (engine, combine, am, comm, runtime) ----------------------------

fn pgas_rung(m: &mut Metrics) {
    const CALLS: usize = 3000;
    let rt = sim_runtime(RuntimeConfig::cluster(2));
    let sim = Sim(&rt);
    let peer = |l: usize| (1 - l) as LocaleId;
    m.put(
        "pgas.am_roundtrip_p50_us",
        p50_us(on_both(&sim, &|l| {
            time_each(CALLS, || rt.on(peer(l), || ()))
        })),
        "us",
    );
    m.put(
        "pgas.on_async_wait_p50_us",
        p50_us(on_both(&sim, &|l| {
            time_each(CALLS, || rt.on_async(peer(l), || ()).wait())
        })),
        "us",
    );
    const ITEMS: u64 = 1 << 17;
    let sink = AtomicU64::new(0);
    let per_item = on_both(&sim, &|l| {
        let mut b = Batcher::new(&rt, 1024, |_, batch: Vec<u64>| {
            sink.fetch_add(batch.iter().sum::<u64>(), Ordering::Relaxed);
        });
        let t = Instant::now();
        for i in 0..ITEMS {
            b.aggregate(peer(l), i);
        }
        b.flush();
        t.elapsed().as_nanos() as f64 / ITEMS as f64
    });
    assert_eq!(
        sink.load(Ordering::Relaxed),
        2 * (ITEMS * (ITEMS - 1) / 2),
        "every batched item reached the other locale once"
    );
    m.put("pgas.batcher_item_ns", mean(&per_item), "ns");
    drop(rt);

    let rt = sim_runtime(map::config());
    m.put(
        "pgas.on_combining_p50_us",
        p50_us(on_both(&Sim(&rt), &|l| {
            time_each(CALLS, || rt.on_combining(peer(l), || ()))
        })),
        "us",
    );
    drop(rt);

    let news: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            drop(std::hint::black_box(Runtime::new(RuntimeConfig::cluster(
                2,
            ))));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("pgas.runtime_new_ms", stats::median(&news), "ms");
}

// --- atomics ---------------------------------------------------------------

fn atomics_rung(seed: u64, m: &mut Metrics, checks: &mut Checks) {
    const LOCAL_OPS: usize = 1 << 20;
    const LADDER_POOL: usize = 1 << 12;
    // Kinds from the workload's generator; pool indices cut to the ladder's pool.
    let stream: Vec<u32> = atomics::op_stream(seed, 0x3F0, 1 << 16)
        .into_iter()
        .map(|op| (op & 7) | (((op >> 8) % LADDER_POOL as u32) << 8))
        .collect();

    // Local cells, network atomics off: CPU atomics, as in `atomics-local`.
    let rt = sim_runtime(RuntimeConfig::cluster(2).without_network_atomics());
    let sim = Sim(&rt);
    let int_ns = on_both(&sim, &|_| {
        let cell = AtomicInt::new(0);
        let mut i = 0usize;
        time_mean(LOCAL_OPS, || {
            let v = i as u64;
            match (stream[i % stream.len()] & 3) as u8 {
                atomics::READ => {
                    std::hint::black_box(cell.read());
                }
                atomics::WRITE => cell.write(v),
                atomics::CAS => {
                    let cur = cell.read();
                    std::hint::black_box(cell.compare_and_swap(cur, v));
                }
                _ => {
                    std::hint::black_box(cell.exchange(v));
                }
            }
            i += 1;
        })
    });
    m.put("atomics.int_local_ns", mean(&int_ns), "ns");
    for (name, aba_bit) in [
        ("atomics.obj_local_ns", 0u32),
        ("atomics.aba_local_ns", 4u32),
    ] {
        let out = on_both(&sim, &|_| {
            let pool = atomics::allocate_pool(&rt.handle(), LADDER_POOL);
            let mut cells = Cells::new(&pool);
            let mut i = 0usize;
            let ns = time_mean(LOCAL_OPS, || {
                cells.apply(stream[i % stream.len()] & !4 | aba_bit);
                i += 1;
            });
            let counts = (cells.ops, cells.wrong);
            atomics::free_pool(&rt.handle(), &pool);
            (ns, counts)
        });
        m.put(
            name,
            mean(&out.iter().map(|o| o.0).collect::<Vec<_>>()),
            "ns",
        );
        for (_, (ops, wrong)) in out {
            checks.ops(
                ops,
                wrong,
                "ladder: local atomic ops returned a wrong value",
            );
        }
    }
    drop(rt);

    // Cells owned by the other locale, network atomics on: the plain cell
    // takes the (simulated) RDMA path, the ABA cell ships a DCAS as an AM.
    let rt = sim_runtime(RuntimeConfig::cluster(2));
    let sim = Sim(&rt);
    for (name, aba_bit, calls) in [
        ("atomics.obj_remote_p50_us", 0u32, 20_000),
        ("atomics.aba_remote_p50_us", 4u32, 2000),
    ] {
        let out = on_both(&sim, &|l| {
            let pool = atomics::allocate_pool(&rt.handle(), LADDER_POOL);
            let mut cells = Cells::new_on((1 - l) as LocaleId, &pool);
            let mut i = 0usize;
            let samples = time_each(calls, || {
                cells.apply(stream[i % stream.len()] & !4 | aba_bit);
                i += 1;
            });
            let counts = (cells.ops, cells.wrong);
            atomics::free_pool(&rt.handle(), &pool);
            (samples, counts)
        });
        let (samples, counts): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        m.put(name, p50_us(samples), "us");
        for (ops, wrong) in counts {
            checks.ops(
                ops,
                wrong,
                "ladder: remote atomic ops returned a wrong value",
            );
        }
    }
}

// --- epoch -------------------------------------------------------------------

fn epoch_rung(seed: u64, m: &mut Metrics, checks: &mut Checks) {
    let rt = sim_runtime(RuntimeConfig::cluster(2));
    let sim = Sim(&rt);
    let em = rt.run(EpochManager::new);

    const PINS: usize = 1 << 20;
    let pin = on_both(&sim, &|_| {
        let tok = em.register();
        time_mean(PINS, || {
            tok.pin();
            tok.unpin();
        })
    });
    m.put("epoch.pin_unpin_ns", mean(&pin), "ns");

    // The hazard-pointer reader's equivalent of pin/unpin: publish a hazard
    // for the cell's target, validate, release.
    let hp = rt.run(HazardReclaimer::new);
    let hp_ns = on_both(&sim, &|_| {
        let a = alloc_local(&rt, 0u64);
        let cell = AtomicObject::new(a);
        let g = hp.register();
        let ns = time_mean(PINS / 4, || {
            g.pin();
            std::hint::black_box(g.protect_root(0, &cell));
            g.release(0);
            g.unpin();
        });
        drop(g);
        // SAFETY: allocated above, never retired through the reclaimer, and
        // the cell that held it is not read again.
        unsafe { free(&rt, a) };
        ns
    });
    m.put("epoch.hp_pin_unpin_ns", mean(&hp_ns), "ns");
    rt.run(|| drop(hp));

    // pin / defer_delete / unpin over local objects, nothing reclaimed yet.
    const DEFERS: usize = 1 << 15;
    let all_local = vec![false; DEFERS];
    let defer = on_both(&sim, &|l| {
        let tok = em.register();
        let mut objs = Vec::with_capacity(DEFERS);
        reclaim::allocate(&rt.handle(), l, &all_local, &mut objs);
        time_mean(DEFERS, || {
            tok.pin();
            tok.defer_delete(objs.pop().expect("one object per deferral"));
            tok.unpin();
        })
    });
    m.put("epoch.defer_ns", mean(&defer), "ns");

    // `clear` over what the loop above left in the limbo lists.
    let before = em.stats();
    let t = Instant::now();
    rt.run(|| em.clear());
    let clear_s = t.elapsed().as_secs_f64();
    let cleared = em.stats().objects_reclaimed - before.objects_reclaimed;
    checks.expect(cleared == 2 * DEFERS as u64, || {
        format!("ladder: clear freed {cleared} objects of {}", 2 * DEFERS)
    });
    m.put(
        "epoch.clear_us_per_obj",
        clear_s * 1e6 / cleared.max(1) as f64,
        "us",
    );

    // A short `reclaim-churn`: batches of 1024 deletions, half of them of
    // objects on the other locale, each followed by one timed try_reclaim.
    const BATCHES: usize = 192;
    let comm0 = rt.total_comm();
    let stats0 = em.stats();
    let pauses = on_both(&sim, &|l| {
        let tok = em.register();
        let remote = reclaim::remote_choices(seed, 0x2F0 + l as u64, reclaim::BATCH as usize);
        let mut objs = Vec::with_capacity(remote.len());
        let mut won = Vec::new();
        let mut all = Vec::new();
        for _ in 0..BATCHES {
            reclaim::allocate(&rt.handle(), l, &remote, &mut objs);
            while let Some(o) = objs.pop() {
                tok.pin();
                tok.defer_delete(o);
                tok.unpin();
            }
            let t = Instant::now();
            let advanced = tok.try_reclaim();
            let ns = t.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            all.push(ns);
            if advanced {
                won.push(ns);
            }
        }
        (won, all)
    });
    rt.run(|| em.clear());
    let comm = rt.total_comm() - comm0;
    let stats = em.stats();
    let (won, all): (Vec<_>, Vec<_>) = pauses.into_iter().unzip();
    // Microseconds / 1e3 = milliseconds per call that advanced the epoch,
    // each covering the 1024 deletions before it.
    m.put("epoch.try_reclaim_p50_ms_per_1k", p50_us(won) / 1e3, "ms");
    m.put(
        "epoch.reclaim_pause_p99_ms",
        percentile_us(all, 99.0) / 1e3,
        "ms",
    );
    let advances = (stats.advances - stats0.advances).max(1);
    m.put(
        "epoch.bulk_am_per_reclaim",
        comm.bulk_frees as f64 / advances as f64,
        "count",
    );
    let reclaimed = stats.objects_reclaimed - stats0.objects_reclaimed;
    m.put(
        "epoch.remote_free_share",
        comm.bulk_freed_objects as f64 / reclaimed.max(1) as f64,
        "share",
    );
    checks.expect(
        reclaimed == stats.objects_deferred - stats0.objects_deferred,
        || format!("ladder: churn deferred more objects than the {reclaimed} it freed"),
    );
    rt.run(|| drop(em));
    let live = rt.live_objects();
    checks.expect(live == 0, || {
        format!("ladder: {live} objects live after the epoch rung")
    });
}

// --- structures --------------------------------------------------------------

/// Keys of the ladder's small map: big enough for A11's eight-key chains,
/// small enough to preload and tear down in a fraction of a second.
const LADDER_KEYS: u64 = 1 << 13;

fn structures_rung(seed: u64, m: &mut Metrics, checks: &mut Checks) {
    // The map, on the map workloads' configuration.
    let rt = sim_runtime(map::config());
    let t = Instant::now();
    let table = map::preload(&rt, LADDER_KEYS, (LADDER_KEYS as usize / 8) / 2);
    m.put(
        "structures.map_preload_us_per_key",
        t.elapsed().as_secs_f64() * 1e6 / LADDER_KEYS as f64,
        "us",
    );
    const MAP_OPS: usize = 12_000;
    let zipf = Zipf::new(LADDER_KEYS, map::THETA);
    let snap0 = table.shard_snapshot();
    // Each driver asks the router where an operation will run, then times it
    // into that class: (kind, remote).
    let classes = on_both(&Sim(&rt), &|l| {
        let order = map::popularity_order(l, LADDER_KEYS, map::THETA);
        let stream = map::op_stream(
            seed,
            0x1F0 + l as u64,
            map::WRITE_HEAVY,
            &zipf,
            &order,
            MAP_OPS,
        );
        let tok = table.register();
        let mut counts = MapCounts::default();
        let mut by_class: [Vec<u32>; 6] = Default::default();
        for entry in stream {
            // The driver asks the live router, not the input generator.
            let key = entry & (map::REMOTE_BIT - 1);
            let remote = table.router().owner(map::key_hash(key)) as usize != l;
            let t = Instant::now();
            map::apply(&table, &tok, l as u64, entry, &mut counts);
            let ns = t.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            by_class[(entry >> 62) as usize * 2 + usize::from(remote)].push(ns);
        }
        (by_class, counts)
    });
    let snap = table.shard_snapshot();
    let predicted: u64 = classes.iter().map(|c| c.1.remote).sum();
    checks.expect(predicted == snap.remote_ops - snap0.remote_ops, || {
        format!(
            "ladder: predicted {predicted} remote map ops, the map routed {}",
            snap.remote_ops - snap0.remote_ops
        )
    });
    for c in &classes {
        checks.ops(
            c.1.ops,
            c.1.bad_values,
            "ladder: get hits carried another key's value",
        );
    }
    let class = |kind: u64, remote: bool| -> Vec<Vec<u32>> {
        classes
            .iter()
            .map(|c| c.0[kind as usize * 2 + usize::from(remote)].clone())
            .collect()
    };
    m.put(
        "structures.map_get_local_p50_us",
        p50_us(class(map::GET, false)),
        "us",
    );
    m.put(
        "structures.map_get_remote_p50_us",
        p50_us(class(map::GET, true)),
        "us",
    );
    m.put(
        "structures.map_insert_remote_p50_us",
        p50_us(class(map::INSERT, true)),
        "us",
    );
    m.put(
        "structures.map_remove_remote_p50_us",
        p50_us(class(map::REMOVE, true)),
        "us",
    );
    let (local, remote) = (
        snap.local_ops - snap0.local_ops,
        snap.remote_ops - snap0.remote_ops,
    );
    m.put(
        "structures.map_local_share",
        local as f64 / (local + remote).max(1) as f64,
        "share",
    );
    let len = rt.run(|| table.len());
    let t = Instant::now();
    rt.run(|| {
        table.clear_reclaim();
        drop(table);
    });
    m.put(
        "structures.map_teardown_us_per_key",
        t.elapsed().as_secs_f64() * 1e6 / len.max(1) as f64,
        "us",
    );
    let live = rt.live_objects();
    checks.expect(live == 0, || {
        format!("ladder: {live} objects live after the map rung")
    });
    drop(rt);

    // Queue and stack, on the queue workload's configuration.
    let rt = sim_runtime(RuntimeConfig::cluster(2));
    let sim = Sim(&rt);
    const QUEUE_OPS: usize = 3000;
    let queues = queue::build(&rt, 0);
    let enq = on_both(&sim, &|l| {
        let q = &queues[1 - l];
        let tok = q.register();
        let mut seq = 0u64;
        time_each(QUEUE_OPS, || {
            seq += 1;
            q.enqueue(&tok, seq);
        })
    });
    m.put("structures.queue_enq_remote_p50_us", p50_us(enq), "us");
    let deq = on_both(&sim, &|l| {
        let q = &queues[l];
        let tok = q.register();
        let mut inbox = queue::Inbox::default();
        let s = time_each(QUEUE_OPS, || inbox.take(q.dequeue(&tok)));
        (s, inbox)
    });
    for (_, inbox) in &deq {
        checks.ops(
            QUEUE_OPS as u64,
            inbox.empty + inbox.out_of_order,
            "ladder: dequeues found the inbox empty or out of order",
        );
    }
    m.put(
        "structures.queue_deq_local_p50_us",
        p50_us(deq.into_iter().map(|d| d.0).collect()),
        "us",
    );
    rt.run(|| {
        for q in &queues {
            q.clear_reclaim();
        }
        drop(queues);
    });

    const PAIRS: usize = 1 << 17;
    let mut rng = Rng::new(seed, 0x4F0);
    let first = rng.next_u64();
    let stack = on_both(&sim, &|_| {
        let s: LockFreeStack<u64> = LockFreeStack::new();
        let tok = s.register();
        let mut v = first;
        let mut wrong = 0u64;
        let ns = time_mean(PAIRS, || {
            v = v.wrapping_add(1);
            s.push(&tok, v);
            wrong += u64::from(s.pop(&tok) != Some(v));
        });
        drop(tok);
        s.clear_reclaim();
        (ns, wrong)
    });
    m.put(
        "structures.stack_pushpop_local_ns",
        mean(&stack.iter().map(|s| s.0).collect::<Vec<_>>()),
        "ns",
    );
    for (_, wrong) in stack {
        checks.ops(
            PAIRS as u64,
            wrong,
            "ladder: stack pops returned another value",
        );
    }
    let live = rt.live_objects();
    checks.expect(live == 0, || {
        format!("ladder: {live} objects live after the queue and stack rungs")
    });
}
