//! Path parity through the communication engine.
//!
//! The same workload — `N` remote increments spread over a few cells owned
//! by locale 1 — is driven through each of the engine's three remote-
//! operation paths:
//!
//! 1. **RDMA atomics** (network atomics on): every increment is a NIC-side
//!    atomic, no active messages.
//! 2. **Blocking AMs** (network atomics off): every increment ships as its
//!    own active message and executes as a CPU atomic on the owner.
//! 3. **Batched AMs** (network atomics off + [`Batcher`]): increments are
//!    buffered per destination and ride bulk active messages.
//!
//! All three must produce *identical memory effects*, and the counters must
//! conserve the operation count — every increment is accounted on exactly
//! one path-appropriate counter. Batching must strictly reduce the AM
//! count.
//!
//! A fourth leg drives the same increments concurrently with the
//! *combining* layer enabled (`combining = true`): same memory effects,
//! conserved counters, and strictly fewer active messages than the
//! uncombined concurrent run. A property test checks the combining layer's
//! ordering contract: operations from one task execute in the order that
//! task issued them (per-publisher FIFO).
//!
//! A fifth leg covers the wide-atomic *read* paths: the same ABA-cell
//! read/CAS mix driven once with reads routed through the DCAS handler
//! (fast path off) and once through the versioned seqlock read
//! (`vread_fastpath = true`). Identical memory effects, every operation
//! accounted on exactly one counter, and the fast leg must retire strictly
//! fewer DCAS executions and active messages — reads migrate onto
//! one-sided GETs while writes keep the DCAS.
//!
//! Finally, the **sim-vs-proc** legs drive one symmetric-heap workload
//! through both `CommEngine` backends — the simulator, and
//! [`pgas_net::ProcEngine`] with every locale's engine wired over real
//! loopback TCP inside this test process. Identical memory effects on
//! every rank's heap; deterministic counters (atomics, DCAS, GET/PUT
//! bytes, handler AMs) must agree *exactly* (modulo the three `on`
//! wrappers the sim driver needs to hop locales); timing-dependent
//! telemetry (wall-clock latency histograms) must be nonzero and ordered
//! on the proc side, where the simulator records virtual-time samples
//! instead.

use pgas_nonblocking::prelude::*;
use pgas_nonblocking::sim::CommSnapshot;
use proptest::prelude::*;

const CELLS: usize = 8;
const N: u64 = 256;

/// Run the workload and return (final cell values, counter delta).
fn run_workload(
    config: RuntimeConfig,
    drive: impl Fn(&Runtime, &[AtomicInt]),
) -> (Vec<u64>, CommSnapshot) {
    let rt = Runtime::new(config);
    rt.run(|| {
        let cells: Vec<AtomicInt> = (0..CELLS).map(|_| AtomicInt::new_on(1, 0)).collect();
        rt.reset_metrics();
        drive(&rt, &cells);
        // Snapshot before the read-back below so the delta covers exactly
        // the N increments.
        let delta = rt.total_comm();
        (cells.iter().map(|c| c.read()).collect(), delta)
    })
}

fn per_op(_rt: &Runtime, cells: &[AtomicInt]) {
    for i in 0..N {
        cells[i as usize % CELLS].fetch_add(1);
    }
}

fn batched(rt: &Runtime, cells: &[AtomicInt]) {
    let mut b = Batcher::new(rt, 64, |_, batch: Vec<usize>| {
        for idx in batch {
            cells[idx].fetch_add(1);
        }
    });
    for i in 0..N {
        // Every cell is owned by locale 1; route by owner as a real
        // aggregating caller would.
        b.aggregate(cells[i as usize % CELLS].owner(), i as usize % CELLS);
    }
    b.flush();
}

#[test]
fn all_three_paths_have_identical_memory_effects() {
    let (rdma_vals, rdma) = run_workload(RuntimeConfig::cluster(2), per_op);
    let (am_vals, am) = run_workload(RuntimeConfig::cluster(2).without_network_atomics(), per_op);
    let (batched_vals, bat) =
        run_workload(RuntimeConfig::cluster(2).without_network_atomics(), batched);

    // Memory effects: every path ends with the same cell values.
    let expected: Vec<u64> = (0..CELLS as u64).map(|_| N / CELLS as u64).collect();
    assert_eq!(rdma_vals, expected, "RDMA path memory effect");
    assert_eq!(am_vals, expected, "blocking-AM path memory effect");
    assert_eq!(batched_vals, expected, "batched-AM path memory effect");

    // Path 1: all NIC, no AM traffic.
    assert_eq!(rdma.rdma_atomics, N);
    assert_eq!(rdma.am_sent, 0);
    assert_eq!(rdma.cpu_atomics, 0);

    // Path 2: one AM per op, executed as a CPU atomic on the owner.
    assert_eq!(am.am_sent, N);
    assert_eq!(am.am_handled, N);
    assert_eq!(am.cpu_atomics, N);
    assert_eq!(am.rdma_atomics, 0);
    assert_eq!(am.am_batches, 0, "per-op path never batches");

    // Path 3: ceil(N/cap) bulk AMs carrying all N ops.
    assert_eq!(bat.am_sent, N.div_ceil(64));
    assert_eq!(bat.am_batches, N.div_ceil(64));
    assert_eq!(bat.am_batch_items, N);
    assert_eq!(bat.cpu_atomics, N, "every item still executes on the owner");
    assert_eq!(bat.rdma_atomics, 0);

    // Conservation: each path applies exactly N atomic increments.
    for (name, d) in [("rdma", &rdma), ("blocking-am", &am), ("batched-am", &bat)] {
        assert_eq!(
            d.rdma_atomics + d.cpu_atomics,
            N,
            "{name}: increments must be conserved across paths"
        );
    }

    // Batching strictly reduces message count.
    assert!(
        bat.am_sent < am.am_sent,
        "batched path must send strictly fewer AMs ({} vs {})",
        bat.am_sent,
        am.am_sent
    );
}

/// Eight concurrent tasks spread the same N increments over the cells —
/// the contention pattern the combining layer exists for.
fn concurrent(rt: &Runtime, cells: &[AtomicInt]) {
    let tasks = 8usize;
    let per_task = N as usize / tasks;
    rt.coforall_tasks(tasks, |t| {
        for i in 0..per_task {
            cells[(t * per_task + i) % CELLS].fetch_add(1);
        }
    });
}

#[test]
fn combining_leg_matches_blocking_am_effects() {
    let (off_vals, off) = run_workload(
        RuntimeConfig::cluster(2).without_network_atomics(),
        concurrent,
    );
    let (on_vals, on) = run_workload(
        RuntimeConfig::cluster(2)
            .without_network_atomics()
            .with_combining(true),
        concurrent,
    );

    // Identical memory effects, combined or not.
    let expected: Vec<u64> = (0..CELLS as u64).map(|_| N / CELLS as u64).collect();
    assert_eq!(off_vals, expected, "uncombined concurrent memory effect");
    assert_eq!(on_vals, expected, "combined concurrent memory effect");

    // Uncombined concurrent run: one AM per op, nothing combined.
    assert_eq!(off.am_sent, N);
    assert_eq!(off.cpu_atomics, N);
    assert_eq!(off.combines, 0);
    assert_eq!(off.combined_ops, 0);

    // Combined run: every op still executes exactly once on the owner and
    // is accounted on the combining counters; each shipped batch is one AM.
    assert_eq!(on.cpu_atomics, N, "increments conserved under combining");
    assert_eq!(on.combined_ops, N, "every op rode the combining layer");
    assert_eq!(on.am_batch_items, N);
    assert_eq!(on.am_sent, on.combines, "one AM per combined batch");
    assert_eq!(on.am_handled, on.am_sent);
    assert_eq!(on.rdma_atomics, 0);

    // The whole point: strictly fewer messages for the same effects.
    assert!(
        on.am_sent < off.am_sent,
        "combining must strictly reduce AMs ({} vs {})",
        on.am_sent,
        off.am_sent
    );
}

/// The wide-read parity workload: `N` reads spread over ABA cells owned by
/// locale 1, then one read+CAS per cell so the leg also exercises the
/// write side. Returns the final `(ptr bits, aba count)` snapshots and the
/// counter delta covering exactly those operations.
fn run_aba_reads(fast: bool) -> (Vec<(u64, u64)>, CommSnapshot) {
    let mut config = RuntimeConfig::cluster(2);
    if fast {
        config = config.with_vread_fastpath(true);
    }
    let rt = Runtime::new(config);
    rt.run(|| {
        let cells: Vec<AtomicAbaObject<u64>> = (0..CELLS)
            .map(|i| AtomicAbaObject::new_on(1, GlobalPtr::from_bits((i as u64 + 1) << 4)))
            .collect();
        rt.reset_metrics();
        for i in 0..N {
            let _ = cells[i as usize % CELLS].read_aba();
        }
        for cell in &cells {
            let snap = cell.read_aba();
            assert!(cell.compare_and_swap_aba(snap, GlobalPtr::null()));
        }
        let delta = rt.total_comm();
        let vals = cells
            .iter()
            .map(|c| {
                let a = c.read_aba();
                (a.get_object().into_bits(), a.get_aba_count())
            })
            .collect();
        (vals, delta)
    })
}

#[test]
fn versioned_read_leg_matches_dcas_read_effects() {
    let (slow_vals, slow) = run_aba_reads(false);
    let (fast_vals, fast) = run_aba_reads(true);

    // Identical memory effects: every cell swapped to null at count 1.
    let expected: Vec<(u64, u64)> = (0..CELLS).map(|_| (0, 1)).collect();
    assert_eq!(slow_vals, expected, "DCAS-read leg memory effect");
    assert_eq!(fast_vals, expected, "versioned-read leg memory effect");

    let reads = N + CELLS as u64; // N spread reads + one snapshot per CAS
    let writes = CELLS as u64;

    // Fast path off: every read AND write is a DCAS handler round trip,
    // and the vread machinery never wakes up.
    assert_eq!(slow.am_sent, reads + writes);
    assert_eq!(slow.cpu_dcas, reads + writes);
    assert_eq!(slow.gets, 0);
    assert_eq!(
        (slow.vread_fast, slow.vread_retries, slow.vread_fallbacks),
        (0, 0, 0),
        "vread counters must stay zero with the fast path off"
    );

    // Fast path on: reads validate on the first optimistic window (no
    // concurrent writer here), each costing one one-sided GET; only the
    // CASes still cross the handler.
    assert_eq!(fast.vread_fast, reads);
    assert_eq!(fast.vread_retries, 0, "uncontended reads never tear");
    assert_eq!(fast.vread_fallbacks, 0);
    assert_eq!(fast.gets, reads);
    assert_eq!(fast.am_sent, writes, "only the CASes ship AMs");
    assert_eq!(fast.cpu_dcas, writes, "writes keep the DCAS");

    // Conservation: both legs retire exactly reads+writes wide-cell ops,
    // each accounted on exactly one of {DCAS, validated vread}.
    assert_eq!(slow.cpu_dcas + slow.vread_fast, reads + writes);
    assert_eq!(fast.cpu_dcas + fast.vread_fast, reads + writes);

    // The whole point: strictly fewer handler executions and messages.
    assert!(
        fast.cpu_dcas < slow.cpu_dcas && fast.am_sent < slow.am_sent,
        "fast leg must strictly reduce DCAS ({} vs {}) and AMs ({} vs {})",
        fast.cpu_dcas,
        slow.cpu_dcas,
        fast.am_sent,
        slow.am_sent
    );
}

// --- sim vs proc: the same symmetric-heap workload on both backends ----

mod simproc {
    use super::*;
    use pgas_net::ProcEngine;
    use pgas_nonblocking::sim::symheap::{self, SymOp64};
    use pgas_nonblocking::sim::telemetry::OpClass;
    use pgas_nonblocking::sim::{handlers, EngineKind, HandlerId, RuntimeCore};
    use std::net::TcpListener;

    // Identical fixed layout on every rank's (zeroed) symmetric heap.
    const OFF_COUNTER: u64 = 0;
    const OFF_WIDE: u64 = 8; // 24-byte versioned wide cell
    const OFF_BUF: u64 = 32; // 64-byte GET/PUT buffer
    const BUF_LEN: usize = 64;
    const OPS: u64 = 48;
    const RANKS: usize = 4;

    /// `args = [delta: u64 LE][offset: u64 LE]` — fetch-add into the local
    /// heap, reply with the previous value.
    fn parity_add(core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
        let delta = u64::from_le_bytes(args[0..8].try_into().unwrap());
        let offset = u64::from_le_bytes(args[8..16].try_into().unwrap());
        let here = pgas_nonblocking::sim::here();
        core.locale(here)
            .sym
            .apply64(offset, SymOp64::FetchAdd(delta))
            .to_le_bytes()
            .to_vec()
    }

    /// One rank's deterministic op mix against the *next* rank's heap
    /// (single-writer discipline, so DCAS successes and final memory are
    /// exact). Engine-portable: only symmetric-heap ops and registered
    /// handlers, never raw pointers or closures.
    fn rank_ops(rank: u16, add_id: HandlerId) {
        let owner = (rank + 1) % RANKS as u16;
        let mut args = [0u8; 16];
        args[0..8].copy_from_slice(&1u64.to_le_bytes());
        args[8..16].copy_from_slice(&OFF_COUNTER.to_le_bytes());
        let mut buf = [0u8; BUF_LEN];
        let data = [rank as u8; BUF_LEN];
        let mut mirror = 0u128;
        let mut pending = Vec::new();
        for i in 0..OPS {
            match i % 4 {
                0 => {
                    symheap::fetch_add(owner, OFF_COUNTER, 1);
                }
                1 => {
                    // Sole writer to this cell: the CAS must succeed.
                    let (ok, _) = symheap::dcas(owner, OFF_WIDE, mirror, mirror + 1);
                    assert!(ok, "single-writer DCAS cannot fail");
                    mirror += 1;
                }
                2 => {
                    symheap::get(owner, OFF_BUF, &mut buf);
                }
                _ => {
                    symheap::put(owner, OFF_BUF, &data);
                }
            }
            if i % 8 == 0 {
                let prev = handlers::call(owner, add_id, &args);
                assert_eq!(prev.len(), 8, "handler replies the previous value");
            }
            if i % 16 == 0 {
                pending.push(handlers::call_async(owner, add_id, args.to_vec()));
            }
        }
        for c in pending {
            c.wait();
        }
    }

    /// Per-rank expected memory after all ranks ran `rank_ops`.
    /// 12 fetch-adds + 6 sync + 3 async handler adds land on the counter;
    /// 12 single-writer DCAS increments land on the wide cell; the buffer
    /// holds the previous rank's fill pattern.
    fn check_memory(heap: &pgas_nonblocking::sim::SymHeap, rank: usize, backend: &str) {
        let prev = (rank + RANKS - 1) % RANKS;
        assert_eq!(
            heap.word(OFF_COUNTER)
                .load(std::sync::atomic::Ordering::SeqCst),
            12 + 6 + 3,
            "{backend}: rank {rank} counter word"
        );
        assert_eq!(
            heap.wide_load(OFF_WIDE),
            12,
            "{backend}: rank {rank} wide cell"
        );
        let mut buf = [0u8; BUF_LEN];
        heap.read_bytes(OFF_BUF, &mut buf);
        assert_eq!(
            buf, [prev as u8; BUF_LEN],
            "{backend}: rank {rank} buffer holds rank {prev}'s pattern"
        );
    }

    /// Expected deterministic counters for one backend run (all four
    /// ranks): per rank 12 remote atomics, 12 remote DCAS, 12 GETs, 12
    /// PUTs, 6+3 handler calls.
    fn check_counters(c: &CommSnapshot, on_hops: u64, backend: &str) {
        let n = RANKS as u64;
        assert_eq!(c.am_sent, n * (12 + 12 + 9) + on_hops, "{backend}: am_sent");
        assert_eq!(c.am_handled, c.am_sent, "{backend}: every AM handled");
        assert_eq!(c.cpu_atomics, n * 12, "{backend}: owner-side atomics");
        assert_eq!(c.cpu_dcas, n * 12, "{backend}: owner-side DCAS");
        assert_eq!(c.gets, n * 12, "{backend}: one-sided GETs");
        assert_eq!(c.puts, n * 12, "{backend}: one-sided PUTs");
        assert_eq!(c.bytes_got, n * 12 * BUF_LEN as u64, "{backend}: GET bytes");
        assert_eq!(c.bytes_put, n * 12 * BUF_LEN as u64, "{backend}: PUT bytes");
        assert_eq!(c.rdma_atomics, 0, "{backend}: no NIC on either leg");
        assert_eq!(
            (c.vread_fast, c.vread_retries, c.vread_fallbacks),
            (0, 0, 0),
            "{backend}: no versioned reads in this workload"
        );
    }

    #[test]
    fn sim_and_proc_engines_agree_on_symmetric_heap_workload() {
        let add_id = handlers::register("parity.add", parity_add);

        // --- sim leg: one runtime, the driver hops locales with `on`.
        let sim_rt = Runtime::new(RuntimeConfig::cluster(RANKS).without_network_atomics());
        sim_rt.run(|| {
            sim_rt.reset_metrics();
            for l in 0..RANKS as u16 {
                sim_rt.on(l, || rank_ops(l, add_id));
            }
        });
        let sim = sim_rt.total_comm();
        for rank in 0..RANKS {
            check_memory(&sim_rt.locale(rank as u16).sym, rank, "sim");
        }

        // --- proc leg: four engines over real loopback TCP, one runtime
        // per rank, all inside this process.
        let listeners: Vec<TcpListener> = (0..RANKS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let peers: Vec<std::net::SocketAddr> =
            listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let runtimes: Vec<Runtime> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, listener)| {
                Runtime::with_engine(
                    RuntimeConfig::cluster(RANKS).with_engine(EngineKind::Proc),
                    Box::new(ProcEngine::new(r as u16, listener, peers.clone())),
                )
            })
            .collect();
        std::thread::scope(|s| {
            for (r, rt) in runtimes.iter().enumerate() {
                s.spawn(move || rt.run(|| rank_ops(r as u16, add_id)));
            }
        });
        let proc = runtimes
            .iter()
            .map(|rt| rt.total_comm())
            .fold(CommSnapshot::default(), |a, b| a + b);
        for (rank, rt) in runtimes.iter().enumerate() {
            check_memory(&rt.locale(rank as u16).sym, rank, "proc");
        }

        // Deterministic counters agree exactly; the sim driver pays three
        // extra `on` hops to reach locales 1..3 (locale 0 runs inline).
        check_counters(&sim, 3, "sim");
        check_counters(&proc, 0, "proc");
        assert_eq!(sim.am_sent, proc.am_sent + 3);
        assert_eq!(sim.cpu_atomics, proc.cpu_atomics);
        assert_eq!(sim.cpu_dcas, proc.cpu_dcas);
        assert_eq!((sim.gets, sim.puts), (proc.gets, proc.puts));
        assert_eq!(
            (sim.bytes_got, sim.bytes_put),
            (proc.bytes_got, proc.bytes_put)
        );

        // Timing-dependent side: the proc backend stamps real wall-clock
        // round trips — nonzero, and with ordered percentiles.
        let t = runtimes[0].total_telemetry();
        let rt_hist = t.class(OpClass::AmRoundTrip);
        assert!(
            rt_hist.count() > 0 && rt_hist.max() > 0,
            "proc AM round trips must record wall time"
        );
        assert!(
            rt_hist.percentile(50.0) <= rt_hist.percentile(99.0)
                && rt_hist.percentile(99.0) <= rt_hist.max(),
            "proc latency percentiles must be ordered"
        );
        drop(runtimes);
    }

    /// The symmetric-heap and handler *facades* are the engine-portable
    /// API surface (free functions, no `Runtime` in hand) — this is the
    /// round-trip contract each one must keep on BOTH backends:
    ///
    /// * `fetch_add` returns the previous word value (0, d, 2d, …);
    /// * `dcas` reports `(matched, witnessed)` and only a matching
    ///   expectation installs; `read_wide` observes exactly the installed
    ///   128-bit value;
    /// * `put` then `get` round-trips an arbitrary byte pattern;
    /// * `handlers::call` round-trips args → reply through a registered
    ///   handler running on the owner.
    ///
    /// The same closure drives a sim runtime and a 2-rank ProcEngine over
    /// loopback TCP, so a facade that silently short-circuits on one
    /// backend (e.g. resolving locally instead of at the owner) fails the
    /// per-op assertions or the cross-backend counter comparison.
    fn facade_roundtrip(owner: u16, echo_id: HandlerId) {
        // fetch_add: previous values come back in arithmetic sequence.
        for i in 0..6u64 {
            assert_eq!(symheap::fetch_add(owner, OFF_COUNTER, 5), i * 5);
        }

        // dcas/read_wide: wrong expectation refuses and witnesses, right
        // one installs, and the read observes exactly what was installed.
        let wide = (77u128 << 64) | 11;
        let (ok, seen) = symheap::dcas(owner, OFF_WIDE, 0, wide);
        assert!(ok && seen == 0, "first CAS from zero installs");
        let (ok, seen) = symheap::dcas(owner, OFF_WIDE, 0, 99);
        assert!(!ok, "stale expectation must refuse");
        assert_eq!(seen, wide, "failed CAS witnesses the current value");
        assert_eq!(symheap::read_wide(owner, OFF_WIDE), wide);
        let (ok, _) = symheap::dcas(owner, OFF_WIDE, wide, wide + 1);
        assert!(ok);
        assert_eq!(symheap::read_wide(owner, OFF_WIDE), wide + 1);

        // put/get: a recognizable pattern survives the round trip.
        let pattern: Vec<u8> = (0..BUF_LEN as u8).map(|b| b.wrapping_mul(3)).collect();
        symheap::put(owner, OFF_BUF, &pattern);
        let mut back = [0u8; BUF_LEN];
        symheap::get(owner, OFF_BUF, &mut back);
        assert_eq!(&back[..], &pattern[..], "put/get round-trip");

        // handlers::call: args → reply through the owner-side handler.
        let reply = handlers::call(owner, echo_id, &[0xAB, 0xCD]);
        assert_eq!(reply, vec![0xCD, 0xAB], "handler echoes args reversed");
    }

    /// `args` reversed — enough to prove the bytes crossed to the owner
    /// and back rather than being served from a local shortcut.
    fn parity_echo(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
        let mut r = args.to_vec();
        r.reverse();
        r
    }

    #[test]
    fn facade_free_functions_roundtrip_on_both_engines() {
        let echo_id = handlers::register("parity.echo", parity_echo);

        // --- sim leg.
        let sim_rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        sim_rt.run(|| {
            sim_rt.reset_metrics();
            facade_roundtrip(1, echo_id);
        });
        let sim = sim_rt.total_comm();
        assert_eq!(
            sim_rt
                .locale(1)
                .sym
                .word(OFF_COUNTER)
                .load(std::sync::atomic::Ordering::SeqCst),
            30,
            "sim: six fetch_add(5) land on the owner's heap word"
        );

        // --- proc leg: same closure, real loopback TCP.
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let peers: Vec<std::net::SocketAddr> =
            listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let runtimes: Vec<Runtime> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, listener)| {
                Runtime::with_engine(
                    RuntimeConfig::cluster(2).with_engine(EngineKind::Proc),
                    Box::new(ProcEngine::new(r as u16, listener, peers.clone())),
                )
            })
            .collect();
        runtimes[0].run(|| facade_roundtrip(1, echo_id));
        // Owner-side work (CPU atomics, DCAS, handler executions) is
        // accounted on rank 1's engine; fold both ranks like a real
        // multi-process aggregation would.
        let proc = runtimes
            .iter()
            .map(|rt| rt.total_comm())
            .fold(CommSnapshot::default(), |a, b| a + b);
        assert_eq!(
            runtimes[1]
                .locale(1)
                .sym
                .word(OFF_COUNTER)
                .load(std::sync::atomic::Ordering::SeqCst),
            30,
            "proc: the adds landed on rank 1's real heap, not a local copy"
        );

        // Both backends paid the same deterministic communication: the
        // facades must not short-circuit differently per engine.
        for (backend, c) in [("sim", &sim), ("proc", &proc)] {
            assert_eq!(c.cpu_atomics, 6, "{backend}: one owner atomic per add");
            assert_eq!(c.cpu_dcas, 3 + 2, "{backend}: three CAS + two wide reads");
            assert_eq!(c.gets, 1, "{backend}: one one-sided GET");
            assert_eq!(c.puts, 1, "{backend}: one one-sided PUT");
            assert_eq!(c.bytes_got, BUF_LEN as u64, "{backend}: GET bytes");
            assert_eq!(c.bytes_put, BUF_LEN as u64, "{backend}: PUT bytes");
            assert_eq!(c.rdma_atomics, 0, "{backend}: no NIC atomics here");
        }
        assert_eq!(sim.am_sent, proc.am_sent, "identical AM traffic per leg");
        drop(runtimes);
    }

    #[test]
    fn proc_versioned_reads_are_two_real_gets() {
        const READS: u64 = 32;

        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let peers: Vec<std::net::SocketAddr> =
            listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let runtimes: Vec<Runtime> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, listener)| {
                Runtime::with_engine(
                    RuntimeConfig::cluster(2)
                        .with_engine(EngineKind::Proc)
                        .with_vread_fastpath(true),
                    Box::new(ProcEngine::new(r as u16, listener, peers.clone())),
                )
            })
            .collect();

        runtimes[0].run(|| {
            // Seed rank 1's wide cell, then read it back through the
            // optimistic two-GET fast path. No concurrent writer, so
            // every attempt validates on its first window.
            let (ok, _) = symheap::dcas(1, OFF_WIDE, 0, 7);
            assert!(ok);
            for _ in 0..READS {
                assert_eq!(symheap::read_wide(1, OFF_WIDE), 7);
            }
        });

        let c = runtimes[0].total_comm();
        assert_eq!(c.vread_fast, READS, "every read validated optimistically");
        assert_eq!(c.vread_retries, 0, "no concurrent writer, no torn windows");
        assert_eq!(c.vread_fallbacks, 0);
        assert_eq!(c.gets, READS * 2, "each versioned read is two real GETs");
        assert_eq!(
            c.bytes_got,
            READS * (16 + 24),
            "one GET covers the whole cell, the other seq+lo"
        );
        assert_eq!(c.am_sent, 1, "only the seeding DCAS crossed as an AM");

        let t = runtimes[0].total_telemetry();
        let vr = t.class(OpClass::VersionedRead);
        assert_eq!(vr.count(), READS);
        assert!(vr.max() > 0, "versioned reads record wall time");
        drop(runtimes);
    }
}

proptest! {
    // Each case spins up a full runtime (real threads); keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-publisher FIFO: however ops interleave across tasks, one task's
    /// combined operations execute at the destination in issue order.
    #[test]
    fn combining_preserves_per_task_fifo(
        tasks in 1usize..5,
        per_task in 1u64..24,
    ) {
        let rt = Runtime::new(
            RuntimeConfig::cluster(2)
                .without_network_atomics()
                .with_combining(true),
        );
        let log = std::sync::Mutex::new(Vec::<(usize, u64)>::new());
        rt.run(|| {
            rt.coforall_tasks(tasks, |t| {
                for i in 0..per_task {
                    rt.on_combining(1, || {
                        log.lock().unwrap().push((t, i));
                    });
                }
            });
        });
        let log = log.into_inner().unwrap();
        prop_assert_eq!(log.len(), tasks * per_task as usize);
        let mut next = vec![0u64; tasks];
        for (t, i) in log {
            prop_assert_eq!(i, next[t], "task {}'s ops must execute in issue order", t);
            next[t] += 1;
        }
    }
}

#[test]
fn batched_path_is_cheaper_in_virtual_time() {
    let measure = |drive: fn(&Runtime, &[AtomicInt])| {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        let ((), span) = rt.run_measured(|| {
            let cells: Vec<AtomicInt> = (0..CELLS).map(|_| AtomicInt::new_on(1, 0)).collect();
            drive(&rt, &cells);
        });
        span
    };
    let per_op_span = measure(per_op);
    let batched_span = measure(batched);
    assert!(
        batched_span * 5 < per_op_span,
        "batching should win by >5x: {batched_span} vs {per_op_span}"
    );
}

#[test]
fn on_async_overlaps_where_blocking_serializes() {
    // A fire-and-forget burst completes in less virtual time than the same
    // burst of blocking `on` calls, and both leave identical memory.
    let k = 8u64;
    let blocking = {
        let rt = Runtime::cluster(2);
        let (sum, span) = rt.run_measured(|| {
            let cell = AtomicInt::new_on(1, 0);
            for _ in 0..k {
                rt.on(1, || {
                    cell.fetch_add(1);
                });
            }
            cell.read()
        });
        assert_eq!(sum, k);
        span
    };
    let asynced = {
        let rt = Runtime::cluster(2);
        let (sum, span) = rt.run_measured(|| {
            let cell = std::sync::Arc::new(AtomicInt::new_on(1, 0));
            let pending: Vec<Completion> = (0..k)
                .map(|_| {
                    let cell = std::sync::Arc::clone(&cell);
                    rt.on_async(1, move || {
                        cell.fetch_add(1);
                    })
                })
                .collect();
            for c in pending {
                c.wait();
            }
            cell.read()
        });
        assert_eq!(sum, k);
        span
    };
    assert!(
        asynced < blocking,
        "async burst ({asynced} ns) should overlap service where blocking \
         calls serialize ({blocking} ns)"
    );
}
