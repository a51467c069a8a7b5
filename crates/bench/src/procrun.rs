//! The `procbench` machinery: agent processes, the orchestrator that
//! spawns/handshakes/reaps them, and the merge of per-agent results into
//! one `BENCH_results.json`-shaped row tagged `engine: "proc"`.
//!
//! ## Protocol
//!
//! The orchestrator re-executes *its own binary* once per locale with
//! `PGAS_PROC_RANK` set (every binary that can orchestrate calls
//! [`maybe_run_agent`] first thing in `main`, so the re-exec lands in the
//! agent path). Handshake, over the agent's stdio:
//!
//! 1. agent binds `127.0.0.1:0`, prints `PORT <n>`;
//! 2. orchestrator collects every port, writes one `PEERS a b c...` line
//!    to each agent's stdin;
//! 3. agents build a [`pgas_net::ProcEngine`] over the full topology, run
//!    the scenario, and print one `RESULT {json}` line with their comm
//!    counters and wall-clock latency histograms.
//!
//! The orchestrator's stdin pipes double as a lifeline: agents watch for
//! EOF on stdin and exit if the orchestrator dies (Ctrl-C included), and
//! the orchestrator kills and reaps every child as soon as any agent
//! exits early, emits garbage, or blows the deadline — a crashed agent
//! can never leave orphans or a hung run behind.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pgas_nb::sim::config::{EngineKind, RuntimeConfig};
use pgas_nb::sim::engine::Completion;
use pgas_nb::sim::symheap::{self, SymOp64};
use pgas_nb::sim::{handlers, HandlerId, Runtime};
use pgas_net::ProcEngine;

use crate::json::{self, jnum, jstr, Value};

/// Env var selecting the agent path (value = this process's rank).
pub const ENV_RANK: &str = "PGAS_PROC_RANK";
/// Env var carrying the locale count to agents.
pub const ENV_NLOCALES: &str = "PGAS_PROC_NLOCALES";
/// Env var carrying the per-task op count to agents.
pub const ENV_OPS: &str = "PGAS_PROC_OPS";
/// Env var carrying the task (thread) count per agent.
pub const ENV_TASKS: &str = "PGAS_PROC_TASKS";
/// Env var making the matching rank exit right after the handshake —
/// exercised by the teardown tests to prove the orchestrator reaps.
pub const ENV_CRASH: &str = "PGAS_PROC_CRASH";

// Symmetric-heap layout, identical on every rank (the heap starts zeroed
// and offsets are protocol constants, so no allocation negotiation).
const OFF_START: u64 = 0; // start-barrier count, lives on rank 0
const OFF_END: u64 = 8; // end-barrier count, lives on rank 0
const OFF_ACK: u64 = 16; // teardown acks, lives on rank 0
const OFF_COUNTER: u64 = 24; // fetch-add / handler target, every rank
const OFF_WIDE: u64 = 32; // 24-byte versioned wide cell, every rank
const OFF_BUF: u64 = 64; // 64-byte GET/PUT buffer, every rank
const BUF_LEN: usize = 64;

/// The registered handler: `args = [delta: u64 LE][offset: u64 LE]`,
/// fetch-adds `delta` into the local symmetric-heap word at `offset`,
/// replies with the previous value.
fn add_handler(core: &pgas_nb::sim::RuntimeCore, args: &[u8]) -> Vec<u8> {
    let delta = u64::from_le_bytes(args[0..8].try_into().unwrap());
    let offset = u64::from_le_bytes(args[8..16].try_into().unwrap());
    let here = pgas_nb::sim::here();
    let prev = core
        .locale(here)
        .sym
        .apply64(offset, SymOp64::FetchAdd(delta));
    prev.to_le_bytes().to_vec()
}

fn register_handlers() -> HandlerId {
    handlers::register("procbench.add", add_handler)
}

/// If this process was re-executed as an agent (`PGAS_PROC_RANK` set),
/// run the agent to completion and exit; otherwise return so `main` can
/// proceed as the orchestrator (or as a plain CLI). Call this first in
/// every binary that orchestrates.
pub fn maybe_run_agent() {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: usize = rank
        .parse()
        .unwrap_or_else(|_| panic!("bad {ENV_RANK}: {rank:?}"));
    let code = run_agent(rank);
    std::process::exit(code);
}

fn env_num<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One agent process: handshake, scenario, single-line JSON result.
fn run_agent(rank: usize) -> i32 {
    let nlocales: usize = env_num(ENV_NLOCALES, 2);
    let ops: u64 = env_num(ENV_OPS, 1024);
    let tasks: usize = env_num(ENV_TASKS, 2);

    let listener = TcpListener::bind("127.0.0.1:0").expect("agent cannot bind loopback");
    let port = listener.local_addr().unwrap().port();
    println!("PORT {port}");
    std::io::stdout().flush().ok();

    let mut stdin = BufReader::new(std::io::stdin());
    let mut line = String::new();
    stdin
        .read_line(&mut line)
        .expect("agent: reading PEERS line");
    let peers: Vec<std::net::SocketAddr> = line
        .trim()
        .strip_prefix("PEERS ")
        .unwrap_or_else(|| panic!("agent {rank}: expected PEERS line, got {line:?}"))
        .split_whitespace()
        .map(|a| a.parse().expect("bad peer address"))
        .collect();
    assert_eq!(peers.len(), nlocales, "agent {rank}: peer count mismatch");

    if std::env::var(ENV_CRASH).ok().as_deref() == Some(&rank.to_string()) {
        eprintln!("agent {rank}: crashing on request ({ENV_CRASH})");
        return 101;
    }

    // Lifeline: the orchestrator holds our stdin open for the whole run.
    // EOF means it died (crash, Ctrl-C, kill) — exit rather than linger as
    // an orphan with a bound port and live peer connections.
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => std::process::exit(2),
                Ok(_) => {}
            }
        }
    });

    let add_id = register_handlers();
    let cfg = RuntimeConfig::cluster(nlocales).with_engine(EngineKind::Proc);
    let engine = ProcEngine::new(rank as u16, listener, peers);
    let rt = Runtime::with_engine(cfg, Box::new(engine));

    let (wall_ns, total_ops, comm_json, latency_json) = rt.run(|| {
        // Start barrier: everyone checks in on rank 0, then spins until
        // the count hits nlocales.
        symheap::fetch_add(0, OFF_START, 1);
        while symheap::load(0, OFF_START) < nlocales as u64 {
            std::thread::yield_now();
        }
        rt.reset_metrics();

        let t0 = Instant::now();
        let handle = rt.handle();
        let ops_done: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = (0..tasks)
                .map(|t| {
                    let handle = handle.clone();
                    s.spawn(move || {
                        handle.run_on(rank as u16, || ops_loop(rank, nlocales, ops, t, add_id))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("agent task panicked"))
                .sum()
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;

        let t = rt.total_telemetry();
        let comm_json = t.comm.to_json();
        let latency_json = t.latency_json();

        // End barrier, then teardown acks so rank 0 outlives every peer
        // still talking to it.
        symheap::fetch_add(0, OFF_END, 1);
        while symheap::load(0, OFF_END) < nlocales as u64 {
            std::thread::yield_now();
        }
        if rank == 0 {
            while symheap::load(0, OFF_ACK) < (nlocales - 1) as u64 {
                std::thread::yield_now();
            }
        } else {
            symheap::fetch_add(0, OFF_ACK, 1);
        }
        (wall_ns, ops_done, comm_json, latency_json)
    });

    println!(
        "RESULT {{\"rank\": {rank}, \"wall_ns\": {wall_ns}, \"ops\": {total_ops}, \
         \"comm\": {comm_json}, \"latency\": {latency_json}}}"
    );
    std::io::stdout().flush().ok();
    drop(rt);
    0
}

/// The measured mixed workload: remote fetch-adds, wide DCAS, 64-byte
/// GET/PUT, a blocking handler call every 16th op and a fire-and-forget
/// one every 64th. No versioned reads — the proc rows are named without
/// `vread=on`, so their vread counters must stay zero.
fn ops_loop(rank: usize, nlocales: usize, ops: u64, task: usize, add_id: HandlerId) -> u64 {
    let mut buf = [0u8; BUF_LEN];
    let data = [rank as u8; BUF_LEN];
    let mut pending: Vec<Completion> = Vec::new();
    let mut done = 0u64;
    let mut handler_args = [0u8; 16];
    handler_args[0..8].copy_from_slice(&1u64.to_le_bytes());
    handler_args[8..16].copy_from_slice(&OFF_COUNTER.to_le_bytes());
    for i in 0..ops {
        let owner = if nlocales == 1 {
            0
        } else {
            ((rank + 1 + (i as usize + task) % (nlocales - 1)) % nlocales) as u16
        };
        match i % 4 {
            0 => {
                symheap::fetch_add(owner, OFF_COUNTER, 1);
            }
            1 => {
                let bid = ((rank as u128) << 64) | i as u128;
                symheap::dcas(owner, OFF_WIDE, (i % 7) as u128, bid);
            }
            2 => {
                symheap::get(owner, OFF_BUF, &mut buf);
            }
            _ => {
                symheap::put(owner, OFF_BUF, &data);
            }
        }
        done += 1;
        if i % 16 == 0 {
            handlers::call(owner, add_id, &handler_args);
            done += 1;
        }
        if i % 64 == 0 {
            pending.push(handlers::call_async(owner, add_id, handler_args.to_vec()));
            done += 1;
        }
    }
    for c in pending {
        c.wait();
    }
    done
}

// --- orchestrator -------------------------------------------------------

/// One procbench cell: how many agents, how hard they work, how long the
/// orchestrator waits before declaring the run wedged.
#[derive(Debug, Clone)]
pub struct ProcSpec {
    /// Number of agent processes (= locales).
    pub locales: usize,
    /// Per-task op count in each agent.
    pub ops: u64,
    /// Worker threads per agent.
    pub tasks: usize,
    /// Wall-clock budget for the whole cell; blowing it kills every agent.
    pub timeout: Duration,
}

impl Default for ProcSpec {
    fn default() -> Self {
        ProcSpec {
            locales: 4,
            ops: 1024,
            tasks: 2,
            timeout: Duration::from_secs(60),
        }
    }
}

/// A merged result row, shaped exactly like a harness record plus the
/// `engine: "proc"` tag.
#[derive(Debug)]
pub struct ProcRow {
    /// Series name (e.g. `fig3 proc mixed`).
    pub name: String,
    /// Locale (agent process) count.
    pub locales: usize,
    /// Makespan: the slowest agent's wall-clock measure window, in ns
    /// (this backend has no virtual time, so the row's `vtime_ns` carries
    /// wall time).
    pub wall_ns: u64,
    /// Total ops across every agent and task.
    pub ops: u64,
    /// Merged comm counters (key-wise sum over agents).
    pub comm: BTreeMap<String, u64>,
    /// Merged latency JSON (counts summed, percentiles element-wise max,
    /// means op-weighted).
    pub latency: String,
}

impl ProcRow {
    /// Nanoseconds per op per agent (each agent ran its share in
    /// `wall_ns` of wall time, concurrently).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return f64::NAN;
        }
        self.wall_ns as f64 * self.locales as f64 / self.ops as f64
    }

    /// Aggregate throughput in million ops per second.
    pub fn mops(&self) -> f64 {
        if self.wall_ns == 0 {
            return f64::NAN;
        }
        self.ops as f64 * 1e3 / self.wall_ns as f64
    }

    fn comm_get(&self, key: &str) -> u64 {
        self.comm.get(key).copied().unwrap_or(0)
    }

    /// Render the row as one `BENCH_results.json` object.
    pub fn to_json(&self) -> String {
        let mut comm = String::from("{");
        for (i, (k, v)) in self.comm.iter().enumerate() {
            if i > 0 {
                comm.push_str(", ");
            }
            comm.push_str(&format!("{}: {v}", jstr(k)));
        }
        comm.push('}');
        format!(
            "{{\"name\": {}, \"engine\": \"proc\", \"locales\": {}, \
             \"vtime_ns\": {}, \"ns_per_op\": {}, \"mops\": {}, \
             \"am_count\": {}, \"retries\": {}, \"gave_up\": {}, \
             \"injected_drops\": {}, \"injected_delays\": {}, \
             \"injected_dups\": {}, \"comm\": {comm}, \"latency\": {}, \
             \"reclaim\": null, \"shard\": null}}",
            jstr(&self.name),
            self.locales,
            self.wall_ns,
            jnum(self.ns_per_op()),
            jnum(self.mops()),
            self.comm_get("am_sent"),
            self.comm_get("retries"),
            self.comm_get("gave_up"),
            self.comm_get("injected_drops"),
            self.comm_get("injected_delays"),
            self.comm_get("injected_dups"),
            self.latency,
        )
    }
}

/// Children plus the guarantee that none of them outlives the
/// orchestration: killed and reaped on drop unless the run completed and
/// `disarm` was called.
struct Reaper {
    children: Vec<Child>,
    armed: bool,
}

impl Reaper {
    fn kill_all(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
    }

    /// Some child exited already? Returns `(rank, status)` of the first.
    fn any_exited(&mut self) -> Option<(usize, std::process::ExitStatus)> {
        for (i, c) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = c.try_wait() {
                return Some((i, status));
            }
        }
        None
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        if self.armed {
            self.kill_all();
        }
    }
}

/// Spawn `spec.locales` agents from `exe`, run the handshake and the
/// scenario, and merge their RESULT lines. Any agent crashing, emitting
/// garbage, or exceeding `spec.timeout` kills and reaps the whole fleet
/// and returns `Err`.
fn orchestrate(exe: &Path, spec: &ProcSpec) -> Result<ProcRow, String> {
    let deadline = Instant::now() + spec.timeout;
    let n = spec.locales;
    assert!(n >= 1, "need at least one locale");

    let mut reaper = Reaper {
        children: Vec::with_capacity(n),
        armed: true,
    };
    for rank in 0..n {
        let child = Command::new(exe)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_NLOCALES, n.to_string())
            .env(ENV_OPS, spec.ops.to_string())
            .env(ENV_TASKS, spec.tasks.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning agent {rank} from {exe:?}: {e}"))?;
        reaper.children.push(child);
    }

    // One reader thread per agent funnels stdout lines into a channel so
    // the orchestrator can wait with a deadline and watch for early exits.
    let (tx, rx) = mpsc::channel::<(usize, Option<String>)>();
    for (rank, child) in reaper.children.iter_mut().enumerate() {
        let stdout = child.stdout.take().expect("agent stdout piped");
        let tx = tx.clone();
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                match line {
                    Ok(l) => {
                        if tx.send((rank, Some(l))).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send((rank, None));
        });
    }
    drop(tx);

    let fail = |reaper: &mut Reaper, msg: String| -> String {
        reaper.kill_all();
        reaper.armed = false;
        msg
    };

    // Wait for one well-formed line (prefix-matched) from every agent.
    let collect_lines = |reaper: &mut Reaper,
                         rx: &mpsc::Receiver<(usize, Option<String>)>,
                         prefix: &str|
     -> Result<Vec<String>, String> {
        let mut out: Vec<Option<String>> = vec![None; n];
        let mut have = 0usize;
        while have < n {
            if let Some((rank, status)) = reaper.any_exited() {
                // An agent exiting before its line arrived is only OK if
                // the line is already queued; drain briefly then decide.
                while let Ok((r, Some(l))) = rx.try_recv() {
                    if l.starts_with(prefix) && out[r].is_none() {
                        out[r] = Some(l);
                        have += 1;
                    }
                }
                if out[rank].is_none() {
                    return Err(format!(
                        "agent {rank} exited ({status}) before sending its \
                         {prefix:?} line"
                    ));
                }
                if have >= n {
                    break;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "timed out waiting for {prefix:?} lines ({have}/{n} received)"
                ));
            }
            match rx.recv_timeout(left.min(Duration::from_millis(200))) {
                Ok((rank, Some(line))) => {
                    // Non-matching lines (agent chatter) are ignored.
                    if line.starts_with(prefix) && out[rank].is_none() {
                        out[rank] = Some(line);
                        have += 1;
                    }
                }
                Ok((_rank, None)) => {
                    // Stream closed; the exit check above decides.
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("every agent stream closed early".to_string());
                }
            }
        }
        Ok(out.into_iter().map(Option::unwrap).collect())
    };

    // Phase 1: ports.
    let port_lines = match collect_lines(&mut reaper, &rx, "PORT ") {
        Ok(l) => l,
        Err(e) => return Err(fail(&mut reaper, e)),
    };
    let mut peers = Vec::with_capacity(n);
    for (rank, l) in port_lines.iter().enumerate() {
        let port: u16 = l["PORT ".len()..]
            .trim()
            .parse()
            .map_err(|e| format!("agent {rank}: bad PORT line {l:?}: {e}"))
            .map_err(|e| fail(&mut reaper, e))?;
        peers.push(format!("127.0.0.1:{port}"));
    }

    // Phase 2: broadcast the topology. Stdin handles stay open for the
    // rest of the run — they are the agents' orchestrator-death lifeline.
    let peer_line = format!("PEERS {}\n", peers.join(" "));
    for (rank, child) in reaper.children.iter_mut().enumerate() {
        let stdin = child.stdin.as_mut().expect("agent stdin piped");
        if let Err(e) = stdin
            .write_all(peer_line.as_bytes())
            .and_then(|_| stdin.flush())
        {
            return Err(fail(
                &mut reaper,
                format!("agent {rank}: writing PEERS line: {e}"),
            ));
        }
    }

    // Phase 3: results.
    let result_lines = match collect_lines(&mut reaper, &rx, "RESULT ") {
        Ok(l) => l,
        Err(e) => return Err(fail(&mut reaper, e)),
    };

    // Phase 4: clean exits, still under the deadline.
    for (rank, child) in reaper.children.iter_mut().enumerate() {
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(fail(
                        &mut reaper,
                        format!("agent {rank} exited uncleanly after its result: {status}"),
                    ));
                }
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return Err(fail(
                            &mut reaper,
                            format!("agent {rank} did not exit before the deadline"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    return Err(fail(&mut reaper, format!("waiting on agent {rank}: {e}")));
                }
            }
        }
    }
    reaper.armed = false;

    merge_results(spec, &result_lines)
}

/// Merge per-agent `RESULT {json}` lines into one row.
fn merge_results(spec: &ProcSpec, lines: &[String]) -> Result<ProcRow, String> {
    let mut wall_ns = 0u64;
    let mut ops = 0u64;
    let mut comm: BTreeMap<String, u64> = BTreeMap::new();
    // class -> (count, p50, p99, p999, max, weighted-mean-numerator)
    let mut latency: BTreeMap<String, (u64, f64, f64, f64, f64, f64)> = BTreeMap::new();

    for (rank, line) in lines.iter().enumerate() {
        let body = line.strip_prefix("RESULT ").unwrap_or(line);
        let v = json::parse(body).map_err(|e| format!("agent {rank}: bad RESULT json: {e}"))?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("agent {rank}: RESULT missing numeric {key:?}"))
        };
        wall_ns = wall_ns.max(num("wall_ns")? as u64);
        ops += num("ops")? as u64;
        let comm_obj = v
            .get("comm")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("agent {rank}: RESULT missing comm object"))?;
        for (k, val) in comm_obj {
            let n = val
                .as_num()
                .ok_or_else(|| format!("agent {rank}: comm.{k} not a number"))?;
            *comm.entry(k.clone()).or_insert(0) += n as u64;
        }
        if let Some(lat) = v.get("latency").and_then(Value::as_obj) {
            for (class, summary) in lat {
                let g = |key: &str| summary.get(key).and_then(Value::as_num).unwrap_or(0.0);
                let count = g("count") as u64;
                let e = latency
                    .entry(class.clone())
                    .or_insert((0, 0.0, 0.0, 0.0, 0.0, 0.0));
                e.0 += count;
                e.1 = e.1.max(g("p50"));
                e.2 = e.2.max(g("p99"));
                e.3 = e.3.max(g("p999"));
                e.4 = e.4.max(g("max"));
                e.5 += g("mean") * count as f64;
            }
        }
    }

    // Render the merged latency object: summed counts, max'd percentiles
    // (element-wise max preserves p50 <= p99 <= p999 <= max), op-weighted
    // means.
    let mut lat = String::from("{");
    for (i, (class, (count, p50, p99, p999, max, mean_num))) in latency.iter().enumerate() {
        if i > 0 {
            lat.push_str(", ");
        }
        let mean = if *count > 0 {
            mean_num / *count as f64
        } else {
            0.0
        };
        lat.push_str(&format!(
            "{}: {{\"count\": {count}, \"p50\": {}, \"p99\": {}, \
             \"p999\": {}, \"max\": {}, \"mean\": {}}}",
            jstr(class),
            jnum(*p50),
            jnum(*p99),
            jnum(*p999),
            jnum(*max),
            jnum(mean),
        ));
    }
    lat.push('}');

    Ok(ProcRow {
        name: "fig3 proc mixed".to_string(),
        locales: spec.locales,
        wall_ns,
        ops,
        comm,
        latency: lat,
    })
}

/// Run one cell against this very binary (the common case: `procbench`
/// calls [`maybe_run_agent`] first, so re-executing `current_exe` lands in
/// the agent path).
pub fn orchestrate_self(spec: &ProcSpec) -> Result<ProcRow, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    orchestrate(&exe, spec)
}
