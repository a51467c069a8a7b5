//! # pgas-net — the multi-process transport backend
//!
//! [`ProcEngine`] is a second [`CommEngine`] implementation in which each
//! locale is a real OS process and every remote operation crosses loopback
//! TCP in the length-prefixed [`wire`] format. Where the simulator charges
//! virtual time and shares one address space, this backend pays physical
//! wall time and shares *nothing* — remote memory is reachable only
//! through each locale's registered symmetric heap
//! ([`pgas_sim::symheap::SymHeap`]) and registered handler functions
//! ([`pgas_sim::handlers`]), because raw pointers and closures cannot
//! cross a process boundary.
//!
//! ## Topology
//!
//! Every rank binds one loopback listener and knows every peer's address
//! (the `procbench` orchestrator performs that handshake over the agents'
//! stdin/stdout). Requests travel over per-destination pooled connections;
//! a connection belongs to one requester at a time, who either sends one
//! request and reads its reply or *pipelines* a few
//! ([`ProcEngine::request_pipelined`]: every frame in one `write`, the
//! replies read back in order). Replies need no demultiplexer, just a
//! sequence-number cross-check, because the server answers a connection
//! strictly in request order. A requester waits at most
//! [`REQUEST_TIMEOUT`] for a send or a reply and then panics naming both
//! ranks and the pending sequence number.
//!
//! On the server side an acceptor thread hands each connection to a reader
//! thread, and requests fall into the two service classes the paper
//! distinguishes:
//!
//! * **One-sided and atomic requests** (`Get`, `Put`, `Atomic64`, `Dcas`)
//!   are single atomic operations on the [`SymHeap`], which local callers
//!   race anyway. The connection's reader thread executes them itself and
//!   writes the reply — the way a NIC serves RDMA, with the owner's
//!   handler loop a bystander.
//! * **`Handler` requests** are active messages. Every reader forwards
//!   them to the single handler thread per process, which runs them one at
//!   a time — serialized exactly like the simulator's `ServerSlots`
//!   discipline with one progress thread — and writes the reply. The
//!   forwarding reader waits for that write before it serves its next
//!   frame, which is what keeps a connection's replies in request order.
//!
//! ## Counters and latency
//!
//! The engine bumps the same [`pgas_sim::stats::Counter`]s the
//! simulator would for the equivalent operation (requester-side `am_sent`,
//! `gets`/`puts`/bytes; server-side `am_handled`, `cpu_atomics`,
//! `cpu_dcas`), so sim-vs-proc parity is checkable. Latency histograms are
//! stamped from [`std::time::Instant`] wall time — `AmRoundTrip`, `Get`,
//! `Put`, `AmService`, `VersionedRead` carry real loopback round trips
//! instead of model costs, and virtual time stays at zero.
//!
//! ## Versioned reads stay physically real
//!
//! [`CommEngine::sym_read_u128`] issues *two* one-sided GETs per optimistic
//! attempt — the whole cell, then sequence+low half again — and validates
//! that both observed the same even sequence and the same low half. The
//! two GETs are pipelined on one connection, so the attempt costs one round
//! trip, but they remain two reads of the owner's memory: the window
//! between them is real concurrency against a [`WideCell::update`] running
//! on another reader thread or on the owner itself, not a model artifact.
//! The data words are read before the sequence is read again, as in any
//! seqlock: a GET loads its words once each in ascending address order
//! ([`SymHeap::read_bytes`]) and a connection is served in request order.
//!
//! [`SymHeap`]: pgas_sim::symheap::SymHeap
//! [`WideCell::update`]: pgas_sim::symheap::WideCell::update
//! [`SymHeap::read_bytes`]: pgas_sim::symheap::SymHeap::read_bytes

pub mod wire;

#[cfg(test)]
mod tests;

use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;

use pgas_sim::engine::{CommEngine, Completion, CompletionWaiter};
use pgas_sim::handlers::{self, HandlerId};
use pgas_sim::runtime::RuntimeCore;
use pgas_sim::stats::Counter;
use pgas_sim::symheap::SymOp64;
use pgas_sim::telemetry::OpClass;
use pgas_sim::LocaleId;

use wire::Msg;

/// The longest a requester waits for a pooled socket to take a request or
/// deliver a reply before it gives the peer up for dead or wedged.
#[cfg(not(test))]
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Shortened so the accept-then-stall test finishes quickly.
#[cfg(test)]
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// A requester's connection to one peer: the socket under the read buffer
/// that makes a reply frame one `read`.
type Conn = BufReader<TcpStream>;

/// Per-destination pools of idle request connections. Checkout is
/// exclusive, and a connection is only ever pooled with no reply owed on
/// it.
type Pools = Vec<Mutex<Vec<Conn>>>;

/// The server's side of one accepted connection, shared by its reader
/// thread and — while a `Handler` request of it is being served — the
/// handler thread.
struct ServerConn {
    stream: TcpStream,
    /// The handler thread signals here once it has written a reply.
    reply_written: Sender<()>,
}

/// A `Handler` request travelling from a reader thread to the per-process
/// handler thread, with the connection to write the reply on.
struct HandlerCall {
    seq: u64,
    msg: Msg,
    conn: Arc<ServerConn>,
}

/// Server-side shared state (owned by the engine, referenced by threads).
struct ServerState {
    rank: LocaleId,
    shutdown: AtomicBool,
    core: OnceLock<Weak<RuntimeCore>>,
    /// Every accepted connection, so [`ProcEngine::shutdown`] can unblock
    /// their reader threads.
    conns: Mutex<Vec<Arc<ServerConn>>>,
    /// Reader-thread handles (spawned by the acceptor, joined at
    /// shutdown).
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerState {
    fn core(&self) -> Option<Arc<RuntimeCore>> {
        self.core.get().and_then(Weak::upgrade)
    }
}

/// The multi-process [`CommEngine`] backend (see the crate docs).
pub struct ProcEngine {
    rank: LocaleId,
    nlocales: usize,
    peers: Vec<SocketAddr>,
    /// Shared with the [`ProcWaiter`]s of pending async handler calls,
    /// which hand their connection back once the reply is in.
    pools: Arc<Pools>,
    /// Taken by the acceptor thread at [`CommEngine::bind`].
    listener: Mutex<Option<TcpListener>>,
    local_addr: SocketAddr,
    seq: AtomicU64,
    state: Arc<ServerState>,
    /// Submission side of the handler funnel; dropped at shutdown so the
    /// handler thread drains and exits.
    handler_tx: Mutex<Option<Sender<HandlerCall>>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    handler: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ProcEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcEngine")
            .field("rank", &self.rank)
            .field("nlocales", &self.nlocales)
            .field("addr", &self.local_addr)
            .finish()
    }
}

impl ProcEngine {
    /// Build the engine for locale `rank` of `peers.len()` locales.
    /// `listener` must already be bound (so ranks can exchange addresses
    /// before anyone starts a runtime); `peers[rank]` must be its address.
    /// The server threads start when the runtime calls
    /// [`CommEngine::bind`].
    pub fn new(rank: LocaleId, listener: TcpListener, peers: Vec<SocketAddr>) -> ProcEngine {
        let local_addr = listener.local_addr().expect("listener has no local addr");
        assert!(
            (rank as usize) < peers.len(),
            "rank {rank} out of range for {} peers",
            peers.len()
        );
        ProcEngine {
            rank,
            nlocales: peers.len(),
            pools: Arc::new((0..peers.len()).map(|_| Mutex::new(Vec::new())).collect()),
            peers,
            listener: Mutex::new(Some(listener)),
            local_addr,
            seq: AtomicU64::new(1),
            state: Arc::new(ServerState {
                rank,
                shutdown: AtomicBool::new(false),
                core: OnceLock::new(),
                conns: Mutex::new(Vec::new()),
                readers: Mutex::new(Vec::new()),
            }),
            handler_tx: Mutex::new(None),
            acceptor: Mutex::new(None),
            handler: Mutex::new(None),
        }
    }

    /// This rank's listening address (what peers must be told).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The rank this process is.
    pub fn rank(&self) -> LocaleId {
        self.rank
    }

    /// Check out an idle connection to `dest` (connecting lazily).
    fn checkout(&self, dest: LocaleId) -> Conn {
        if let Some(conn) = self.pools[dest as usize].lock().pop() {
            return conn;
        }
        let addr = self.peers[dest as usize];
        let s = TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!(
                "locale {}: cannot reach locale {dest} at {addr}: {e}",
                self.rank
            )
        });
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| s.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .expect("a nonzero socket timeout is always accepted");
        BufReader::with_capacity(wire::READ_BUF, s)
    }

    /// Send `msgs` to `dest` on one connection — every frame in a single
    /// `write` — and hand their replies to `on_reply` in request order,
    /// each cross-checked against its request's sequence number. A
    /// [`Msg::ReplyErr`] re-panics here once every reply is in.
    fn exchange(&self, dest: LocaleId, msgs: &[Msg], mut on_reply: impl FnMut(Msg)) {
        let mut conn = self.checkout(dest);
        let first = self.seq.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        let mut frames = Vec::with_capacity(64 * msgs.len());
        for (seq, msg) in (first..).zip(msgs) {
            wire::encode_frame(&mut frames, seq, msg);
        }
        conn.get_mut().write_all(&frames).unwrap_or_else(|e| {
            panic!(
                "locale {}: sending request seq {first} to locale {dest} failed: {e}",
                self.rank
            )
        });
        let mut remote_panic = None;
        for seq in first..first + msgs.len() as u64 {
            let (rseq, reply) = wire::read_msg(&mut conn).unwrap_or_else(|e| {
                panic!(
                    "locale {}: no reply from locale {dest} to request seq {seq}: {e}",
                    self.rank
                )
            });
            assert_eq!(rseq, seq, "proc transport: reply out of sequence");
            match reply {
                Msg::ReplyErr(e) => remote_panic = remote_panic.or(Some(e)),
                reply => on_reply(reply),
            }
        }
        self.pools[dest as usize].lock().push(conn);
        if let Some(e) = remote_panic {
            panic!("remote handler on locale {dest} panicked: {e}");
        }
    }

    /// One blocking request/reply round trip to `dest`.
    fn request(&self, dest: LocaleId, msg: &Msg) -> Msg {
        let mut reply = None;
        self.exchange(dest, std::slice::from_ref(msg), |r| reply = Some(r));
        reply.expect("one request yields one reply")
    }

    /// Pipeline `msgs` to `dest`: all frames leave in one `write`, the
    /// owner serves them in order, and the replies come back in the same
    /// order — one round trip, however many requests. Meant for a handful
    /// of small frames: the requester does not start reading until the
    /// whole batch is written, so batch and replies must fit the socket
    /// buffers.
    pub fn request_pipelined(&self, dest: LocaleId, msgs: &[Msg]) -> Vec<Msg> {
        let mut replies = Vec::with_capacity(msgs.len());
        self.exchange(dest, msgs, |r| replies.push(r));
        replies
    }
}

/// Execute one server-side request against `core`'s local symmetric heap,
/// bumping the owner-side counters the simulator's handler path would.
/// One-sided and atomic requests run on the connection's reader thread;
/// `Handler` requests on the single handler thread, inside
/// [`RuntimeCore::run_on`].
fn serve(core: &RuntimeCore, rank: LocaleId, msg: Msg) -> Msg {
    let locale = core.locale(rank);
    let stats = &locale.stats;
    let t0 = Instant::now();
    let reply = match msg {
        Msg::Atomic64 { offset, op } => {
            stats.add(Counter::AmHandled, 1);
            stats.add(Counter::CpuAtomics, 1);
            Msg::ReplyU64(locale.sym.apply64(offset, op))
        }
        Msg::Dcas {
            offset,
            expected,
            new,
        } => {
            stats.add(Counter::AmHandled, 1);
            stats.add(Counter::CpuDcas, 1);
            let (ok, current) = locale.sym.wide_dcas(offset, expected, new);
            Msg::ReplyDcas { ok, current }
        }
        // One-sided: the requester does the counting (charge_get/charge_put
        // semantics), the owner CPU is a bystander.
        Msg::Get { offset, len } => {
            if len as usize > wire::MAX_FRAME {
                return Msg::ReplyErr(format!("GET of {len} bytes exceeds the frame limit"));
            }
            let mut buf = vec![0u8; len as usize];
            locale.sym.read_bytes(offset, &mut buf);
            return Msg::ReplyBytes(buf);
        }
        Msg::Put { offset, data } => {
            locale.sym.write_bytes(offset, &data);
            return Msg::ReplyUnit;
        }
        Msg::Handler { id, args } => {
            stats.add(Counter::AmHandled, 1);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handlers::invoke(HandlerId(id), core, &args)
            })) {
                Ok(out) => Msg::ReplyBytes(out),
                Err(p) => Msg::ReplyErr(panic_message(&p)),
            }
        }
        other => Msg::ReplyErr(format!("protocol error: unexpected request {other:?}")),
    };
    stats.record(OpClass::AmService, t0.elapsed().as_nanos() as u64);
    reply
}

/// [`serve`], with a panic (an out-of-range offset, say) turned into the
/// [`Msg::ReplyErr`] the requester re-panics with.
fn serve_caught(f: impl FnOnce() -> Msg) -> Msg {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|p| Msg::ReplyErr(panic_message(&p)))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A connection's reader thread: serve one-sided and atomic requests on the
/// spot, forward `Handler` requests and wait until their reply is written,
/// so that replies leave in request order.
fn read_loop(
    state: &ServerState,
    conn: Arc<ServerConn>,
    reply_written: Receiver<()>,
    handler_tx: Sender<HandlerCall>,
) {
    let mut frames = BufReader::with_capacity(wire::READ_BUF, &conn.stream);
    while let Ok(Some((seq, msg))) = wire::read_msg_opt(&mut frames) {
        let replied = if matches!(msg, Msg::Handler { .. }) {
            let call = HandlerCall {
                seq,
                msg,
                conn: Arc::clone(&conn),
            };
            handler_tx.send(call).is_ok() && reply_written.recv().is_ok()
        } else if let Some(core) = state.core() {
            let reply = serve_caught(|| serve(&core, state.rank, msg));
            wire::write_msg(&mut &conn.stream, seq, &reply).is_ok()
        } else {
            false
        };
        if !replied {
            break;
        }
    }
}

/// The single handler thread: serialized AM handling, like the sim's
/// progress service with one slot.
fn handler_loop(state: &ServerState, calls: Receiver<HandlerCall>) {
    while let Ok(call) = calls.recv() {
        let reply = match state.core() {
            Some(core) => {
                serve_caught(|| core.run_on(state.rank, || serve(&core, state.rank, call.msg)))
            }
            None => Msg::ReplyErr("the owner's runtime is gone".to_string()),
        };
        // A failed write means the requester hung up; its reader finds out.
        let _ = wire::write_msg(&mut &call.conn.stream, call.seq, &reply);
        let _ = call.conn.reply_written.send(());
    }
}

/// The acceptor: one reader thread per inbound connection.
fn accept_loop(state: &Arc<ServerState>, listener: TcpListener, handler_tx: Sender<HandlerCall>) {
    while let Ok((stream, _)) = listener.accept() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        stream.set_nodelay(true).ok();
        let (reply_written, written_rx) = crossbeam_channel::bounded(1);
        let conn = Arc::new(ServerConn {
            stream,
            reply_written,
        });
        state.conns.lock().push(Arc::clone(&conn));
        let (state_r, handler_tx) = (Arc::clone(state), handler_tx.clone());
        let reader = std::thread::Builder::new()
            .name(format!("pgas-proc-read-{}", state.rank))
            .spawn(move || read_loop(&state_r, conn, written_rx, handler_tx));
        if let Ok(h) = reader {
            state.readers.lock().push(h);
        }
    }
}

impl CommEngine for ProcEngine {
    fn sym_atomic_u64(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, op: SymOp64) -> u64 {
        let stats = &core.locale(self.rank).stats;
        if owner == self.rank {
            stats.add(Counter::CpuAtomics, 1);
            return core.locale(self.rank).sym.apply64(offset, op);
        }
        stats.add(Counter::AmSent, 1);
        let t0 = Instant::now();
        let reply = self.request(owner, &Msg::Atomic64 { offset, op });
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyU64(v) => v,
            other => panic!("protocol error: Atomic64 answered with {other:?}"),
        }
    }

    fn sym_dcas_u128(
        &self,
        core: &RuntimeCore,
        owner: LocaleId,
        offset: u64,
        expected: u128,
        new: u128,
    ) -> (bool, u128) {
        let stats = &core.locale(self.rank).stats;
        if owner == self.rank {
            stats.add(Counter::CpuDcas, 1);
            return core.locale(self.rank).sym.wide_dcas(offset, expected, new);
        }
        stats.add(Counter::AmSent, 1);
        let t0 = Instant::now();
        let reply = self.request(
            owner,
            &Msg::Dcas {
                offset,
                expected,
                new,
            },
        );
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyDcas { ok, current } => (ok, current),
            other => panic!("protocol error: Dcas answered with {other:?}"),
        }
    }

    fn sym_read_u128(&self, core: &RuntimeCore, owner: LocaleId, offset: u64) -> u128 {
        let stats = &core.locale(self.rank).stats;
        if owner == self.rank {
            stats.add(Counter::CpuDcas, 1);
            return core.locale(self.rank).sym.wide_load(offset);
        }
        if core.config.vread_fastpath {
            // Two GETs per attempt, pipelined on one connection: the torn
            // window between them is physically real. GET 1 reads the whole
            // cell [seq, lo, hi]; GET 2 re-reads [seq, lo] after it. Valid
            // iff both sequences are equal and even and the low halves
            // agree.
            let tries = core.config.vread_max_tries.max(1);
            let t0 = Instant::now();
            for _ in 0..tries {
                let [a, b] = self.fetch_bytes(core, owner, [(offset, 24), (offset, 16)]);
                let word = |bytes: &[u8], i: usize| {
                    u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
                };
                let (seq1, lo1, hi) = (word(&a, 0), word(&a, 1), word(&a, 2));
                let (seq2, lo2) = (word(&b, 0), word(&b, 1));
                if seq1 % 2 == 0 && seq1 == seq2 && lo1 == lo2 {
                    stats.add(Counter::VreadFast, 1);
                    stats.record(OpClass::VersionedRead, t0.elapsed().as_nanos() as u64);
                    return ((hi as u128) << 64) | lo1 as u128;
                }
                stats.add(Counter::VreadRetries, 1);
            }
            stats.add(Counter::VreadFallbacks, 1);
        }
        // DCAS slow path: value-preserving read via a full round trip.
        self.sym_dcas_u128(core, owner, offset, 0, 0).1
    }

    fn sym_get(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, out: &mut [u8]) {
        if owner == self.rank {
            core.locale(self.rank).sym.read_bytes(offset, out);
            return;
        }
        let t0 = Instant::now();
        let [data] = self.fetch_bytes(core, owner, [(offset, out.len() as u32)]);
        core.locale(self.rank)
            .stats
            .record(OpClass::Get, t0.elapsed().as_nanos() as u64);
        out.copy_from_slice(&data);
    }

    fn sym_put(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, data: &[u8]) {
        if owner == self.rank {
            core.locale(self.rank).sym.write_bytes(offset, data);
            return;
        }
        let stats = &core.locale(self.rank).stats;
        stats.add(Counter::Puts, 1);
        stats.add(Counter::BytesPut, data.len() as u64);
        let t0 = Instant::now();
        let reply = self.request(
            owner,
            &Msg::Put {
                offset,
                data: data.to_vec(),
            },
        );
        stats.record(OpClass::Put, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyUnit => {}
            other => panic!("protocol error: Put answered with {other:?}"),
        }
    }

    fn on_handler(&self, core: &RuntimeCore, dest: LocaleId, h: HandlerId, args: &[u8]) -> Vec<u8> {
        if dest == self.rank {
            return handlers::invoke(h, core, args);
        }
        let stats = &core.locale(self.rank).stats;
        stats.add(Counter::AmSent, 1);
        let t0 = Instant::now();
        let reply = self.request(
            dest,
            &Msg::Handler {
                id: h.0,
                args: args.to_vec(),
            },
        );
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyBytes(out) => out,
            other => panic!("protocol error: Handler answered with {other:?}"),
        }
    }

    fn on_handler_async(
        &self,
        core: &RuntimeCore,
        dest: LocaleId,
        h: HandlerId,
        args: Vec<u8>,
    ) -> Completion {
        if dest == self.rank {
            let _ = handlers::invoke(h, core, &args);
            return Completion::done();
        }
        let stats = &core.locale(self.rank).stats;
        stats.add(Counter::AmSent, 1);
        let mut conn = self.checkout(dest);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        wire::write_msg(conn.get_mut(), seq, &Msg::Handler { id: h.0, args }).unwrap_or_else(|e| {
            panic!(
                "locale {}: sending async request seq {seq} to locale {dest} failed: {e}",
                self.rank
            )
        });
        // The waiter owns the connection while the reply is in flight and
        // pools it once the reply frame has been read.
        Completion::from_waiter(Box::new(ProcWaiter {
            conn: Some(conn),
            pools: Arc::clone(&self.pools),
            rank: self.rank,
            dest,
            seq,
        }))
    }

    // --- lifecycle ---

    fn entry_locale(&self) -> LocaleId {
        self.rank
    }

    fn bind(&self, core: &Arc<RuntimeCore>) {
        assert_eq!(
            core.num_locales(),
            self.nlocales,
            "runtime has {} locales but the proc topology has {}",
            core.num_locales(),
            self.nlocales
        );
        self.state
            .core
            .set(Arc::downgrade(core))
            .expect("ProcEngine bound twice");
        let (tx, rx) = crossbeam_channel::unbounded::<HandlerCall>();
        *self.handler_tx.lock() = Some(tx.clone());

        let state = Arc::clone(&self.state);
        *self.handler.lock() = Some(
            std::thread::Builder::new()
                .name(format!("pgas-proc-handler-{}", self.rank))
                .spawn(move || handler_loop(&state, rx))
                .expect("failed to spawn proc handler thread"),
        );

        let listener = self
            .listener
            .lock()
            .take()
            .expect("ProcEngine bound twice (listener already taken)");
        let state = Arc::clone(&self.state);
        *self.acceptor.lock() = Some(
            std::thread::Builder::new()
                .name(format!("pgas-proc-accept-{}", self.rank))
                .spawn(move || accept_loop(&state, listener, tx))
                .expect("failed to spawn proc accept thread"),
        );
    }

    fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor (it re-checks the flag on wake) and wait for
        // it, so the connection list below is complete.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        // Unblock every reader (and any peer blocked on us replying).
        for conn in self.state.conns.lock().drain(..) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Close idle outbound connections so peers' readers exit too.
        for pool in self.pools.iter() {
            for conn in pool.lock().drain(..) {
                let _ = conn.get_ref().shutdown(Shutdown::Both);
            }
        }
        for h in self.state.readers.lock().drain(..) {
            let _ = h.join();
        }
        // Ours was the last sender: the handler thread drains and exits.
        *self.handler_tx.lock() = None;
        if let Some(h) = self.handler.lock().take() {
            let _ = h.join();
        }
    }
}

impl ProcEngine {
    /// One-sided GETs of `(offset, len)` ranges from `owner`, pipelined in
    /// one round trip and served in order (requester-side counting shared
    /// by `sym_get` and the versioned-read attempts).
    fn fetch_bytes<const N: usize>(
        &self,
        core: &RuntimeCore,
        owner: LocaleId,
        ranges: [(u64, u32); N],
    ) -> [Vec<u8>; N] {
        let stats = &core.locale(self.rank).stats;
        let gets = ranges.map(|(offset, len)| {
            stats.add(Counter::Gets, 1);
            stats.add(Counter::BytesGot, len as u64);
            Msg::Get { offset, len }
        });
        let mut replies = self.request_pipelined(owner, &gets).into_iter();
        ranges.map(|(_, len)| match replies.next() {
            Some(Msg::ReplyBytes(data)) => {
                assert_eq!(data.len(), len as usize, "short GET reply");
                data
            }
            other => panic!("protocol error: Get answered with {other:?}"),
        })
    }
}

impl Drop for ProcEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`CompletionWaiter`] over a connection with one reply frame in flight.
/// Dropped unfinished, it closes the connection: only a connection that
/// owes no reply goes back to the pool.
struct ProcWaiter {
    /// `None` once the reply has been read (or given up on).
    conn: Option<Conn>,
    pools: Arc<Pools>,
    rank: LocaleId,
    dest: LocaleId,
    seq: u64,
}

impl ProcWaiter {
    fn finish(&mut self) {
        let Some(mut conn) = self.conn.take() else {
            return;
        };
        match wire::read_msg(&mut conn) {
            Ok((seq, reply)) => {
                assert_eq!(seq, self.seq, "proc transport: reply out of sequence");
                self.pools[self.dest as usize].lock().push(conn);
                if let Msg::ReplyErr(e) = reply {
                    panic!("remote handler on locale {} panicked: {e}", self.dest);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => panic!(
                "locale {}: no reply from locale {} to async request seq {}: {e}",
                self.rank, self.dest, self.seq
            ),
            // Connection torn down (engine shutdown): the result is
            // abandoned, matching Completion's drop semantics.
            Err(_) => {}
        }
    }
}

impl CompletionWaiter for ProcWaiter {
    fn poll(&mut self) -> bool {
        let Some(conn) = &self.conn else {
            return true;
        };
        let s = conn.get_ref();
        s.set_nonblocking(true).ok();
        let mut probe = [0u8; 1];
        let r = s.peek(&mut probe);
        s.set_nonblocking(false).ok();
        match r {
            Ok(_) => {
                self.finish();
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(_) => {
                self.conn = None;
                true
            }
        }
    }

    fn wait(mut self: Box<Self>) {
        self.finish();
    }
}
