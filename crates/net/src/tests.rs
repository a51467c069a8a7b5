//! Engine tests over real loopback TCP: the two service classes, reply
//! order, pipelined versioned reads, connection reuse, and how a requester
//! fails when its peer dies or stalls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Barrier, Condvar};

use pgas_atomics::{AtomicAbaObject, AtomicInt};
use pgas_sim::{here, symheap, Batcher, EngineKind, GlobalPtr, Runtime, RuntimeConfig};

use super::*;

/// One rank's runtime, with the handle a test needs to look at its server.
struct Rank {
    rt: Runtime,
    server: Arc<ServerState>,
}

fn start(rank: usize, listener: TcpListener, peers: Vec<SocketAddr>, vread: bool) -> Rank {
    let engine = ProcEngine::new(rank as LocaleId, listener, peers.clone());
    let server = Arc::clone(&engine.state);
    let config = RuntimeConfig::cluster(peers.len())
        .with_engine(EngineKind::Proc)
        .with_vread_fastpath(vread);
    Rank {
        rt: Runtime::with_engine(config, Box::new(engine)),
        server,
    }
}

fn listeners(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    (listeners, addrs)
}

/// Two engines wired to each other inside this process.
fn pair() -> [Rank; 2] {
    pair_with(true)
}

fn pair_with(vread: bool) -> [Rank; 2] {
    let (listeners, peers) = listeners(2);
    let mut ranks = listeners
        .into_iter()
        .enumerate()
        .map(|(r, l)| start(r, l, peers.clone(), vread));
    [ranks.next().unwrap(), ranks.next().unwrap()]
}

/// Rank 0 of a two-rank topology whose rank 1 is `peer`, a bare socket the
/// test plays by hand.
fn rank0_against(peer: &TcpListener) -> Rank {
    let (mut own, mut peers) = listeners(1);
    peers.push(peer.local_addr().expect("peer address"));
    start(0, own.remove(0), peers, true)
}

fn panic_text(f: impl FnOnce()) -> String {
    let p = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    panic_message(&*p)
}

const OFF_COUNTER: u64 = 0;
const OFF_WIDE: u64 = 16;
const OFF_BUF: u64 = 64;

// --- the two service classes ---------------------------------------------

static IN_HANDLER: AtomicBool = AtomicBool::new(false);
static HANDLER_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Flags itself as running, gives every other thread the chance to
/// trespass, and leaves.
fn exclusive(_core: &RuntimeCore, _args: &[u8]) -> Vec<u8> {
    assert!(
        !IN_HANDLER.swap(true, Ordering::SeqCst),
        "two registered handlers ran at once"
    );
    std::thread::yield_now();
    HANDLER_RUNS.fetch_add(1, Ordering::SeqCst);
    IN_HANDLER.store(false, Ordering::SeqCst);
    Vec::new()
}

#[test]
fn handlers_stay_serialized_under_concurrent_callers_and_one_sided_traffic() {
    const CALLERS: usize = 4;
    const CALLS: usize = 200;
    let exclusive = handlers::register("net.tests.exclusive", exclusive);
    let [r0, _r1] = pair();
    let start = Barrier::new(CALLERS + 2);
    let calling = AtomicUsize::new(CALLERS);
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            s.spawn(|| {
                r0.rt.run(|| {
                    start.wait();
                    for _ in 0..CALLS {
                        handlers::call(1, exclusive, &[]);
                    }
                });
                calling.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Each on a connection of its own, served by a reader of its own.
        let one_sided = s.spawn(|| {
            r0.rt.run(|| {
                start.wait();
                let mut adds = 0;
                while calling.load(Ordering::SeqCst) > 0 {
                    assert_eq!(symheap::fetch_add(1, OFF_COUNTER, 1), adds);
                    adds += 1;
                }
                adds
            })
        });
        s.spawn(|| {
            r0.rt.run(|| {
                start.wait();
                let mut buf = [0u8; 64];
                while calling.load(Ordering::SeqCst) > 0 {
                    symheap::get(1, OFF_BUF, &mut buf);
                    assert_eq!(buf, [0u8; 64]);
                }
            })
        });
        let adds = one_sided.join().expect("fetch_add driver panicked");
        assert_eq!(r0.rt.run(|| symheap::load(1, OFF_COUNTER)), adds);
    });
    assert_eq!(HANDLER_RUNS.load(Ordering::SeqCst), CALLERS * CALLS);
}

/// Where `parked` stands: idle, holding the handler turn, or let go.
#[derive(PartialEq)]
enum Park {
    Idle,
    Parked,
    Released,
}
static PARK: (std::sync::Mutex<Park>, Condvar) =
    (std::sync::Mutex::new(Park::Idle), Condvar::new());

fn park_move(from: Park, to: Park) {
    let mut at = PARK.0.lock().unwrap();
    while *at != from {
        at = PARK.1.wait(at).unwrap();
    }
    *at = to;
    PARK.1.notify_all();
}

/// Holds the handler turn until the test lets go.
fn parked(_core: &RuntimeCore, _args: &[u8]) -> Vec<u8> {
    park_move(Park::Idle, Park::Parked);
    park_move(Park::Released, Park::Idle);
    vec![1]
}

#[test]
fn one_sided_requests_do_not_queue_behind_a_running_handler() {
    let parked = handlers::register("net.tests.parked", parked);
    let [r0, _r1] = pair();
    std::thread::scope(|s| {
        let call = s.spawn(|| r0.rt.run(|| handlers::call(1, parked, &[])));
        // Returns once a reader of the owner is inside `parked`, where it
        // stays; the other readers serve all four one-sided kinds regardless.
        park_move(Park::Parked, Park::Parked);
        r0.rt.run(|| {
            assert_eq!(symheap::fetch_add(1, OFF_COUNTER, 5), 0);
            assert_eq!(symheap::dcas(1, OFF_WIDE, 0, 9), (true, 0));
            assert_eq!(symheap::read_wide(1, OFF_WIDE), 9);
            symheap::put(1, OFF_BUF, &[3; 8]);
            let mut buf = [0u8; 8];
            symheap::get(1, OFF_BUF, &mut buf);
            assert_eq!(buf, [3; 8]);
        });
        park_move(Park::Parked, Park::Released);
        assert_eq!(call.join().expect("handler call panicked"), vec![1]);
    });
}

/// `args` back, after a pause long enough for a later reply to overtake.
fn slow_echo(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    std::thread::sleep(Duration::from_millis(20));
    args.to_vec()
}

#[test]
fn pipelined_replies_come_back_in_request_order() {
    let echo = handlers::register("net.tests.slow_echo", slow_echo);
    let (listeners, peers) = listeners(2);
    let mut listeners = listeners.into_iter();
    // Rank 0's engine stays in hand: `request_pipelined` is its method.
    let requester = ProcEngine::new(0, listeners.next().unwrap(), peers.clone());
    let _r1 = start(1, listeners.next().unwrap(), peers, true);
    let replies = requester.request_pipelined(
        1,
        &[
            Msg::Handler {
                id: echo.0,
                args: vec![0xAB],
            },
            Msg::Atomic64 {
                offset: OFF_COUNTER,
                op: SymOp64::FetchAdd(2),
            },
            Msg::Get {
                offset: OFF_COUNTER,
                len: 8,
            },
        ],
    );
    // The GET ran after the fetch_add, which ran after the handler replied:
    // a reader that served on past a pending handler would fail the seq
    // cross-check inside `request_pipelined`.
    assert_eq!(
        replies,
        [
            Msg::ReplyBytes(vec![0xAB]),
            Msg::ReplyU64(0),
            Msg::ReplyBytes(2u64.to_le_bytes().to_vec()),
        ]
    );
}

static AFTER_PANIC_IN: AtomicBool = AtomicBool::new(false);

/// [`exclusive`]'s check, with flags of its own so the two tests that use
/// them can run at once.
fn alone_after_panic(_core: &RuntimeCore, _args: &[u8]) -> Vec<u8> {
    assert!(
        !AFTER_PANIC_IN.swap(true, Ordering::SeqCst),
        "two registered handlers ran at once"
    );
    std::thread::yield_now();
    AFTER_PANIC_IN.store(false, Ordering::SeqCst);
    vec![1]
}

fn gives_up(_core: &RuntimeCore, _args: &[u8]) -> Vec<u8> {
    panic!("the handler gave up")
}

#[test]
fn a_panicking_handler_hands_the_turn_on() {
    const CALLS: usize = 100;
    let gives_up = handlers::register("net.tests.gives_up", gives_up);
    let alone = handlers::register("net.tests.alone_after_panic", alone_after_panic);
    let [r0, r1] = pair();
    let text = panic_text(|| {
        r0.rt.run(|| handlers::call(1, gives_up, &[]));
    });
    assert!(text.contains("the handler gave up"), "{text}");
    // Both callers hold a connection of their own before either calls on:
    // a turn the panic left held would time both of them out.
    let holding = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                r0.rt.run(|| {
                    let first = handlers::call_async(1, alone, Vec::new());
                    holding.wait();
                    first.wait();
                    for _ in 0..CALLS {
                        assert_eq!(handlers::call(1, alone, &[]), vec![1]);
                    }
                })
            });
        }
    });
    assert!(r1.server.conns.lock().len() >= 2);
}

// --- shared-address-space work on a process runtime -------------------------

/// Runs `f` as a task of rank 0 and requires it to panic, within the request
/// timeout, with a message that names the portable replacement. Nobody serves
/// a closure or a raw address on this runtime, so a call that got as far as
/// sending one would wait forever: it runs on a thread of its own, left
/// behind if it hangs.
fn rejected(r0: &Arc<Rank>, what: &str, f: impl FnOnce(&Runtime) + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let r = Arc::clone(r0);
    std::thread::spawn(move || {
        let _ = tx.send(panic_text(|| r.rt.run(|| f(&r.rt))));
    });
    let text = match rx.recv_timeout(REQUEST_TIMEOUT) {
        Ok(text) => text,
        Err(RecvTimeoutError::Timeout) => panic!("{what} hung instead of panicking"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} did not panic"),
    };
    assert!(
        text.contains("handlers") || text.contains("symmetric heap"),
        "{what} must point at handlers or the symmetric heap: {text}"
    );
}

#[test]
fn closures_and_raw_atomics_aimed_at_another_rank_panic_promptly() {
    let [r0, _r1] = pair();
    let r0 = Arc::new(r0);
    rejected(&r0, "on", |rt| rt.on(1, || ()));
    rejected(&r0, "on_async", |rt| rt.on_async(1, || ()).wait());
    rejected(&r0, "on_combining", |rt| rt.on_combining(1, || ()));
    rejected(&r0, "a Batcher flush", |rt| {
        let mut b = Batcher::new(rt, 4, |_, _: Vec<u64>| ());
        b.aggregate(1, 7);
        b.flush();
    });
    rejected(&r0, "AtomicInt::read", |_| {
        AtomicInt::new_on(1, 0).read();
    });
    rejected(&r0, "AtomicAbaObject::read_aba", |_| {
        AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null()).read_aba();
    });
}

#[test]
fn the_same_calls_aimed_at_the_own_rank_run_inline() {
    let [r0, _r1] = pair_with(false);
    r0.rt.run(|| {
        let rt = &r0.rt;
        let caller = std::thread::current().id();
        let inline = || (here(), std::thread::current().id());
        assert_eq!(rt.on(0, inline), (0, caller));
        assert_eq!(rt.on_combining(0, inline), (0, caller));
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let mut done = rt.on_async(0, move || ran2.store(true, Ordering::SeqCst));
        assert!(done.completed() && ran.load(Ordering::SeqCst));
        done.wait();
        let flushed = AtomicU64::new(0);
        let mut b = Batcher::new(rt, 4, |dest, batch: Vec<u64>| {
            assert_eq!((dest, here()), (0, 0));
            flushed.fetch_add(batch.iter().sum(), Ordering::SeqCst);
        });
        b.aggregate(0, 7);
        b.flush();
        assert_eq!(flushed.load(Ordering::SeqCst), 7);
        assert_eq!(AtomicInt::new_on(0, 5).read(), 5);
        let cell = AtomicAbaObject::<u64>::new_on(0, GlobalPtr::null());
        assert!(cell.read_aba().get_object().is_null());
    });
    assert_eq!(r0.rt.total_comm().am_sent, 0);
}

#[test]
fn a_rank_local_atomic_counts_one_cpu_atomic_and_no_nic_or_message() {
    let [r0, _r1] = pair();
    r0.rt.run(|| {
        let cell = AtomicInt::new_on(0, 40);
        let before = r0.rt.total_comm();
        assert_eq!(cell.fetch_add(2), 40);
        let moved = r0.rt.total_comm() - before;
        assert_eq!(
            (moved.cpu_atomics, moved.rdma_atomics, moved.am_sent),
            (1, 0, 0)
        );
    });
}

/// With the fast path on, too: a process reads its own cell with one
/// DCAS-class load, as `sym_read_u128` does, not over a GET to itself.
#[test]
fn a_rank_local_versioned_read_takes_the_dcas_path() {
    let [r0, _r1] = pair();
    r0.rt.run(|| {
        let cell = AtomicAbaObject::<u64>::new_on(0, GlobalPtr::null());
        let before = r0.rt.total_comm();
        assert!(cell.read_aba().get_object().is_null());
        let moved = r0.rt.total_comm() - before;
        assert_eq!(
            (moved.cpu_dcas, moved.vread_fast, moved.gets, moved.am_sent),
            (1, 0, 0, 0)
        );
    });
}

// --- versioned reads --------------------------------------------------------

#[test]
fn pipelined_versioned_reads_never_tear_under_a_dcas_writer() {
    const WRITES: u128 = 20_000;
    let [r0, _r1] = pair();
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        // Writer and reader hold a connection each, so their requests run on
        // two of rank 1's reader threads at once.
        s.spawn(|| {
            r0.rt.run(|| {
                start.wait();
                for n in 1..=WRITES {
                    let prev = ((n - 1) << 64) | (n - 1);
                    let (ok, seen) = symheap::dcas(1, OFF_WIDE, prev, (n << 64) | n);
                    assert!(ok && seen == prev, "single writer must always succeed");
                }
            });
            done.store(true, Ordering::SeqCst);
        });
        r0.rt.run(|| {
            start.wait();
            let mut last = 0;
            while !done.load(Ordering::SeqCst) {
                let v = symheap::read_wide(1, OFF_WIDE);
                assert_eq!(v as u64, (v >> 64) as u64, "torn pair {v:#x}");
                assert!(v as u64 >= last, "reads went backwards");
                last = v as u64;
            }
        });
    });
    let c = r0.rt.total_comm();
    assert!(
        c.vread_fast > 0,
        "the pipelined fast path must have validated reads"
    );
    assert_eq!(
        c.gets,
        2 * (c.vread_fast + c.vread_retries),
        "two GETs per attempt"
    );
}

// --- connection reuse -------------------------------------------------------

fn nop(_core: &RuntimeCore, _args: &[u8]) -> Vec<u8> {
    Vec::new()
}

#[test]
fn async_handler_calls_reuse_one_connection() {
    let nop = handlers::register("net.tests.nop", nop);
    let [r0, r1] = pair();
    r0.rt.run(|| {
        for _ in 0..1000 {
            handlers::call_async(1, nop, Vec::new()).wait();
        }
        // Polled to completion rather than waited for: same connection.
        let mut c = handlers::call_async(1, nop, Vec::new());
        while !c.completed() {
            std::thread::yield_now();
        }
        handlers::call(1, nop, &[]);
    });
    assert_eq!(
        r1.server.conns.lock().len(),
        1,
        "1002 sequential calls need one connection and one reader thread"
    );
    assert_eq!(r1.server.readers.lock().len(), 1);
}

// --- failing peers ----------------------------------------------------------

/// A bare peer on `peer` that reads one request and hands its sequence
/// number to `answer` with the connection. Its reads time out, so a request
/// that never comes fails the test instead of hanging it.
fn serve_one(peer: &TcpListener, answer: impl FnOnce(&TcpStream, u64)) {
    let (conn, _) = peer.accept().expect("accept the requester");
    conn.set_read_timeout(Some(REQUEST_TIMEOUT))
        .expect("a nonzero timeout is accepted");
    let (seq, _) = wire::read_msg(&mut BufReader::new(&conn)).expect("a request arrives");
    answer(&conn, seq);
}

#[test]
fn an_async_call_whose_peer_hangs_up_fails_its_wait_naming_both_ranks() {
    let nop = handlers::register("net.tests.nop", nop);
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let r0 = rank0_against(&peer);
    std::thread::scope(|s| {
        // Reads the whole request, then hangs up without a reply.
        s.spawn(|| serve_one(&peer, |_, _| ()));
        let text = panic_text(|| {
            r0.rt
                .run(|| handlers::call_async(1, nop, Vec::new()).wait());
        });
        assert!(
            text.contains("locale 0") && text.contains("locale 1") && text.contains("seq 1"),
            "the failure must name the local rank, the peer and the pending seq: {text}"
        );
    });
}

#[test]
fn polling_an_async_call_whose_handler_panicked_does_not_panic() {
    let nop = handlers::register("net.tests.nop", nop);
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let r0 = rank0_against(&peer);
    std::thread::scope(|s| {
        s.spawn(|| {
            serve_one(&peer, |conn, seq| {
                let failed = Msg::ReplyErr("the handler gave up".to_string());
                wire::write_msg(&mut &*conn, seq, &failed).expect("reply");
                // The next request comes on the same connection, which the
                // requester pooled after the failed reply.
                let (seq, _) = wire::read_msg(&mut BufReader::new(conn)).expect("a second request");
                wire::write_msg(&mut &*conn, seq, &Msg::ReplyBytes(vec![7])).expect("reply");
            });
        });
        r0.rt.run(|| {
            let mut c = handlers::call_async(1, nop, Vec::new());
            while !c.completed() {
                std::thread::yield_now();
            }
            let text = panic_text(|| c.wait());
            assert!(
                text.contains("locale 1") && text.contains("the handler gave up"),
                "{text}"
            );
            assert_eq!(handlers::call(1, nop, &[]), vec![7]);
        });
    });
}

#[test]
fn a_peer_that_closes_mid_frame_fails_the_request_naming_both_ranks() {
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let r0 = rank0_against(&peer);
    std::thread::scope(|s| {
        s.spawn(|| {
            let (conn, _) = peer.accept().expect("accept the requester");
            // The whole request, or the hang-up below is a reset.
            wire::read_msg(&mut BufReader::new(&conn)).expect("a request arrives");
            // A prefix promising 32 bytes, five of them, and a hang-up.
            (&conn)
                .write_all(&[32, 0, 0, 0, 1, 2, 3, 4, 5])
                .expect("partial reply");
        });
        let text = panic_text(|| {
            r0.rt.run(|| symheap::fetch_add(1, OFF_COUNTER, 1));
        });
        assert!(
            text.contains("locale 0") && text.contains("locale 1") && text.contains("mid-frame"),
            "unhelpful failure: {text}"
        );
    });
}

#[test]
fn a_peer_that_accepts_and_stalls_fails_the_request_within_the_timeout() {
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let r0 = rank0_against(&peer);
    let answered = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Holds the connection open and never answers.
            let _conn = peer.accept().expect("accept the requester");
            answered.wait();
        });
        let t0 = Instant::now();
        let text = panic_text(|| {
            r0.rt.run(|| symheap::fetch_add(1, OFF_COUNTER, 1));
        });
        let waited = t0.elapsed();
        answered.wait();
        assert!(
            text.contains("locale 0") && text.contains("locale 1") && text.contains("seq 1"),
            "the failure must name the local rank, the peer and the pending seq: {text}"
        );
        assert!(
            waited >= REQUEST_TIMEOUT && waited < 4 * REQUEST_TIMEOUT,
            "gave up after {waited:?}"
        );
    });
}
