//! What every user of the shared Harris chain (`LockFreeList`,
//! `DistHashMap`, `ShardedHashMap`) owes its callers, checked through the
//! public API only: the list's communication per operation, drop-exactly-
//! once on all three exits of an insert, and one latency sample per
//! `contains_key`.

use std::cell::RefCell;
use std::cmp::Ordering as Cmp;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pgas_epoch::{EpochManager, HazardReclaimer, Reclaimer};
use pgas_sim::telemetry::OpClass;
use pgas_sim::{Runtime, RuntimeConfig};
use pgas_structures::{DistHashMap, LockFreeList, ShardedHashMap};

/// `[rdma_atomics, cpu_atomics, am_sent, hazard_protects]` spent by part of
/// [`list_script`].
type Cost = [u64; 4];

/// A fixed single-task script over a list homed on locale 0 of a
/// two-locale cluster: every operation kind, hits and misses (a miss that
/// stops at a larger key, a miss that runs off the end), first from the
/// home locale and then from locale 1, where every link is remote. Returns
/// what `insert`/`contains`/`remove` cost and what the two `len` calls
/// cost.
fn list_script<R: Reclaimer>(cfg: RuntimeConfig) -> (Cost, Cost) {
    let rt = Runtime::new(cfg);
    let costs = rt.run(|| {
        let l = LockFreeList::<u64, R>::with_reclaimer();
        let now = || {
            let c = rt.total_comm();
            let protects = l.reclaimer().stats().hazard_protects;
            [c.rdma_atomics, c.cpu_atomics, c.am_sent, protects]
        };
        let since = |t0: Cost| {
            let t1 = now();
            [t1[0] - t0[0], t1[1] - t0[1], t1[2] - t0[2], t1[3] - t0[3]]
        };
        let t0 = now();
        let home_len = {
            let tok = l.register();
            for k in [5, 3, 9, 7] {
                assert!(l.insert(&tok, k));
            }
            assert!(!l.insert(&tok, 5));
            assert!(l.contains(&tok, 3));
            assert!(!l.contains(&tok, 4));
            assert!(!l.contains(&tok, 10));
            assert!(l.remove(&tok, 5));
            assert!(!l.remove(&tok, 5));
            assert!(!l.remove(&tok, 1));
            let t = now();
            assert_eq!(l.len(), 3);
            since(t)
        };
        let away_len = rt.on(1, || {
            let tok = l.register();
            assert!(l.insert(&tok, 4));
            assert!(l.insert(&tok, 6));
            assert!(!l.insert(&tok, 9));
            assert!(l.contains(&tok, 9));
            assert!(!l.contains(&tok, 8));
            assert!(l.remove(&tok, 3));
            assert!(!l.remove(&tok, 3));
            let t = now();
            assert_eq!(l.len(), 4);
            since(t)
        });
        let (all, mut ops, mut len) = (since(t0), [0; 4], [0; 4]);
        for i in 0..4 {
            len[i] = home_len[i] + away_len[i];
            ops[i] = all[i] - len[i];
        }
        l.clear_reclaim();
        (ops, len)
    });
    assert_eq!(rt.live_objects(), 0);
    costs
}

/// The list's communication is pinned to what its own Harris
/// implementation issued before it moved onto the shared chain: every
/// constant below was recorded at the parent commit of that change.
#[test]
fn list_on_chain_issues_the_same_communication() {
    let rdma = || RuntimeConfig::cluster(2);
    let no_rdma = || RuntimeConfig::cluster(2).without_network_atomics();

    let (ops, len) = list_script::<HazardReclaimer>(rdma());
    assert_eq!((ops, len), ([192, 0, 1, 42], [27, 0, 0, 7]), "hp");
    let (ops, len) = list_script::<HazardReclaimer>(no_rdma());
    assert_eq!((ops, len), ([0, 192, 40, 42], [0, 27, 5, 7]), "hp, no rdma");

    // The one constant that moved. Under EBR the parent's `len` walked the
    // list with no guard at all: 9 link reads for the two calls, and a
    // use-after-free if a remover reclaimed under it. On the shared walk
    // it registers and pins like both maps' `len`: the same 9 reads plus 5
    // atomics per call (token pop and push, the epoch read).
    const EBR_LEN: u64 = 9 + 2 * 5;
    // The other constant that moved: the script's second half runs in an
    // `on` body, which now registers the standing token slot of locale 1's
    // progress thread. Its drop finds the slot unpinned and leaves it with
    // the thread: no epoch store and no read of the free stack's head
    // (2 atomics; the push's DCAS is not counted here). The `len` inside
    // that body is a nested registration and still pops and pushes.
    const EBR_OPS: u64 = 130 - 2;
    let (ops, len) = list_script::<EpochManager>(rdma());
    assert_eq!((ops, len), ([EBR_OPS, 0, 1, 0], [EBR_LEN, 0, 0, 0]), "ebr");
    let (ops, len) = list_script::<EpochManager>(no_rdma());
    assert_eq!(
        (ops, len),
        ([0, EBR_OPS, 25, 0], [0, EBR_LEN, 3, 0]),
        "ebr, no rdma"
    );
}

// ---------------------------------------------------------------------
// Drop-exactly-once.
// ---------------------------------------------------------------------

/// Constructions (clones included) and drops of every [`Tracked`] made
/// from one `Tally`.
#[derive(Default)]
struct Tally {
    made: AtomicUsize,
    dropped: AtomicUsize,
}

impl Tally {
    fn live(&self) -> usize {
        self.made.load(Ordering::SeqCst) - self.dropped.load(Ordering::SeqCst)
    }
}

thread_local! {
    /// Runs once, inside the next `Tracked::cmp` on this thread: the
    /// deterministic stand-in for "another task got in between my search
    /// and my CAS".
    static DURING_CMP: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
}

/// A key/value that counts its constructions and drops. Every key hashes
/// alike, so chain order falls through to `cmp` on every hop.
struct Tracked {
    id: u64,
    tally: Arc<Tally>,
}

impl Tracked {
    fn new(id: u64, tally: &Arc<Tally>) -> Tracked {
        tally.made.fetch_add(1, Ordering::SeqCst);
        Tracked {
            id,
            tally: Arc::clone(tally),
        }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Tracked {
        Tracked::new(self.id, &self.tally)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.tally.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

impl Hash for Tracked {
    fn hash<H: Hasher>(&self, state: &mut H) {
        0u8.hash(state);
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Tracked) -> bool {
        self.id == other.id
    }
}
impl Eq for Tracked {}
impl PartialOrd for Tracked {
    fn partial_cmp(&self, other: &Tracked) -> Option<Cmp> {
        Some(self.cmp(other))
    }
}
impl Ord for Tracked {
    fn cmp(&self, other: &Tracked) -> Cmp {
        if let Some(f) = DURING_CMP.with(|h| h.borrow_mut().take()) {
            f();
        }
        self.id.cmp(&other.id)
    }
}

/// The three exits of an insert, against any map given as its `insert`
/// (which must register its own guard: the racing insert runs nested
/// inside the outer one). Returns with 2 entries in the map.
fn insert_exits_drop_exactly_once(tally: &Arc<Tally>, insert: Rc<dyn Fn(u64) -> bool>) {
    let t = |id| Tracked::new(id, tally);
    drop(t(0));
    assert_eq!(tally.live(), 0);

    // Exit 1 — inserted: the map owns key and value, nothing dropped.
    assert!(insert(9));
    assert_eq!(tally.live(), 2);
    assert_eq!(tally.dropped.load(Ordering::SeqCst), 1);

    // Exit 2 — duplicate found by the first search, before any node was
    // allocated: the rejected pair is dropped on the spot, once.
    assert!(!insert(9));
    assert_eq!(tally.live(), 2);
    assert_eq!(tally.dropped.load(Ordering::SeqCst), 3);

    // Exit 3 — the first search finds no 5 (it stops at 9); while it
    // compares, "another task" inserts 5. The outer insert allocates its
    // node, loses the CAS, searches again with that node in hand and finds
    // the duplicate: node freed, its pair dropped once.
    let racer = Rc::clone(&insert);
    DURING_CMP.with(|h| *h.borrow_mut() = Some(Box::new(move || assert!(racer(5), "racer wins"))));
    assert!(!insert(5), "outer insert loses to the racer");
    assert!(DURING_CMP.with(|h| h.borrow().is_none()), "hook ran");
    assert_eq!(tally.live(), 4, "9 and the racer's 5");
    assert_eq!(tally.dropped.load(Ordering::SeqCst), 5);
}

#[test]
fn chain_insert_exits_drop_exactly_once_dist_map() {
    fn run<R: Reclaimer + 'static>() {
        let tally = Arc::new(Tally::default());
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let m: Arc<DistHashMap<Tracked, Tracked, R>> = Arc::new(DistHashMap::with_reclaimer(1));
            let (m2, t2) = (Arc::clone(&m), Arc::clone(&tally));
            insert_exits_drop_exactly_once(
                &tally,
                Rc::new(move |id| {
                    let tok = m2.register();
                    m2.insert(&tok, Tracked::new(id, &t2), Tracked::new(id, &t2))
                }),
            );
            assert_eq!(m.len(), 2);
            m.clear_reclaim();
        });
        assert_eq!(tally.live(), 0, "teardown drops what the map still owned");
        assert_eq!(rt.live_objects(), 0);
    }
    run::<EpochManager>();
    run::<HazardReclaimer>();
}

#[test]
fn chain_insert_exits_drop_exactly_once_sharded_map() {
    fn run<R: Reclaimer + 'static>() {
        let tally = Arc::new(Tally::default());
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let m: Arc<ShardedHashMap<Tracked, Tracked, R>> =
                Arc::new(ShardedHashMap::with_reclaimer(1));
            let (m2, t2) = (Arc::clone(&m), Arc::clone(&tally));
            insert_exits_drop_exactly_once(
                &tally,
                Rc::new(move |id| {
                    let tok = m2.register();
                    m2.insert(&tok, Tracked::new(id, &t2), Tracked::new(id, &t2))
                }),
            );
            assert_eq!(m.len(), 2);
            m.clear_reclaim();
        });
        assert_eq!(tally.live(), 0, "teardown drops what the map still owned");
        assert_eq!(rt.live_objects(), 0);
    }
    run::<EpochManager>();
    run::<HazardReclaimer>();
}

// ---------------------------------------------------------------------
// One public op, one root span.
// ---------------------------------------------------------------------

#[test]
fn contains_key_records_exactly_one_sample() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let legacy: DistHashMap<u64, u64> = DistHashMap::new(8);
        let sharded: ShardedHashMap<u64, u64> = ShardedHashMap::new(8);
        let (lt, st) = (legacy.register(), sharded.register());
        for k in 0..32 {
            legacy.insert(&lt, k, k);
            sharded.insert(&st, k, k);
        }
        let count = |class| rt.total_telemetry().class(class).count();
        // Hits and misses, keys owned here and on the other locale.
        for k in 0..64u64 {
            let before = (count(OpClass::MapOp), count(OpClass::ShardedMapOp));
            assert_eq!(legacy.contains_key(&lt, &k), k < 32);
            assert_eq!(count(OpClass::MapOp), before.0 + 1, "legacy key {k}");
            assert_eq!(sharded.contains_key(&st, &k), k < 32);
            assert_eq!(count(OpClass::ShardedMapOp), before.1 + 1, "sharded {k}");
        }
        drop((lt, st));
        legacy.clear_reclaim();
        sharded.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}
