//! The wait-free limbo list (Listing 2) and its node-recycling pool.
//!
//! A limbo list holds objects that were logically removed during one epoch
//! and await reclamation. Its access pattern is extreme and simple: many
//! concurrent *insertions* (every `deferDelete`), and a *bulk removal* that
//! takes the entire list at once during reclamation. The paper's design
//! makes both a single atomic exchange:
//!
//! ```chapel
//! proc push(obj) { var node = recycleNode(obj);
//!                  var oldHead = _head.exchange(node);
//!                  node.next = oldHead; }
//! proc pop()     { return _head.exchange(nil); }
//! ```
//!
//! ### Correctness fix over the paper's listing
//! As printed, `push` publishes the node *before* writing `node.next`, so a
//! `pop` that lands between the two statements would traverse an
//! uninitialized `next`. We keep the single-exchange structure but make
//! `next` atomic and initialize it to a `PENDING` sentinel; the (single
//! consumer, bulk) drain spins per node until the pusher's store lands.
//! Push remains wait-free — one unconditional exchange plus one store — and
//! the drain waits at most one in-flight store per node.
//!
//! Nodes are recycled through a lock-free Treiber stack protected by the
//! ABA counter of [`pgas_atomics`] (the pool's `pop` is exactly the ABA
//! scenario the counter exists for).
//!
//! ### Deviation from the paper: one pool DCAS per drained list
//! The paper's `recycleNode` pushes every emptied node back onto that stack
//! by itself, one ABA compare-and-swap per node, while the locale's tasks
//! are popping the same stack for their next `deferDelete`. A detached limbo
//! list is already a private chain through its `next` links, so the drain
//! empties the nodes in place and [`NodePool::put_chain`] splices the whole
//! chain under the stack's top with **one** compare-and-swap, whatever its
//! length. The stack, its ABA protection and `get` are unchanged; the price
//! is that a drained node becomes reusable when its drain ends, not as soon
//! as it is emptied.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pgas_atomics::LocalAtomicAbaObject;
use pgas_sim::engine;
use pgas_sim::{here, Erased, GlobalPtr};

/// `next` value meaning "the pushing task has not yet published the link".
const PENDING: usize = usize::MAX;

/// A node in a limbo list (or, between uses, in the recycling pool).
pub struct LimboNode {
    obj: Option<Erased>,
    next: AtomicUsize,
}

impl LimboNode {
    fn new() -> Box<LimboNode> {
        Box::new(LimboNode {
            obj: None,
            next: AtomicUsize::new(PENDING),
        })
    }
}

/// The wait-free limbo list: concurrent `push`, single-exchange bulk
/// `take`.
pub struct LimboList {
    /// Raw `*mut LimboNode` as an integer; 0 = empty.
    head: AtomicU64,
}

impl Default for LimboList {
    fn default() -> Self {
        Self::new()
    }
}

impl LimboList {
    /// An empty limbo list.
    pub fn new() -> LimboList {
        LimboList {
            head: AtomicU64::new(0),
        }
    }

    /// Defer `obj`, using `node` (from the pool) as the link. Wait-free:
    /// one unconditional exchange.
    pub(crate) fn push_node(&self, mut node: Box<LimboNode>, obj: Erased) {
        node.obj = Some(obj);
        node.next.store(PENDING, Ordering::Relaxed);
        let raw = Box::into_raw(node);
        engine::charge_atomic_u64(here());
        let old = self.head.swap(raw as u64, Ordering::AcqRel);
        // Publish the link; a concurrent drain spins until this lands.
        unsafe { &*raw }.next.store(old as usize, Ordering::Release);
    }

    /// Detach the entire list (the deletion-phase `pop`): one exchange.
    /// Returns a drain handle that yields the deferred objects and recycles
    /// the nodes into `pool`.
    pub(crate) fn take(&self) -> TakenList {
        engine::charge_atomic_u64(here());
        let head = self.head.swap(0, Ordering::AcqRel);
        TakenList {
            head: head as usize,
        }
    }

    /// True if the list currently has no entries (racy; for tests and
    /// diagnostics).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == 0
    }
}

impl Drop for LimboList {
    fn drop(&mut self) {
        // Any remaining deferred objects are *leaked* deliberately: dropping
        // user objects requires runtime context for accounting, and a
        // correct shutdown path (EpochManager::clear / Drop) has already
        // emptied the list. Free only the node shells.
        let mut cur = *self.head.get_mut() as usize;
        while cur != 0 && cur != PENDING {
            let node = unsafe { Box::from_raw(cur as *mut LimboNode) };
            cur = node.next.load(Ordering::Relaxed);
            debug_assert!(
                node.obj.is_none(),
                "limbo list dropped while still holding deferred objects; \
                 call EpochManager::clear() before dropping the manager"
            );
        }
    }
}

/// Iterator over a detached limbo list. Yields each deferred object and
/// hands the emptied node to the pool it was created with.
pub(crate) struct TakenList {
    head: usize,
}

impl TakenList {
    /// Drain into `sink`, recycling nodes into `pool`. Returns the number
    /// of objects drained.
    ///
    /// The detached nodes are already a private chain through their `next`
    /// links, so they are emptied in place and go back to the pool together
    /// (see [`NodePool::put_chain`]). If `sink` panics, the nodes and the
    /// objects not yet handed over are leaked, never freed early.
    pub(crate) fn drain_into(self, pool: &NodePool, mut sink: impl FnMut(Erased)) -> usize {
        let head = self.head as *mut LimboNode;
        let mut tail = head;
        let mut cur = head;
        let mut n = 0;
        while !cur.is_null() {
            // Wait for the pusher to publish the link (see module docs).
            let next = loop {
                // SAFETY: nodes are only freed when their pool drops.
                let next = unsafe { &*cur }.next.load(Ordering::Acquire);
                if next != PENDING {
                    break next;
                }
                std::thread::yield_now();
            };
            // SAFETY: `take` detached the list, so this drain is the only
            // holder of its nodes; nothing else reads or writes `obj` (a
            // stale `NodePool::get` may still load `next`, hence no `&mut`
            // to the whole node).
            let obj = unsafe { (*cur).obj.take() };
            sink(obj.expect("limbo node without an object"));
            tail = cur;
            cur = next as *mut LimboNode;
            n += 1;
        }
        if n > 0 {
            // SAFETY: `head..=tail` is the emptied chain just walked, linked
            // through `next` and owned by this drain alone.
            unsafe { pool.put_chain(head, tail) };
        }
        n
    }
}

/// A lock-free pool of limbo nodes: the Treiber stack with ABA protection
/// described in §II-C. One pool per locale instance.
pub struct NodePool {
    head: LocalAtomicAbaObject<LimboNode>,
    /// Nodes ever created by this pool (diagnostics).
    created: AtomicU64,
}

impl NodePool {
    /// An empty pool homed on the current locale.
    pub fn new() -> NodePool {
        NodePool {
            head: LocalAtomicAbaObject::null(),
            created: AtomicU64::new(0),
        }
    }

    /// Get a node: recycle from the stack or allocate fresh.
    pub(crate) fn get(&self) -> Box<LimboNode> {
        loop {
            let snap = self.head.read_aba();
            let top = snap.get_object();
            if top.is_null() {
                self.created.fetch_add(1, Ordering::Relaxed);
                return LimboNode::new();
            }
            let next = unsafe { top.deref() }.next.load(Ordering::Acquire);
            let next_ptr = if next == 0 || next == PENDING {
                GlobalPtr::null()
            } else {
                GlobalPtr::new(top.locale(), next)
            };
            if self.head.compare_and_swap_aba(snap, next_ptr) {
                return unsafe { Box::from_raw(top.as_ptr()) };
            }
        }
    }

    /// Return a chain of emptied nodes, linked `head → … → tail` through
    /// `next`, to the stack with one ABA compare-and-swap however long the
    /// chain is (`head == tail` for a single node).
    ///
    /// # Safety
    /// The caller owns every node of the chain exclusively, each came from
    /// [`Self::get`] on the current locale and holds no object, and
    /// following `next` from `head` reaches `tail`.
    pub(crate) unsafe fn put_chain(&self, head: *mut LimboNode, tail: *mut LimboNode) {
        let ptr = GlobalPtr::from_raw_parts(pgas_sim::here(), head);
        // SAFETY: the chain is the caller's until the CAS below publishes it.
        let tail = unsafe { &*tail };
        debug_assert!(tail.obj.is_none());
        loop {
            let snap = self.head.read_aba();
            let top = snap.get_object();
            tail.next.store(
                if top.is_null() { 0 } else { top.addr() },
                Ordering::Release,
            );
            if self.head.compare_and_swap_aba(snap, ptr) {
                return;
            }
        }
    }

    /// Total nodes this pool has ever allocated.
    pub fn nodes_created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }
}

impl Default for NodePool {
    fn default() -> Self {
        // NOTE: requires runtime context (the ABA head captures `here`).
        Self::new()
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        // Free the pooled node shells. Uses the untracked read: Drop may
        // run outside runtime context, and the pool is quiescent by then.
        let mut cur = self.head.read_untracked().addr();
        while cur != 0 {
            let node = unsafe { Box::from_raw(cur as *mut LimboNode) };
            let next = node.next.load(Ordering::Relaxed);
            cur = if next == PENDING { 0 } else { next };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, Runtime, RuntimeConfig};

    fn erased(rt: &Runtime, v: u64) -> Erased {
        Erased::new(alloc_local(rt, v))
    }

    #[test]
    fn push_take_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for i in 0..5 {
                list.push_node(pool.get(), erased(&rt, i));
            }
            assert!(!list.is_empty());
            let mut got = Vec::new();
            let n = list.take().drain_into(&pool, |e| got.push(e));
            assert_eq!(n, 5);
            assert!(list.is_empty());
            for e in got {
                unsafe { e.run_drop(&rt) };
            }
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn take_on_empty_list_yields_nothing() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            let n = list.take().drain_into(&pool, |_| panic!("empty"));
            assert_eq!(n, 0);
        });
    }

    #[test]
    fn nodes_are_recycled_not_reallocated() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for round in 0..4 {
                for i in 0..8 {
                    list.push_node(pool.get(), erased(&rt, round * 8 + i));
                }
                let n = list
                    .take()
                    .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
                assert_eq!(n, 8);
            }
            assert_eq!(
                pool.nodes_created(),
                8,
                "subsequent rounds reuse the first round's nodes"
            );
        });
    }

    /// Pop `expect` nodes and return their addresses. Fails if the pool had
    /// to allocate, i.e. held fewer than that.
    fn pop_all(pool: &NodePool, expect: u64) -> Vec<usize> {
        let created = pool.nodes_created();
        let nodes: Vec<_> = (0..expect).map(|_| pool.get()).collect();
        assert_eq!(pool.nodes_created(), created, "the pool lost a node");
        nodes
            .iter()
            .map(|n| &**n as *const LimboNode as usize)
            .collect()
    }

    #[test]
    fn drains_of_zero_one_and_many_nodes_return_each_node_once() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for (round, n) in [0u64, 1, 9, 0, 9, 1].into_iter().enumerate() {
                for i in 0..n {
                    list.push_node(pool.get(), erased(&rt, i));
                }
                let before = rt.total_comm().cpu_dcas;
                let drained = list
                    .take()
                    .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
                assert_eq!(drained as u64, n, "round {round}");
                assert_eq!(
                    rt.total_comm().cpu_dcas - before,
                    2 * n.min(1),
                    "one read and one compare-and-swap of the pool head per \
                     drained list, nothing for an empty one"
                );
            }
            assert_eq!(pool.nodes_created(), 9, "later rounds reuse the nine");
            let mut addrs = pop_all(&pool, 9);
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len(), 9, "no node sits in the pool twice");
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn put_chain_under_concurrent_get_loses_and_duplicates_no_node() {
        // Two lists, used in turn: while the pushers fill one (popping the
        // pool), the drainer empties the other (splicing into it).
        const PUSHERS: usize = 3;
        const BATCH: usize = 64;
        const ROUNDS: usize = 40;
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let lists = [LimboList::new(), LimboList::new()];
            let round_start = std::sync::Barrier::new(PUSHERS + 1);
            let seen = parking_lot::Mutex::new(Vec::new());
            rt.coforall_tasks(PUSHERS + 1, |t| {
                for r in 0..=ROUNDS {
                    round_start.wait();
                    if t < PUSHERS {
                        if r < ROUNDS {
                            for i in 0..BATCH {
                                let v = ((r * PUSHERS + t) * BATCH + i) as u64;
                                lists[r % 2].push_node(pool.get(), erased(&rt, v));
                            }
                        }
                    } else if r > 0 {
                        let mut got = Vec::new();
                        lists[(r - 1) % 2].take().drain_into(&pool, |e| {
                            got.push(unsafe { *(e.addr() as *const u64) });
                            unsafe { e.run_drop(&rt) };
                        });
                        seen.lock().extend(got);
                    }
                }
            });
            let mut seen = seen.into_inner();
            seen.sort_unstable();
            let expect: Vec<u64> = (0..(ROUNDS * PUSHERS * BATCH) as u64).collect();
            assert_eq!(seen, expect, "every object drained exactly once");
            assert_eq!(rt.live_objects(), 0);
            // At most two rounds' nodes were ever outside the pool at once.
            let created = pool.nodes_created();
            assert!(
                created <= (2 * PUSHERS * BATCH) as u64,
                "{created} nodes created: a node was lost and replaced"
            );
            let mut addrs = pop_all(&pool, created);
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len() as u64, created, "a node was pooled twice");
        });
    }

    #[test]
    fn concurrent_pushes_preserve_multiset() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            let tasks = 4;
            let per_task = 200;
            rt.coforall_tasks(tasks, |t| {
                for i in 0..per_task {
                    list.push_node(pool.get(), erased(&rt, (t * per_task + i) as u64));
                }
            });
            let mut seen = Vec::new();
            list.take().drain_into(&pool, |e| {
                seen.push(unsafe { *(e.addr() as *const u64) });
                unsafe { e.run_drop(&rt) };
            });
            seen.sort_unstable();
            let expect: Vec<u64> = (0..(tasks * per_task) as u64).collect();
            assert_eq!(seen, expect);
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn concurrent_push_and_take_lose_nothing() {
        // Takers race with pushers; every object must come out exactly once.
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            let total = std::sync::atomic::AtomicU64::new(0);
            let drained = std::sync::atomic::AtomicU64::new(0);
            rt.coforall_tasks(5, |t| {
                if t == 0 {
                    // the taker: repeatedly detach whatever is there
                    for _ in 0..50 {
                        let n = list
                            .take()
                            .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
                        drained.fetch_add(n as u64, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                } else {
                    for i in 0..100 {
                        list.push_node(pool.get(), erased(&rt, i));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            // Final sweep for leftovers.
            let n = list
                .take()
                .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
            drained.fetch_add(n as u64, Ordering::Relaxed);
            assert_eq!(
                drained.load(Ordering::Relaxed),
                total.load(Ordering::Relaxed)
            );
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn push_charges_exactly_one_atomic() {
        let rt = Runtime::cluster(1); // network atomics on
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            let node = pool.get();
            let e = erased(&rt, 1);
            rt.reset_metrics();
            list.push_node(node, e);
            let s = rt.total_comm();
            assert_eq!(
                s.rdma_atomics, 1,
                "deferring is one atomic exchange (plus the pool op, \
                 already taken before the measurement)"
            );
            list.take()
                .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
        });
    }
}
