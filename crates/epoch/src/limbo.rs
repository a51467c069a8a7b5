//! The wait-free limbo list (Listing 2), its node-recycling pool, and the
//! per-token bags that fill it.
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
//! ### Deviation from the paper: a deletion fills a bag
//! The paper's `deferDelete` pops a node from the pool and exchanges it
//! onto the list for *every* object: one ABA compare-and-swap and one
//! exchange per deletion. Here each registered token owns a bag
//! (`OpenBag`): a private chain of up to [`BAG`] filled nodes, plus a
//! private stock of empty ones. A deletion takes a node from the stock,
//! stores the object in it and links it to the chain, all plain stores.
//! Only the deletion that fills the bag pays, with one exchange that
//! splices the whole chain onto the list (`LimboList::push_chain`), and
//! only an empty stock pays one ABA compare-and-swap, which pops up to
//! [`BAG`] nodes at once (`NodePool::get_chain`). Both stay wait-free and
//! lock-free as before, the drain is unchanged, and a node still holds one
//! object: a bag that is published before it fills costs no more memory
//! than the paper's nodes would.
//!
//! A bag goes into the list of the epoch its token was pinned in at the
//! bag's *latest* deletion. That is never early. The global epoch and every
//! locale's cached epoch only move forward, so the epochs one token is
//! pinned in never decrease, and every object in the bag was deferred in a
//! real epoch `E' ≤ E`, the latest. The bag is published while the global
//! epoch is at least `E`; the list of `E` (mod 3) is next drained by the
//! advance to some `n ≡ E + 2`, and the global epoch stays at most `n` until
//! that drain is done, so `n ≥ E + 2 ≥ E' + 2`. The paper frees an object
//! deferred in `E'` on the advance to exactly `E' + 2` (its pinned token
//! holds the global epoch below `E' + 2` until the push is done), so a bag
//! frees each of its objects on that advance or a later one.
//!
//! The holder publishes its bag when it fills. Anybody else may publish it
//! while its token is *not pinned* (`Limbo::publish_idle`): every epoch
//! advance does so for each token of the locale before it drains a list,
//! `clear` does, and the drop of a token whose slot returns to the free
//! stack does. A progress thread's standing token (see [`crate::token`])
//! keeps its slot, and its drop publishes nothing: the slot is unpinned
//! between handlers, so the next advance publishes it, and a bag fills
//! across many handlers. So a token that is unpinned when an advance
//! reaches its locale holds nothing back from that advance, and its objects
//! are freed on the same advance as the paper's. A token that is pinned
//! when an advance passes keeps its open bag, at most `BAG - 1` objects,
//! until a later advance finds it unpinned or the bag fills.
//! crossbeam-epoch pays a similar price for its thread-local bags. The
//! stock stays with the token slot when its token unregisters, for the
//! slot's next holder, so a locale holds at most `BAG` idle nodes per token
//! slot on top of its pool.
//!
//! ### Who may write an open bag
//! The holder links deletions into the chain with plain stores, so a task
//! that publishes somebody else's bag must exclude the holder without
//! making the holder wait. A Dekker handshake over two words of the token
//! slot does it. The publisher sets the bag's `taken` flag and then reads
//! the token's epoch. The holder writes its epoch on `pin` and reads
//! `taken` before each deletion. All four accesses are sequentially
//! consistent, so at least one side sees the other's write:
//!
//! * the publisher sees the token pinned and backs off, or
//! * the holder sees `taken` and hands that deletion to the list by itself,
//!   as the paper does, leaving the chain alone.
//!
//! A publisher that sees the token unpinned synchronizes with the holder's
//! `unpin`, and a holder that later reads `taken` clear synchronizes with
//! the publisher's release of it. Publishers exclude each other with a
//! compare-and-swap on the same flag. None of this is charged as
//! communication: both words belong to the slot, like the bag's stores. A
//! publisher on another locale (a hazard-pointer scan) pays one atomic
//! toward the slot's locale for each of its three accesses.
//!
//! ### Deviation from the paper: one pool DCAS per drained list
//! The paper's `recycleNode` pushes every emptied node back onto that stack
//! by itself, one ABA compare-and-swap per node, while the locale's tasks
//! are popping the same stack for their next `deferDelete`. A detached limbo
//! list is already a private chain through its `next` links, so the drain
//! empties the nodes in place and `NodePool::put_chain` splices the whole
//! chain under the stack's top with **one** compare-and-swap, whatever its
//! length. The stack and its ABA protection are unchanged; the price is
//! that a drained node becomes reusable when its drain ends, not as soon as
//! it is emptied. A hazard-pointer scan also drains other locales' lists,
//! and splices their emptied nodes into its own locale's pool: a
//! compare-and-swap on another locale's pool would be an active message.
//! Every pool of a reclaimer drops with it, so a node may end in any.

use std::cell::UnsafeCell;
use std::ptr::null_mut;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use pgas_atomics::LocalAtomicAbaObject;
use pgas_sim::engine;
use pgas_sim::{here, vtime, Erased, GlobalPtr, LocaleId};

use crate::math::{limbo_index, EPOCHS};
use crate::token::{TokenRegistry, TokenSlot, QUIESCENT};

/// Deletions per bag: the most a token holds back, and the most nodes one
/// pool compare-and-swap hands it.
pub const BAG: usize = 32;

/// `next` value meaning "the pushing task has not yet published the link".
const PENDING: usize = usize::MAX;

/// A node in a limbo list, a token's bag, or the recycling pool.
pub struct LimboNode {
    /// Touched only by the node's one owner of the moment: the token
    /// filling it, or the drain that detached it. A stale pool pop may
    /// still load `next`, so nobody takes a `&mut` to the whole node.
    obj: UnsafeCell<Option<Erased>>,
    next: AtomicUsize,
}

impl LimboNode {
    fn new() -> Box<LimboNode> {
        Box::new(LimboNode {
            obj: UnsafeCell::new(None),
            next: AtomicUsize::new(PENDING),
        })
    }
}

/// A token's bag: the chain of filled nodes it has not published yet, and
/// its stock of empty nodes. It lives in the token's slot. The stock is the
/// slot holder's alone; the chain is the holder's while `taken` is clear,
/// and a publisher's while it holds `taken` and the token is unpinned (see
/// the module docs).
#[derive(Default)]
pub(crate) struct OpenBag {
    taken: AtomicBool,
    chain: UnsafeCell<Chain>,
    stock: UnsafeCell<*mut LimboNode>,
}

// SAFETY: the bag's raw pointers are nodes owned by the bag alone. The stock
// has one user, the holder of the token slot the bag lives in (tokens are
// not `Sync`, and a slot has one holder at a time). The chain has one user
// at a time by the handshake in the module docs. The registry's drop runs
// only once no token is left.
unsafe impl Sync for OpenBag {}
// SAFETY: as above; the nodes carry `Erased` objects, which are `Send`.
unsafe impl Send for OpenBag {}

/// The filled part of a bag.
struct Chain {
    /// Newest filled node; its chain ends at `tail`, whose `next` is
    /// `PENDING`. Null when the bag is empty.
    head: *mut LimboNode,
    tail: *mut LimboNode,
    len: usize,
    /// The epoch the holder was pinned in at the bag's latest deletion.
    epoch: u64,
    /// Virtual time of the bag's first deletion.
    first_vtime: u64,
}

impl Chain {
    /// Link `node` in after `tail`: a drain sorting the nodes it walks.
    fn append(&mut self, node: *mut LimboNode) {
        if self.head.is_null() {
            self.head = node;
        } else {
            // SAFETY: the chain's nodes are its owner's alone.
            unsafe { &*self.tail }
                .next
                .store(node as usize, Ordering::Relaxed);
        }
        self.tail = node;
        self.len += 1;
    }
}

impl Default for Chain {
    fn default() -> Chain {
        Chain {
            head: null_mut(),
            tail: null_mut(),
            len: 0,
            epoch: 0,
            first_vtime: u64::MAX,
        }
    }
}

impl Drop for OpenBag {
    fn drop(&mut self) {
        // The stock's node shells are this bag's to free (the stock is a
        // chain ending at 0). A filled chain is left only by a leaked token
        // (a token's drop publishes it, and so do `clear` and every
        // advance): free its shells too and leak its objects, as
        // `LimboList`'s drop does.
        for mut cur in [self.chain.get_mut().head, *self.stock.get_mut()] {
            while !cur.is_null() && cur as usize != PENDING {
                // SAFETY: nodes of this bag are its alone, and `&mut self`
                // means no holder is using it.
                let node = unsafe { Box::from_raw(cur) };
                cur = node.next.load(Ordering::Relaxed) as *mut LimboNode;
            }
        }
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

    /// Splice the chain `head → … → tail` onto the list, which lives on
    /// locale `home`. Wait-free: one unconditional exchange, whatever the
    /// chain's length.
    ///
    /// # Safety
    /// The caller owns the chain's nodes, each holds an object, following
    /// `next` from `head` reaches `tail`, and `tail.next` is `PENDING`.
    unsafe fn push_chain(&self, home: LocaleId, head: *mut LimboNode, tail: *mut LimboNode) {
        engine::charge_atomic_u64(home);
        let old = self.head.swap(head as u64, Ordering::AcqRel);
        // Publish the link; a concurrent drain spins until this lands.
        // SAFETY: nodes are only freed when their pool drops.
        unsafe { &*tail }
            .next
            .store(old as usize, Ordering::Release);
    }

    /// Detach the entire list, which lives on locale `home` (the
    /// deletion-phase `pop`): one exchange. Returns a drain handle that
    /// yields the deferred objects and recycles the nodes into `pool`.
    fn take(&self, home: LocaleId) -> TakenList {
        engine::charge_atomic_u64(home);
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
            // SAFETY: the list's nodes came from `Box`es and `&mut self`
            // means no pusher or drain is left.
            let node = unsafe { Box::from_raw(cur as *mut LimboNode) };
            cur = node.next.load(Ordering::Relaxed);
            debug_assert!(
                node.obj.into_inner().is_none(),
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
    /// Drain into `sink` every object `keep` rejects. Returns the chain of
    /// the emptied nodes and the chain of the nodes whose objects `keep`
    /// accepted, both in list order and ending at a `PENDING` link, as a
    /// chain to splice must. The detached nodes are already a private chain
    /// through their `next` links, so they are sorted in place. If `sink`
    /// panics, the nodes and the objects not yet handed over are leaked,
    /// never freed early.
    fn drain_keeping(
        self,
        mut keep: impl FnMut(&Erased) -> bool,
        mut sink: impl FnMut(Erased),
    ) -> (Chain, Chain) {
        let (mut emptied, mut kept) = (Chain::default(), Chain::default());
        let mut cur = self.head as *mut LimboNode;
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
            // holder of its nodes' objects.
            let obj = unsafe { &mut *(*cur).obj.get() };
            if keep(obj.as_ref().expect("limbo node without an object")) {
                kept.append(cur);
            } else {
                sink(obj.take().expect("limbo node without an object"));
                emptied.append(cur);
            }
            cur = next as *mut LimboNode;
        }
        for chain in [&emptied, &kept] {
            if chain.len > 0 {
                // SAFETY: the chains' nodes are this drain's alone.
                unsafe { &*chain.tail }
                    .next
                    .store(PENDING, Ordering::Relaxed);
            }
        }
        (emptied, kept)
    }
}

/// A lock-free pool of limbo nodes: the Treiber stack with ABA protection
/// described in §II-C. One pool per locale instance.
pub struct NodePool {
    /// The locale the pool, and the limbo lists it serves, live on.
    home: LocaleId,
    head: LocalAtomicAbaObject<LimboNode>,
    /// Nodes ever created by this pool (diagnostics).
    created: AtomicU64,
}

impl NodePool {
    /// An empty pool homed on the current locale.
    pub fn new() -> NodePool {
        NodePool {
            home: here(),
            head: LocalAtomicAbaObject::null(),
            created: AtomicU64::new(0),
        }
    }

    /// Pop up to `max` empty nodes with one ABA compare-and-swap, or
    /// allocate `max` fresh ones when the stack is empty. Returns the first
    /// of a chain linked through `next` and ending at 0.
    ///
    /// Walking the links below the top may read nodes another task has
    /// popped meanwhile (nodes are only freed when the pool drops); every
    /// pop and push bumps the ABA counter, so the swap then fails.
    fn get_chain(&self, max: usize) -> *mut LimboNode {
        loop {
            let snap = self.head.read_aba();
            let top = snap.get_object();
            if top.is_null() {
                self.created.fetch_add(max as u64, Ordering::Relaxed);
                return (0..max).fold(null_mut(), |next, _| {
                    let node = LimboNode::new();
                    node.next.store(next as usize, Ordering::Relaxed);
                    Box::into_raw(node)
                });
            }
            let mut last = top.as_ptr();
            let mut rest = 0;
            for n in 1..=max {
                // SAFETY: as above, `last` is a node of this pool.
                rest = unsafe { &*last }.next.load(Ordering::Acquire);
                if n == max || rest == 0 || rest == PENDING {
                    break;
                }
                last = rest as *mut LimboNode;
            }
            let rest = if rest == 0 || rest == PENDING {
                GlobalPtr::null()
            } else {
                GlobalPtr::new(top.locale(), rest)
            };
            if self.head.compare_and_swap_aba(snap, rest) {
                // SAFETY: the swap made `top..=last` ours.
                unsafe { &*last }.next.store(0, Ordering::Relaxed);
                return top.as_ptr();
            }
        }
    }

    /// Return a chain of emptied nodes, linked `head → … → tail` through
    /// `next`, to the stack with one ABA compare-and-swap however long the
    /// chain is (`head == tail` for a single node).
    ///
    /// # Safety
    /// The caller owns every node of the chain exclusively, each came from
    /// a pool of this pool's reclaimer and holds no object, and following
    /// `next` from `head` reaches `tail`.
    unsafe fn put_chain(&self, head: *mut LimboNode, tail: *mut LimboNode) {
        let ptr = GlobalPtr::from_raw_parts(self.home, head);
        // SAFETY: the chain is the caller's until the CAS below publishes it.
        let tail = unsafe { &*tail };
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
            // SAFETY: pooled nodes came from `Box`es and are the pool's
            // alone, and `&mut self` means nobody pops them any more.
            let node = unsafe { Box::from_raw(cur as *mut LimboNode) };
            let next = node.next.load(Ordering::Relaxed);
            cur = if next == PENDING { 0 } else { next };
        }
    }
}

/// One locale's limbo: a list per epoch value, the pool their nodes come
/// from, and the virtual time of the earliest deletion parked in each list.
pub(crate) struct Limbo {
    lists: [LimboList; EPOCHS as usize],
    /// `u64::MAX` while the list holds no published bag. A drain swaps it
    /// out to report pin-to-reclaim latency
    /// ([`pgas_sim::telemetry::OpClass::Reclaim`]).
    first_defer_vtime: [AtomicU64; EPOCHS as usize],
    pool: NodePool,
}

impl Limbo {
    /// Empty lists and pool, homed on the current locale.
    pub(crate) fn new() -> Limbo {
        Limbo {
            lists: Default::default(),
            first_defer_vtime: [const { AtomicU64::new(u64::MAX) }; EPOCHS as usize],
            pool: NodePool::new(),
        }
    }

    /// Put `obj`, deferred by a token pinned in `epoch`, into that token's
    /// bag, publishing the bag once full. Returns the number of objects
    /// published: [`BAG`], 1 when a publisher holds the bag (the deletion
    /// then goes to the list by itself), or 0.
    ///
    /// # Safety
    /// The caller holds the token whose slot `bag` lives in (a token slot
    /// has one holder, and tokens are not `Sync`) and has pinned it in
    /// `epoch`, and `bag` belongs to a slot of this locale.
    #[inline]
    pub(crate) unsafe fn defer(&self, bag: &OpenBag, obj: Erased, epoch: u64) -> u64 {
        // SAFETY: the stock is the holder's alone.
        let stock = unsafe { &mut *bag.stock.get() };
        if stock.is_null() {
            *stock = self.pool.get_chain(BAG);
        }
        let node = *stock;
        // SAFETY: a stock node is the holder's alone.
        let node_ref = unsafe { &*node };
        *stock = node_ref.next.load(Ordering::Relaxed) as *mut LimboNode;
        // SAFETY: as above.
        unsafe { *node_ref.obj.get() = Some(obj) };
        // The holder's half of the handshake in the module docs. An
        // unpinned caller (a bug `defer_delete` debug-asserts) must not
        // touch the chain either, since nothing excludes publishers then.
        if epoch == QUIESCENT || bag.taken.load(Ordering::SeqCst) {
            node_ref.next.store(PENDING, Ordering::Relaxed);
            let mut single = Chain {
                head: node,
                tail: node,
                len: 1,
                epoch,
                first_vtime: vtime::now(),
            };
            return self.publish(&mut single);
        }
        // SAFETY: `taken` was clear after the pin, so no publisher touches
        // the chain until the holder unpins.
        let chain = unsafe { &mut *bag.chain.get() };
        if chain.head.is_null() {
            node_ref.next.store(PENDING, Ordering::Relaxed);
            chain.tail = node;
            chain.first_vtime = vtime::now();
        } else {
            node_ref.next.store(chain.head as usize, Ordering::Relaxed);
        }
        chain.head = node;
        chain.len += 1;
        chain.epoch = epoch;
        if chain.len < BAG {
            return 0;
        }
        self.publish(chain)
    }

    /// Publish the bag of `slot`'s token if the token is not pinned, from
    /// any task (the publisher's half of the handshake in the module docs).
    /// Returns the number of objects published: 0 also when the token is
    /// pinned or another publisher holds the bag. `slot` must be a token
    /// slot of this limbo's locale.
    pub(crate) fn publish_idle<X>(&self, slot: &TokenSlot<X>) -> u64 {
        let bag = &slot.bag;
        self.charge_if_remote();
        if bag
            .taken
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return 0;
        }
        self.charge_if_remote();
        let n = if slot.epoch_fenced() == QUIESCENT {
            // SAFETY: the token is unpinned and `taken` is ours, so the
            // holder leaves the chain alone until we clear it.
            let chain = unsafe { &mut *bag.chain.get() };
            if chain.head.is_null() {
                0
            } else {
                self.publish(chain)
            }
        } else {
            0
        };
        self.charge_if_remote();
        bag.taken.store(false, Ordering::Release);
        n
    }

    /// Charge a task on another locale for reaching a word of this limbo's
    /// locale that a task there touches for free: the words of the bag
    /// handshake, and a list head it only reads.
    fn charge_if_remote(&self) {
        if self.pool.home != here() {
            engine::charge_atomic_u64(self.pool.home);
        }
    }

    /// [`Self::publish_idle`] for every token slot of `tokens`, a registry of
    /// this locale. Returns the number of objects published.
    pub(crate) fn publish_idle_bags<X>(&self, tokens: &TokenRegistry<X>) -> u64 {
        tokens.iter().map(|slot| self.publish_idle(slot)).sum()
    }

    /// Splice the filled chain onto the list of its latest deletion's epoch
    /// (see the module docs for why that is never early) and empty it.
    /// Returns the number of objects published.
    fn publish(&self, chain: &mut Chain) -> u64 {
        let i = limbo_index(chain.epoch);
        // SAFETY: the chain is the caller's, every node holds an object,
        // and its tail's `next` is `PENDING` (set by `defer`).
        unsafe { self.lists[i].push_chain(self.pool.home, chain.head, chain.tail) };
        // Only the first bag after a drain can lower the stamp, so look
        // before writing to the locale-shared cell.
        let stamp = &self.first_defer_vtime[i];
        if chain.first_vtime < stamp.load(Ordering::Relaxed) {
            stamp.fetch_min(chain.first_vtime, Ordering::Relaxed);
        }
        let n = std::mem::take(&mut chain.len) as u64;
        chain.head = null_mut();
        chain.tail = null_mut();
        n
    }

    /// Detach the list of `epoch` and drain it into `sink`, recycling its
    /// nodes. Returns the number of objects drained and the virtual time of
    /// the earliest deletion among them (`u64::MAX` if none was stamped).
    pub(crate) fn drain(&self, epoch: u64, sink: impl FnMut(Erased)) -> (u64, u64) {
        let (list, first) = self.detach(epoch);
        (
            self.drain_detached(list, epoch, self, |_| false, sink).0,
            first,
        )
    }

    /// True if the list of `epoch` holds no published bag (racy).
    pub(crate) fn is_empty(&self, epoch: u64) -> bool {
        self.charge_if_remote();
        self.lists[limbo_index(epoch)].is_empty()
    }

    /// Detach the list of `epoch` with one exchange. Returns it and the
    /// virtual time of its earliest deletion (`u64::MAX` if none was
    /// stamped).
    pub(crate) fn detach(&self, epoch: u64) -> (TakenList, u64) {
        let i = limbo_index(epoch);
        let first = self.first_defer_vtime[i].swap(u64::MAX, Ordering::Relaxed);
        (self.lists[i].take(self.pool.home), first)
    }

    /// Drain `list`, detached from the list of `epoch`, into `sink`, except
    /// the objects `keep` accepts: they go back onto that list, stamped now,
    /// with one exchange charged toward this limbo's locale. The emptied
    /// nodes go to the pool of `recycle`, the calling task's locale's limbo,
    /// with one compare-and-swap (see the module docs), so a drain from
    /// another locale sends no message. Returns the numbers of objects
    /// drained and kept.
    pub(crate) fn drain_detached(
        &self,
        list: TakenList,
        epoch: u64,
        recycle: &Limbo,
        keep: impl FnMut(&Erased) -> bool,
        sink: impl FnMut(Erased),
    ) -> (u64, u64) {
        let (emptied, mut kept) = list.drain_keeping(keep, sink);
        let mut held = 0;
        if kept.len > 0 {
            kept.epoch = epoch;
            kept.first_vtime = vtime::now();
            held = self.publish(&mut kept);
        }
        if emptied.len > 0 {
            // SAFETY: `emptied` links emptied nodes of this reclaimer's
            // pools, owned by this drain alone.
            unsafe { recycle.pool.put_chain(emptied.head, emptied.tail) };
        }
        (emptied.len as u64, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, Runtime, RuntimeConfig};

    fn erased(rt: &Runtime, v: u64) -> Erased {
        Erased::new(alloc_local(rt, v))
    }

    impl NodePool {
        /// Total nodes this pool has ever allocated.
        fn nodes_created(&self) -> u64 {
            self.created.load(Ordering::Relaxed)
        }
    }

    impl TakenList {
        /// Drain everything into `sink`, recycling the nodes into `pool`,
        /// as `Limbo::drain` does. Returns the number of objects drained.
        fn drain_into(self, pool: &NodePool, sink: impl FnMut(Erased)) -> usize {
            let (emptied, _) = self.drain_keeping(|_| false, sink);
            if emptied.len > 0 {
                unsafe { pool.put_chain(emptied.head, emptied.tail) };
            }
            emptied.len
        }
    }

    /// Publish `obj` alone, as a token with one deletion does.
    fn push_one(list: &LimboList, pool: &NodePool, obj: Erased) {
        let node = pool.get_chain(1);
        unsafe {
            *(*node).obj.get() = Some(obj);
            (*node).next.store(PENDING, Ordering::Relaxed);
            list.push_chain(here(), node, node);
        }
    }

    /// Pop `expect` nodes and return their addresses. Fails if the pool had
    /// to allocate, i.e. held fewer than that.
    fn pop_all(pool: &NodePool, expect: u64) -> Vec<usize> {
        let created = pool.nodes_created();
        let nodes: Vec<_> = (0..expect).map(|_| pool.get_chain(1) as usize).collect();
        assert_eq!(pool.nodes_created(), created, "the pool lost a node");
        for &n in &nodes {
            drop(unsafe { Box::from_raw(n as *mut LimboNode) });
        }
        nodes
    }

    #[test]
    fn push_take_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for i in 0..5 {
                push_one(&list, &pool, erased(&rt, i));
            }
            assert!(!list.is_empty());
            let mut got = Vec::new();
            let n = list.take(here()).drain_into(&pool, |e| got.push(e));
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
            let n = list.take(here()).drain_into(&pool, |_| panic!("empty"));
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
                    push_one(&list, &pool, erased(&rt, round * 8 + i));
                }
                let n = list
                    .take(here())
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

    #[test]
    fn drains_of_zero_one_and_many_nodes_return_each_node_once() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for (round, n) in [0u64, 1, 9, 0, 9, 1].into_iter().enumerate() {
                for i in 0..n {
                    push_one(&list, &pool, erased(&rt, i));
                }
                let before = rt.total_comm().cpu_dcas;
                let drained = list
                    .take(here())
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
    fn get_chain_pops_up_to_max_nodes_with_one_compare_and_swap() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let pool = NodePool::new();
            let list = LimboList::new();
            for i in 0..5 {
                push_one(&list, &pool, erased(&rt, i));
            }
            list.take(here())
                .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
            let chain_len = |mut cur: *mut LimboNode| {
                let mut n = 0;
                while !cur.is_null() {
                    let node = unsafe { Box::from_raw(cur) };
                    cur = node.next.load(Ordering::Relaxed) as *mut LimboNode;
                    n += 1;
                }
                n
            };
            let before = rt.total_comm().cpu_dcas;
            assert_eq!(chain_len(pool.get_chain(3)), 3);
            assert_eq!(
                rt.total_comm().cpu_dcas - before,
                2,
                "one read and one compare-and-swap for three nodes"
            );
            assert_eq!(chain_len(pool.get_chain(3)), 2, "all the pool had left");
            assert_eq!(pool.nodes_created(), 5);
            assert_eq!(chain_len(pool.get_chain(3)), 3, "an empty pool allocates");
            assert_eq!(pool.nodes_created(), 8);
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
                                push_one(&lists[r % 2], &pool, erased(&rt, v));
                            }
                        }
                    } else if r > 0 {
                        let mut got = Vec::new();
                        lists[(r - 1) % 2].take(here()).drain_into(&pool, |e| {
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
                    push_one(&list, &pool, erased(&rt, (t * per_task + i) as u64));
                }
            });
            let mut seen = Vec::new();
            list.take(here()).drain_into(&pool, |e| {
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
            let total = AtomicU64::new(0);
            let drained = AtomicU64::new(0);
            rt.coforall_tasks(5, |t| {
                if t == 0 {
                    // the taker: repeatedly detach whatever is there
                    for _ in 0..50 {
                        let n = list
                            .take(here())
                            .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
                        drained.fetch_add(n as u64, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                } else {
                    for i in 0..100 {
                        push_one(&list, &pool, erased(&rt, i));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            // Final sweep for leftovers.
            let n = list
                .take(here())
                .drain_into(&pool, |e| unsafe { e.run_drop(&rt) });
            drained.fetch_add(n as u64, Ordering::Relaxed);
            assert_eq!(drained.into_inner(), total.into_inner());
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn push_charges_exactly_one_atomic() {
        let rt = Runtime::cluster(1); // network atomics on
        rt.run(|| {
            let limbo = Limbo::new();
            let bag = OpenBag::default();
            for i in 0..BAG as u64 - 1 {
                unsafe { limbo.defer(&bag, erased(&rt, i), 1) };
            }
            rt.reset_metrics();
            unsafe { limbo.defer(&bag, erased(&rt, BAG as u64), 1) };
            let s = rt.total_comm();
            assert_eq!(
                s.rdma_atomics, 1,
                "publishing a full bag is one atomic exchange (its nodes were \
                 taken from the pool before the measurement)"
            );
            limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
        });
    }

    /// Defer `n` objects through one bag, pinned in epoch 1.
    fn defer_n(rt: &Runtime, limbo: &Limbo, bag: &OpenBag, from: u64, n: u64) {
        for i in from..from + n {
            unsafe { limbo.defer(bag, erased(rt, i), 1) };
        }
    }

    #[test]
    fn an_open_bag_is_invisible_until_published() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let limbo = Limbo::new();
            let tokens = TokenRegistry::new();
            let slot = tokens.register();
            defer_n(&rt, &limbo, &slot.bag, 0, BAG as u64 + 5);
            let (n, _) = limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
            assert_eq!(n, BAG as u64, "the full bag was published");
            assert_eq!(rt.live_objects(), 5, "five wait in the open bag");
            assert_eq!(limbo.publish_idle(slot), 5);
            assert_eq!(limbo.publish_idle(slot), 0, "nothing left to publish");
            let (n, _) = limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
            assert_eq!(n, 5);
            assert_eq!(rt.live_objects(), 0);
            tokens.unregister(slot);
        });
    }

    #[test]
    fn a_pinned_token_keeps_its_bag_and_a_taken_bag_is_bypassed() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let limbo = Limbo::new();
            let tokens = TokenRegistry::new();
            let slot = tokens.register();
            slot.set_epoch(1);
            defer_n(&rt, &limbo, &slot.bag, 0, 3);
            assert_eq!(limbo.publish_idle(slot), 0, "the holder is pinned");
            // A publisher holding the bag: the holder's next deletion goes
            // to the list by itself and the chain stays as it was.
            slot.bag.taken.store(true, Ordering::SeqCst);
            assert_eq!(unsafe { limbo.defer(&slot.bag, erased(&rt, 3), 1) }, 1);
            assert_eq!(limbo.publish_idle(slot), 0, "another publisher holds it");
            slot.bag.taken.store(false, Ordering::SeqCst);
            let (n, _) = limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
            assert_eq!(n, 1, "only the bypassing deletion was published");
            slot.set_epoch(QUIESCENT);
            assert_eq!(limbo.publish_idle(slot), 3, "unpinned: anybody publishes");
            let (n, _) = limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
            assert_eq!(n, 3);
            assert_eq!(rt.live_objects(), 0);
            tokens.unregister(slot);
        });
    }

    #[test]
    fn node_count_is_bounded_by_one_bag_per_slot_plus_what_is_outstanding() {
        // Many live token slots, each deferring one object per round: every
        // slot's first refill allocates a bag of nodes it mostly keeps in
        // stock, and from then on every node comes back through the pool.
        const SLOTS: usize = 64;
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let limbo = Limbo::new();
            let tokens = TokenRegistry::new();
            let slots: Vec<&TokenSlot> = (0..SLOTS).map(|_| tokens.register()).collect();
            let mut after_first = 0;
            for round in 0..20u64 {
                for (i, &slot) in slots.iter().enumerate() {
                    slot.set_epoch(1);
                    unsafe { limbo.defer(&slot.bag, erased(&rt, round + i as u64), 1) };
                    slot.set_epoch(QUIESCENT);
                }
                for &slot in &slots {
                    limbo.publish_idle(slot);
                }
                let (n, _) = limbo.drain(1, |e| unsafe { e.run_drop(&rt) });
                assert_eq!(n, SLOTS as u64);
                let created = limbo.pool.nodes_created();
                assert!(
                    created <= (SLOTS * BAG + SLOTS) as u64,
                    "round {round}: {created} nodes for {SLOTS} slots"
                );
                if round == 0 {
                    after_first = created;
                }
                assert_eq!(created, after_first, "round {round}: the node count grew");
            }
            for slot in slots {
                tokens.unregister(slot);
            }
            assert_eq!(rt.live_objects(), 0);
        });
    }

    #[test]
    fn a_bag_goes_to_the_list_of_its_latest_deletion() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let limbo = Limbo::new();
            let tokens = TokenRegistry::new();
            let slot = tokens.register();
            unsafe { limbo.defer(&slot.bag, erased(&rt, 0), 1) };
            unsafe { limbo.defer(&slot.bag, erased(&rt, 1), 2) };
            limbo.publish_idle(slot);
            let (n1, _) = limbo.drain(1, |_| panic!("epoch 1's list is empty"));
            assert_eq!(n1, 0);
            let (n2, first) = limbo.drain(2, |e| unsafe { e.run_drop(&rt) });
            assert_eq!(n2, 2, "both objects wait for epoch 2's list");
            assert_ne!(first, u64::MAX, "the bag's first deletion is stamped");
            assert_eq!(rt.live_objects(), 0);
            tokens.unregister(slot);
        });
    }

    #[test]
    fn a_detached_drain_puts_back_what_it_keeps_and_recycles_into_the_given_pool() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let (limbo, scanner) = (Limbo::new(), Limbo::new());
            let tokens = TokenRegistry::new();
            let (slot, other) = (tokens.register(), tokens.register());
            defer_n(&rt, &limbo, &slot.bag, 0, BAG as u64);
            let value = |e: &Erased| unsafe { *(e.addr() as *const u64) };
            let (list, first) = limbo.detach(1);
            assert_ne!(first, u64::MAX);
            let keep = |e: &Erased| value(e) == 7;
            let drop_it = |e: Erased| unsafe { e.run_drop(&rt) };
            let n = limbo.drain_detached(list, 1, &scanner, keep, drop_it);
            assert_eq!(n, (BAG as u64 - 1, 1));
            let mut kept = Vec::new();
            let (n, first) = limbo.drain(1, |e| {
                kept.push(value(&e));
                unsafe { e.run_drop(&rt) }
            });
            assert_eq!((n, kept), (1, vec![7]), "the kept object went back");
            assert_ne!(first, u64::MAX, "and was stamped");
            // The emptied nodes went to the scanner's pool: its first
            // refill takes them and creates none.
            defer_n(&rt, &scanner, &other.bag, 0, BAG as u64 - 1);
            assert_eq!(scanner.pool.nodes_created(), 0, "the refill reused them");
            assert_eq!(scanner.publish_idle(other), BAG as u64 - 1);
            scanner.drain(1, drop_it);
            assert_eq!(rt.live_objects(), 0);
            tokens.unregister(slot);
            tokens.unregister(other);
        });
    }

    #[test]
    fn concurrent_bags_publishers_and_drains_lose_and_duplicate_nothing() {
        // Four holders pin, defer and unpin in a loop while a publisher
        // keeps publishing their idle bags and a drainer keeps draining, so
        // the handshake, chained pool pops and chained splices all race.
        const HOLDERS: usize = 4;
        const PER_HOLDER: u64 = 3000;
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let limbo = Limbo::new();
            let tokens = TokenRegistry::new();
            let slots: Vec<&TokenSlot> = (0..HOLDERS).map(|_| tokens.register()).collect();
            let done = AtomicUsize::new(0);
            let seen = parking_lot::Mutex::new(Vec::new());
            let drain = |got: &mut Vec<u64>| {
                limbo.drain(1, |e| {
                    got.push(unsafe { *(e.addr() as *const u64) });
                    unsafe { e.run_drop(&rt) };
                })
            };
            let published = AtomicU64::new(0);
            rt.coforall_tasks(HOLDERS + 2, |t| {
                let mut got = Vec::new();
                if t < HOLDERS {
                    let slot = slots[t];
                    for i in 0..PER_HOLDER {
                        slot.set_epoch(1);
                        let obj = erased(&rt, t as u64 * PER_HOLDER + i);
                        let n = unsafe { limbo.defer(&slot.bag, obj, 1) };
                        published.fetch_add(n, Ordering::Relaxed);
                        slot.set_epoch(QUIESCENT);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                } else if t == HOLDERS {
                    while done.load(Ordering::SeqCst) < HOLDERS {
                        for &slot in &slots {
                            published.fetch_add(limbo.publish_idle(slot), Ordering::Relaxed);
                        }
                    }
                } else {
                    while done.load(Ordering::SeqCst) < HOLDERS {
                        drain(&mut got);
                        std::thread::yield_now();
                    }
                }
                seen.lock().extend(got);
            });
            for &slot in &slots {
                published.fetch_add(limbo.publish_idle(slot), Ordering::Relaxed);
                tokens.unregister(slot);
            }
            let mut seen = seen.into_inner();
            drain(&mut seen);
            seen.sort_unstable();
            let expect: Vec<u64> = (0..HOLDERS as u64 * PER_HOLDER).collect();
            assert_eq!(seen, expect, "every object drained exactly once");
            assert_eq!(published.into_inner(), HOLDERS as u64 * PER_HOLDER);
            assert_eq!(rt.live_objects(), 0);
        });
    }
}
