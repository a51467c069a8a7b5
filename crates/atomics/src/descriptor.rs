//! Descriptor-table indirection: RDMA-capable object atomics beyond 2^16
//! locales.
//!
//! The paper's conclusion sketches this as future work: *"it is planned to
//! allow more than 2^16 locales while still allowing RDMA atomic
//! operations, by introducing another level of indirection and utilizing
//! a descriptor index into a separate table of objects in place of the
//! pointer itself."* This module implements that design:
//!
//! * every locale owns a **descriptor shard**: a fixed table of slots,
//!   each holding a full 128-bit wide pointer;
//! * an atomic cell stores a 64-bit **descriptor**: `{locale:16, gen:16,
//!   slot:32}`. Being a single word, it supports genuine RDMA atomics
//!   regardless of how wide the real pointer is;
//! * dereferencing costs one (possibly remote) GET of the slot;
//! * slots are recycled through a per-shard lock-free free list, and the
//!   16-bit **generation** stamped into the descriptor detects stale
//!   descriptors after recycling (the indirection-level ABA problem).
//!
//! The trade: every update allocates/retires a descriptor and every read
//! through the cell adds one GET, in exchange for keeping the hot CAS on
//! the NIC fast path at any machine scale.
//!
//! Relation to the versioned fast-read path
//! ([`pgas_sim::engine::vread_u128`]): both attack the same cost — wide
//! reads paying the DCAS active-message round trip — from opposite ends.
//! The seqlock keeps the 128-bit [`pgas_sim::WideCell`] and validates an
//! optimistic two-load window against its sequence word;
//! descriptors shrink the cell itself to one RDMA-able word. A descriptor
//! read therefore needs no sequence validation of its own: the cell load
//! is a single 64-bit atomic (it cannot tear) and the generation stamp
//! already rejects any slot recycled between the cell load and the slot
//! GET — the generation check *is* this path's validation, so the
//! `vread_*` counters stay untouched here by design (the results guard,
//! `pgas_bench::guard`, asserts they are zero outside the A10 rows).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pgas_sim::engine;
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, LocaleId, Privatized, WideGlobalPtr};

const SLOT_BITS: u32 = 32;
const GEN_BITS: u32 = 16;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Descriptor value reserved for "null pointer".
const NULL_DESC: u64 = u64::MAX;

#[inline]
fn pack_desc(locale: LocaleId, gen: u16, slot: u32) -> u64 {
    ((locale as u64) << (GEN_BITS + SLOT_BITS)) | ((gen as u64) << SLOT_BITS) | slot as u64
}

#[inline]
fn unpack_desc(d: u64) -> (LocaleId, u16, u32) {
    (
        (d >> (GEN_BITS + SLOT_BITS)) as LocaleId,
        ((d >> SLOT_BITS) & GEN_MASK) as u16,
        (d & SLOT_MASK) as u32,
    )
}

/// One table slot: the wide pointer's two words, the current generation,
/// and the free-list link.
struct Slot {
    locale_word: AtomicU64,
    addr_word: AtomicU64,
    gen: AtomicU32,
    next_free: AtomicU32,
}

const NO_SLOT: u32 = u32::MAX;

/// A locale's shard of the descriptor table.
struct Shard {
    slots: Box<[Slot]>,
    /// Lock-free free list: `{aba_count:32, head_slot:32}` packed in one
    /// word; `head_slot == NO_SLOT` means empty.
    free_head: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        let slots: Box<[Slot]> = (0..capacity)
            .map(|i| Slot {
                locale_word: AtomicU64::new(0),
                addr_word: AtomicU64::new(0),
                gen: AtomicU32::new(0),
                next_free: AtomicU32::new(if i + 1 < capacity {
                    (i + 1) as u32
                } else {
                    NO_SLOT
                }),
            })
            .collect();
        Shard {
            slots,
            free_head: AtomicU64::new(if capacity == 0 { NO_SLOT as u64 } else { 0 }),
        }
    }

    fn pop_free(&self) -> Option<u32> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let slot = (head & SLOT_MASK) as u32;
            if slot == NO_SLOT {
                return None;
            }
            let count = head >> SLOT_BITS;
            let next = self.slots[slot as usize].next_free.load(Ordering::Acquire);
            let new_head = ((count + 1) << SLOT_BITS) | next as u64;
            match self.free_head.compare_exchange_weak(
                head,
                new_head,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(slot),
                Err(h) => head = h,
            }
        }
    }

    fn push_free(&self, slot: u32) {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            self.slots[slot as usize]
                .next_free
                .store((head & SLOT_MASK) as u32, Ordering::Release);
            let count = head >> SLOT_BITS;
            let new_head = ((count + 1) << SLOT_BITS) | slot as u64;
            match self.free_head.compare_exchange_weak(
                head,
                new_head,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }
}

/// The distributed descriptor table: one shard per locale.
pub struct DescriptorTable {
    shards: Privatized<Shard>,
}

impl DescriptorTable {
    /// Build a table with `slots_per_locale` descriptors available on each
    /// locale.
    pub fn new(slots_per_locale: usize) -> Arc<DescriptorTable> {
        let rt = ctx::current_runtime();
        Arc::new(DescriptorTable {
            shards: Privatized::new(&rt, |_| Shard::new(slots_per_locale)),
        })
    }

    /// Allocate a descriptor on the *current* locale pointing at `ptr`.
    /// Returns the packed descriptor word.
    ///
    /// # Panics
    /// When the local shard is exhausted (fixed capacity by design — a
    /// descriptor leak is a bug in the caller's retirement protocol).
    fn allocate<T>(&self, ptr: WideGlobalPtr<T>) -> u64 {
        let here = pgas_sim::here();
        let shard = self.shards.get();
        let slot = shard
            .pop_free()
            .expect("descriptor shard exhausted; retire descriptors or grow the table");
        let s = &shard.slots[slot as usize];
        let (locale_word, addr_word) = ptr.into_words();
        s.locale_word.store(locale_word, Ordering::Relaxed);
        s.addr_word.store(addr_word, Ordering::Release);
        let gen = s.gen.load(Ordering::Relaxed) as u16;
        pack_desc(here, gen, slot)
    }

    /// Retire a descriptor, recycling its slot and bumping the generation
    /// so stale descriptors become detectable. Must be called on any
    /// locale; routes to the owning shard.
    fn retire(&self, core: &pgas_sim::RuntimeCore, desc: u64) {
        if desc == NULL_DESC {
            return;
        }
        let (owner, gen, slot) = unpack_desc(desc);
        let do_retire = || {
            let shard = self.shards.get_for(owner);
            let s = &shard.slots[slot as usize];
            debug_assert_eq!(s.gen.load(Ordering::Relaxed) as u16, gen, "double retire");
            s.gen.fetch_add(1, Ordering::AcqRel);
            shard.push_free(slot);
        };
        if owner == pgas_sim::here() {
            do_retire();
        } else {
            core.on(owner, do_retire);
        }
    }

    /// Resolve a descriptor to the wide pointer it names, charging one GET
    /// when the shard is remote. Returns `None` when the descriptor is
    /// stale (its slot was recycled).
    fn resolve<T>(&self, core: &pgas_sim::RuntimeCore, desc: u64) -> Option<WideGlobalPtr<T>> {
        if desc == NULL_DESC {
            return Some(WideGlobalPtr::null());
        }
        let (owner, gen, slot) = unpack_desc(desc);
        engine::get(core, owner, 16);
        let shard = self.shards.get_for(owner);
        let s = &shard.slots[slot as usize];
        if s.gen.load(Ordering::Acquire) as u16 != gen {
            return None; // stale descriptor
        }
        let addr = s.addr_word.load(Ordering::Acquire);
        let locale = s.locale_word.load(Ordering::Relaxed);
        Some(WideGlobalPtr::from_words(locale, addr))
    }
}

/// A snapshot of a [`DescriptorAtomicObject`]: the descriptor observed and
/// the pointer it resolved to at read time.
pub struct DescRef<T> {
    desc: u64,
    ptr: WideGlobalPtr<T>,
}

impl<T> DescRef<T> {
    /// The wide pointer this descriptor named when read.
    pub fn ptr(&self) -> WideGlobalPtr<T> {
        self.ptr
    }

    /// True when the snapshot names no object.
    pub fn is_null(&self) -> bool {
        self.desc == NULL_DESC
    }
}

impl<T> Clone for DescRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DescRef<T> {}

impl<T> std::fmt::Debug for DescRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescRef")
            .field("desc", &format_args!("{:#x}", self.desc))
            .field("ptr", &self.ptr)
            .finish()
    }
}

/// An atomic object reference whose cell stores a 64-bit descriptor —
/// RDMA atomics at any locale count, wide pointers included.
pub struct DescriptorAtomicObject<T> {
    cell: AtomicU64,
    owner: LocaleId,
    table: Arc<DescriptorTable>,
    _marker: std::marker::PhantomData<*mut T>,
}

// SAFETY: cell is a word, table is internally synchronized.
unsafe impl<T> Send for DescriptorAtomicObject<T> {}
unsafe impl<T> Sync for DescriptorAtomicObject<T> {}

impl<T> DescriptorAtomicObject<T> {
    /// A null cell on the current locale, using `table` for indirection.
    pub fn null(table: Arc<DescriptorTable>) -> Self {
        DescriptorAtomicObject {
            cell: AtomicU64::new(NULL_DESC),
            owner: pgas_sim::here(),
            table,
            _marker: std::marker::PhantomData,
        }
    }

    /// A cell initialized to `ptr` (a descriptor is allocated for it on
    /// the current locale).
    pub fn new(table: Arc<DescriptorTable>, ptr: WideGlobalPtr<T>) -> Self {
        let cell = Self::null(table);
        let desc = if ptr.is_null() {
            NULL_DESC
        } else {
            cell.table.allocate(ptr)
        };
        cell.cell.store(desc, Ordering::Release);
        cell
    }

    fn route<R: Send>(&self, op: impl FnOnce(&AtomicU64) -> R + Send) -> R {
        ctx::with_core(|core, _| engine::atomic_u64(core, self.owner, || op(&self.cell)))
    }

    /// Read the current reference: one 64-bit (RDMA-capable) atomic load
    /// of the descriptor plus one GET to resolve it. A read that observes
    /// a descriptor recycled mid-flight retries.
    pub fn read(&self) -> DescRef<T> {
        let span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
        ctx::with_core(|core, _| loop {
            let desc = self.route(|c| c.load(Ordering::SeqCst));
            if let Some(ptr) = self.table.resolve::<T>(core, desc) {
                return DescRef { desc, ptr };
            }
            // Stale: the cell has necessarily moved on; re-read.
            span.retry();
        })
    }

    /// Install a new reference. Allocates a descriptor for `new`, swaps it
    /// in with a single 64-bit atomic, and retires the previous
    /// descriptor. Returns the previous pointer.
    pub fn exchange(&self, new: WideGlobalPtr<T>) -> WideGlobalPtr<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::EXCHANGE, 0);
        ctx::with_core(|core, _| {
            let new_desc = if new.is_null() {
                NULL_DESC
            } else {
                self.table.allocate(new)
            };
            let old_desc = self.route(move |c| c.swap(new_desc, Ordering::SeqCst));
            let old_ptr = self
                .table
                .resolve::<T>(core, old_desc)
                .expect("the previous descriptor was live until this swap");
            self.table.retire(core, old_desc);
            old_ptr
        })
    }

    /// Store a new reference, discarding the old one.
    pub fn write(&self, new: WideGlobalPtr<T>) {
        let _ = self.exchange(new);
    }

    /// Compare-and-swap against a previously [`read`](Self::read)
    /// snapshot. The comparison is on the *descriptor*, so recycled slots
    /// cannot spoof it (generation bits differ). On success the old
    /// descriptor is retired.
    pub fn compare_and_swap(&self, expected: DescRef<T>, new: WideGlobalPtr<T>) -> bool {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::CAS, 0);
        ctx::with_core(|core, _| {
            let new_desc = if new.is_null() {
                NULL_DESC
            } else {
                self.table.allocate(new)
            };
            let e = expected.desc;
            let ok = self.route(move |c| {
                c.compare_exchange(e, new_desc, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            });
            if ok {
                self.table.retire(core, expected.desc);
            } else if new_desc != NULL_DESC {
                // Roll back the speculative allocation.
                self.table.retire(core, new_desc);
            }
            ok
        })
    }
}

impl<T> Drop for DescriptorAtomicObject<T> {
    fn drop(&mut self) {
        // Retire the final descriptor if we still can (requires context;
        // shard teardown reclaims slots regardless).
        if pgas_sim::try_here().is_some() {
            let desc = *self.cell.get_mut();
            ctx::with_core(|core, _| self.table.retire(core, desc));
        }
    }
}

impl<T> std::fmt::Debug for DescriptorAtomicObject<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescriptorAtomicObject")
            .field("owner", &self.owner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{Runtime, RuntimeConfig};

    fn wide_of(v: &mut u64) -> WideGlobalPtr<u64> {
        WideGlobalPtr::new(pgas_sim::here() as u64, v as *mut u64 as usize)
    }

    #[test]
    fn desc_pack_unpack_roundtrip() {
        let d = pack_desc(513, 0xBEEF, 0xDEAD_CAFE);
        assert_eq!(unpack_desc(d), (513, 0xBEEF, 0xDEAD_CAFE));
    }

    #[test]
    fn read_write_exchange_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2).with_wide_pointers());
        rt.run(|| {
            let table = DescriptorTable::new(64);
            let mut a = 1u64;
            let mut b = 2u64;
            let (pa, pb) = (wide_of(&mut a), wide_of(&mut b));
            let cell = DescriptorAtomicObject::new(Arc::clone(&table), pa);
            assert_eq!(cell.read().ptr(), pa);
            let old = cell.exchange(pb);
            assert_eq!(old, pa);
            assert_eq!(cell.read().ptr(), pb);
            cell.write(WideGlobalPtr::null());
            assert!(cell.read().is_null());
        });
    }

    #[test]
    fn cas_succeeds_on_current_snapshot() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1).with_wide_pointers());
        rt.run(|| {
            let table = DescriptorTable::new(8);
            let mut a = 1u64;
            let mut b = 2u64;
            let (pa, pb) = (wide_of(&mut a), wide_of(&mut b));
            let cell = DescriptorAtomicObject::new(Arc::clone(&table), pa);
            let snap = cell.read();
            assert!(cell.compare_and_swap(snap, pb));
            assert!(!cell.compare_and_swap(snap, pa), "stale descriptor");
            assert_eq!(cell.read().ptr(), pb);
        });
    }

    #[test]
    fn recycled_slot_cannot_spoof_cas() {
        // The descriptor-level ABA: a retired slot is recycled for a new
        // pointer; a CAS against the old snapshot must fail because the
        // generation advanced.
        let rt = Runtime::new(RuntimeConfig::zero_latency(1).with_wide_pointers());
        rt.run(|| {
            // 2 slots: the live descriptor plus one for the speculative
            // CAS allocation — retired slots are recycled immediately.
            let table = DescriptorTable::new(2);
            let mut a = 1u64;
            let mut b = 2u64;
            let (pa, pb) = (wide_of(&mut a), wide_of(&mut b));
            let cell = DescriptorAtomicObject::new(Arc::clone(&table), pa);
            let stale = cell.read();
            cell.write(WideGlobalPtr::null()); // retires pa's slot
            cell.write(pb); // recycles the same slot, new generation
            assert!(
                !cell.compare_and_swap(stale, pa),
                "recycled descriptor must not match"
            );
            assert_eq!(cell.read().ptr(), pb);
        });
    }

    #[test]
    fn slots_recycle_indefinitely() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1).with_wide_pointers());
        rt.run(|| {
            let table = DescriptorTable::new(2);
            let mut a = 1u64;
            let pa = wide_of(&mut a);
            let cell = DescriptorAtomicObject::null(Arc::clone(&table));
            for _ in 0..100 {
                cell.write(pa);
                cell.write(WideGlobalPtr::null());
            }
        });
    }

    #[test]
    fn remote_cell_uses_rdma_even_in_wide_mode() {
        // The whole point: with >2^16-locale-style wide pointers, the
        // descriptor cell still takes the NIC path.
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_wide_pointers());
        rt.run(|| {
            let table = DescriptorTable::new(8);
            let cell = rt.on(1, || {
                DescriptorAtomicObject::<u64>::null(Arc::clone(&table))
            });
            rt.reset_metrics();
            let _ = cell.read();
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 1, "descriptor load rides the NIC");
            assert_eq!(s.am_sent, 0);
        });
    }

    #[test]
    fn concurrent_cas_single_winner() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1).with_wide_pointers());
        rt.run(|| {
            let table = DescriptorTable::new(64);
            let mut vals = [0u64; 8];
            let cell = DescriptorAtomicObject::<u64>::null(Arc::clone(&table));
            let wins = std::sync::atomic::AtomicUsize::new(0);
            let ptrs: Vec<WideGlobalPtr<u64>> = vals
                .iter_mut()
                .map(|v| WideGlobalPtr::new(0, v as *mut u64 as usize))
                .collect();
            rt.coforall_tasks(8, |t| {
                let snap = cell.read();
                if snap.is_null() && cell.compare_and_swap(snap, ptrs[t]) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn shard_exhaustion_is_loud() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let table = DescriptorTable::new(1);
            let mut a = 1u64;
            let mut b = 2u64;
            let _c1 = DescriptorAtomicObject::new(Arc::clone(&table), wide_of(&mut a));
            let _c2 = DescriptorAtomicObject::new(Arc::clone(&table), wide_of(&mut b));
        });
    }
}
