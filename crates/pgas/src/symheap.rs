//! The *symmetric heap*: a registered, offset-addressed memory region on
//! every locale.
//!
//! Real PGAS transports (SHMEM, GASNet, ibverbs) cannot ship raw pointers
//! between processes — remote memory is named by an *offset* into a region
//! that every rank registered at startup, in the same order, so the same
//! offset denotes the same logical cell everywhere. The simulator never
//! needed this (all locales share one address space), but a process
//! backend does, so [`SymHeap`] is the common currency both engines can
//! target: the sim applies operations directly to the owner locale's heap,
//! while `pgas-net` serializes `(offset, op)` descriptors onto the wire.
//!
//! Three access granularities:
//!
//! * **64-bit words** — [`SymHeap::word`] exposes an `AtomicU64`;
//!   [`SymHeap::apply64`] interprets a [`SymOp64`] descriptor against it.
//! * **Wide (128-bit) cells** — a [`WideCell`], the 24-byte
//!   `[seq][lo][hi]` seqlock cell that is also every wide atomic in the
//!   tree (`pgas-atomics`' ABA cells and wide object cells hold one
//!   inline). [`SymHeap::wide`] returns the cell at an offset;
//!   [`SymHeap::wide_dcas`] and [`SymHeap::wide_load`] are its
//!   compare-exchange and stable read.
//! * **Bytes** — [`SymHeap::read_bytes`]/[`SymHeap::write_bytes`] model
//!   one-sided PUT/GET payloads. They move whole words relaxed with
//!   masking at the edges, so concurrent byte traffic is racy-but-defined,
//!   exactly like real RDMA.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// A 64-bit atomic operation descriptor against a symmetric-heap word.
///
/// This is the unit that crosses engine backends: the sim applies it
/// in-process, the process backend serializes it onto the wire. Every
/// variant returns the word's *previous* value (for [`SymOp64::Load`] the
/// current value; for [`SymOp64::Cas`] the caller compares the return
/// against `expected` to learn success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOp64 {
    /// Read the word.
    Load,
    /// Store the operand, returning the previous value.
    Store(u64),
    /// Atomic fetch-and-add, returning the previous value.
    FetchAdd(u64),
    /// Atomic exchange, returning the previous value.
    Exchange(u64),
    /// Atomic compare-and-swap; succeeded iff the returned previous value
    /// equals `expected`.
    Cas {
        /// Value the word must hold for the swap to happen.
        expected: u64,
        /// Value written on success.
        new: u64,
    },
}

/// Bytes occupied by a wide (128-bit seqlock) cell: `[seq][lo][hi]`.
pub const WIDE_CELL_BYTES: usize = std::mem::size_of::<WideCell>();

/// A 128-bit atomic: a sequence word followed by the low and high halves
/// of the value, `[seq][lo][hi]`.
///
/// The sequence is both the writers' lock and the readers' version, as in
/// "Big Atomics" (PAPERS.md, arXiv:2501.07503). A writer holds it odd for
/// the whole of [`WideCell::update`], the one writer section, and
/// publishes `seq + 2`. A reader loads the sequence, the two halves and
/// the sequence again, and keeps the halves only when both sequence loads
/// agree on one even value ([`WideCell::load`] retries until they do;
/// [`crate::engine::vread_u128`] prices and counts each attempt). Writers
/// block one another and a stable read waits out a writer in flight: the
/// cell has the progress of a lock, like any double-word CAS that no
/// `cmpxchg16b` backs.
///
/// All-zero bits are a valid cell holding 0, so a zeroed symmetric heap
/// needs no initialization. The layout is fixed (`repr(C)`), because the
/// process backend reads a remote cell as 24 raw bytes.
#[repr(C)]
#[derive(Debug, Default)]
pub struct WideCell {
    seq: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
}

#[inline]
fn join(lo: u64, hi: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

impl WideCell {
    /// A cell holding `v`, sequence 0.
    pub const fn new(v: u128) -> WideCell {
        WideCell {
            seq: AtomicU64::new(0),
            lo: AtomicU64::new(v as u64),
            hi: AtomicU64::new((v >> 64) as u64),
        }
    }

    /// The sequence word: odd while a writer is inside [`Self::update`].
    #[inline]
    pub fn seq(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store that ends each
        // update, so the halves read next are at least that writer's.
        self.seq.load(Ordering::Acquire)
    }

    /// The low half, read on its own. Not a snapshot of the pair.
    #[inline]
    pub fn lo(&self) -> u64 {
        // ORDERING: Acquire pairs with the writer's Release fence: a reader
        // that sees a new half also sees what the writer stored before its
        // update (the node a pointer names) and the odd sequence.
        self.lo.load(Ordering::Acquire)
    }

    /// The high half, read on its own. Not a snapshot of the pair.
    #[inline]
    pub fn hi(&self) -> u64 {
        // ORDERING: as for `lo`.
        self.hi.load(Ordering::Acquire)
    }

    /// Whether a read that began at sequence `s1` saw no writer: `s1` was
    /// even and the sequence has not moved since. Call it after loading
    /// the halves.
    #[inline]
    pub fn validate(&self, s1: u64) -> bool {
        // ORDERING: the read fence of crossbeam's `SeqLock::validate_read`:
        // the half loads before it happen before the validating load, so a
        // half some writer stored forces that writer's odd sequence (or a
        // later one) on the load below.
        fence(Ordering::Acquire);
        // ORDERING: Relaxed suffices behind the fence.
        s1.is_multiple_of(2) && self.seq.load(Ordering::Relaxed) == s1
    }

    /// A seqlock-stable read: retries until one read of the two halves
    /// straddles no writer.
    pub fn load(&self) -> u128 {
        loop {
            let s1 = self.seq();
            if s1.is_multiple_of(2) {
                let v = join(self.lo(), self.hi());
                if self.validate(s1) {
                    return v;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// The one writer section. Takes the sequence odd, passes the current
    /// value to `f`, writes what `f` returns and publishes `seq + 2`, so an
    /// optimistic reader that overlapped the section retries even when `f`
    /// returned the value unchanged. Returns the previous value. `f` must
    /// not panic: the sequence would stay odd and every later reader and
    /// writer of the cell would spin.
    pub fn update(&self, f: impl FnOnce(u128) -> u128) -> u128 {
        let s = loop {
            // ORDERING: Relaxed probe; the taking CAS below orders.
            let s = self.seq.load(Ordering::Relaxed);
            // ORDERING: Acquire pairs with the previous writer's Release
            // publication, so the halves read below are its.
            if s.is_multiple_of(2)
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break s;
            }
            std::hint::spin_loop();
        };
        // ORDERING: the write fence of crossbeam's `SeqLock::write`: the odd
        // sequence happens before either half store below, for any reader
        // that observes one of them.
        fence(Ordering::Release);
        // ORDERING: Relaxed; this writer holds the sequence.
        let cur = join(
            self.lo.load(Ordering::Relaxed),
            self.hi.load(Ordering::Relaxed),
        );
        let new = f(cur);
        // ORDERING: Relaxed; the fence above and the Release store below
        // order them for readers.
        self.lo.store(new as u64, Ordering::Relaxed);
        self.hi.store((new >> 64) as u64, Ordering::Relaxed);
        // ORDERING: Release publishes the halves with the even sequence.
        self.seq.store(s + 2, Ordering::Release);
        cur
    }

    /// Install `new` iff the cell holds `expected`: `Ok(previous)` on
    /// success, `Err(current)` otherwise. Either way it runs one
    /// [`Self::update`] and bumps the sequence.
    pub fn compare_exchange(&self, expected: u128, new: u128) -> Result<u128, u128> {
        let prev = self.update(|cur| if cur == expected { new } else { cur });
        if prev == expected {
            Ok(prev)
        } else {
            Err(prev)
        }
    }
}

/// One locale's symmetric heap (see the module docs).
///
/// Offsets are byte offsets, 8-aligned for word and wide-cell accessors.
/// The heap is zero-initialized; a zeroed [`WideCell`] is valid (even
/// sequence, value 0), so no initialization round trip is needed before
/// first use.
pub struct SymHeap {
    words: Box<[AtomicU64]>,
    cursor: AtomicUsize,
}

impl std::fmt::Debug for SymHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymHeap")
            .field("bytes", &(self.words.len() * 8))
            .field("allocated", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl SymHeap {
    /// Allocate a zeroed heap of `bytes` (rounded up to whole words).
    pub fn new(bytes: usize) -> SymHeap {
        let words = bytes.div_ceil(8);
        SymHeap {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Total capacity in bytes.
    pub fn len_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Bump-allocate `bytes` (rounded up to a word multiple), returning the
    /// byte offset of the block. Symmetric allocation relies on every
    /// locale performing the same `alloc` calls in the same order, which is
    /// exactly the SHMEM `shmem_malloc` collective contract. Panics when
    /// the heap is exhausted.
    pub fn alloc(&self, bytes: usize) -> u64 {
        let take = bytes.div_ceil(8) * 8;
        let off = self.cursor.fetch_add(take, Ordering::Relaxed);
        assert!(
            off + take <= self.len_bytes(),
            "symmetric heap exhausted: {} + {} > {} bytes (raise \
             RuntimeConfig::sym_heap_bytes)",
            off,
            take,
            self.len_bytes()
        );
        off as u64
    }

    /// The word at byte offset `off` (must be 8-aligned and in range).
    pub fn word(&self, off: u64) -> &AtomicU64 {
        assert!(
            off.is_multiple_of(8),
            "symmetric-heap word offset {off} not 8-aligned"
        );
        &self.words[(off / 8) as usize]
    }

    /// Apply a [`SymOp64`] descriptor to the word at `off`, returning the
    /// previous value (see the enum docs for per-variant semantics).
    pub fn apply64(&self, off: u64, op: SymOp64) -> u64 {
        let w = self.word(off);
        match op {
            SymOp64::Load => w.load(Ordering::SeqCst),
            SymOp64::Store(v) => w.swap(v, Ordering::SeqCst),
            SymOp64::FetchAdd(v) => w.fetch_add(v, Ordering::SeqCst),
            SymOp64::Exchange(v) => w.swap(v, Ordering::SeqCst),
            SymOp64::Cas { expected, new } => {
                match w.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(prev) => prev,
                    Err(prev) => prev,
                }
            }
        }
    }

    // --- wide (128-bit seqlock) cells: a `WideCell` at a 24-byte block ---

    /// The [`WideCell`] at byte offset `off` (8-aligned, in range).
    pub fn wide(&self, off: u64) -> &WideCell {
        assert!(
            off.is_multiple_of(8),
            "symmetric-heap wide cell offset {off} not 8-aligned"
        );
        let words = &self.words[(off / 8) as usize..][..3];
        // SAFETY: `WideCell` is `repr(C)` over three `AtomicU64`s, so it
        // has the layout and alignment of `words`, which lives as long as
        // `self`; both are shared views of interior-mutable words.
        unsafe { &*words.as_ptr().cast::<WideCell>() }
    }

    /// Seqlock-stable read of the wide cell at `off` ([`WideCell::load`]).
    pub fn wide_load(&self, off: u64) -> u128 {
        self.wide(off).load()
    }

    /// 128-bit compare-and-swap on the wide cell at `off`
    /// ([`WideCell::compare_exchange`]). Returns `(succeeded, previous
    /// value)`.
    pub fn wide_dcas(&self, off: u64, expected: u128, new: u128) -> (bool, u128) {
        match self.wide(off).compare_exchange(expected, new) {
            Ok(prev) => (true, prev),
            Err(prev) => (false, prev),
        }
    }

    // --- byte-granular one-sided access ---

    /// Copy `out.len()` bytes starting at byte offset `off` into `out`.
    /// Word-sized relaxed loads with masking at the edges: concurrent
    /// writers can interleave at word granularity, which is the real
    /// one-sided GET contract. Each word is loaded once, in ascending
    /// address order.
    pub fn read_bytes(&self, off: u64, out: &mut [u8]) {
        let off = off as usize;
        assert!(
            off + out.len() <= self.len_bytes(),
            "symmetric-heap read out of range"
        );
        let mut i = 0;
        while i < out.len() {
            let pos = off + i;
            let lane = pos % 8;
            let take = (8 - lane).min(out.len() - i);
            let word = self.words[pos / 8].load(Ordering::Acquire).to_le_bytes();
            out[i..i + take].copy_from_slice(&word[lane..lane + take]);
            i += take;
        }
    }

    /// Copy `data` into the heap starting at byte offset `off`. Partial
    /// words are updated with a CAS loop over the containing word so
    /// neighbouring bytes are preserved.
    pub fn write_bytes(&self, off: u64, data: &[u8]) {
        let off = off as usize;
        assert!(
            off + data.len() <= self.len_bytes(),
            "symmetric-heap write out of range"
        );
        let mut i = 0;
        while i < data.len() {
            let pos = off + i;
            let word = &self.words[pos / 8];
            let lane = pos % 8;
            let take = (8 - lane).min(data.len() - i);
            if take == 8 {
                word.store(
                    u64::from_le_bytes(data[i..i + 8].try_into().unwrap()),
                    Ordering::Release,
                );
            } else {
                let mut cur = word.load(Ordering::Acquire);
                loop {
                    let mut bytes = cur.to_le_bytes();
                    bytes[lane..lane + take].copy_from_slice(&data[i..i + take]);
                    match word.compare_exchange_weak(
                        cur,
                        u64::from_le_bytes(bytes),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
            }
            i += take;
        }
    }
}

// --- task-facing facade -------------------------------------------------
//
// Free functions callable from inside any runtime task (they resolve the
// current runtime through [`crate::ctx`]); each forwards to the active
// [`crate::engine::CommEngine`]'s symmetric-heap operation, so the same
// scenario code runs unchanged on the simulator and on a process backend.

/// Apply a 64-bit atomic `op` to `owner`'s symmetric heap at `offset`;
/// returns the previous value.
pub fn atomic(owner: crate::LocaleId, offset: u64, op: SymOp64) -> u64 {
    crate::ctx::with_core(|c, _| c.engine().sym_atomic_u64(c, owner, offset, op))
}

/// Fetch-add on `owner`'s symmetric heap word at `offset` (returns the
/// previous value).
pub fn fetch_add(owner: crate::LocaleId, offset: u64, delta: u64) -> u64 {
    atomic(owner, offset, SymOp64::FetchAdd(delta))
}

/// Load `owner`'s symmetric heap word at `offset`.
pub fn load(owner: crate::LocaleId, offset: u64) -> u64 {
    atomic(owner, offset, SymOp64::Load)
}

/// Double-width CAS on the versioned wide cell at `offset` of `owner`'s
/// symmetric heap; returns `(succeeded, value seen)`.
pub fn dcas(owner: crate::LocaleId, offset: u64, expected: u128, new: u128) -> (bool, u128) {
    crate::ctx::with_core(|c, _| c.engine().sym_dcas_u128(c, owner, offset, expected, new))
}

/// Read the wide cell at `offset` of `owner`'s symmetric heap (versioned
/// fast path when enabled, DCAS slow path otherwise).
pub fn read_wide(owner: crate::LocaleId, offset: u64) -> u128 {
    crate::ctx::with_core(|c, _| c.engine().sym_read_u128(c, owner, offset))
}

/// One-sided GET from `owner`'s symmetric heap into `out`.
pub fn get(owner: crate::LocaleId, offset: u64, out: &mut [u8]) {
    crate::ctx::with_core(|c, _| c.engine().sym_get(c, owner, offset, out))
}

/// One-sided PUT of `data` into `owner`'s symmetric heap.
pub fn put(owner: crate::LocaleId, offset: u64, data: &[u8]) {
    crate::ctx::with_core(|c, _| c.engine().sym_put(c, owner, offset, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_word_aligned_and_monotone() {
        let h = SymHeap::new(256);
        assert_eq!(h.alloc(8), 0);
        assert_eq!(h.alloc(3), 8, "3 bytes rounds up to one word");
        assert_eq!(h.alloc(24), 16);
        assert_eq!(h.len_bytes(), 256);
    }

    #[test]
    #[should_panic(expected = "symmetric heap exhausted")]
    fn alloc_past_capacity_panics() {
        let h = SymHeap::new(64);
        h.alloc(64);
        h.alloc(8);
    }

    #[test]
    fn apply64_descriptors() {
        let h = SymHeap::new(64);
        let off = h.alloc(8);
        assert_eq!(h.apply64(off, SymOp64::Load), 0);
        assert_eq!(h.apply64(off, SymOp64::Store(7)), 0);
        assert_eq!(h.apply64(off, SymOp64::FetchAdd(5)), 7);
        assert_eq!(h.apply64(off, SymOp64::Exchange(100)), 12);
        // failed CAS returns the unswapped current value
        assert_eq!(
            h.apply64(
                off,
                SymOp64::Cas {
                    expected: 1,
                    new: 2
                }
            ),
            100
        );
        // successful CAS returns the expected value
        assert_eq!(
            h.apply64(
                off,
                SymOp64::Cas {
                    expected: 100,
                    new: 2
                }
            ),
            100
        );
        assert_eq!(h.apply64(off, SymOp64::Load), 2);
    }

    #[test]
    fn wide_dcas_and_load_round_trip() {
        let h = SymHeap::new(64);
        let off = h.alloc(WIDE_CELL_BYTES);
        assert_eq!(h.wide_load(off), 0);
        let v = (7u128 << 64) | 9;
        assert_eq!(h.wide_dcas(off, 0, v), (true, 0));
        assert_eq!(h.wide_load(off), v);
        // failed compare leaves the value but still bumps the sequence
        let s0 = h.wide(off).seq();
        assert_eq!(h.wide_dcas(off, 1, 2), (false, v));
        assert_eq!(h.wide_load(off), v);
        assert_eq!(h.wide(off).seq(), s0 + 2);
        // The process backend parses a remote cell as `[seq][lo][hi]`.
        let mut raw = [0u8; WIDE_CELL_BYTES];
        h.read_bytes(off, &mut raw);
        let word = |i: usize| u64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().unwrap());
        assert_eq!((word(0), word(1), word(2)), (s0 + 2, 9, 7));
    }

    #[test]
    fn byte_access_preserves_neighbours() {
        let h = SymHeap::new(64);
        let off = h.alloc(16);
        h.write_bytes(off, &[0xAA; 16]);
        h.write_bytes(off + 3, &[0x11, 0x22, 0x33]);
        let mut out = [0u8; 16];
        h.read_bytes(off, &mut out);
        assert_eq!(out[2], 0xAA);
        assert_eq!(&out[3..6], &[0x11, 0x22, 0x33]);
        assert_eq!(out[6], 0xAA);
    }

    #[test]
    fn read_bytes_matches_bytewise_reference() {
        let h = SymHeap::new(64);
        for (i, w) in h.words.iter().enumerate() {
            let bytes: [u8; 8] = std::array::from_fn(|b| (i * 8 + b) as u8 ^ 0x5A);
            w.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        for off in 0..16usize {
            for len in 0..=40usize {
                // The reference: one load per byte.
                let expect: Vec<u8> = (off..off + len)
                    .map(|pos| h.words[pos / 8].load(Ordering::Relaxed).to_le_bytes()[pos % 8])
                    .collect();
                // A canary either side catches a write outside `out`.
                let mut out = vec![0xEE; len + 2];
                h.read_bytes(off as u64, &mut out[1..=len]);
                assert_eq!(&out[1..=len], &expect[..], "offset {off}, length {len}");
                assert_eq!((out[0], out[len + 1]), (0xEE, 0xEE));
            }
        }
        // Up to the last byte of the heap, and an empty read just past it.
        let mut tail = [0u8; 5];
        h.read_bytes(59, &mut tail);
        assert_eq!(
            tail,
            [59 ^ 0x5A, 60 ^ 0x5A, 61 ^ 0x5A, 62 ^ 0x5A, 63 ^ 0x5A]
        );
        h.read_bytes(64, &mut []);
    }

    #[test]
    fn concurrent_wide_dcas_never_tears_stable_reads() {
        use std::sync::Arc;
        let h = Arc::new(SymHeap::new(64));
        let off = h.alloc(WIDE_CELL_BYTES);
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut cur = 0u128;
                for i in 1..2000u128 {
                    // write mirrored halves so tearing is detectable
                    let v = (i << 64) | i;
                    let (ok, prev) = h.wide_dcas(off, cur, v);
                    assert!(ok, "single writer must always succeed");
                    assert_eq!(prev, cur);
                    cur = v;
                }
            })
        };
        for _ in 0..2000 {
            let v = h.wide_load(off);
            assert_eq!(v as u64, (v >> 64) as u64, "stable read tore: {v:#x}");
        }
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_updates_exclude_one_another() {
        // Each update adds one to both halves; an update that overlapped
        // another would lose an increment or leave the halves apart.
        const WRITERS: u64 = 2;
        const UPDATES: u64 = 200_000;
        let cell = WideCell::default();
        let one = (1u128 << 64) | 1;
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..UPDATES {
                        cell.update(|cur| cur + one);
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..UPDATES {
                    let v = cell.load();
                    assert_eq!(v as u64, (v >> 64) as u64, "stable read tore: {v:#x}");
                }
            });
        });
        assert_eq!(cell.load(), u128::from(WRITERS * UPDATES) * one);
        assert_eq!(cell.seq(), 2 * WRITERS * UPDATES);
    }
}
