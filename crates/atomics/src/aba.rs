//! ABA protection: the 128-bit `{pointer, counter}` wrapper.
//!
//! §II-A of the paper: a compare-and-swap can succeed *incorrectly* when an
//! address is freed and recycled between a thread's read and its CAS (the
//! ABA problem). The cure implemented here is the one the paper ships — a
//! 64-bit counter held adjacent to the 64-bit (compressed) pointer,
//! updated together with it by a double-word compare-and-swap
//! (`CMPXCHG16B` / LL-SC). Every successful mutating operation bumps the
//! counter, so a stale snapshot can never win a CAS even if the address
//! matches.
//!
//! [`AtomicAbaObject`] offers both plain operations (pointer-only
//! semantics) and `*_aba` variants that compare the counter too — the
//! paper allows mixing them freely. [`Aba`] is the snapshot type returned
//! by `read_aba`; like the Chapel version (which uses the `forwarding`
//! decorator) it behaves as a smart reference to the object it wraps.
//!
//! Because RDMA atomics top out at 64 bits, remote ABA operations execute
//! as active messages ("remote execution rather than RDMA"); the plain
//! 64-bit `read` still rides the NIC. ABA protection requires the
//! compressed pointer representation — with a 128-bit wide pointer there
//! is no room left for a counter — matching the paper, whose ABA wrapper
//! is defined over compressed pointers.

use pgas_sim::engine;
use pgas_sim::telemetry::{opkind, OpClass, OpSpan};
use pgas_sim::{ctx, GlobalPtr, LocaleId, PointerMode, WideCell};

/// A snapshot of an [`AtomicAbaObject`]: the object reference plus the
/// counter value observed with it.
pub struct Aba<T> {
    ptr: GlobalPtr<T>,
    count: u64,
}

impl<T> Aba<T> {
    /// The object reference (Chapel: `getObject()`).
    #[inline]
    pub fn get_object(&self) -> GlobalPtr<T> {
        self.ptr
    }

    /// The ABA counter observed alongside the reference.
    #[inline]
    pub fn get_aba_count(&self) -> u64 {
        self.count
    }

    /// True when the snapshot holds no object.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }
}

impl<T> Clone for Aba<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Aba<T> {}

impl<T> PartialEq for Aba<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr && self.count == other.count
    }
}
impl<T> Eq for Aba<T> {}

impl<T> std::fmt::Debug for Aba<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aba")
            .field("ptr", &self.ptr)
            .field("count", &self.count)
            .finish()
    }
}

#[inline]
fn pack<T>(ptr: GlobalPtr<T>, count: u64) -> u128 {
    ((count as u128) << 64) | ptr.into_bits() as u128
}

/// `cur` with its pointer word replaced by `ptr` and its counter bumped.
#[inline]
fn bumped(cur: u128, ptr: u64) -> u128 {
    ((((cur >> 64) as u64).wrapping_add(1) as u128) << 64) | ptr as u128
}

#[inline]
fn unpack<T>(bits: u128) -> Aba<T> {
    Aba {
        ptr: GlobalPtr::from_bits(bits as u64),
        count: (bits >> 64) as u64,
    }
}

/// An atomic object reference with ABA protection (a 128-bit
/// `{compressed pointer, counter}` pair).
pub struct AtomicAbaObject<T> {
    /// `{counter, pointer}` as one 128-bit [`WideCell`]. Its sequence word
    /// also backs the versioned fast read, consulted only when
    /// [`pgas_sim::RuntimeConfig::vread_fastpath`] is enabled.
    cell: WideCell,
    owner: LocaleId,
    _marker: std::marker::PhantomData<*mut T>,
}

// SAFETY: as for `AtomicObject` — the cell stores plain words.
unsafe impl<T> Send for AtomicAbaObject<T> {}
// SAFETY: every access to the shared cell is an atomic `WideCell` operation.
unsafe impl<T> Sync for AtomicAbaObject<T> {}

impl<T> AtomicAbaObject<T> {
    /// A null cell owned by the current locale.
    pub fn null() -> Self {
        Self::new(GlobalPtr::null())
    }

    /// A cell holding `ptr`, owned by the current locale.
    pub fn new(ptr: GlobalPtr<T>) -> Self {
        Self::new_on(pgas_sim::here(), ptr)
    }

    /// A cell holding `ptr` whose storage belongs to `owner`.
    ///
    /// # Panics
    /// If the runtime uses wide pointers — ABA protection requires the
    /// compressed representation (there is no room for a counter next to a
    /// 128-bit pointer).
    pub fn new_on(owner: LocaleId, ptr: GlobalPtr<T>) -> Self {
        ctx::with_core(|core, _| {
            assert!(
                core.config.pointer_mode == PointerMode::Compressed,
                "ABA protection requires compressed pointers; wide mode \
                 (RuntimeConfig::with_wide_pointers / PointerMode::Wide) \
                 leaves no room for the adjacent counter — configure \
                 PointerMode::Compressed to use ABA cells"
            );
        });
        AtomicAbaObject {
            cell: WideCell::new(pack(ptr, 0)),
            owner,
            _marker: std::marker::PhantomData,
        }
    }

    /// The locale owning this cell's storage.
    pub fn owner(&self) -> LocaleId {
        self.owner
    }

    /// Run a 128-bit operation on the owner's cell.
    fn route<R: Send>(&self, op: impl FnOnce(&WideCell) -> R + Send) -> R {
        ctx::with_core(|core, here| engine::atomic_u128(core, here, self.owner, || op(&self.cell)))
    }

    // ---- ABA variants -----------------------------------------------

    /// Atomically read the `{pointer, counter}` snapshot. A pure read —
    /// idempotent under fault injection, so a lost read request may be
    /// retried (see [`pgas_sim::faults`]).
    ///
    /// With [`pgas_sim::RuntimeConfig::vread_fastpath`] enabled this is an
    /// optimistic versioned read (sequence-validated two-load window on
    /// the one-sided GET cost model, see [`pgas_sim::engine::vread_u128`]);
    /// a torn window beyond the retry budget falls back to the DCAS path
    /// below.
    pub fn read_aba(&self) -> Aba<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
        pgas_sim::faults::with_class(pgas_sim::faults::RetryClass::Idempotent, || {
            unpack(ctx::with_core(|core, here| {
                engine::vread_u128(core, here, self.owner, &self.cell).unwrap_or_else(|| {
                    engine::atomic_u128(core, here, self.owner, || self.cell.load())
                })
            }))
        })
    }

    /// Install `new` iff both the pointer *and* the counter still match
    /// `expected` — the ABA-immune CAS. The counter is bumped on success.
    pub fn compare_and_swap_aba(&self, expected: Aba<T>, new: GlobalPtr<T>) -> bool {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::CAS, 0);
        let e = pack(expected.ptr, expected.count);
        let n = pack(new, expected.count.wrapping_add(1));
        self.route(move |c| c.compare_exchange(e, n).is_ok())
    }

    /// Atomically swap in `new`, bumping the counter; returns the previous
    /// snapshot.
    pub fn exchange_aba(&self, new: GlobalPtr<T>) -> Aba<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::EXCHANGE, 0);
        let bits = new.into_bits();
        unpack(self.route(move |c| c.update(|cur| bumped(cur, bits))))
    }

    /// Atomically store `new`, bumping the counter.
    pub fn write_aba(&self, new: GlobalPtr<T>) {
        let _ = self.exchange_aba(new);
    }

    // ---- plain (pointer-only) variants ------------------------------

    /// Read just the object reference. This is a 64-bit operation on the
    /// low word, so — unlike every other operation here — it can ride the
    /// NIC as an RDMA atomic.
    pub fn read(&self) -> GlobalPtr<T> {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::READ, 0);
        pgas_sim::faults::with_class(pgas_sim::faults::RetryClass::Idempotent, || {
            // The low half alone is the pointer word, and an update writes
            // it once, so this 64-bit load observes a pointer that was
            // current at some point — the guarantee an RDMA GET of the low
            // word gives on real hardware.
            let bits = ctx::with_core(|core, here| {
                engine::atomic_u64(core, here, self.owner, || self.cell.lo())
            });
            GlobalPtr::from_bits(bits)
        })
    }

    /// Store an object reference without ABA semantics. Still bumps the
    /// counter so that *other* tasks' ABA snapshots are invalidated — a
    /// plain write changes the logical value, after all.
    pub fn write(&self, new: GlobalPtr<T>) {
        self.write_aba(new);
    }

    /// Swap the object reference, returning only the previous pointer.
    pub fn exchange(&self, new: GlobalPtr<T>) -> GlobalPtr<T> {
        self.exchange_aba(new).get_object()
    }

    /// Read the pointer word without runtime context, communication
    /// charging, or statistics. Intended for teardown paths (`Drop`) that
    /// may run outside any locale context; callers must be sure no other
    /// task is mutating the cell.
    pub fn read_untracked(&self) -> GlobalPtr<T> {
        GlobalPtr::from_bits(self.cell.lo())
    }

    /// Pointer-only compare-and-swap: succeeds when the *pointer* matches,
    /// regardless of the counter (the ABA-susceptible operation — provided
    /// because the paper lets advanced users mix variants). The counter
    /// still advances on success.
    pub fn compare_and_swap(&self, expected: GlobalPtr<T>, new: GlobalPtr<T>) -> bool {
        let _span = OpSpan::start(OpClass::AtomicObjectOp, opkind::CAS, 0);
        let (e, n) = (expected.into_bits(), new.into_bits());
        self.route(move |c| {
            let prev = c.update(|cur| if cur as u64 == e { bumped(cur, n) } else { cur });
            prev as u64 == e
        })
    }
}

impl<T> std::fmt::Debug for AtomicAbaObject<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicAbaObject")
            .field("owner", &self.owner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, free, Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn read_aba_starts_at_count_zero() {
        let rt = Runtime::cluster(1);
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::null();
            let snap = cell.read_aba();
            assert!(snap.is_null());
            assert_eq!(snap.get_aba_count(), 0);
        });
    }

    #[test]
    fn successful_mutations_bump_counter() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let a = alloc_local(&rt, 1u64);
            let b = alloc_local(&rt, 2u64);
            let cell = AtomicAbaObject::new(a);
            assert_eq!(cell.read_aba().get_aba_count(), 0);
            cell.write_aba(b); // 1
            let s = cell.read_aba();
            assert_eq!(s.get_aba_count(), 1);
            assert!(cell.compare_and_swap_aba(s, a)); // 2
            let _ = cell.exchange_aba(b); // 3
            assert!(cell.compare_and_swap(b, a)); // 4
            assert_eq!(cell.read_aba().get_aba_count(), 4);
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        });
    }

    #[test]
    fn stale_snapshot_fails_even_when_pointer_matches() {
        // The ABA scenario from the paper: pointer returns to its old
        // value, but the counter has moved on.
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let a = alloc_local(&rt, 1u64);
            let b = alloc_local(&rt, 2u64);
            let cell = AtomicAbaObject::new(a);
            let stale = cell.read_aba(); // {a, 0}
            cell.write_aba(b); // {b, 1}
            cell.write_aba(a); // {a, 2}: pointer is A again!
            assert_eq!(cell.read().into_bits(), a.into_bits());
            assert!(
                !cell.compare_and_swap_aba(stale, b),
                "ABA CAS must fail on a stale counter"
            );
            assert!(
                cell.compare_and_swap(a, b),
                "the unprotected CAS is fooled — that is the ABA problem"
            );
            unsafe {
                free(&rt, a);
                free(&rt, b);
            }
        });
    }

    #[test]
    fn exchange_aba_returns_previous_snapshot() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let a = alloc_local(&rt, 7u64);
            let cell = AtomicAbaObject::<u64>::null();
            let prev = cell.exchange_aba(a);
            assert!(prev.is_null());
            assert_eq!(prev.get_aba_count(), 0);
            let now = cell.read_aba();
            assert_eq!(now.get_object(), a);
            assert_eq!(now.get_aba_count(), 1);
            unsafe { free(&rt, a) };
        });
    }

    #[test]
    fn remote_aba_ops_use_active_messages_even_with_network_atomics() {
        let rt = Runtime::cluster(2); // network atomics ON
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let s = cell.read_aba();
            let _ = cell.compare_and_swap_aba(s, GlobalPtr::null());
            let stats = rt.total_comm();
            assert_eq!(stats.am_sent, 2, "128-bit ops go remote-execution");
            assert_eq!(stats.rdma_atomics, 0);
        });
    }

    #[test]
    fn plain_remote_read_rides_the_nic() {
        let rt = Runtime::cluster(2); // network atomics ON
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            let stats = rt.total_comm();
            assert_eq!(stats.rdma_atomics, 1, "64-bit read is RDMA-capable");
            assert_eq!(stats.am_sent, 0);
        });
    }

    #[test]
    #[should_panic(expected = "compressed pointers")]
    fn wide_mode_rejects_aba_cells() {
        let rt = Runtime::new(RuntimeConfig::cluster(1).with_wide_pointers());
        rt.run(|| {
            let _ = AtomicAbaObject::<u64>::null();
        });
    }

    #[test]
    #[should_panic(expected = "compressed pointers")]
    fn wide_mode_rejects_aba_cells_via_new_on() {
        // Twin of `wide_mode_rejects_aba_cells` exercising the explicit
        // `new_on` constructor (the path structures actually take), with a
        // genuinely remote owner.
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_wide_pointers());
        rt.run(|| {
            let _ = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
        });
    }

    #[test]
    fn remote_fast_read_skips_the_dcas_handler() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_vread_fastpath(true));
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let s = cell.read_aba();
            assert!(s.is_null());
            let stats = rt.total_comm();
            assert_eq!(stats.vread_fast, 1, "validated on the first attempt");
            assert_eq!(stats.vread_fallbacks, 0);
            assert_eq!(stats.am_sent, 0, "no handler round trip");
            assert_eq!(stats.cpu_dcas, 0, "no DCAS anywhere");
            assert_eq!(stats.gets, 1, "one cache-line GET per attempt");
        });
    }

    #[test]
    fn local_fast_read_is_not_communication() {
        let rt = Runtime::new(RuntimeConfig::cluster(1).with_vread_fastpath(true));
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::null();
            rt.reset_metrics();
            let _ = cell.read_aba();
            let stats = rt.total_comm();
            assert_eq!(stats.vread_fast, 1);
            assert_eq!(stats.cpu_dcas, 0);
            assert_eq!(stats.network_events(), 0);
        });
    }

    #[test]
    fn wedged_sequence_falls_back_to_dcas() {
        let rt = Runtime::new(
            RuntimeConfig::cluster(2)
                .with_vread_fastpath(true)
                .with_vread_max_tries(3),
        );
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            // Wedge the sequence odd: a writer in flight until the read has
            // fallen back, so every optimistic attempt sees a torn window.
            // The DCAS fallback then waits on that writer, like any DCAS.
            let wedged = AtomicBool::new(false);
            let s = std::thread::scope(|scope| {
                scope.spawn(|| {
                    cell.cell.update(|cur| {
                        wedged.store(true, Ordering::SeqCst);
                        while rt.total_comm().vread_fallbacks < 1 {
                            std::thread::yield_now();
                        }
                        cur
                    })
                });
                while !wedged.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                rt.reset_metrics();
                cell.read_aba()
            });
            assert!(s.is_null(), "fallback still returns the right value");
            let stats = rt.total_comm();
            assert_eq!(stats.vread_fast, 0);
            assert_eq!(stats.vread_retries, 3, "one per budgeted attempt");
            assert_eq!(stats.vread_fallbacks, 1);
            assert_eq!(stats.am_sent, 1, "escalated to the DCAS active message");
        });
    }

    #[test]
    fn fast_path_off_keeps_counters_bit_identical() {
        // The same read with the fast path disabled must count exactly as
        // the pre-seqlock build: one AM, one handler DCAS, no vread traffic.
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let cell = AtomicAbaObject::<u64>::new_on(1, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read_aba();
            let stats = rt.total_comm();
            assert_eq!(stats.am_sent, 1);
            assert_eq!(stats.cpu_dcas, 1);
            assert_eq!(
                stats.vread_fast + stats.vread_retries + stats.vread_fallbacks,
                0
            );
            assert_eq!(stats.gets, 0);
        });
    }

    #[test]
    fn concurrent_aba_cas_forms_a_linear_history() {
        // Many tasks CAS the same cell; counter must end exactly at the
        // number of successful operations, and every success must have
        // seen the then-current snapshot.
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let ptrs: Vec<_> = (0..4).map(|i| alloc_local(&rt, i as u64)).collect();
            let cell = AtomicAbaObject::new(ptrs[0]);
            let successes = std::sync::atomic::AtomicU64::new(0);
            rt.coforall_tasks(4, |t| {
                for _ in 0..100 {
                    let snap = cell.read_aba();
                    if cell.compare_and_swap_aba(snap, ptrs[t]) {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            let final_count = cell.read_aba().get_aba_count();
            assert_eq!(final_count, successes.load(Ordering::Relaxed));
            for p in ptrs {
                unsafe { free(&rt, p) };
            }
        });
    }
}
