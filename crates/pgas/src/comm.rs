//! Communication charging: the routing rules for atomics, PUTs and GETs.
//!
//! This module is the simulated NIC. Given an operation and the affinity of
//! its target, it decides which path the operation takes — CPU atomic,
//! NIC-side (RDMA) atomic, or active message — charges the corresponding
//! virtual-time cost, and bumps the right counters. The *memory effect* of
//! the operation is then carried out by the caller (the simulator shares
//! one address space, standing in for RDMA-registered memory).
//!
//! Routing rules (paper §II-A, §III):
//!
//! | op              | `network_atomics=on`      | `network_atomics=off`  |
//! |-----------------|---------------------------|------------------------|
//! | 64-bit, local   | NIC atomic (non-coherent!) | CPU atomic            |
//! | 64-bit, remote  | NIC (RDMA) atomic          | active message        |
//! | 128-bit, local  | CPU `CMPXCHG16B`           | CPU `CMPXCHG16B`      |
//! | 128-bit, remote | active message             | active message        |
//!
//! The surprising top-left cell is real: Chapel's network atomics are not
//! coherent with processor atomics, so with `CHPL_NETWORK_ATOMICS` enabled
//! *every* atomic — even a local one — must go through the NIC, which the
//! paper measured as up to an order of magnitude slower.
//!
//! This module is internal plumbing of the shared-address-space model:
//! callers reach it through the [`crate::engine`] functions. Each routing
//! function begins with the model's locality check,
//! [`RuntimeCore::confined_to_rank`]: on a runtime whose locales share no
//! address space only the calling rank's own memory can be the target, and
//! a process reaches it with a plain CPU instruction — counted, never
//! priced, never through the NIC.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::ctx::{self, Record};
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;
use crate::stats::Counter;
use crate::symheap::WideCell;
use crate::telemetry::{OpClass, Span};
use crate::vtime;

/// Which execution path an atomic operation should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicPath {
    /// Perform the operation directly with a CPU atomic instruction.
    CpuLocal,
    /// Perform the operation directly; the latency of the (one-sided,
    /// NIC-executed) RDMA atomic has already been charged.
    Nic,
    /// The operation must be shipped to the owner locale as an active
    /// message; costs are charged by the AM layer and the handler body
    /// should call [`charge_handler_atomic`] / [`charge_handler_dcas`].
    ActiveMessage,
}

/// Route and charge a 64-bit atomic operation issued on locale `here`
/// (the caller's context) targeting memory owned by `owner`. Returns the
/// path the caller must take.
#[inline]
pub fn route_atomic_u64(core: &RuntimeCore, here: LocaleId, owner: LocaleId) -> AtomicPath {
    let r = ctx::record();
    let net = &core.config.network;
    if core.confined_to_rank(owner) {
        r.stats(core, here, |s| s.add(Counter::CpuAtomics, 1));
        AtomicPath::CpuLocal
    } else if net.network_atomics {
        // All 64-bit atomics go through the NIC, local or not.
        let t_issue = r.vtime.get();
        r.charge(net.nic_atomic_ns);
        // Fault injection on the one-sided path (remote targets only:
        // delay and drop model wire faults). A dropped RDMA request is
        // retransmitted by the NIC transport after a timeout; transport
        // sequence numbers make the retry exactly-once, so — unlike the
        // AM path — this is safe for *any* operation class. The memory
        // effect is applied by the caller exactly once, after routing.
        inject_one_sided_faults(r, core, here, owner, net.nic_atomic_ns);
        // The full span charged to this op: the NIC atomic itself plus
        // any injected delays and retransmit penalties.
        let span = r.vtime.get() - t_issue;
        r.stats(core, here, |s| {
            s.add_record(Counter::RdmaAtomics, OpClass::RdmaAtomic, span)
        });
        AtomicPath::Nic
    } else if owner == here {
        charge_cpu(r, core, here, CPU_ATOMIC, net.cpu_atomic_ns);
        AtomicPath::CpuLocal
    } else {
        AtomicPath::ActiveMessage
    }
}

/// Inject one-sided wire faults (delay + drop/retransmit) against a request
/// from `here` toward `owner`, where each retransmit re-pays `reissue_ns`
/// on top of the backoff penalty. Used by the NIC atomic path and the
/// versioned-read GET path; transport sequence numbers make retransmits
/// exactly-once, so this is safe for any operation class. No-op when
/// `owner` is local or no fault plan is installed.
fn inject_one_sided_faults(
    r: &Record,
    core: &RuntimeCore,
    here: LocaleId,
    owner: LocaleId,
    reissue_ns: u64,
) {
    let Some(fs) = core.faults() else {
        return;
    };
    if owner == here {
        return;
    }
    let count = |counter| r.stats(core, here, |s| s.add(counter, 1));
    if let Some(extra) = fs.inject_delay() {
        count(Counter::InjectedDelays);
        r.charge(extra);
    }
    let mut attempt = 0;
    while attempt < fs.max_attempts() {
        let Some(decision) = fs.inject_drop_indexed() else {
            break;
        };
        count(Counter::InjectedDrops);
        let before = r.vtime.get();
        let penalty = fs.retry_penalty_ns(attempt);
        r.charge(penalty + reissue_ns);
        r.stats(core, here, |s| {
            s.add_record(Counter::Retries, OpClass::Retry, penalty)
        });
        // One retry span per dropped request, tagged with the fault
        // decision index that dropped it.
        let (trace_id, span_id, parent) = core.span_ids(here);
        core.emit_span(|| Span {
            class: OpClass::Retry,
            src: here,
            dest: owner,
            issue_vtime: before,
            arrive_vtime: before + penalty,
            start_vtime: before + penalty,
            end_vtime: before + penalty + reissue_ns,
            tag: decision,
            trace: trace_id,
            span: span_id,
            parent,
        });
        attempt += 1;
    }
    if attempt >= fs.max_attempts() {
        count(Counter::GaveUp);
    }
}

/// Route and charge a 128-bit (double-word CAS) atomic operation issued on
/// locale `here` targeting memory owned by `owner`. RDMA atomics max out
/// at 64 bits, so the remote case is always an active message (paper
/// §II-A).
#[inline]
pub fn route_atomic_u128(core: &RuntimeCore, here: LocaleId, owner: LocaleId) -> AtomicPath {
    let r = ctx::record();
    if core.confined_to_rank(owner) {
        r.stats(core, here, |s| s.add(Counter::CpuDcas, 1));
        AtomicPath::CpuLocal
    } else if owner == here {
        charge_cpu(r, core, here, CPU_DCAS, core.config.network.cpu_dcas_ns);
        AtomicPath::CpuLocal
    } else {
        AtomicPath::ActiveMessage
    }
}

/// A CPU operation's counter and class.
type Cpu = (Counter, OpClass);
const CPU_ATOMIC: Cpu = (Counter::CpuAtomics, OpClass::CpuAtomic);
const CPU_DCAS: Cpu = (Counter::CpuDcas, OpClass::CpuDcas);

/// Count, sample and charge one CPU operation of `ns` on locale `here`.
#[inline]
fn charge_cpu(r: &Record, core: &RuntimeCore, here: LocaleId, (count, class): Cpu, ns: u64) {
    r.stats(core, here, |s| s.add_record(count, class, ns));
    r.charge(ns);
}

/// Charge the CPU cost of a 64-bit atomic on locale `here` (locally or
/// inside an AM handler: the remote-execution fallback's actual memory
/// operation).
#[inline]
pub fn charge_handler_atomic(core: &RuntimeCore, here: LocaleId) {
    let ns = core.config.network.cpu_atomic_ns;
    charge_cpu(ctx::record(), core, here, CPU_ATOMIC, ns);
}

/// Charge the CPU cost of a 128-bit DCAS on locale `here` (locally or
/// inside an AM handler).
#[inline]
pub fn charge_handler_dcas(core: &RuntimeCore, here: LocaleId) {
    let ns = core.config.network.cpu_dcas_ns;
    charge_cpu(ctx::record(), core, here, CPU_DCAS, ns);
}

/// Charge the per-item dispatch cost of one operation executing inside a
/// *combined* active-message handler (see [`crate::engine::combine`]). The
/// wire and the fixed `am_handler_ns` dispatch are charged once per combined
/// batch by the AM layer; this is the marginal cost of each extra rider. The
/// operation's own body (e.g. [`charge_handler_atomic`]) is charged
/// separately by the rider itself.
#[inline]
pub fn charge_combine_item(core: &RuntimeCore) {
    vtime::charge(core.config.network.combine_item_ns);
}

fn rma_cost(core: &RuntimeCore, bytes: usize) -> u64 {
    let net = &core.config.network;
    net.rma_ns + (bytes as u64 * net.rma_ns_per_kib) / 1024
}

/// A one-sided transfer's operation counter, byte counter and class.
type Rma = (Counter, Counter, OpClass);
const GET: Rma = (Counter::Gets, Counter::BytesGot, OpClass::Get);
const PUT: Rma = (Counter::Puts, Counter::BytesPut, OpClass::Put);

/// Count, sample and charge one one-sided transfer of `bytes` issued on
/// locale `here`.
#[inline]
fn charge_rma(
    r: &Record,
    core: &RuntimeCore,
    here: LocaleId,
    (count, moved, class): Rma,
    bytes: usize,
) {
    let ns = rma_cost(core, bytes);
    r.stats(core, here, |s| {
        s.add(moved, bytes as u64);
        s.add_record(count, class, ns);
    });
    r.charge(ns);
}

/// Charge a one-sided `rma` transfer of `bytes` toward `owner`'s memory,
/// from the caller's context. No cost or count when `owner` is local.
#[inline]
fn charge_transfer(core: &RuntimeCore, owner: LocaleId, rma: Rma, bytes: usize) {
    let here = ctx::here();
    if !core.confined_to_rank(owner) && owner != here {
        charge_rma(ctx::record(), core, here, rma, bytes);
    }
}

/// Charge a one-sided GET of `bytes` from `owner`'s memory. No cost or
/// count when the data is local.
#[inline]
pub fn charge_get(core: &RuntimeCore, owner: LocaleId, bytes: usize) {
    charge_transfer(core, owner, GET, bytes);
}

/// Charge a one-sided PUT of `bytes` into `owner`'s memory. No cost or
/// count when the target is local.
#[inline]
pub fn charge_put(core: &RuntimeCore, owner: LocaleId, bytes: usize) {
    charge_transfer(core, owner, PUT, bytes);
}

/// Bytes moved by one optimistic versioned-read attempt: the 16-byte
/// payload plus the 8-byte sequence word (the validating re-read of the
/// sequence rides the same GET — one cache line on the wire).
const VREAD_BYTES: usize = 24;

/// Planted-bug hook for the torn-read oracle (see `chaos` / the atomics
/// proptests): when set, [`vread_u128`] returns the composed payload
/// *without* sequence validation — exactly the bug the seqlock protocol
/// exists to prevent — and widens the torn window with a scheduler yield so
/// the checker reliably observes mixed halves. Never enabled in production
/// paths; process-wide, so tests using it must not run runtimes
/// concurrently with unrelated vread traffic.
static VREAD_SKIP_VALIDATE: AtomicBool = AtomicBool::new(false);

/// Enable or disable the planted validation-skip bug (see
/// `VREAD_SKIP_VALIDATE`). Test-only; returns the previous value.
pub fn debug_vread_skip_validate(on: bool) -> bool {
    VREAD_SKIP_VALIDATE.swap(on, Ordering::SeqCst)
}

/// Optimistic versioned (seqlock) read of the [`WideCell`] `cell` owned by
/// `owner`. Idempotent, hence drop/retry-eligible under fault injection.
///
/// Returns `None` at once when
/// [`crate::config::RuntimeConfig::vread_fastpath`] is off. Otherwise each
/// attempt loads the sequence word, then the low half, then the high half
/// — two separate loads, modeling that one-sided GETs cannot read 128 bits
/// atomically, which is the whole reason the protocol validates — and then
/// validates the sequence ([`WideCell::validate`]). The attempt succeeds
/// when the sequence was even and unchanged; a torn window bumps
/// `vread_retries` and retries. After `vread_max_tries` failed attempts the
/// read escalates (`vread_fallbacks`) and returns `None` — the caller must
/// fall back to the DCAS slow path ([`crate::engine::atomic_u128`]), which
/// is also the path writers take ([`WideCell::update`] holds the sequence
/// odd for the whole write, so writers remain the linearization point).
///
/// Cost model: each attempt is a one-sided GET of `VREAD_BYTES`
/// (`rma_ns` + bandwidth term) when remote — the same wire class the
/// [`crate::engine::Batcher`] flush payloads ride — or a single
/// `cpu_atomic_ns` cache-line load when local. Remote attempts are
/// drop/delay-eligible like any idempotent one-sided request
/// (`inject_one_sided_faults`). A validated read records the
/// [`OpClass::VersionedRead`] histogram and emits a `versioned_read` span;
/// fallbacks record nothing here (the DCAS slow path keeps its existing
/// handler-class accounting).
#[inline]
pub fn vread_u128(
    core: &RuntimeCore,
    here: LocaleId,
    owner: LocaleId,
    cell: &WideCell,
) -> Option<u128> {
    if !core.config.vread_fastpath || core.confined_to_rank(owner) {
        // A process reads its own cell through the DCAS path.
        return None;
    }
    let r = ctx::record();
    let net = &core.config.network;
    let t_issue = r.vtime.get();
    let max_tries = core.config.vread_max_tries.max(1);
    let skip_validate = VREAD_SKIP_VALIDATE.load(Ordering::Relaxed);
    for attempt in 0..max_tries {
        // Charge the attempt: one cache-line GET remotely, one cache-line
        // load locally. Retried (torn) attempts pay again — the optimistic
        // read is only a win while contention is low.
        if owner == here {
            r.charge(net.cpu_atomic_ns);
        } else {
            charge_rma(r, core, here, GET, VREAD_BYTES);
            inject_one_sided_faults(r, core, here, owner, rma_cost(core, VREAD_BYTES));
        }
        let s1 = cell.seq();
        let lo = cell.lo();
        if skip_validate {
            // Planted bug: widen the window between the two half-loads so
            // a concurrent writer's update lands between them and the
            // composed payload is genuinely mixed.
            std::thread::yield_now();
        }
        let hi = cell.hi();
        let payload = ((hi as u128) << 64) | lo as u128;
        // The bug accepts without re-validating the sequence.
        let valid = skip_validate || cell.validate(s1);
        if valid {
            let end = r.vtime.get();
            r.stats(core, here, |s| {
                s.add_record(Counter::VreadFast, OpClass::VersionedRead, end - t_issue)
            });
            let (trace_id, span_id, parent) = core.span_ids(here);
            core.emit_span(|| Span {
                class: OpClass::VersionedRead,
                src: here,
                dest: owner,
                issue_vtime: t_issue,
                arrive_vtime: end,
                start_vtime: end,
                end_vtime: end,
                tag: u64::from(attempt) + 1,
                trace: trace_id,
                span: span_id,
                parent,
            });
            return Some(payload);
        }
        r.stats(core, here, |s| s.add(Counter::VreadRetries, 1));
    }
    r.stats(core, here, |s| s.add(Counter::VreadFallbacks, 1));
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;

    #[test]
    fn network_atomics_route_everything_to_nic() {
        let rt = Runtime::cluster(2); // network_atomics = true
        rt.run(|| {
            assert_eq!(route_atomic_u64(&rt, 0, 0), AtomicPath::Nic, "local → NIC");
            assert_eq!(route_atomic_u64(&rt, 0, 1), AtomicPath::Nic, "remote → NIC");
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 2);
            assert_eq!(s.cpu_atomics, 0);
        });
    }

    #[test]
    fn no_network_atomics_splits_local_and_remote() {
        let rt = Runtime::new(RuntimeConfig::cluster(2).without_network_atomics());
        rt.run(|| {
            assert_eq!(route_atomic_u64(&rt, 0, 0), AtomicPath::CpuLocal);
            assert_eq!(route_atomic_u64(&rt, 0, 1), AtomicPath::ActiveMessage);
            let s = rt.total_comm();
            assert_eq!(s.cpu_atomics, 1);
            assert_eq!(s.rdma_atomics, 0);
        });
    }

    #[test]
    fn dcas_never_uses_nic() {
        let rt = Runtime::cluster(2); // network atomics on
        rt.run(|| {
            assert_eq!(route_atomic_u128(&rt, 0, 0), AtomicPath::CpuLocal);
            assert_eq!(route_atomic_u128(&rt, 0, 1), AtomicPath::ActiveMessage);
            let s = rt.total_comm();
            assert_eq!(s.rdma_atomics, 0);
            assert_eq!(s.cpu_dcas, 1);
        });
    }

    #[test]
    fn nic_atomic_charges_latency() {
        let rt = Runtime::cluster(1);
        let ((), span) = rt.run_measured(|| {
            route_atomic_u64(&rt, 0, 0);
        });
        assert_eq!(span, rt.config.network.nic_atomic_ns);
    }

    #[test]
    fn local_get_put_are_free() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            charge_get(&rt, 0, 1024);
            charge_put(&rt, 0, 1024);
            let s = rt.total_comm();
            assert_eq!(s.gets + s.puts, 0);
        });
    }

    #[test]
    fn remote_get_put_charge_and_count() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            charge_get(&rt, 1, 2048);
            charge_put(&rt, 1, 100);
            let s = rt.total_comm();
            assert_eq!(s.gets, 1);
            assert_eq!(s.puts, 1);
            assert_eq!(s.bytes_got, 2048);
            assert_eq!(s.bytes_put, 100);
        });
    }

    #[test]
    fn rma_cost_includes_bandwidth_term() {
        let rt = Runtime::cluster(2);
        let net = rt.config.network.clone();
        let ((), span) = rt.run_measured(|| {
            charge_get(&rt, 1, 4096);
        });
        assert_eq!(span, net.rma_ns + 4096 * net.rma_ns_per_kib / 1024);
    }

    #[test]
    fn put_val_writes_through_pointer() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let b = Box::into_raw(Box::new(0u64));
            let p = crate::globalptr::GlobalPtr::from_raw_parts(1, b);
            // SAFETY (this and the blocks below): `b` is a live box this
            // test alone touches, freed once at the end.
            unsafe { crate::engine::put_val(&rt, p, 55) };
            assert_eq!(unsafe { *b }, 55);
            assert_eq!(rt.total_comm().puts, 1);
            unsafe { drop(Box::from_raw(b)) };
        });
    }

    #[test]
    fn get_val_reads_through_pointer() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let b = Box::into_raw(Box::new(123u64));
            let p = crate::globalptr::GlobalPtr::from_raw_parts(1, b);
            // SAFETY (this and the block below): `b` is a live box this test
            // alone touches, freed once at the end.
            let v = unsafe { crate::engine::get_val(&rt, p) };
            assert_eq!(v, 123);
            assert_eq!(rt.total_comm().gets, 1);
            unsafe { drop(Box::from_raw(b)) };
        });
    }
}
