//! Seeded, deterministic fault injection for the simulated interconnect.
//!
//! The rest of the simulator only ever exercises the happy path: every
//! active message is delivered exactly once, every locale services its
//! queue promptly, every pinned task unpins. The paper's claims are about
//! what happens *off* that path — non-blocking progress when messages are
//! delayed, duplicated, or lost and when individual nodes straggle. This
//! module supplies the missing adversary: a [`FaultPlan`] the engine
//! consults on every remote operation, deciding *deterministically from a
//! seed* whether to inject
//!
//! - **delay** — extra wire latency added to a message's arrival time;
//! - **duplication** — a second delivery of the same message, discarded by
//!   the receiver (the simulator models at-least-once delivery plus
//!   receiver-side dedup: the duplicate occupies a server slot and pays
//!   dispatch cost but runs no user code);
//! - **drop** — the message is lost before execution. Only operations
//!   tagged [`RetryClass::Idempotent`] are eligible: the sender times out,
//!   backs off per the plan's [`RetryPolicy`], and resends. Non-idempotent
//!   operations (CAS publishes, frees, combined batches carrying mixed
//!   riders) are never dropped because blind retransmission could apply
//!   them twice;
//! - **straggler locale** — one locale's AM handler dispatch is slowed by a
//!   multiplier, modelling a node that is alive but overloaded;
//! - **stalled pinned task** — scenario data for chaos harnesses: the plan
//!   names a locale on which the workload should park a pinned epoch token
//!   for the duration of the run, so reclamation is forced to cope with a
//!   non-cooperating participant.
//!
//! # Determinism
//!
//! Injection decisions are pure functions of `(seed, fault class, decision
//! index)`: each class keeps an atomic decision counter, and decision `i`
//! fires iff `splitmix64(seed ^ salt ^ i) % 1000 < per_mille`. Running the
//! same plan over a workload that issues a deterministic *number* of remote
//! operations therefore reproduces the exact same injection counts (and,
//! for a single-task workload, the same injection *placement*). Workloads
//! with contended CAS loops issue a nondeterministic number of operations,
//! so only their aggregate behaviour is reproducible; the chaos harness
//! verifies bit-exact reproduction on a contention-free cell.
//!
//! With no plan installed (`RuntimeConfig::faults == None`, the default)
//! every hook in the hot path is a single `Option` discriminant test and
//! all counters and virtual-time charges are bit-identical to a build
//! without this module.

pub mod invariants;

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctx;
use crate::globalptr::LocaleId;

/// Classification of a remote operation for drop/retry eligibility.
///
/// The sender tags the *current task* via [`with_class`] before issuing the
/// operation; the engine reads the tag at send time. The tag is a field of
/// the thread's context record ([`crate::ctx`]). The default — chosen
/// whenever no scope is active — is conservative: [`RetryClass::NonIdempotent`],
/// which is never dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Safe to re-execute: pure reads (atomic loads, ABA reads). Eligible
    /// for drop + retry under a fault plan.
    Idempotent,
    /// Not safe to blindly re-execute: RMW publishes, frees, allocations,
    /// combined batches. Never dropped; still subject to delay/duplication
    /// (the duplicate is discarded by the receiver, so it cannot re-apply).
    NonIdempotent,
}

/// Run `f` with the calling task's operation class set to `class`,
/// restoring the previous class afterwards (scopes nest). The class is a
/// field of the thread's context record ([`crate::ctx`]); entering or
/// leaving a context does not touch it.
pub fn with_class<R>(class: RetryClass, f: impl FnOnce() -> R) -> R {
    let prev = ctx::record().class.replace(class);
    struct Restore(RetryClass);
    impl Drop for Restore {
        #[inline]
        fn drop(&mut self) {
            ctx::record().class.set(self.0);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The operation class currently in scope on this thread.
#[inline]
pub fn current_class() -> RetryClass {
    ctx::record().class.get()
}

/// Timeout-and-retry behaviour for dropped idempotent operations.
///
/// A dropped message costs the sender `timeout_ns + backoff(attempt)`
/// virtual time, where `backoff(k) = min(backoff_base_ns << k,
/// backoff_cap_ns) + jitter` and the jitter is drawn deterministically from
/// the plan's seed. After `max_attempts` consecutive drops the next send is
/// escalated to a reliable channel (modelled as un-droppable) and the
/// `gave_up` counter records that the retry budget was exhausted —
/// operations never hang and the API stays infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual time the sender waits before declaring a send lost.
    pub timeout_ns: u64,
    /// Maximum number of *dropped* sends tolerated before escalating.
    pub max_attempts: u32,
    /// Base backoff added after the first timeout; doubles per attempt.
    pub backoff_base_ns: u64,
    /// Upper bound on the exponential backoff term.
    pub backoff_cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ns: 20_000,
            max_attempts: 5,
            backoff_base_ns: 1_000,
            backoff_cap_ns: 16_000,
        }
    }
}

/// A seeded description of the faults to inject during a run.
///
/// Probabilities are per-mille (0–1000) so plans stay integral and exact.
/// The default plan injects nothing; build adversarial plans with the
/// `with_*` helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every injection decision and jitter draw.
    pub seed: u64,
    /// Probability (‰) that an idempotent-class AM send is dropped.
    pub drop_per_mille: u32,
    /// Probability (‰) that an AM is delivered twice (duplicate discarded
    /// by the receiver after paying dispatch cost).
    pub dup_per_mille: u32,
    /// Probability (‰) that a remote operation's arrival is delayed.
    pub delay_per_mille: u32,
    /// Maximum injected delay; the actual delay for a firing decision is
    /// drawn uniformly from `0..=max_delay_ns`.
    pub max_delay_ns: u64,
    /// Slow one locale's AM handler dispatch by a multiplier (straggler).
    pub straggler: Option<(LocaleId, u64)>,
    /// Scenario hint for chaos harnesses: park a pinned epoch token on this
    /// locale for the duration of the workload. The engine itself does not
    /// act on this field.
    pub stalled_task: Option<LocaleId>,
    /// Timeout/backoff behaviour for dropped sends.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan that injects nothing, seeded for later `with_*` refinement.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop idempotent-class AMs with probability `per_mille`/1000.
    pub fn with_drops(mut self, per_mille: u32) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Duplicate AM deliveries with probability `per_mille`/1000.
    pub fn with_dups(mut self, per_mille: u32) -> Self {
        self.dup_per_mille = per_mille;
        self
    }

    /// Delay remote-operation arrivals with probability `per_mille`/1000,
    /// by up to `max_delay_ns` of virtual time.
    pub fn with_delays(mut self, per_mille: u32, max_delay_ns: u64) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay_ns = max_delay_ns;
        self
    }

    /// Multiply locale `locale`'s AM handler dispatch cost by `factor`.
    pub fn with_straggler(mut self, locale: LocaleId, factor: u64) -> Self {
        self.straggler = Some((locale, factor));
        self
    }

    /// Ask chaos harnesses to park a pinned epoch token on `locale`.
    pub fn with_stalled_task(mut self, locale: LocaleId) -> Self {
        self.stalled_task = Some(locale);
        self
    }

    /// Override the retry policy for dropped sends.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The AM-handler dispatch-cost multiplier this plan assigns to
    /// `locale`: 1 unless the plan names it as the straggler.
    pub fn slowdown_for(&self, locale: LocaleId) -> u64 {
        match self.straggler {
            Some((l, factor)) if l == locale => factor,
            _ => 1,
        }
    }

    /// Panic on out-of-range fields (probabilities above 1000‰, a zero
    /// retry budget while drops are enabled, a zero straggler multiplier).
    pub(crate) fn validate(&self, num_locales: usize) {
        assert!(self.drop_per_mille <= 1000, "drop_per_mille > 1000");
        assert!(self.dup_per_mille <= 1000, "dup_per_mille > 1000");
        assert!(self.delay_per_mille <= 1000, "delay_per_mille > 1000");
        if self.drop_per_mille > 0 {
            assert!(
                self.retry.max_attempts >= 1,
                "drops enabled with a zero retry budget"
            );
        }
        if let Some((locale, factor)) = self.straggler {
            assert!(
                (locale as usize) < num_locales,
                "straggler locale {locale} out of range"
            );
            assert!(factor >= 1, "straggler multiplier must be >= 1");
        }
        if let Some(locale) = self.stalled_task {
            assert!(
                (locale as usize) < num_locales,
                "stalled-task locale {locale} out of range"
            );
        }
    }
}

/// `splitmix64` — the standard 64-bit finalizer; a pure, high-quality hash
/// of its input used for every injection decision.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const DROP_SALT: u64 = 0x6472_6f70_0000_0001; // "drop"
const DUP_SALT: u64 = 0x6475_7000_0000_0002; // "dup"
const DELAY_SALT: u64 = 0x646c_7900_0000_0003; // "dly"
const JITTER_SALT: u64 = 0x6a74_7200_0000_0004; // "jtr"

/// Live injection state for one runtime: the plan plus per-class decision
/// counters. Counters are monotone and shared by all tasks, so the *set*
/// of firing decision indices is a pure function of the seed; which task
/// draws which index depends on scheduling, but the totals do not (given a
/// deterministic operation count).
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    drop_seq: AtomicU64,
    dup_seq: AtomicU64,
    delay_seq: AtomicU64,
    jitter_seq: AtomicU64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            drop_seq: AtomicU64::new(0),
            dup_seq: AtomicU64::new(0),
            delay_seq: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// One injection decision: consume the next index of `seq` and hash it
    /// with the plan seed. Fires with probability `per_mille`/1000,
    /// yielding `(decision index, derived hash)` — the index identifies
    /// the decision for repro fingerprints and telemetry span tags; the
    /// hash parameterizes the injection (e.g. delay magnitude).
    #[inline]
    fn decide(&self, salt: u64, seq: &AtomicU64, per_mille: u32) -> Option<(u64, u64)> {
        if per_mille == 0 {
            return None;
        }
        let i = seq.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.plan.seed ^ salt ^ i);
        if h % 1000 < per_mille as u64 {
            Some((i, splitmix64(h)))
        } else {
            None
        }
    }

    /// Should the next idempotent-class send be dropped? (Production
    /// callers use [`Self::inject_drop_indexed`] so they can tag retry
    /// spans with the decision index; this shorthand serves the tests.)
    #[cfg(test)]
    #[inline]
    pub(crate) fn inject_drop(&self) -> bool {
        self.inject_drop_indexed().is_some()
    }

    /// Like [`Self::inject_drop`], but returns the firing drop-decision
    /// index (the global drop-sequence number consumed), used to tag the
    /// matching retry telemetry span.
    #[inline]
    pub(crate) fn inject_drop_indexed(&self) -> Option<u64> {
        self.decide(DROP_SALT, &self.drop_seq, self.plan.drop_per_mille)
            .map(|(i, _)| i)
    }

    /// Should the next delivery be duplicated?
    #[inline]
    pub(crate) fn inject_dup(&self) -> bool {
        self.decide(DUP_SALT, &self.dup_seq, self.plan.dup_per_mille)
            .is_some()
    }

    /// Extra arrival delay (ns) to inject on the next remote operation, if
    /// the delay decision fires.
    #[inline]
    pub(crate) fn inject_delay(&self) -> Option<u64> {
        self.decide(DELAY_SALT, &self.delay_seq, self.plan.delay_per_mille)
            .map(|(_, h)| h % (self.plan.max_delay_ns + 1))
    }

    /// Virtual time a sender spends on dropped attempt number `attempt`
    /// (0-based): the detection timeout plus capped exponential backoff
    /// plus seeded jitter.
    pub(crate) fn retry_penalty_ns(&self, attempt: u32) -> u64 {
        let r = &self.plan.retry;
        let shift = attempt.min(16);
        let backoff = r
            .backoff_base_ns
            .saturating_shl(shift)
            .min(r.backoff_cap_ns);
        let jitter = if r.backoff_base_ns == 0 {
            0
        } else {
            let i = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
            splitmix64(self.plan.seed ^ JITTER_SALT ^ i) % r.backoff_base_ns
        };
        r.timeout_ns + backoff + jitter
    }

    /// The retry budget for dropped sends.
    #[inline]
    pub(crate) fn max_attempts(&self) -> u32 {
        self.plan.retry.max_attempts
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (shift counts are
/// already clamped by the caller, but a huge base must not overflow).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift)
            .filter(|&v| v >> shift == self)
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let fs = FaultState::new(FaultPlan::seeded(42));
        for _ in 0..1000 {
            assert!(!fs.inject_drop());
            assert!(!fs.inject_dup());
            assert!(fs.inject_delay().is_none());
        }
        assert_eq!(fs.plan().slowdown_for(0), 1);
    }

    #[test]
    fn decisions_reproduce_for_a_fixed_seed() {
        let plan = FaultPlan::seeded(7).with_drops(250).with_delays(300, 5000);
        let run = || {
            let fs = FaultState::new(plan.clone());
            let drops = (0..500).filter(|_| fs.inject_drop()).count();
            let delays: Vec<u64> = (0..500).filter_map(|_| fs.inject_delay()).collect();
            (drops, delays)
        };
        let (d1, l1) = run();
        let (d2, l2) = run();
        assert_eq!(d1, d2);
        assert_eq!(l1, l2);
        assert!(d1 > 0, "250‰ over 500 draws should fire");
        assert!(!l1.is_empty());
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let a = FaultState::new(FaultPlan::seeded(1).with_drops(500));
        let b = FaultState::new(FaultPlan::seeded(2).with_drops(500));
        let pa: Vec<bool> = (0..256).map(|_| a.inject_drop()).collect();
        let pb: Vec<bool> = (0..256).map(|_| b.inject_drop()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn injection_rate_tracks_per_mille() {
        let fs = FaultState::new(FaultPlan::seeded(99).with_dups(100));
        let n = 10_000;
        let fired = (0..n).filter(|_| fs.inject_dup()).count();
        // 10% ± generous slack for a hash sequence.
        assert!((700..=1300).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn delays_respect_the_bound() {
        let fs = FaultState::new(FaultPlan::seeded(3).with_delays(1000, 777));
        for _ in 0..200 {
            let d = fs.inject_delay().expect("1000‰ always fires");
            assert!(d <= 777);
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let plan = FaultPlan::seeded(5).with_retry(RetryPolicy {
            timeout_ns: 1_000,
            max_attempts: 8,
            backoff_base_ns: 100,
            backoff_cap_ns: 1_600,
        });
        let fs = FaultState::new(plan);
        // penalty = timeout + min(base << k, cap) + jitter(< base)
        let p0 = fs.retry_penalty_ns(0);
        assert!((1_100..1_200).contains(&p0), "p0 = {p0}");
        let p10 = fs.retry_penalty_ns(10);
        assert!((2_600..2_700).contains(&p10), "capped p10 = {p10}");
    }

    #[test]
    fn class_scopes_nest_and_restore() {
        assert_eq!(current_class(), RetryClass::NonIdempotent);
        with_class(RetryClass::Idempotent, || {
            assert_eq!(current_class(), RetryClass::Idempotent);
            with_class(RetryClass::NonIdempotent, || {
                assert_eq!(current_class(), RetryClass::NonIdempotent);
            });
            assert_eq!(current_class(), RetryClass::Idempotent);
        });
        assert_eq!(current_class(), RetryClass::NonIdempotent);
    }

    #[test]
    fn straggler_multiplier_applies_to_one_locale() {
        let plan = FaultPlan::seeded(0).with_straggler(2, 8);
        assert_eq!(plan.slowdown_for(0), 1);
        assert_eq!(plan.slowdown_for(2), 8);
        assert_eq!(plan.slowdown_for(3), 1);
    }

    #[test]
    #[should_panic(expected = "drop_per_mille")]
    fn out_of_range_probability_rejected() {
        FaultPlan::seeded(0).with_drops(1001).validate(4);
    }

    #[test]
    #[should_panic(expected = "straggler locale")]
    fn straggler_locale_must_exist() {
        FaultPlan::seeded(0).with_straggler(9, 4).validate(4);
    }

    // ---- end-to-end injection through the AM path -------------------

    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn chaos_rt(plan: FaultPlan) -> Runtime {
        Runtime::new(
            RuntimeConfig::zero_latency(2)
                .without_network_atomics()
                .with_faults(plan),
        )
    }

    #[test]
    fn idempotent_sends_are_dropped_and_retried_never_lost() {
        let rt = chaos_rt(FaultPlan::seeded(11).with_drops(400));
        rt.run(|| {
            let hits = AtomicU64::new(0);
            for _ in 0..200 {
                with_class(RetryClass::Idempotent, || {
                    rt.on(1, || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    })
                });
            }
            let s = rt.total_comm();
            // Every operation executed exactly once despite the drops...
            assert_eq!(hits.load(Ordering::Relaxed), 200);
            assert_eq!(s.am_handled, 200);
            // ...and drops really fired, each costing one extra wire send.
            assert!(s.injected_drops > 0, "400‰ over 200 ops must fire");
            assert_eq!(s.retries, s.injected_drops);
            assert_eq!(s.am_sent, 200 + s.injected_drops);
            assert_eq!(s.injected_dups, 0);
        });
    }

    #[test]
    fn nonidempotent_sends_are_never_dropped() {
        let rt = chaos_rt(FaultPlan::seeded(11).with_drops(1000));
        rt.run(|| {
            for _ in 0..50 {
                // Default class: NonIdempotent.
                rt.on(1, || {});
            }
            let s = rt.total_comm();
            assert_eq!(s.injected_drops, 0);
            assert_eq!(s.retries, 0);
            assert_eq!(s.am_sent, 50);
        });
    }

    #[test]
    fn exhausted_retry_budget_escalates_and_counts_gave_up() {
        // 1000‰ drops: every draw fires, so each op burns the whole retry
        // budget and then goes through on the reliable channel.
        let plan = FaultPlan::seeded(1)
            .with_drops(1000)
            .with_retry(RetryPolicy {
                timeout_ns: 10,
                max_attempts: 3,
                backoff_base_ns: 1,
                backoff_cap_ns: 8,
            });
        let rt = chaos_rt(plan);
        rt.run(|| {
            let hits = AtomicU64::new(0);
            for _ in 0..20 {
                with_class(RetryClass::Idempotent, || {
                    rt.on(1, || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    })
                });
            }
            let s = rt.total_comm();
            assert_eq!(hits.load(Ordering::Relaxed), 20, "nothing hangs or is lost");
            assert_eq!(s.injected_drops, 60, "3 drops per op");
            assert_eq!(s.retries, 60);
            assert_eq!(s.gave_up, 20, "every op exhausted its budget");
            assert_eq!(s.am_sent, 80);
        });
    }

    #[test]
    fn duplicates_are_discarded_by_the_receiver() {
        let rt = chaos_rt(FaultPlan::seeded(4).with_dups(1000));
        rt.run(|| {
            let hits = AtomicU64::new(0);
            for _ in 0..40 {
                rt.on(1, || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // The duplicate deliveries are handled asynchronously by the
            // progress thread — the sender's reply races the duplicate's
            // bookkeeping — so wait for the queue to drain before reading.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while rt.total_comm().am_handled < 80 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let s = rt.total_comm();
            // The user body ran exactly once per op; the duplicate only
            // occupied the service (am_handled counts both deliveries).
            assert_eq!(hits.load(Ordering::Relaxed), 40);
            assert_eq!(s.injected_dups, 40);
            assert_eq!(s.am_handled, 80);
            assert_eq!(s.am_sent, 40, "duplication is the network's doing");
        });
    }

    #[test]
    fn injected_delays_advance_virtual_time() {
        // Zero-cost network: any elapsed virtual time comes from injection.
        let rt = chaos_rt(FaultPlan::seeded(9).with_delays(1000, 5_000));
        let ((), span) = rt.run_measured(|| {
            for _ in 0..10 {
                rt.on(1, || {});
            }
        });
        let s = rt.total_comm();
        assert_eq!(s.injected_delays, 10);
        assert!(span > 0, "delays must show up in virtual time");
    }

    #[test]
    fn straggler_locale_slows_handler_dispatch() {
        let base = RuntimeConfig::cluster(2).without_network_atomics();
        let plain = Runtime::new(base.clone());
        let ((), fast) = plain.run_measured(|| {
            for _ in 0..10 {
                plain.on(1, || {});
            }
        });
        let slowed = Runtime::new(base.with_faults(FaultPlan::seeded(0).with_straggler(1, 8)));
        let ((), slow) = slowed.run_measured(|| {
            for _ in 0..10 {
                slowed.on(1, || {});
            }
        });
        assert!(
            slow > fast,
            "8x handler dispatch on the straggler must cost vtime \
             (fast = {fast}, slow = {slow})"
        );
    }

    #[test]
    fn empty_plan_changes_no_counters() {
        let workload = |rt: &Runtime| {
            for i in 0..30 {
                rt.on(1, move || {
                    std::hint::black_box(i);
                });
            }
            rt.total_comm()
        };
        let plain = Runtime::new(RuntimeConfig::zero_latency(2));
        let a = plain.run(|| workload(&plain));
        let faulty =
            Runtime::new(RuntimeConfig::zero_latency(2).with_faults(FaultPlan::seeded(123)));
        let b = faulty.run(|| workload(&faulty));
        assert_eq!(a, b, "a no-op plan must be bit-identical to no plan");
    }
}
