//! Virtual-time accounting.
//!
//! The simulator runs on however many host cores happen to be available, so
//! wall-clock time cannot reproduce the *scaling shape* of a 64-node Cray.
//! Instead every task carries a thread-local virtual clock (nanoseconds).
//! Communication primitives charge model costs to it, and synchronization
//! points (active-message queueing, `coforall` joins) merge clocks the way a
//! discrete-event simulator would:
//!
//! * an active message sent at task time `t` arrives at the target progress
//!   thread at `t + wire`; the handler starts at `max(arrival, progress
//!   clock)` — so a saturated progress thread queues work and the AM path
//!   stops scaling, exactly the behaviour the paper attributes to remote
//!   execution;
//! * the reply reaches the sender at `handler end + wire`;
//! * a `coforall` join advances the parent clock to the max of all child
//!   end times.
//!
//! Wall-clock measurements remain available for micro-overhead comparisons;
//! the figure harness reports virtual makespans.
//!
//! The clock is a field of the thread's context record ([`crate::ctx`]),
//! so a charge path that already holds the record charges it without a
//! second thread-local access. It is per thread: entering or leaving a
//! context neither resets nor restores it (a task entering from outside
//! any context starts at zero through [`set`]).

use crate::ctx;

/// Current task-local virtual time in nanoseconds.
#[inline]
pub fn now() -> u64 {
    ctx::record().vtime.get()
}

/// Set the task-local virtual clock (used when a task is born or when a
/// handler begins executing at its queued start time).
#[inline]
pub fn set(t: u64) {
    ctx::record().vtime.set(t);
}

/// Charge `ns` nanoseconds of virtual time to the current task.
#[inline]
pub fn charge(ns: u64) {
    ctx::record().charge(ns);
}

/// Advance the task clock to at least `t` (no-op if already past).
#[inline]
pub fn advance_to(t: u64) {
    let clock = &ctx::record().vtime;
    if clock.get() < t {
        clock.set(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        set(0);
        charge(5);
        charge(7);
        assert_eq!(now(), 12);
    }

    #[test]
    fn advance_to_is_monotonic() {
        set(100);
        advance_to(50);
        assert_eq!(now(), 100);
        advance_to(150);
        assert_eq!(now(), 150);
    }

    #[test]
    fn set_overrides() {
        set(42);
        assert_eq!(now(), 42);
        set(0);
        assert_eq!(now(), 0);
    }

    #[test]
    fn charge_saturates_instead_of_overflowing() {
        set(u64::MAX - 1);
        charge(100);
        assert_eq!(now(), u64::MAX);
        set(0);
    }
}
