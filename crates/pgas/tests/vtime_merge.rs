//! Integration tests pinning the virtual-time *merge semantics* the
//! simulator's doc comment promises (see `pgas_sim::vtime`):
//!
//! * a saturated progress thread queues handlers — an AM arriving while the
//!   single server slot is busy starts at `max(arrival, slot free)`, not at
//!   its arrival time;
//! * a `coforall` join advances the parent clock to the **max** of the
//!   child end times, never their sum; a remote child starts one wire after
//!   the parent, returns one wire after it ends and counts one `am_sent`.
//!   Every spawning construct (`coforall_locales`, `coforall_tasks`,
//!   `forall_dist`, `DistArray::forall`) follows that one rule.
//!
//! All are asserted with exact nanosecond expectations derived from the
//! Aries-class defaults, so any drift in the queueing or join discipline
//! fails loudly. A further test checks the telemetry span stamped from the
//! same vtime points agrees with the round-trip arithmetic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pgas_sim::telemetry::{OpClass, RingSink};
use pgas_sim::{here, vtime, Dist, DistArray, Runtime, RuntimeConfig};

/// Wire and handler costs from `NetworkConfig::default()` — asserted here
/// so the exact expectations below can't silently drift from the model.
fn costs(rt: &Runtime) -> (u64, u64) {
    let net = &rt.config.network;
    (net.am_wire_ns, net.am_handler_ns)
}

#[test]
fn saturated_progress_thread_queues_handlers() {
    // One progress thread per locale (the default): the second AM must
    // wait for the first handler's slot, which stays busy until the first
    // reply has cleared the wire.
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, handler) = costs(&rt);
    let ((), span) = rt.run_measured(|| {
        // Both AMs are issued at t=0 from the same task; the async one is
        // in flight while the blocking one queues behind it.
        let c = rt.on_async(1, || {});
        rt.on(1, || {});
        c.wait();
    });
    // AM1: issue 0 → arrive `wire` → handle until `wire + handler`; its
    // slot is busy until the reply clears at `wire + handler + wire`.
    // AM2: arrives at `wire` but starts only when the slot frees, ends a
    // handler later, and its reply lands one more wire after that:
    //   span = 3·wire + 2·handler
    // If the queue discipline ever started AM2 at its arrival time, the
    // span would be 2·wire + handler + handler = wire less than this.
    assert_eq!(
        span,
        3 * wire + 2 * handler,
        "second AM must queue behind the busy slot (wire={wire}, handler={handler})"
    );
}

#[test]
fn unsaturated_ams_do_not_queue() {
    // Control for the test above: one AM at a time round-trips in
    // 2·wire + handler exactly — no queueing charge appears when the slot
    // is free.
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, handler) = costs(&rt);
    let ((), span) = rt.run_measured(|| {
        rt.on(1, || {});
    });
    assert_eq!(span, 2 * wire + handler);
}

#[test]
fn coforall_join_advances_parent_to_max_of_children() {
    // Children charge different amounts; the join must merge with `max`,
    // not `sum`. The remote child also pays spawn + return wire.
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, _) = costs(&rt);
    let ((), span) = rt.run_measured(|| {
        rt.coforall_locales(|l| {
            vtime::charge((l as u64 + 1) * 1000);
        });
    });
    // Child on locale 0 runs locally: ends at 1000. Child on locale 1 is
    // a remote spawn: wire + 2000 + wire. Parent = max of the two.
    let expect = 1000u64.max(wire + 2000 + wire);
    assert_eq!(
        span, expect,
        "coforall join must be max-of-children, not sum (wire={wire})"
    );
    // A sum-merge would exceed the max by at least the local child's time.
    assert!(span < 1000 + wire + 2000 + wire);
}

#[test]
fn coforall_tasks_join_is_max_of_local_children() {
    // Every child runs on the parent's locale: no wire, no message.
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let ((), span) = rt.run_measured(|| {
        rt.coforall_tasks(3, |t| {
            assert_eq!(here(), 0);
            vtime::charge((t as u64 + 1) * 1000);
        });
    });
    assert_eq!(span, 3000, "max of 1000/2000/3000, no wire");
    assert_eq!(rt.total_comm().am_sent, 0, "local children send nothing");
}

/// Charges `ns` to its task's clock when dropped: stands in for task-private
/// state (an epoch token) whose unregister costs time.
struct DropCharge(u64);
impl Drop for DropCharge {
    fn drop(&mut self) {
        vtime::charge(self.0);
    }
}

#[test]
fn forall_dist_join_is_max_of_children_with_wire_on_remote_ones() {
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, _) = costs(&rt);
    // 8 cyclic indices, 2 locales x 2 tasks; index i costs (i+1)*100:
    //   locale 0: task 0 visits 0,4 (600), task 1 visits 2,6 (1000);
    //   locale 1: task 0 visits 1,5 (800), task 1 visits 3,7 (1200).
    // Each task's state charges 5000 more on drop, on its own clock.
    let ((), span) = rt.run_measured(|| {
        rt.forall_dist_tasks(
            8,
            2,
            |_, _| DropCharge(5000),
            |_, i| vtime::charge((i as u64 + 1) * 100),
        );
    });
    let local = 1000 + 5000;
    let remote = wire + 1200 + 5000 + wire;
    assert_eq!(span, local.max(remote), "wire={wire}");
    assert_eq!(rt.total_comm().am_sent, 2, "one per remote task");

    // The default task count is four per locale.
    let inits = AtomicUsize::new(0);
    rt.reset_metrics();
    rt.run(|| {
        rt.forall_dist(
            8,
            |_, _| {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _| {},
        );
    });
    assert_eq!(inits.load(Ordering::Relaxed), 2 * 4);
    assert_eq!(rt.total_comm().am_sent, 4);
}

#[test]
fn dist_array_forall_join_is_max_of_children_with_wire_on_remote_ones() {
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, _) = costs(&rt);
    rt.run(|| {
        let a = DistArray::new(&rt, 8, Dist::Cyclic, |i| i as u64);
        let before = rt.total_comm().am_sent;
        let start = vtime::now();
        // Same layout and costs as the `forall_dist` case above.
        a.forall(&rt, 2, |i, &v| {
            assert_eq!(i as u64, v);
            vtime::charge((v + 1) * 100);
        });
        let span = vtime::now() - start;
        assert_eq!(span, 1000u64.max(wire + 1200 + wire), "wire={wire}");
        assert_eq!(rt.total_comm().am_sent - before, 2, "one per remote task");
    });
}

#[test]
fn coforall_reraises_a_child_panic_only_after_joining_every_child() {
    let rt = Runtime::new(RuntimeConfig::cluster(4));
    let panicked = AtomicUsize::new(0);
    let sibling_done = AtomicBool::new(false);
    rt.run(|| {
        let before = rt.total_comm().am_sent;
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.coforall_locales(|l| match l {
                1 | 2 => {
                    panicked.fetch_add(1, Ordering::SeqCst);
                    panic!("child boom");
                }
                3 => {
                    // Still running after both siblings have panicked.
                    while panicked.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    for _ in 0..100 {
                        std::thread::yield_now();
                    }
                    sibling_done.store(true, Ordering::SeqCst);
                }
                _ => {}
            });
        }));
        let msg = *r
            .unwrap_err()
            .downcast::<&str>()
            .expect("a child's payload");
        assert_eq!(msg, "child boom");
        assert!(
            sibling_done.load(Ordering::SeqCst),
            "the sibling that did not panic was joined first"
        );
        assert_eq!(
            rt.total_comm().am_sent - before,
            3,
            "every remote child counts, panicking ones too"
        );
    });
}

#[test]
fn am_round_trip_span_matches_vtime_protocol() {
    // The telemetry span for one uncontended AM must be stamped from the
    // same vtime points the clock arithmetic uses.
    let rt = Runtime::new(RuntimeConfig::cluster(2));
    let (wire, handler) = costs(&rt);
    let ring = Arc::new(RingSink::new(16));
    assert!(rt.set_telemetry_sink(ring.clone()));
    rt.run_measured(|| {
        rt.on(1, || {});
    });
    // The span is emitted by the progress thread after the reply unblocks
    // the sender; dropping the runtime joins those threads, so every span
    // for a handled AM is in the ring before we look.
    drop(rt);
    let spans = ring.take();
    let s = spans
        .iter()
        .find(|s| s.class == OpClass::AmRoundTrip)
        .expect("one AM round trip span");
    assert_eq!(s.src, 0);
    assert_eq!(s.dest, 1);
    assert_eq!(s.arrive_vtime - s.issue_vtime, wire, "outbound wire");
    assert_eq!(s.start_vtime, s.arrive_vtime, "no queueing when idle");
    assert_eq!(
        s.end_vtime - s.start_vtime,
        handler + wire,
        "handler plus reply wire"
    );
    assert_eq!(s.end_vtime - s.issue_vtime, 2 * wire + handler);
}
