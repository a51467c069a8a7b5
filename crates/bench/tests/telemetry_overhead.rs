//! CI `telemetry-overhead` guard: telemetry must be free where it claims
//! to be. Installing the zero-cost [`NullSink`] on every runtime must not
//! move a single communication counter — in particular the A1 scatter AM
//! counts CI pins (2/6/14 at 2/4/8 locales) must hold bit-for-bit.

use std::sync::Arc;

use pgas_bench::{ablate_scatter, set_trace_sink};
use pgas_nb::sim::telemetry::{NullSink, OpClass};
use pgas_nb::sim::TelemetrySnapshot;

const OBJECTS: usize = 512;
/// The A1 `scatter=on` AM counts CI's perf guard pins: one bulk free per
/// (locale, remote destination) pair that received garbage.
const PINNED: [(usize, u64); 3] = [(2, 2), (4, 6), (8, 14)];

/// The A1 `scatter=on` row's telemetry at `locales`.
fn telemetry(locales: usize) -> TelemetrySnapshot {
    ablate_scatter(locales, OBJECTS, true)
        .telemetry
        .expect("A1 rows carry telemetry")
}

#[test]
fn null_sink_adds_zero_counter_drift() {
    // Baseline: no sink installed (the default fast path).
    let base: Vec<_> = PINNED
        .iter()
        .map(|&(locales, _)| telemetry(locales))
        .collect();

    // Install the zero-cost sink process-wide; every runtime the workloads
    // build from here on emits spans into it.
    assert!(set_trace_sink(Arc::new(NullSink)));

    for (i, &(locales, pinned_ams)) in PINNED.iter().enumerate() {
        let t = telemetry(locales);
        assert_eq!(
            t.comm, base[i].comm,
            "NullSink must not drift any counter at {locales} locales"
        );
        assert_eq!(
            t.comm.am_sent, pinned_ams,
            "A1 scatter=on AM count changed at {locales} locales"
        );
        // The latency half keeps recording regardless of the sink — that
        // is the always-on part whose cost is four relaxed RMWs.
        assert!(t.class(OpClass::LimboDepth).count() > 0);
    }
}
