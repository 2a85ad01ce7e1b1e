//! Determinism regression for the trace-replay scenario: a 10k-event
//! trace replayed serially and through the multi-threaded sweep must
//! produce byte-identical recorder digests and an identical
//! [`faasim_trace::ReplayReport`] — thread fan-out must not be able to
//! perturb a single seed's outcome.

use faasim_chaos::{sweep, FaultPlan, ParallelSweep, TraceReplay};
use faasim_trace::ReplayConfig;

fn ten_k() -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.trace.max_events = 10_000;
    cfg
}

fn scenario() -> TraceReplay {
    TraceReplay::new("trace-replay/determinism", FaultPlan::hostile(), ten_k())
}

#[test]
fn ten_k_trace_serial_and_parallel_sweeps_are_byte_identical() {
    let seeds: Vec<u64> = (1..=4).collect();
    let s = scenario();
    let serial = sweep(&s, &seeds);
    let parallel = ParallelSweep::auto().sweep(&s, &seeds);
    assert!(serial.passed(), "{serial}");
    // The scenario folds the full report into each seed's digest, so this
    // equality covers every metric, not just the recorder counters.
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
}

#[test]
fn ten_k_trace_report_is_identical_across_replays() {
    let s = scenario();
    let a = s.replay(9);
    let b = s.replay(9);
    assert_eq!(a.report, b.report);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.bill, b.bill);
}
