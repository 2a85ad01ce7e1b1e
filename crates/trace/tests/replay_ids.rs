//! Edge-shaped traces through the direct replay, which invokes the
//! platform by the `FunctionId`s registration returned: an empty trace
//! and a one-function trace must replay to completion, and a retry layer
//! that never has to retry must leave the platform's run as it was.

use faasim_trace::{replay, ReplayConfig};

/// No gateway and no retries: one platform call per request.
fn direct_cfg() -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.gateway = None;
    cfg.retry = None;
    cfg
}

#[test]
fn empty_trace_replays_to_completion() {
    let mut cfg = direct_cfg();
    cfg.trace.max_events = 0;
    let out = replay(&cfg, 2019, &|_| {});
    let r = &out.report;
    assert_eq!((r.generated, r.invocations, r.attempts), (0, 0, 0));
    assert_eq!((r.succeeded, r.failed, r.cold_starts), (0, 0, 0));
    assert_eq!(r.distinct_functions, 0);
    assert_eq!(r.dollars, 0.0);
    assert_eq!(r.latency_p99, 0.0);
    assert_eq!(r.packing.density(), 0.0);
}

#[test]
fn one_app_one_function_trace_replays_to_completion() {
    let mut cfg = direct_cfg();
    cfg.trace.apps = 1;
    cfg.trace.funcs_per_app = 1;
    cfg.trace.tenants = 1;
    cfg.trace.max_events = 400;
    let out = replay(&cfg, 2019, &|_| {});
    let r = &out.report;
    assert_eq!(r.generated, 400);
    assert_eq!(r.invocations, 400);
    assert_eq!(r.failed, 0);
    assert_eq!(r.attempts, 400, "one attempt per event without retries");
    assert_eq!(r.distinct_functions, 1);
    assert_eq!(r.apps_seen, 1);
    // One function: every cold start is a concurrency high-water mark,
    // and everything else found its container through the warm index.
    assert!(r.cold_starts >= 1 && r.cold_starts < 400, "{} colds", r.cold_starts);
    assert!(r.packing.density() > 0.0 && r.packing.density() <= 1.0);
}

#[test]
fn a_calm_retry_layer_changes_nothing_the_platform_does() {
    // On a calm trace the retry layer never retries, so the platform does
    // the same work in the same order as without it. The recorder digests
    // differ only by the retry layer's own series, so compare what the
    // platform produced: the bill and the report's platform-side numbers.
    let mut once = direct_cfg();
    once.trace.max_events = 2_000;
    let mut retrying = once.clone();
    retrying.retry = Some(Default::default());
    let (a, b) = (replay(&once, 7, &|_| {}), replay(&retrying, 7, &|_| {}));
    assert_eq!(a.bill, b.bill);
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.attempts, rb.attempts);
    assert_eq!(ra.cold_starts, rb.cold_starts);
    assert_eq!(ra.latency_p50.to_bits(), rb.latency_p50.to_bits());
    assert_eq!(ra.latency_p999.to_bits(), rb.latency_p999.to_bits());
    assert_eq!(ra.packing, rb.packing);
    assert_eq!(ra.sim_secs.to_bits(), rb.sim_secs.to_bits());
}
