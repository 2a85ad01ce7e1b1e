//! The keep-alive janitor running *during* a replay must never strand a
//! busy container, double-count cold starts, or perturb determinism —
//! the reap/evict interaction the warm-container index has to survive.

use faasim_simcore::SimDuration;
use faasim_trace::{replay, ReplayConfig};

/// A short-keep-alive replay where the reaper actually fires mid-trace:
/// containers idle five seconds are reclaimed every second, so functions
/// repeatedly expire and cold-start again while traffic is in flight.
fn churny_cfg() -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.trace.max_events = 2_000;
    cfg.retry = None; // one attempt per event ⇒ exact accounting below
    cfg.reap_every = SimDuration::from_secs(1);
    cfg.profile.faas.container_idle_timeout = SimDuration::from_secs(5);
    cfg
}

#[test]
fn aggressive_mid_replay_reaping_keeps_cold_start_accounting_exact() {
    let out = replay(&churny_cfg(), 17, &|_| {});
    let r = &out.report;
    assert_eq!(r.violations(), Vec::<String>::new());
    assert_eq!(r.failed, 0, "reaping must never kill a busy container");
    // With retries disabled, the platform sees exactly one execution per
    // trace event: cold + warm must tile the attempts with no double
    // counting, even though the janitor deleted containers all along.
    assert_eq!(r.attempts, r.invocations, "no retries ⇒ one attempt per event");
    assert!(
        r.cold_starts >= r.distinct_functions,
        "every function's first execution is necessarily cold"
    );
    // The short keep-alive must actually bite: far more cold starts than
    // the one-per-function floor.
    assert!(
        r.cold_starts > 2 * r.distinct_functions,
        "janitor never fired: {} colds for {} functions",
        r.cold_starts,
        r.distinct_functions
    );
}

#[test]
fn replay_under_aggressive_reaping_stays_deterministic() {
    let a = replay(&churny_cfg(), 17, &|_| {});
    let b = replay(&churny_cfg(), 17, &|_| {});
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.report, b.report);
    assert_eq!(a.bill, b.bill);
}
