//! Engine-cost pins: what a replayed invocation costs the executor, the
//! timer wheel and the heap, as exact [`SimProfile`] counts and exact
//! allocation counts.
//!
//! Two 20 000-arrival replays of the paper-scale trace at seed 2019, on
//! the platform of the repo benchmark's two replay workloads: straight
//! into the platform and calm, and through the gateway with retries
//! under a hostile plan with mid-flight kills and cold-start storms. The
//! counts are deterministic, so debug and release builds read the same
//! ones, and unlike wall-clock they cannot be fooled by a noisy host.
//!
//! A change that adds engine work to the invocation path (one more poll,
//! one more timer, one more allocation) fails here. A change that removes
//! some re-blesses the moved counts downward in the same commit.
//!
//! The heap is counted around `replay(..)` alone, on the test's own
//! thread, by the counting allocator the `*_allocs` tests share. Debug
//! and release builds read the same allocations and the same bytes.
//! Should the bytes ever differ between the two (a future laid out
//! differently), pin them in release builds only.

#[path = "counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::{bytes_handed_out, fresh_blocks, regrowths};
use faasim_chaos::FaultPlan;
use faasim_resilience::RetryPolicy;
use faasim_simcore::{SimDuration, SimProfile};
use faasim_trace::{replay, GatewaySpec, ReplayConfig};

const SEED: u64 = 2019;
const ARRIVALS: u64 = 20_000;
/// Cold-start storms in the front-door replay, evenly spaced.
const STORMS: u64 = 4;

/// The paper-scale trace with room under the account limit, capped at
/// [`ARRIVALS`].
fn platform() -> ReplayConfig {
    let mut cfg = ReplayConfig::paper_scale();
    cfg.profile.faas.account_concurrency = 3_000;
    cfg.trace.max_events = ARRIVALS;
    cfg
}

/// Replay `cfg` under `plan`; the engine counts of a run that served
/// every arrival, and its heap traffic as `allocs A bytes B` (a regrowth
/// counts as one allocation). Each invocation arms a lifetime cap that
/// is canceled long before it would fire, so pending timers track live
/// tasks only if a canceled timer leaves the engine at once.
fn engine_counts(cfg: &ReplayConfig, plan: &FaultPlan) -> (SimProfile, String) {
    let (allocs, bytes) = (fresh_blocks() + regrowths(), bytes_handed_out());
    let out = replay(cfg, SEED, &|cloud| plan.apply(cloud));
    let heap = format!(
        "allocs {} bytes {}",
        fresh_blocks() + regrowths() - allocs,
        bytes_handed_out() - bytes
    );
    let r = &out.report;
    assert_eq!(r.violations(), Vec::<String>::new());
    assert_eq!((r.generated, r.invocations), (ARRIVALS, ARRIVALS));
    let p = r.engine;
    assert!(
        p.peak_pending_timers <= 2 * p.peak_live_tasks,
        "canceled timers pile up: {p}"
    );
    (p, heap)
}

fn pins(p: &SimProfile) -> String {
    format!(
        "polls {} spawns {} pushes {} fires {} cancels {} cascades {} overflow {} peak_pending {} peak_live {}",
        p.task_polls,
        p.tasks_spawned,
        p.timer_pushes,
        p.timer_fires,
        p.timer_cancels,
        p.timer_cascades,
        p.timer_overflow,
        p.peak_pending_timers,
        p.peak_live_tasks,
    )
}

#[test]
fn a_direct_replay_costs_the_engine_what_it_did() {
    let mut cfg = platform();
    cfg.gateway = None;
    cfg.retry = None;
    cfg.trace.func_timeout = SimDuration::from_secs(120);
    let (p, heap) = engine_counts(&cfg, &FaultPlan::calm());
    assert_eq!(
        pins(&p),
        "polls 106650 spawns 20002 pushes 106710 fires 86710 cancels 20000 cascades 36639 overflow 0 peak_pending 3033 peak_live 2684"
    );
    assert_eq!(heap, "allocs 134109 bytes 30021969");
}

#[test]
fn a_front_door_replay_under_faults_costs_the_engine_what_it_did() {
    let mut cfg = platform();
    cfg.gateway = Some(GatewaySpec);
    cfg.retry = Some(RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    });
    cfg.max_in_flight = 16_384;
    let mut plan = FaultPlan::hostile();
    plan.faas.kill_prob = 0.10;
    let trace_secs = ARRIVALS as f64 / cfg.trace.total_rate;
    plan.storms = (1..=STORMS)
        .map(|k| SimDuration::from_secs_f64(trace_secs * k as f64 / (STORMS + 1) as f64))
        .collect();
    let (p, heap) = engine_counts(&cfg, &plan);
    assert_eq!(
        pins(&p),
        "polls 130120 spawns 20002 pushes 130279 fires 110229 cancels 20050 cascades 126164 overflow 0 peak_pending 3288 peak_live 2697"
    );
    assert_eq!(heap, "allocs 138813 bytes 41744215");
}
