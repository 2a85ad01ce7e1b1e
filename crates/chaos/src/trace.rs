//! Trace-replay scenarios for the seed sweep: stream a generated
//! workload trace through the platform under a [`FaultPlan`] and check
//! that every request is accounted for, the cross-service invariants
//! hold, and (under a calm plan) nothing fails — while the sweep harness
//! itself proves each seed replays byte-identically, report included.

use faasim_simcore::SimDuration;
use faasim_trace::{replay_with, ReplayConfig, ReplayOutcome};

use crate::faults::FaultPlan;
use crate::invariants::check_cloud;
use crate::sweep::{RunReport, Scenario};

/// A trace replay under a fault plan, as a sweepable [`Scenario`].
pub struct TraceReplay {
    name: &'static str,
    plan: FaultPlan,
    cfg: ReplayConfig,
    /// A calm plan must complete every request successfully.
    expect_no_failures: bool,
}

impl TraceReplay {
    /// Build a scenario from explicit parts.
    pub fn new(
        name: &'static str,
        plan: FaultPlan,
        cfg: ReplayConfig,
        expect_no_failures: bool,
    ) -> TraceReplay {
        TraceReplay {
            name,
            plan,
            cfg,
            expect_no_failures,
        }
    }

    /// CI-smoke trace (~1,500 invocations over two minutes).
    fn smoke_config() -> ReplayConfig {
        let mut cfg = ReplayConfig::small();
        cfg.trace.total_rate = 12.0;
        cfg.trace.duration = SimDuration::from_mins(2);
        cfg.trace.max_events = 1_500;
        cfg
    }

    /// Small trace under a fault-free plan: every request must succeed.
    pub fn small_calm() -> TraceReplay {
        TraceReplay::new(
            "trace-replay/calm",
            FaultPlan::calm(),
            TraceReplay::smoke_config(),
            true,
        )
    }

    /// Small trace under the hostile plan (kills, storms, delays):
    /// failures are allowed, accounting still has to balance.
    pub fn small_hostile() -> TraceReplay {
        TraceReplay::new(
            "trace-replay/hostile",
            FaultPlan::hostile(),
            TraceReplay::smoke_config(),
            false,
        )
    }

    /// Run the replay and return its full outcome (used by tests that
    /// want the report, not just the sweep verdict).
    pub fn replay(&self, seed: u64) -> ReplayOutcome {
        replay_with(&self.cfg, seed, &|cloud| self.plan.apply(cloud), &mut |_| {})
    }
}

impl Scenario for TraceReplay {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, seed: u64) -> RunReport {
        let mut violations = Vec::new();
        let out = replay_with(
            &self.cfg,
            seed,
            &|cloud| self.plan.apply(cloud),
            &mut |cloud| violations.extend(check_cloud(cloud)),
        );
        let r = &out.report;
        violations.extend(r.violations());
        if self.expect_no_failures && r.failed > 0 {
            violations.push(format!("{} requests failed under a calm plan", r.failed));
        }
        RunReport {
            // Fold the report into the digest so the sweep's byte-exact
            // replay check covers every published metric too.
            digest: format!("{}\nreport {:?}", out.digest, r),
            bill: out.bill,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep;

    #[test]
    fn calm_smoke_sweep_passes() {
        let report = sweep(&TraceReplay::small_calm(), &[1, 2]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn hostile_smoke_sweep_passes() {
        let report = sweep(&TraceReplay::small_hostile(), &[1, 2]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn hostile_plan_actually_bites() {
        let out = TraceReplay::small_hostile().replay(3);
        assert!(
            out.report.chaos_kills > 0 || out.report.chaos_evicted > 0,
            "hostile plan produced no faults: {:?}",
            out.report
        );
    }
}
