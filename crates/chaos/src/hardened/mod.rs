//! The paper's eight experiments as chaos scenarios: each workload at
//! reduced scale, driven through the resilience layer (retrying
//! clients, deadline budgets, a circuit breaker, idempotent commits)
//! under a [`FaultPlan`], and held to the same standard as the
//! synthetic scenarios — end-to-end invariants plus byte-identical
//! replay at every seed. A hardened run never panics on a platform
//! failure: every trial completes or fails by a declared deadline, and
//! what went wrong comes back as [`RunReport::violations`].
//!
//! Under [`FaultPlan::calm`] this doubles as a regression net for the
//! workloads themselves; under [`FaultPlan::hostile`] it is the paper's
//! §2 platform contract made executable: at-least-once invocation,
//! throttling storage, duplicating queues — and the resilience layer
//! keeping every observable effect exactly-once. Each module states its
//! workload's invariant; EXPERIMENTS.md "Resilience model" lists them.

mod agents_cmp;
mod bandwidth;
mod cold_starts;
mod data_shipping;
mod election;
mod prediction;
mod table1;
mod training;

use faasim::{Cloud, CloudProfile};
use faasim_payload::Payload;
use faasim_resilience::{Deadline, RetryPolicy, Retrying, RetryingInvoker};
use faasim_simcore::{Sim, SimDuration};

use crate::faults::FaultPlan;
use crate::sweep::{RunReport, Scenario};

/// What every hardened workload is written against: it builds the
/// run's clouds, collects violations in the order they are found, and
/// closes each cloud into the run's report.
struct Harness<'p> {
    plan: &'p FaultPlan,
    digests: Vec<String>,
    bills: Vec<String>,
    violations: Vec<String>,
}

impl<'p> Harness<'p> {
    fn new(plan: &'p FaultPlan) -> Harness<'p> {
        Harness {
            plan,
            digests: Vec::new(),
            bills: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// A calibrated `exact()` cloud at `seed` with the plan applied.
    fn cloud(&self, seed: u64) -> Cloud {
        self.plan.build(CloudProfile::aws_2018().exact(), seed)
    }

    /// Record a violation unless `ok` holds.
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(msg());
        }
    }

    /// Record each failure a driver collected as `"{scope}: {failure}"`.
    fn failures(&mut self, scope: &str, failures: impl IntoIterator<Item = String>) {
        self.violations
            .extend(failures.into_iter().map(|f| format!("{scope}: {f}")));
    }

    /// Close out a cloud whose workload has settled: its
    /// [`check_cloud`](crate::check_cloud) violations as
    /// `"{label}: {violation}"`, then its digest and bill.
    fn close(&mut self, label: &str, cloud: &Cloud) {
        let run = RunReport::audit(cloud, Vec::new());
        self.failures(label, run.violations);
        self.digests.push(run.digest);
        self.bills.push(run.bill);
    }

    /// The run's report: one digest and one bill per closed cloud, in
    /// the order they were closed.
    fn finish(self) -> RunReport {
        RunReport {
            digest: self.digests.join("\n"),
            bill: self.bills.join("\n"),
            violations: self.violations,
        }
    }
}

/// A retrying client for one of `cloud`'s services under the hardened
/// workloads' one policy: 25 attempts, enough to ride out any fault
/// streak the hostile plan can produce. `label` names the jitter stream.
fn retrying<S: Clone>(cloud: &Cloud, service: &S, label: &str) -> Retrying<S> {
    let policy = RetryPolicy {
        max_attempts: 25,
        ..RetryPolicy::default()
    };
    Retrying::new(&cloud.sim, service, cloud.recorder.clone(), policy, label)
}

/// One invocation of an echo function inside a two-minute budget: it
/// must come back, and come back with the payload it was sent.
async fn echo(
    invoker: &RetryingInvoker,
    sim: &Sim,
    function: &str,
    payload: &Payload,
) -> Result<(), String> {
    let deadline = Deadline::within(sim, SimDuration::from_secs(120));
    let out = invoker.invoke(function, payload, deadline).await;
    let echoed = out
        .map_err(|e| e.to_string())?
        .result
        .expect("ok outcome")
        .len();
    if echoed == payload.len() {
        Ok(())
    } else {
        Err(format!("echoed {echoed} bytes"))
    }
}

/// One hardened workload under a fixed fault plan. Pure function of the
/// seed, so the sweep harness can replay it and demand byte-identical
/// digests.
pub struct ExperimentScenario {
    name: &'static str,
    plan: FaultPlan,
    workload: fn(&FaultPlan, u64) -> RunReport,
}

impl Scenario for ExperimentScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, seed: u64) -> RunReport {
        (self.workload)(&self.plan, seed)
    }
}

/// All eight workloads under one fault plan: [`FaultPlan::hostile`]
/// when `hostile`, [`FaultPlan::calm`] otherwise.
pub fn experiment_scenarios(hostile: bool) -> Vec<ExperimentScenario> {
    let plan = if hostile {
        FaultPlan::hostile()
    } else {
        FaultPlan::calm()
    };
    let scenario = |calm, hostile_name, workload| ExperimentScenario {
        name: if hostile { hostile_name } else { calm },
        plan: plan.clone(),
        workload,
    };
    vec![
        scenario("table1/calm", "table1/hostile", table1::run),
        scenario("cold_starts/calm", "cold_starts/hostile", cold_starts::run),
        scenario("bandwidth/calm", "bandwidth/hostile", bandwidth::run),
        scenario(
            "data_shipping/calm",
            "data_shipping/hostile",
            data_shipping::run,
        ),
        scenario("training/calm", "training/hostile", training::run),
        scenario("prediction/calm", "prediction/hostile", prediction::run),
        scenario("election/calm", "election/hostile", election::run),
        scenario("agents_cmp/calm", "agents_cmp/hostile", agents_cmp::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep;

    #[test]
    fn all_eight_experiments_are_wrapped() {
        let calm = experiment_scenarios(false);
        let hostile = experiment_scenarios(true);
        assert_eq!(calm.len(), 8);
        assert_eq!(hostile.len(), 8);
        assert!(calm.iter().all(|s| s.name().ends_with("/calm")));
        assert!(hostile.iter().all(|s| s.name().ends_with("/hostile")));
    }

    #[test]
    fn cold_starts_survives_hostility_and_replays() {
        let scenario = experiment_scenarios(true)
            .into_iter()
            .find(|s| s.name() == "cold_starts/hostile")
            .expect("scenario");
        let report = sweep(&scenario, &[11, 12]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn prediction_is_exactly_once_under_duplication() {
        let scenario = experiment_scenarios(true)
            .into_iter()
            .find(|s| s.name() == "prediction/hostile")
            .expect("scenario");
        let report = sweep(&scenario, &[5]);
        assert!(report.passed(), "{report}");
    }
}
