//! Hardened cold-start study: the inter-arrival sweep with every
//! invocation behind a retrying invoker, so platform kills are retried
//! inside a per-request deadline budget. Invariant: completion under
//! fault — every arrival echoes its payload or fails cleanly, never
//! hangs.

use faasim_faas::FunctionSpec;
use faasim_payload::Payload;
use faasim_simcore::SimDuration;

use super::{echo, retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

const INVOCATIONS: usize = 8;
const PAYLOAD_BYTES: usize = 256;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let gaps = [SimDuration::from_secs(1), SimDuration::from_mins(20)];
    for (i, gap) in gaps.into_iter().enumerate() {
        let scope = format!("cold_starts/gap{i}");
        let cloud = h.cloud(seed + i as u64);
        cloud.faas.register(FunctionSpec::new(
            "ping",
            256,
            SimDuration::from_secs(30),
            |_ctx, p| async move { Ok(p) },
        ));
        let invoker = retrying(&cloud, &cloud.faas, "resil.cold.invoker");
        let faas = cloud.faas.clone();
        let sim = cloud.sim.clone();
        let payload = Payload::zeros(PAYLOAD_BYTES);
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for t in 0..INVOCATIONS {
                faas.reap_idle();
                if let Err(e) = echo(&invoker, &sim, "ping", &payload).await {
                    failures.push(format!("trial {t}: {e}"));
                }
                sim.sleep(gap).await;
            }
            failures
        });
        h.failures(&scope, failures);
        cloud.sim.run();
        h.close(&scope, &cloud);
    }
    h.finish()
}
