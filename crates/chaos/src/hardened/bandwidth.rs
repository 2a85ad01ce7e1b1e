//! Hardened bandwidth study: 20-way packed downloads where any
//! invocation may be killed mid-transfer and is retried. The handler
//! records its achieved rate only after its last await, so a killed
//! attempt never double-counts. Invariant: exactly one recorded rate
//! per completed download, all positive.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::FunctionSpec;
use faasim_payload::Payload;
use faasim_resilience::Deadline;
use faasim_simcore::{join_all, SimDuration};

use super::{retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

const CONCURRENCY: usize = 20;
const TRANSFER_BYTES: u64 = 2_000_000;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    let rates: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let r = rates.clone();
    cloud.faas.register(FunctionSpec::new(
        "download",
        640,
        SimDuration::from_secs(900),
        move |ctx, _| {
            let r = r.clone();
            async move {
                let t0 = ctx.sim().now();
                ctx.host().nic_transfer(TRANSFER_BYTES).await;
                let secs = (ctx.sim().now() - t0).as_secs_f64();
                // Recorded after the last await: a kill mid-transfer
                // leaves no partial entry for the retry to duplicate.
                r.borrow_mut().push(TRANSFER_BYTES as f64 * 8.0 / secs / 1e6);
                Ok(Bytes::new())
            }
        },
    ));
    let invoker = retrying(&cloud, &cloud.faas, "resil.bw.invoker");
    let sim = cloud.sim.clone();
    let failures = cloud.sim.block_on(async move {
        let futs: Vec<_> = (0..CONCURRENCY)
            .map(|t| {
                let invoker = invoker.clone();
                let sim = sim.clone();
                async move {
                    let deadline = Deadline::within(&sim, SimDuration::from_secs(600));
                    invoker
                        .invoke("download", &Payload::zeros(0), deadline)
                        .await
                        .map_err(|e| format!("download {t}: {e}"))
                }
            })
            .collect();
        join_all(futs)
            .await
            .into_iter()
            .filter_map(|r| r.err())
            .collect::<Vec<_>>()
    });
    let completed = CONCURRENCY - failures.len();
    h.failures("bandwidth", failures);
    let rates = rates.borrow();
    h.check(rates.len() == completed, || {
        format!(
            "bandwidth: {} recorded rates for {completed} completed downloads \
             (retries must not double-count)",
            rates.len()
        )
    });
    h.check(rates.iter().all(|&r| r.is_finite() && r > 0.0), || {
        "bandwidth: non-positive recorded rate".into()
    });
    drop(rates);
    cloud.sim.run();
    h.close("bandwidth", &cloud);
    h.finish()
}
