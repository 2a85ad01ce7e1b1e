//! Hardened data-to-code aggregation: the chained log count, with the
//! handler reading objects through a retrying blob client (absorbing
//! 503s) and the driver re-invoking through kills, timeouts and
//! exhausted handlers until the shared cursor reaches the end of the
//! dataset. The cursor and the running count advance together between
//! awaits, so a mid-flight kill can never double-count an object.
//! Invariant: an exact line count despite at-least-once execution.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::{FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_resilience::Deadline;
use faasim_simcore::SimDuration;

use super::{retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

const DATASET_MB: u64 = 100;
const OBJECT_MB: u64 = 10;
const LOG_LINE: &str = "GET /assets/app.js 200\n";

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    cloud.blob.create_bucket("logs");
    let objects = (DATASET_MB / OBJECT_MB) as usize;
    let lines_per_object = (OBJECT_MB * 1_000_000) / LOG_LINE.len() as u64;
    let expected = objects as u64 * lines_per_object;
    let rblob = retrying(&cloud, &cloud.blob, "resil.ship.blob");

    {
        let blob = rblob.clone();
        let host = cloud.client_host();
        let body = Payload::synthetic(LOG_LINE, lines_per_object);
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..objects {
                let key = format!("part-{i:05}");
                if let Err(e) = blob
                    .put(&host, "logs", &key, body.clone(), Deadline::unbounded())
                    .await
                {
                    failures.push(format!("populate part-{i:05}: {e}"));
                }
            }
            failures
        });
        h.failures("data_shipping", failures);
    }

    let progress = Rc::new(RefCell::new((0usize, 0u64))); // (next object, count)
    let p = progress.clone();
    let blob = rblob.clone();
    cloud.faas.register(FunctionSpec::new(
        "aggregate",
        1_024,
        SimDuration::from_secs(900),
        move |ctx, _| {
            let blob = blob.clone();
            let p = p.clone();
            async move {
                loop {
                    let next = p.borrow().0;
                    if next >= objects {
                        return Ok(Bytes::new());
                    }
                    let key = format!("part-{next:05}");
                    let body = match blob
                        .get(ctx.host(), "logs", &key, Deadline::unbounded())
                        .await
                    {
                        Ok(b) => b,
                        Err(e) => {
                            return Err(FnError::Handler(format!("get part-{next:05}: {e}")))
                        }
                    };
                    let count = body.line_count();
                    ctx.cpu(SimDuration::from_secs_f64(
                        body.len() as f64 * 8.0 / faasim_simcore::gbps(1.6),
                    ))
                    .await;
                    // Atomic between awaits: a kill drops the future at an
                    // await point, never between these two updates.
                    let mut st = p.borrow_mut();
                    st.0 += 1;
                    st.1 += count;
                }
            }
        },
    ));
    let faas = cloud.faas.clone();
    let sim = cloud.sim.clone();
    let p2 = progress.clone();
    let stuck = cloud.sim.block_on(async move {
        let deadline = Deadline::within(&sim, SimDuration::from_secs(3_600));
        while p2.borrow().0 < objects {
            if deadline.is_expired(&sim) {
                return Some(format!(
                    "aggregation stuck at {}/{objects} objects within budget",
                    p2.borrow().0
                ));
            }
            let out = faas.invoke("aggregate", Bytes::new()).await;
            match out.result {
                Ok(_) => {}
                Err(
                    FnError::TimedOut { .. } | FnError::Crashed { .. } | FnError::Handler(_),
                ) => sim.sleep(SimDuration::from_millis(50)).await,
                Err(e) => return Some(format!("aggregate failed fatally: {e}")),
            }
        }
        None
    });
    h.failures("data_shipping", stuck);
    let (done, count) = *progress.borrow();
    h.check(done == objects, || {
        format!("data_shipping: cursor stopped at {done}/{objects}")
    });
    h.check(count == expected, || {
        format!(
            "data_shipping: counted {count} lines, expected {expected} \
             (exactly-once aggregation under retries)"
        )
    });
    cloud.sim.run();
    h.close("data_shipping", &cloud);
    h.finish()
}
