//! Hardened Lambda training loop: batches fetched through a retrying
//! blob client, the driver re-invoking through kills and timeouts until
//! every iteration of a reduced-scale job has run. The iteration
//! counter advances between awaits, so an interrupted execution resumes
//! where it left off. Invariant: an exact iteration count.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use faasim::experiments::training::TrainingParams;
use faasim_faas::{FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_resilience::Deadline;
use faasim_simcore::SimDuration;

use super::{retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let params = TrainingParams {
        dataset_mb: 2_000, // 20 iterations: enough to span several kills
        epochs: 1,
        ..TrainingParams::default()
    };
    let total_iters = params.total_iterations();

    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    cloud.blob.create_bucket("training");
    let batch_bytes = params.batch_mb * 1_000_000;
    let rblob = retrying(&cloud, &cloud.blob, "resil.train.blob");
    {
        let blob = rblob.clone();
        let host = cloud.client_host();
        let data = Payload::zeros(batch_bytes as usize);
        let put = cloud.sim.block_on(async move {
            blob.put(&host, "training", "batch", data, Deadline::unbounded())
                .await
        });
        h.failures(
            "training",
            put.err().map(|e| format!("populate batch: {e}")),
        );
    }

    let done = Rc::new(Cell::new(0u64));
    let blob = rblob.clone();
    let d = done.clone();
    let ref_work = params.iteration_ref_work;
    cloud.faas.register(FunctionSpec::new(
        "train",
        params.lambda_memory_mb,
        SimDuration::from_secs(900),
        move |ctx, _payload| {
            let blob = blob.clone();
            let d = d.clone();
            async move {
                while d.get() < total_iters {
                    if let Err(e) = blob
                        .get(ctx.host(), "training", "batch", Deadline::unbounded())
                        .await
                    {
                        return Err(FnError::Handler(format!("batch fetch: {e}")));
                    }
                    ctx.cpu(ref_work).await;
                    // No await between here and the loop check: a kill
                    // can lose an in-flight iteration, never count one
                    // twice.
                    d.set(d.get() + 1);
                }
                Ok(Bytes::new())
            }
        },
    ));

    let faas = cloud.faas.clone();
    let sim = cloud.sim.clone();
    let done2 = done.clone();
    let stuck = cloud.sim.block_on(async move {
        let deadline = Deadline::within(&sim, SimDuration::from_secs(3_600));
        while done2.get() < total_iters {
            if deadline.is_expired(&sim) {
                return Some(format!(
                    "training stuck at {}/{total_iters} iterations within budget",
                    done2.get()
                ));
            }
            let out = faas.invoke("train", Bytes::new()).await;
            match out.result {
                Ok(_) => {}
                Err(
                    FnError::TimedOut { .. } | FnError::Crashed { .. } | FnError::Handler(_),
                ) => sim.sleep(SimDuration::from_millis(50)).await,
                Err(e) => return Some(format!("training failed fatally: {e}")),
            }
        }
        None
    });
    h.failures("training", stuck);
    h.check(done.get() == total_iters, || {
        format!(
            "training: {}/{total_iters} iterations (must complete exactly)",
            done.get()
        )
    });
    cloud.sim.run();
    h.close("training", &cloud);
    h.finish()
}
