//! Hardened queue-triggered serving pipeline — the flagship of the
//! resilience layer. Under the hostile plan the input queue duplicates
//! deliveries and the platform kills handlers mid-batch, so the same
//! document batch can be processed several times. The handler routes
//! every model fetch through a circuit breaker (a browned-out model
//! store sheds load instead of retry-storming) and commits each result
//! through an idempotency store. Invariant: exactly-once observable
//! effects under at-least-once delivery — each batch id has exactly one
//! committed result, and a poison batch lands in the DLQ rather than
//! looping.

use bytes::Bytes;
use faasim_faas::{add_queue_trigger, decode_batch, FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_queue::{DeadLetterConfig, QueueConfig};
use faasim_resilience::{BreakerConfig, BreakerError, CircuitBreaker, Deadline, IdempotencyStore};
use faasim_simcore::SimDuration;

use super::{retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

const BATCHES: usize = 12;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    cloud.queue.create_queue("dlq", QueueConfig::default());
    cloud.queue.create_queue(
        "in",
        QueueConfig {
            visibility_timeout: SimDuration::from_secs(5),
            dead_letter: Some(DeadLetterConfig {
                queue: "dlq".into(),
                max_receives: 8,
            }),
        },
    );
    cloud.blob.create_bucket("models");
    let rblob = retrying(&cloud, &cloud.blob, "resil.pred.blob");
    {
        let blob = rblob.clone();
        let host = cloud.client_host();
        let put = cloud.sim.block_on(async move {
            let model = Payload::zeros(100_000);
            blob.put(&host, "models", "blacklist", model, Deadline::unbounded())
                .await
        });
        h.failures(
            "prediction",
            put.err().map(|e| format!("upload model: {e}")),
        );
    }
    let idem = IdempotencyStore::new(&retrying(&cloud, &cloud.kv, "resil.pred.idem"), "effects");
    let breaker = CircuitBreaker::new(
        &cloud.sim,
        cloud.recorder.clone(),
        "model-store",
        BreakerConfig::default(),
    );

    let idem_h = idem.clone();
    let blob = rblob.clone();
    let brk = breaker.clone();
    let per_doc = SimDuration::from_micros(20);
    cloud.faas.register(FunctionSpec::new(
        "classify",
        1_024,
        SimDuration::from_secs(60),
        move |ctx, payload| {
            let idem = idem_h.clone();
            let blob = blob.clone();
            let brk = brk.clone();
            async move {
                let bodies = decode_batch(&payload)
                    .ok_or_else(|| FnError::Handler("malformed batch".into()))?;
                // The model fetch goes through the breaker: a shed or
                // failed fetch fails the whole invocation, so the
                // trigger leaves the batch to be redelivered.
                match brk
                    .call(
                        |_: &_| true,
                        blob.get(ctx.host(), "models", "blacklist", Deadline::unbounded()),
                    )
                    .await
                {
                    Ok(_) => {}
                    Err(BreakerError::Open { .. }) => {
                        return Err(FnError::Handler("model store breaker open".into()))
                    }
                    Err(BreakerError::Inner(e)) => {
                        return Err(FnError::Handler(format!("model fetch: {e}")))
                    }
                }
                for body in &bodies {
                    let key = String::from_utf8_lossy(&body.bytes()).into_owned();
                    ctx.cpu(per_doc).await;
                    let host = ctx.host().clone();
                    let value = Payload::inline(format!("censored:{key}"));
                    if let Err(e) = idem.execute(&host, &key, || async move { value }).await {
                        return Err(FnError::Handler(format!("commit {key}: {e}")));
                    }
                }
                Ok(Bytes::new())
            }
        },
    ));
    let trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "classify", "in", 10);

    let rqueue = retrying(&cloud, &cloud.queue, "resil.pred.queue");
    let producer = cloud.client_host();
    {
        let q = rqueue.clone();
        let host = producer.clone();
        let sim = cloud.sim.clone();
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..BATCHES {
                let deadline = Deadline::within(&sim, SimDuration::from_secs(60));
                let body = Payload::inline(format!("batch-{i:04}"));
                if let Err(e) = q.send(&host, "in", &body, deadline).await {
                    failures.push(format!("send batch-{i:04}: {e}"));
                }
            }
            failures
        });
        h.failures("prediction", failures);
    }

    let sim = cloud.sim.clone();
    let idem2 = idem.clone();
    let host = producer.clone();
    let stuck = cloud.sim.block_on(async move {
        let deadline = Deadline::within(&sim, SimDuration::from_secs(1_800));
        loop {
            if let Ok(n) = idem2.committed_count(&host, "batch-").await {
                if n >= BATCHES {
                    return None;
                }
            }
            if deadline.is_expired(&sim) {
                let n = idem2.committed_count(&host, "batch-").await.unwrap_or(0);
                return Some(format!("{n}/{BATCHES} batches committed within budget"));
            }
            sim.sleep(SimDuration::from_millis(200)).await;
        }
    });
    h.failures("prediction", stuck);
    trigger.stop();
    cloud.sim.run();

    // Exactly-once: every batch id committed exactly one result.
    let idem3 = idem.clone();
    let host = producer.clone();
    let committed = cloud
        .sim
        .block_on(async move { idem3.committed(&host, "batch-").await })
        .map(|items| items.len())
        .unwrap_or(0);
    h.check(committed == BATCHES, || {
        format!("prediction: {committed} committed effects for {BATCHES} batches")
    });
    cloud.sim.run();
    h.close("prediction", &cloud);
    h.finish()
}
