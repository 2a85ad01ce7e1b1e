//! The queue-triggered serving pipeline as §2 says it must be written.
//! This is the one chaos workload that is not the paper's body: the
//! paper's handler (`faasim::experiments::prediction`) writes its result
//! wherever it is told, once per execution, so under duplicated
//! deliveries and mid-batch kills it would write a batch twice. This
//! handler routes the model fetch through a circuit breaker (a
//! browned-out model store sheds load instead of retry-storming) and
//! commits each result through an idempotency store. It shares the
//! paper's set-up (`serving_cloud`: queues, buckets, the uploaded model)
//! and its producer's send (through the client set's `queue`); the handler
//! and the wait on the effect store are its own. Invariant: exactly-once
//! observable effects under at-least-once delivery — each batch id has
//! exactly one committed result, and a poison batch lands in the DLQ
//! rather than looping.

use faasim::experiments::clients::{Clients, Run, UNBOUNDED};
use faasim::experiments::prediction::serving_cloud;
use faasim_faas::{add_queue_trigger, decode_batch, FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_queue::{DeadLetterConfig, QueueConfig};
use faasim_resilience::{BreakerConfig, BreakerError, CircuitBreaker, IdempotencyStore};
use faasim_simcore::SimDuration;

use super::{retrying, Faulty};

/// One message is one batch, and one invocation: ~1.2 s of work under a
/// 2 s limit, so the hostile plan's kills land mid-batch.
const BATCHES: usize = 30;
const BATCH_WORK: SimDuration = SimDuration::from_millis(600);

pub(super) fn run(run: &mut Run<Faulty<'_>>, seed: u64) {
    let input = QueueConfig {
        visibility_timeout: SimDuration::from_secs(5),
        dead_letter: Some(DeadLetterConfig {
            queue: "dlq".into(),
            max_receives: 8,
        }),
    };
    let (cloud, clients) = serving_cloud(run, seed, input, 100_000);
    cloud.queue.create_queue("dlq", QueueConfig::default());
    let idem = IdempotencyStore::new(&retrying(&cloud, &cloud.kv, "resil.pred.idem"), "effects");
    let breaker = CircuitBreaker::new(
        &cloud.sim,
        cloud.recorder.clone(),
        "model-store",
        BreakerConfig::default(),
    );

    let (idem_h, c) = (idem.clone(), clients.clone());
    cloud.faas.register(FunctionSpec::new(
        "classify",
        1_024,
        SimDuration::from_secs(2),
        move |ctx, payload| {
            let (idem, c, brk) = (idem_h.clone(), c.clone(), breaker.clone());
            async move {
                let bodies = decode_batch(&payload)
                    .ok_or_else(|| FnError::Handler("malformed batch".into()))?;
                // The model fetch goes through the breaker: a shed or
                // failed fetch fails the whole invocation, so the
                // trigger leaves the batch to be redelivered.
                let fetch = c.blob(UNBOUNDED, |blob| blob.get(ctx.host(), "models", "blacklist"));
                match brk.call(|_: &_| true, fetch).await {
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
                    ctx.cpu(BATCH_WORK).await;
                    let host = ctx.host().clone();
                    let value = Payload::inline(format!("censored:{key}"));
                    if let Err(e) = idem.execute(&host, &key, || async move { value }).await {
                        return Err(FnError::Handler(format!("commit {key}: {e}")));
                    }
                }
                Ok(Payload::new())
            }
        },
    ));
    let trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "classify", "in", 1);

    let (sim, host, idem2) = (cloud.sim.clone(), cloud.client_host(), idem.clone());
    let failures = cloud.sim.block_on(async move {
        let mut failures = Vec::new();
        for i in 0..BATCHES {
            let by = sim.now() + SimDuration::from_secs(60);
            let id = format!("batch-{i:04}");
            let sent = clients.queue(by, |queue| queue.send(&host, "in", Payload::inline(id.clone())));
            failures.extend(sent.await.err().map(|e| format!("send {id}: {e}")));
        }
        let by = sim.now() + SimDuration::from_secs(1_800);
        while idem2.committed(&host, "batch-").await.map_or(true, |c| c.len() < BATCHES) {
            if sim.now() >= by {
                failures.push(format!("not all {BATCHES} batches committed within budget"));
                break;
            }
            sim.sleep(SimDuration::from_millis(200)).await;
        }
        failures
    });
    run.fail("prediction", failures);
    trigger.stop();
    cloud.sim.run();

    // Exactly-once: every batch id committed exactly one result.
    let host = cloud.client_host();
    let committed = cloud
        .sim
        .block_on(async move { idem.committed(&host, "batch-").await })
        .map_or(0, |items| items.len());
    run.check("prediction", committed == BATCHES, || {
        format!("{committed} committed effects for {BATCHES} batches")
    });
    run.close("prediction", &cloud);
}
