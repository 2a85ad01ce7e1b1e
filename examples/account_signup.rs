//! The paper's §2 "function composition" cautionary tale: an
//! Autodesk-style **account-creation workflow** built as a chain of
//! Lambda functions stitched together through queues and storage.
//!
//! "The authors of that case study reported average end-to-end sign-up
//! times of ten minutes; ... the overheads of Lambda task handling and
//! state management explain some of this latency."
//!
//! Every step is tiny, but each hop pays: queue send + trigger dispatch +
//! invocation overhead + state writes/reads against the KV store. The
//! example prints the per-hop breakdown so the tax is visible.
//!
//! ```text
//! cargo run --example account_signup
//! ```

use faasim::faas::{add_queue_trigger, decode_batch, FunctionSpec};
use faasim::kv::Consistency;
use faasim::payload::Payload;
use faasim::queue::QueueConfig;
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};

/// The workflow stages, each its own function wired to its own queue.
const STAGES: &[&str] = &[
    "validate-email",
    "check-duplicates",
    "provision-account",
    "setup-entitlements",
    "send-welcome-email",
];

fn main() {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
    cloud.kv.create_table("signups");
    for stage in STAGES {
        cloud
            .queue
            .create_queue(stage, QueueConfig::default());
    }
    cloud.queue.create_queue("done", QueueConfig::default());

    // Each stage: read workflow state, do a sliver of business logic,
    // write state back, enqueue the next stage.
    for (i, stage) in STAGES.iter().enumerate() {
        let kv = cloud.kv.clone();
        let queue = cloud.queue.clone();
        let next = if i + 1 < STAGES.len() {
            STAGES[i + 1]
        } else {
            "done"
        };
        cloud.faas.register(FunctionSpec::new(
            *stage,
            256,
            SimDuration::from_secs(60),
            move |ctx, payload| {
                let kv = kv.clone();
                let queue = queue.clone();
                async move {
                    for user in decode_batch(&payload).expect("batch") {
                        let user_id = String::from_utf8_lossy(&user.to_vec()).to_string();
                        // State round-trip: the paper's point — every hop
                        // reads and writes "global state" in slow storage.
                        let state = kv
                            .get(ctx.host(), "signups", &user_id, Consistency::Strong)
                            .await;
                        let mut progress = state
                            .map(|item| item.value.to_vec())
                            .unwrap_or_default();
                        progress.push(b'+');
                        ctx.cpu(SimDuration::from_micros(500)).await; // the logic
                        kv.put(ctx.host(), "signups", &user_id, Payload::from(progress))
                            .await
                            .expect("signups table");
                        queue
                            .send(ctx.host(), next, user)
                            .await
                            .expect("next queue");
                    }
                    Ok(Payload::new())
                }
            },
        ));
        let _t = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, stage, stage, 1);
    }

    // Sign up 20 users and wait for them all to come out the far end.
    let client = cloud.client_host();
    let queue = cloud.queue.clone();
    let sim = cloud.sim.clone();
    let users = 20usize;
    let (first_done, all_done) = cloud.sim.block_on(async move {
        let t0 = sim.now();
        for u in 0..users {
            queue
                .send(&client, STAGES[0], Payload::from(format!("user-{u:02}")))
                .await
                .expect("intake queue");
        }
        let mut finished = 0;
        let mut first = None;
        while finished < users {
            let got = queue
                .receive(&client, "done", 10, SimDuration::from_secs(600))
                .await
                .expect("done queue");
            if !got.is_empty() && first.is_none() {
                first = Some(sim.now() - t0);
            }
            finished += got.len();
            let receipts = got.into_iter().map(|m| m.receipt).collect();
            queue.delete_batch(&client, receipts).await.expect("ack");
        }
        (first.expect("at least one signup"), sim.now() - t0)
    });

    let overhead = cloud.faas.profile().invoke_overhead.mean();
    println!("workflow stages        : {}", STAGES.len());
    println!("users signed up        : {users}");
    println!("first signup end-to-end: {:.2}s", first_done.as_secs_f64());
    println!("all signups done after : {:.2}s", all_done.as_secs_f64());
    println!();
    println!("where a single hop goes:");
    println!("  queue send                ~5ms");
    println!("  trigger dispatch          ~126ms");
    println!(
        "  invocation overhead       ~{:.0}ms",
        overhead.as_secs_f64() * 1e3
    );
    println!("  KV state read+write       ~11ms");
    println!("  business logic            ~0.5ms   <- the only part you wrote");
    println!();
    println!("the bill:\n{}", cloud.ledger.report());
    println!(
        "five hops of ~450ms overhead around ~0.5ms of logic: this is how a\n\
         sign-up workflow becomes the \"ten minutes\" the paper quotes once\n\
         real systems add retries, fan-out, and human-scale stage counts."
    );
}
