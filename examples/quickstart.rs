//! Quickstart: build a simulated 2018 cloud, deploy a function, invoke
//! it, touch storage, and read the bill.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use faasim::faas::FunctionSpec;
use faasim::payload::Payload;
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};

fn main() {
    // A deterministic cloud calibrated to Fall-2018 AWS. `exact()` pins
    // every latency to its calibrated mean; drop it for realistic jitter.
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 42);
    cloud.blob.create_bucket("greetings");

    // Register a function: closures over the service handles are the
    // "deployment package".
    let blob = cloud.blob.clone();
    cloud.faas.register(FunctionSpec::new(
        "greet",
        256,                           // MB — also buys the CPU share
        SimDuration::from_secs(30),    // user timeout (platform caps at 15 min)
        move |ctx, payload| {
            let blob = blob.clone();
            async move {
                let name = String::from_utf8_lossy(&payload.to_vec()).to_string();
                let message = format!("hello, {name}!");
                // I/O from inside a function pays the shared host NIC and
                // the service's per-request latency.
                blob.put(ctx.host(), "greetings", &name, Payload::from(message.clone()))
                    .await
                    .expect("bucket exists");
                Ok(Payload::from(message))
            }
        },
    ));

    // Invoke twice: the first call cold-starts a container (~5.3 s in
    // 2018), the second hits it warm (~300 ms — the paper's Table 1).
    let faas = cloud.faas.clone();
    let (cold, warm) = cloud.sim.block_on(async move {
        let cold = faas.invoke("greet", Payload::from_static(b"ada")).await;
        let warm = faas.invoke("greet", Payload::from_static(b"grace")).await;
        (cold, warm)
    });

    println!("cold invoke: {} (cold={})", fmt(cold.total), cold.cold);
    println!("warm invoke: {} (cold={})", fmt(warm.total), warm.cold);
    println!(
        "reply: {}",
        String::from_utf8_lossy(&warm.result.expect("handler succeeded").to_vec())
    );
    println!("\nobjects stored: {}", cloud.blob.object_count());
    println!("virtual time elapsed: {}", cloud.sim.now());
    println!("\nthe bill:\n{}", cloud.ledger.report());
}

fn fmt(d: SimDuration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}
