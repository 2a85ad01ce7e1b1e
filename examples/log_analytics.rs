//! The paper's §2 "orchestration functions" pattern, end to end: the
//! reference architecture where "Lambda functions ... orchestrate
//! analytics queries that are executed by AWS Athena, an autoscaling
//! query service that works with data in S3."
//!
//! A day of synthetic access logs lands in the object store; a tiny
//! Lambda orchestrates a status-code histogram over them. The function
//! does no heavy lifting — the query service scans next to the data —
//! which is why this is one of the few patterns where 2018 FaaS works.
//!
//! ```text
//! cargo run --release --example log_analytics
//! ```

use faasim::faas::FunctionSpec;
use faasim::payload::Payload;
use faasim::query::{Aggregate, QuerySpec};
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};

fn main() {
    let cloud = Cloud::new(CloudProfile::aws_2018(), 21);
    cloud.blob.create_bucket("access-logs");

    // A day of logs: 24 hourly objects of synthetic requests.
    let statuses = ["200", "200", "200", "200", "304", "404", "500"];
    let uploader = cloud.client_host();
    let blob = cloud.blob.clone();
    let sim = cloud.sim.clone();
    cloud.sim.block_on(async move {
        let mut rng = sim.rng("logs");
        for hour in 0..24 {
            let mut lines = String::new();
            for _ in 0..5_000 {
                let status = statuses[rng.range_usize(0..statuses.len())];
                let path = format!("/item/{}", rng.range_u64(0..500));
                lines.push_str(&format!("GET {path} {status}\n"));
            }
            blob.put(
                &uploader,
                "access-logs",
                &format!("2018-11-02/{hour:02}.log"),
                Payload::from(lines),
            )
            .await
            .expect("bucket");
        }
    });
    println!(
        "uploaded 24 hourly log objects, {} bytes total",
        cloud.blob.stored_bytes()
    );

    // The orchestrator function: 256 MB is plenty, because Athena-like
    // workers do the heavy lifting.
    let query = cloud.query.clone();
    cloud.faas.register(FunctionSpec::new(
        "daily-report",
        256,
        SimDuration::from_secs(120),
        move |ctx, day| {
            let query = query.clone();
            async move {
                let day = String::from_utf8_lossy(&day.to_vec()).to_string();
                let out = query
                    .run(
                        ctx.host(),
                        QuerySpec::new(
                            "access-logs",
                            format!("{day}/"),
                            Aggregate::GroupCount { field: 2 },
                        ),
                    )
                    .await
                    .expect("query");
                let mut report = String::new();
                for (status, count) in &out.rows {
                    report.push_str(&format!("{status} {count}\n"));
                }
                Ok(Payload::from(report))
            }
        },
    ));

    let faas = cloud.faas.clone();
    let out = cloud.sim.block_on(async move {
        faas.invoke("daily-report", Payload::from_static(b"2018-11-02"))
            .await
    });
    println!("\nstatus histogram for 2018-11-02:");
    print!("{}", String::from_utf8_lossy(&out.result.as_ref().expect("report").to_vec()));
    println!("\nend-to-end latency : {:.2}s (incl. cold start)", out.total.as_secs_f64());
    println!("function billed    : {:.1}s of a 0.25 GB function", out.billed.as_secs_f64());
    println!("\nthe bill:\n{}", cloud.ledger.report());
    println!(
        "the function was a thin orchestrator; the scan ran next to the data.\n\
         The paper's point: this works *because* the heavy lifting happened in a\n\
         proprietary autoscaling service, not in the function."
    );
}
