//! The paper's §2 "easy case": **embarrassingly parallel functions** —
//! a Seattle-Times-style image-resizing pipeline where every upload to a
//! bucket is followed by an independent thumbnailing invocation.
//!
//! This is the workload class where FaaS genuinely shines: requests never
//! talk to each other, so autoscaling does all the work. Watch the
//! platform fan out to many containers with no capacity planning — and
//! then notice on the bill that you paid only for what ran.
//!
//! ```text
//! cargo run --example image_pipeline
//! ```

use faasim::faas::FunctionSpec;
use faasim::payload::Payload;
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};

fn main() {
    let cloud = Cloud::new(CloudProfile::aws_2018(), 7);
    cloud.blob.create_bucket("uploads");
    cloud.blob.create_bucket("thumbnails");

    // The thumbnailer: fetch the original, "resize" (CPU work proportional
    // to size), store the thumbnail.
    let blob = cloud.blob.clone();
    cloud.faas.register(FunctionSpec::new(
        "thumbnail",
        1_024,
        SimDuration::from_secs(60),
        move |ctx, key_bytes| {
            let blob = blob.clone();
            async move {
                let key = String::from_utf8_lossy(&key_bytes.to_vec()).to_string();
                let original = blob
                    .get(ctx.host(), "uploads", &key)
                    .await
                    .expect("uploaded object");
                // ~1 reference-core-millisecond per 100 KB of image.
                let work =
                    SimDuration::from_micros(original.len() as u64 / 100);
                ctx.cpu(work).await;
                let thumb = Payload::from(vec![0u8; original.len() / 20]);
                blob.put(ctx.host(), "thumbnails", &format!("{key}.thumb"), thumb)
                    .await
                    .expect("thumbnail bucket");
                Ok(Payload::new())
            }
        },
    ));

    // A bursty photographer: 200 uploads of 0.5–4 MB, all at once, each
    // invoking the thumbnailer on its key once stored.
    let uploader = cloud.client_host();
    let blob = cloud.blob.clone();
    let faas = cloud.faas.clone();
    let sim = cloud.sim.clone();
    cloud.sim.spawn(async move {
        let mut rng = sim.rng("uploads");
        let futs: Vec<_> = (0..200)
            .map(|i| {
                let blob = blob.clone();
                let faas = faas.clone();
                let uploader = uploader.clone();
                let size = rng.range_u64(500_000..4_000_000) as usize;
                async move {
                    let key = format!("img-{i:03}.jpg");
                    blob.put(&uploader, "uploads", &key, Payload::from(vec![0u8; size]))
                        .await
                        .expect("upload");
                    faas.invoke("thumbnail", key.into_bytes())
                        .await
                        .result
                        .expect("thumbnail");
                }
            })
            .collect();
        faasim::simcore::join_all(futs).await;
    });
    cloud.sim.run();

    let thumbs = cloud.recorder.counter("blob.put") - 200; // minus originals
    println!("uploads processed   : 200");
    println!("thumbnails written  : {thumbs}");
    println!(
        "cold starts         : {} (then {} warm reuses)",
        cloud.recorder.counter("faas.invoke.cold"),
        cloud.recorder.counter("faas.invoke.warm"),
    );
    println!("containers at peak  : {}", cloud.faas.container_count());
    println!("function hosts used : {}", cloud.faas.host_count());
    println!("wall-clock (virtual): {}", cloud.sim.now());
    println!("\nthe bill:\n{}", cloud.ledger.report());
    println!(
        "no servers were provisioned, no capacity was planned — this is the\n\
         \"one step forward\" the paper grants FaaS before taking two back."
    );
}
