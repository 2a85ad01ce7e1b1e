//! # faasim
//!
//! A from-scratch reproduction of *"Serverless Computing: One Step
//! Forward, Two Steps Back"* (Hellerstein et al., CIDR 2019) on a
//! deterministic simulated cloud.
//!
//! The workspace builds every system the paper measures — a Lambda-like
//! FaaS platform, S3-like object store, DynamoDB-like KV store, SQS-like
//! queue, EC2-like serverful compute, and a datacenter network with
//! fair-shared NICs — over a discrete-event kernel, then re-runs the
//! paper's Table 1, Figure 1, and all three §3.1 case studies on it.
//!
//! Entry points:
//! - [`Cloud`] / [`CloudProfile`]: compose a calibrated cloud.
//! - [`experiments`]: each table/figure as a parameterized experiment.
//! - [`trends`]: the Figure 1 adoption-curve model.
//! - [`report`]: the plain-text tables the experiments render, and the
//!   paper-vs-measured row.
//!
//! ```
//! use faasim::payload::Payload;
//! use faasim::{Cloud, CloudProfile};
//!
//! let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 42);
//! cloud.blob.create_bucket("demo");
//! let host = cloud.client_host();
//! let blob = cloud.blob.clone();
//! cloud.sim.block_on(async move {
//!     blob.put(&host, "demo", "hello", Payload::from_static(b"world"))
//!         .await
//!         .unwrap();
//!     blob.get(&host, "demo", "hello").await.unwrap();
//! });
//! // Table 1's S3 row: a 1KB-class write+read costs ~106 ms.
//! let ms = cloud.sim.now().as_secs_f64() * 1e3;
//! assert!((ms - 106.0).abs() < 2.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cloud;
pub mod experiments;
pub mod report;
pub mod trends;

pub use cloud::{Cloud, CloudProfile};

// Re-export the service crates so downstream users need only `faasim`.
pub use faasim_agents as agents;
pub use faasim_blob as blob;
pub use faasim_compute as compute;
pub use faasim_faas as faas;
pub use faasim_kv as kv;
pub use faasim_ml as ml;
pub use faasim_net as net;
pub use faasim_payload as payload;
pub use faasim_pricing as pricing;
pub use faasim_protocols as protocols;
pub use faasim_query as query;
pub use faasim_queue as queue;
pub use faasim_simcore as simcore;
