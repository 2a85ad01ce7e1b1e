//! The repo benchmark: four workloads, end-to-end and per-layer metrics,
//! and a traced run. See `README.md` and `../BENCHMARK.json`.
//!
//! Everything here reaches the simulator through the crates' public items
//! only, and measures it from outside.

pub mod budget;
pub mod calib;
pub mod host;
pub mod json;
pub mod kernels;
pub mod metric;
pub mod paper_refs;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;
