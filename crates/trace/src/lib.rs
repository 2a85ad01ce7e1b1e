//! # faasim-trace
//!
//! Trace-driven workload replay for the simulated serverless platform:
//! the scenario engine the paper's argument needs — platforms must be
//! judged under production workload *shapes* (heavy-tailed popularity,
//! bursts, diurnal cycles), not hand-written toy sequences.
//!
//! Three pieces:
//!
//! - [`TraceGenerator`] (`workload.rs`): a lazy, seed-deterministic
//!   iterator of `(time, app, func, payload-size)` events in the style of
//!   the Azure Functions traces — Zipf app popularity, per-app
//!   Poisson/bursty/diurnal arrivals, per-function execution-time and
//!   memory profiles. A million-invocation trace costs `O(apps)` memory.
//! - [`QuantileSketch`] (`sketch.rs`): a deterministic streaming quantile
//!   sketch (log-bucketed, DDSketch-style) with a guaranteed relative
//!   error bound — p99.9 over millions of samples in a few KB.
//! - [`replay`] ([`ReplayReport`]): streams a trace through the platform
//!   (optionally via the resilience layer under a chaos plan) and reports
//!   cold-start rate, latency p50/p95/p99/p99.9, per-app fairness spread,
//!   container packing density, and $/hr from the pricing ledger.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod replay;
mod sketch;
mod workload;

pub use replay::{
    replay, replay_with, GatewaySpec, ReplayConfig, ReplayOutcome, ReplayReport, EXEC_CV,
};
pub use sketch::QuantileSketch;
pub use workload::{
    function_name, tenant_of, ArrivalKind, TraceConfig, TraceEvent, TraceGenerator, EXEC_MEAN_MS,
    FUNC_ZIPF_S,
};
