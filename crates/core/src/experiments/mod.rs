//! The paper's tables, figures, and case studies as runnable experiments.
//!
//! Each submodule exposes a `Params` struct (with paper-faithful
//! defaults plus a `quick()` variant for tests), a `run(params, seed)`
//! entry point, and a structured result with a `render()` method that
//! prints the paper-style table. The per-experiment index lives in
//! DESIGN.md §4.
//!
//! Every module additionally exposes a `resilient(seed, chaos)` variant
//! built on the `faasim-resilience` primitives (idempotency keys,
//! circuit breakers, deadline budgets, retrying clients). These run a
//! scaled-down workload, apply the caller's fault plan via the `chaos`
//! hook, never panic on platform failures, and return a
//! [`ResilientReport`] of invariant violations plus a determinism
//! probe — the substrate of the `chaos-experiments` sweep.

pub mod agents_cmp;
pub mod bandwidth;
pub mod cold_starts;
pub mod data_shipping;
pub mod election;
pub mod prediction;
pub mod probe;
pub mod table1;
pub mod training;

pub use probe::{check_cloud, ExperimentProbe, ResilientReport};
