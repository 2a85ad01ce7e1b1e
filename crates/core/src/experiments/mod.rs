//! The paper's tables, figures, and case studies as runnable experiments.
//!
//! Each submodule exposes a `Params` struct (with paper-faithful
//! defaults plus a `quick()` variant for tests), a `run(params, seed)`
//! entry point, and a structured result with a `render()` method that
//! prints the paper-style table. The per-experiment index lives in
//! DESIGN.md §4.
//!
//! Each workload body is written once, against [`clients`]: `run` is the
//! body on bare service handles, and `faasim-chaos` runs the same body
//! under a fault plan (EXPERIMENTS.md "Resilience model").

pub mod agents_cmp;
pub mod bandwidth;
pub mod clients;
pub mod cold_starts;
pub mod data_shipping;
pub mod election;
pub mod prediction;
pub mod probe;
pub mod table1;
pub mod training;

pub use probe::ExperimentProbe;
