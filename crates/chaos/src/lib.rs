//! # faasim-chaos
//!
//! Deterministic fault injection and a seed-sweep chaos harness for the
//! simulated cloud.
//!
//! The paper's §3 argues that today's FaaS platforms force applications
//! into "data-shipping" compositions glued together by storage, queues,
//! and triggers — exactly the compositions that fail in interesting ways
//! when the platform misbehaves. This crate makes the misbehaviour a
//! first-class, *reproducible* experiment input:
//!
//! - [`FaultPlan`] configures every service tier's fault hooks in one
//!   place — network delay spikes and packet loss, KV throttling, blob
//!   503s, queue duplicate/delayed delivery, mid-flight function kills —
//!   plus scheduled cold-start storms.
//! - The scenarios: [`CrdtSync`], [`QueuePipeline`], [`LinkChurn`],
//!   [`NoisyNeighbor`], [`TraceReplay`], and the paper's eight
//!   experiments, `faasim::experiments`' own bodies run on the [`Faulty`]
//!   backend: a fault plan on every cloud and the retrying clients of
//!   `faasim-resilience` ([`experiment_scenarios`]). Each is a workload
//!   plus the invariant it must keep; [`check_cloud`] is the bundle of
//!   global invariants every scenario over a `Cloud` ends with.
//! - [`sweep`] runs a [`Scenario`] across many seeds, replays every seed
//!   twice to prove the run is deterministic (byte-identical recorder
//!   digest and bill), checks invariants, and reports the minimal
//!   failing seed so a failure is a one-liner to reproduce.
//! - [`ParallelSweep`] is the multi-core twin of [`sweep`]: each
//!   single-threaded DES instance is a pure function of its seed, so
//!   seeds fan out across `std::thread` workers and reassemble in seed
//!   order — the report is byte-identical to the serial path, just
//!   faster.
//!
//! Every random draw comes from the simulation's named RNG streams, and
//! every fault hook only consumes randomness when its probability is
//! non-zero — so enabling chaos never perturbs a fault-free run at the
//! same seed, and a failing seed replays exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod faults;
mod hardened;
mod invariants;
mod parallel;
mod scenarios;
mod sweep;
mod trace;

pub use faults::FaultPlan;
pub use hardened::{experiment_scenarios, ExperimentScenario, Faulty, Retried, RetriedInvoker};
pub use invariants::{check_cloud, ledger_consistent, message_conservation, queue_conservation};
pub use parallel::ParallelSweep;
pub use scenarios::{CrdtSync, LinkChurn, NoisyNeighbor, QueuePipeline};
pub use sweep::{run_twice, sweep, RunReport, Scenario, SeedReport, SweepReport};
pub use trace::TraceReplay;
