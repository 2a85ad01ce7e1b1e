//! A multi-tenant front door for the simulated FaaS platform.
//!
//! The paper's "two steps back" critique includes the missing platform
//! story for multi-tenant contention: nothing stands between one
//! tenant's burst and everyone else's latency. This crate is that
//! missing tier — a gateway every invocation traverses, owning:
//!
//! - **per-tenant token buckets** (rate + burst, refilled lazily on sim
//!   time) and a **per-tenant concurrency semaphore**;
//! - a **load shedder** that sheds the lowest-priority tiers first as
//!   gateway-wide in-flight crosses per-tier watermarks;
//! - **per-tenant circuit breakers** (reusing `faasim-resilience`) so a
//!   tenant whose functions are crashing stops consuming admission
//!   slots;
//! - **gateway-path billing** into the ledger, so overload economics
//!   show up in $/hr (shed traffic still bills).
//!
//! Admission refusals are typed [`GatewayError`]s a [`RetryingGateway`]
//! backs off on; everything is deterministic in simulation time, so
//! replay digests stay byte-identical.

#![warn(missing_docs)]

mod bucket;
mod gateway;
mod retrying;
mod stats;

pub use gateway::{Admission, Gateway, GatewayConfig, GatewayError, TenantConfig, TIERS};
pub use retrying::RetryingGateway;
pub use stats::{GatewayStats, TenantStats};
