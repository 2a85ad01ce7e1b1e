//! # faasim-resilience
//!
//! Resilience primitives for applications built on the simulated cloud.
//!
//! The paper's §2 platform contract is hostile to correctness: functions
//! are invoked **at least once**, may be killed and restarted mid-flight,
//! and every service they compose with (S3, DynamoDB, SQS) throttles,
//! 503s, or redelivers. Real serverless applications answer with a small
//! set of disciplines; this crate makes each one an explicit, composable,
//! deterministic primitive:
//!
//! - [`RetryPolicy`] — exponential backoff with bounded jitter and
//!   per-call timeouts, and the one retry loop behind every retrying
//!   client: each retry, backoff sleep, and per-call timeout stays
//!   inside a propagated [`Deadline`].
//! - [`Deadline`] — an absolute virtual-time budget threaded through a
//!   request's whole call tree.
//! - [`CircuitBreaker`] — closed → open → half-open, with transitions
//!   driven purely by simulation time and call outcomes (no randomness),
//!   so brownouts shed load instead of retry-storming.
//! - [`IdempotencyStore`] — a KV-backed effect memo keyed by invocation
//!   idempotency keys: at-least-once deliveries and platform retries
//!   collapse to exactly-once *observable* effects.
//! - [`Retrying`] — any service handle wrapped in that loop:
//!   [`RetryingKv`], [`RetryingBlob`], [`RetryingQueue`] and
//!   [`RetryingInvoker`] are its aliases. [`Storage`] is what makes a
//!   service's own operations retryable through it, and [`Invoke`] is
//!   what a front door implements to be invoked through it.
//!
//! Everything draws randomness only from named simulation RNG streams
//! (and only when jitter is non-zero), so a run under these wrappers is
//! byte-for-byte reproducible from its seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod breaker;
mod clients;
mod deadline;
mod idempotency;
mod retry;

pub use breaker::{BreakerConfig, BreakerError, BreakerState, CircuitBreaker};
pub use clients::{
    settled, Invoke, Retrying, RetryingBlob, RetryingInvoker, RetryingKv, RetryingQueue, Storage,
};
pub use deadline::Deadline;
pub use idempotency::{Effect, IdempotencyStore};
pub use retry::{RetryError, RetryPolicy};
