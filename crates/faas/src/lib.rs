//! # faasim-faas
//!
//! A Lambda-like Functions-as-a-Service platform over the simulated
//! cloud, reproducing the constraints the paper's §3 enumerates:
//!
//! 1. **Limited lifetimes** — invocations are killed at 15 minutes;
//!    container warm state is best-effort and never guaranteed.
//! 2. **I/O bottlenecks** — function containers are packed onto shared
//!    host VMs whose NIC is fair-shared (538 Mbps alone, ~28.7 Mbps at
//!    20-way packing).
//! 3. **Communication through slow storage** — functions are not
//!    network-addressable; the only way in is an invocation, the only way
//!    out is a storage/queue service.
//! 4. **No specialized hardware** — the platform exposes exactly one
//!    resource knob, memory, which also sets the CPU share
//!    (1,792 MB ≙ 1 reference core, capped at 3,008 MB).
//!
//! Billing is per-request plus GB-seconds in 100 ms increments, matching
//! the 2018 price card in `faasim-pricing`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
mod config;
mod platform;
mod trigger;

pub use codec::{decode_batch, encode_batch};
pub use config::FaasProfile;
pub use platform::{
    FaasFaults, FaasPlatform, FnCtx, FnError, FunctionId, FunctionSpec, HandlerResult,
    InvokeOutcome, PackingStats,
};
pub use trigger::{add_blob_trigger, add_queue_trigger, BlobTriggerBuilder, TriggerHandle};
