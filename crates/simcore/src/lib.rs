//! # faasim-simcore
//!
//! Deterministic discrete-event simulation kernel for the `faasim`
//! workspace — the substrate on which every simulated cloud service
//! (object store, KV store, queue, FaaS platform, VMs, network) runs.
//!
//! The kernel provides:
//!
//! - **Virtual time** ([`SimTime`], [`SimDuration`]): integer nanoseconds,
//!   advanced only by the scheduler, never by the host clock.
//! - **A single-threaded async executor** ([`Sim`]): tasks are ordinary
//!   futures; `sleep`, channels, semaphores and bandwidth links suspend
//!   them; ties at the same instant resolve in registration order, so a
//!   run is a pure function of (program, seed).
//! - **Seeded randomness** ([`SimRng`], [`LatencyModel`]): every component
//!   draws from an independently derived named stream.
//! - **Max–min fair bandwidth links** ([`FairShareLink`]): the contention
//!   model behind the paper's NIC-sharing results.
//! - **Metrics** ([`Recorder`], [`Histogram`], [`nearest_rank`]): counters
//!   and count/sum/min/max series summaries for the experiment harnesses.
//!
//! ## Example
//!
//! ```
//! use faasim_simcore::{Sim, SimDuration};
//!
//! let sim = Sim::new(42);
//! let s = sim.clone();
//! let elapsed = sim.block_on(async move {
//!     s.sleep(SimDuration::from_millis(250)).await;
//!     s.now()
//! });
//! assert_eq!(elapsed.as_nanos(), 250_000_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod executor;
mod fxhash;
mod future_util;
mod link;
mod metrics;
mod rng;
mod sync;
mod time;
mod wheel;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use executor::{JoinHandle, Sim, SimProfile, SimStats, Sleep, TaskId, YieldNow};
pub use future_util::{join2, join3, join_all, select2, Either, LocalBoxFuture};
pub use link::{gbps, mbps, mbytes_per_sec, Bps, FairShareLink, Transfer};
pub use metrics::{nearest_rank, CounterId, HistId, Histogram, LazyCounter, LazyHist, Recorder};
pub use rng::{LatencyModel, SimRng};
pub use sync::{
    channel, oneshot, Acquire, Canceled, Notified, Notify, OneshotReceiver,
    OneshotSender, Recv, Receiver, SemPermit, Semaphore, SendError, Sender,
};
pub use time::{SimDuration, SimTime};
