//! # faasim-protocols
//!
//! Distributed protocols on the simulated cloud — the fine-grained
//! coordination the paper argues current FaaS "stymies".
//!
//! The centerpiece is Garcia-Molina's **bully leader election** (the
//! paper's §3.1 distributed-computing case study), implemented once over
//! a transport abstraction and run two ways:
//!
//! - [`BlackboardTransport`]: DynamoDB-style — per-node KV inboxes polled
//!   four times a second, leader liveness in a shared cell. This is the
//!   configuration the paper measures at 16.7 s per election round and
//!   ≥$450/hr for 1,000 nodes.
//! - [`SocketTransport`]: directly addressed agents, the §4 alternative,
//!   with sub-millisecond message delivery and sub-second failover.
//!
//! The crate also ships a state-based **CRDT**, the grow-only
//! [`GCounter`] — the paper's §3.2 pointer to "disorderly" programming
//! models that stay correct on loosely consistent storage.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bully;
mod crdt;
mod message;
mod transport;

pub use bully::{
    spawn_node, BullyConfig, CompletedRound, ElectionObserver, NodeHandle,
};
pub use crdt::{Crdt, GCounter};
pub use message::{ElectionMsg, NodeId};
pub use transport::{
    build_directory, BlackboardTransport, SocketTransport, Transport, ELECTION_PORT,
};
