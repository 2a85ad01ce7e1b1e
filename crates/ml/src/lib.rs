//! # faasim-ml
//!
//! The machine-learning workloads from the paper's §3.1 case studies,
//! implemented for real (not mocked):
//!
//! - [`Mlp`]: the exact architecture from the training case study —
//!   6,787 bag-of-words features → two ReLU hidden layers of 10 → scalar
//!   rating prediction — with sparse-aware forward/backward.
//! - [`Adam`]: the optimizer the paper names, at its learning rate 0.001.
//! - [`BagOfWords`]: the featurization pipeline.
//! - [`ReviewGenerator`]: a deterministic synthetic stand-in for the
//!   90 GB Amazon review corpus (documented substitution; see DESIGN.md).
//! - [`DirtyWordModel`]: the blacklist classifier from the prediction-
//!   serving case study.
//!
//! This crate is pure computation, usable on its own: it never touches a
//! `Sim`, and takes from `faasim-simcore` only the workspace's one
//! deterministic hasher. The `faasim` core runs these workloads *on* the
//! simulated cloud.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adam;
mod classifier;
mod featurize;
mod mlp;
mod reviews;
mod sparse;

pub use adam::{Adam, Trainer};
pub use classifier::{synthetic_document, Censored, DirtyWordModel};
pub use featurize::{tokenize, BagOfWords, PAPER_FEATURES};
pub use mlp::{Dense, Gradients, Mlp, Tape};
pub use reviews::{featurized_bytes, Review, ReviewGenConfig, ReviewGenerator};
pub use sparse::SparseVec;
