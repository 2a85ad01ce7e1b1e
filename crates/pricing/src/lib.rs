//! # faasim-pricing
//!
//! The money side of the simulated cloud: a [`PriceBook`] of per-unit list
//! prices (calibrated to Fall-2018 AWS, the era the paper measured) and a
//! shared [`Ledger`] that every service charges line items into.
//!
//! The paper's cost claims — $0.29 vs $0.04 for model training, $1,584/hr
//! vs $27.84/hr for prediction serving, $450/hr for a 1,000-node leader
//! election — are all reproduced by services metering usage into the
//! ledger at these prices.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod book;
mod ledger;

pub use book::PriceBook;
pub use ledger::{format_dollars, ItemId, LazyItem, Ledger, Service};
