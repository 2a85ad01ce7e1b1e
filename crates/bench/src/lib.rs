//! # faasim-bench
//!
//! The wall-clock kernel suite ([`wallclock`]) and the gate and trend over
//! its committed snapshots ([`compare`]). Four `harness = false` bench
//! targets drive them: `wallclock` (`make bench`), `bench_compare`,
//! `bench_trend` and `profile`. The paper's tables are printed by the
//! root package's `paper_tables` example, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod wallclock;
