//! The determinism probe: a byte-exact snapshot of every cloud an
//! experiment builds, captured so regression tests can assert that the
//! same seed reproduces the same run bit-for-bit.
//!
//! Experiments are only trustworthy if they replay: the paper's tables
//! are *numbers*, and a nondeterministic harness can't defend them.
//! Every experiment's result carries one of these; the chaos sweep
//! harness applies the same standard to fault-injected runs.

use crate::cloud::Cloud;

/// Recorder digests and bills from each cloud an experiment built, in
/// construction order. Two runs at the same seed must compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExperimentProbe {
    /// One [`Recorder::digest`](faasim_simcore::Recorder::digest) per
    /// cloud.
    pub digests: Vec<String>,
    /// One [`Ledger::report`](faasim_pricing::Ledger::report) per cloud.
    pub bills: Vec<String>,
}

impl ExperimentProbe {
    /// A probe with nothing captured yet.
    pub fn new() -> ExperimentProbe {
        ExperimentProbe::default()
    }

    /// Snapshot `cloud`'s recorder and ledger. Call after the cloud's
    /// workload has fully run.
    pub fn capture(&mut self, cloud: &Cloud) {
        self.digests.push(cloud.recorder.digest());
        self.bills.push(cloud.ledger.report());
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}
