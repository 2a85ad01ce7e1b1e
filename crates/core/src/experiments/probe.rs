//! The determinism probe: a byte-exact snapshot of every cloud an
//! experiment builds, captured so regression tests can assert that the
//! same seed reproduces the same run bit-for-bit.
//!
//! Experiments are only trustworthy if they replay: the paper's tables
//! are *numbers*, and a nondeterministic harness can't defend them.
//! Every experiment's result carries one of these; the chaos sweep
//! harness applies the same standard to fault-injected runs.

use faasim_resilience::{ledger_consistent, message_conservation, queue_conservation};

use crate::cloud::Cloud;

/// Run every global invariant against a cloud; returns the list of
/// violations (empty means healthy).
pub fn check_cloud(cloud: &Cloud) -> Vec<String> {
    [
        message_conservation(&cloud.recorder),
        queue_conservation(&cloud.recorder, &cloud.queue),
        ledger_consistent(&cloud.ledger),
    ]
    .into_iter()
    .flatten()
    .collect()
}

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

    /// Number of clouds captured.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

/// What a `resilient()` experiment variant hands back: the determinism
/// probe of every cloud it built, plus every end-to-end invariant
/// violation it observed. An empty `violations` means the workload
/// either completed correctly or declared failure cleanly — never
/// silently corrupted state.
#[derive(Clone, Debug, Default)]
pub struct ResilientReport {
    /// Byte-exact determinism probe (digests + bills, one per cloud).
    pub probe: ExperimentProbe,
    /// Human-readable invariant violations (empty means healthy).
    pub violations: Vec<String>,
}

impl ResilientReport {
    /// A report with nothing recorded yet.
    pub fn new() -> ResilientReport {
        ResilientReport::default()
    }

    /// Record a violation.
    pub fn violation(&mut self, msg: impl Into<String>) {
        self.violations.push(msg.into());
    }

    /// Close out one of the experiment's clouds once its workload has
    /// fully run: record every [`check_cloud`] violation as
    /// `"{label}: {violation}"`, then capture the determinism probe.
    pub fn audit(&mut self, label: &str, cloud: &Cloud) {
        let violations = check_cloud(cloud);
        self.violations
            .extend(violations.iter().map(|v| format!("{label}: {v}")));
        self.probe.capture(cloud);
    }

    /// Record a violation unless `ok` holds.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(msg());
        }
    }
}
