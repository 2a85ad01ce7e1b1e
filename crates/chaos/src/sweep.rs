//! The seed-sweep harness: run a scenario across many seeds, prove
//! every run replays byte-identically, and report the minimal failing
//! seed.

use std::fmt;

use faasim::Cloud;

use crate::invariants::check_cloud;
use crate::parallel::ParallelSweep;

/// What one scenario run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Byte-exact digest of the run's [`Recorder`](faasim_simcore::Recorder)
    /// — counters and histogram summaries.
    pub digest: String,
    /// The formatted bill from the run's ledger.
    pub bill: String,
    /// Invariant violations found by the scenario (empty = pass).
    pub violations: Vec<String>,
}

impl RunReport {
    /// Close out a cloud whose workload has finished: the scenario's own
    /// `violations`, then every [`check_cloud`] violation, with the
    /// cloud's recorder digest and bill.
    pub(crate) fn audit(cloud: &Cloud, mut violations: Vec<String>) -> RunReport {
        violations.extend(check_cloud(cloud));
        RunReport {
            digest: cloud.recorder.digest(),
            bill: cloud.ledger.report(),
            violations,
        }
    }
}

/// A chaos scenario: a workload plus its invariants, parameterised only
/// by the seed. `run` must be a pure function of `seed` — the harness
/// replays every seed twice and treats any divergence as a failure. A
/// scenario is `Sync` so any sweep can fan its seeds across threads.
pub trait Scenario: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Execute the scenario at `seed` and report.
    fn run(&self, seed: u64) -> RunReport;
}

/// The outcome at one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedReport {
    /// The seed swept.
    pub seed: u64,
    /// Violations: the scenario's own, plus any replay divergence.
    pub violations: Vec<String>,
}

impl SeedReport {
    /// Did this seed pass every check?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The outcome of a whole sweep. Comparable with `==` so the parallel
/// engine can be asserted byte-identical to the serial path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// The scenario's name.
    pub scenario: String,
    /// One report per seed, in sweep order.
    pub results: Vec<SeedReport>,
}

impl SweepReport {
    /// True when every seed passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(SeedReport::passed)
    }

    /// The smallest failing seed — the one to reproduce first, since
    /// `scenario.run(seed)` is deterministic.
    pub fn minimal_failing_seed(&self) -> Option<u64> {
        self.results
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.seed)
            .min()
    }

    /// Count of failing seeds.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.passed()).count()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep {}: {} seeds, {} failed",
            self.scenario,
            self.results.len(),
            self.failures()
        )?;
        for r in &self.results {
            if r.passed() {
                continue;
            }
            writeln!(f, "  seed {} FAILED:", r.seed)?;
            for v in &r.violations {
                writeln!(f, "    - {v}")?;
            }
        }
        if let Some(seed) = self.minimal_failing_seed() {
            writeln!(
                f,
                "  reproduce with: scenario.run({seed}) — runs are deterministic"
            )?;
        }
        Ok(())
    }
}

/// Sweep `scenario` over `seeds` on the calling thread: a one-worker
/// [`ParallelSweep::sweep`]. Each seed runs **twice**; beyond the
/// scenario's own invariants, the two runs must produce byte-identical
/// recorder digests and bills, or the seed fails with a replay-divergence
/// violation. Determinism is not an aspiration here — it is an invariant.
pub fn sweep(scenario: &dyn Scenario, seeds: &[u64]) -> SweepReport {
    ParallelSweep::new(1).sweep(scenario, seeds)
}

/// Run `scenario` at `seed` twice. Returns the first run's report, with a
/// replay-divergence violation added for whichever of digest and bill the
/// second run did not reproduce.
pub fn run_twice(scenario: &dyn Scenario, seed: u64) -> RunReport {
    let mut first = scenario.run(seed);
    let second = scenario.run(seed);
    if first.digest != second.digest {
        first.violations.push(format!(
            "replay divergence at seed {seed}: recorder digests differ \
             between two identical runs"
        ));
    }
    if first.bill != second.bill {
        first.violations.push(format!(
            "replay divergence at seed {seed}: bills differ between two \
             identical runs"
        ));
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FailsOdd;
    impl Scenario for FailsOdd {
        fn name(&self) -> &'static str {
            "fails-odd"
        }
        fn run(&self, seed: u64) -> RunReport {
            RunReport {
                digest: format!("digest-{seed}"),
                bill: "$0".to_owned(),
                violations: if seed % 2 == 1 {
                    vec![format!("odd seed {seed}")]
                } else {
                    vec![]
                },
            }
        }
    }

    #[test]
    fn sweep_finds_minimal_failing_seed() {
        let report = sweep(&FailsOdd, &[2, 9, 4, 3, 6]);
        assert!(!report.passed());
        assert_eq!(report.failures(), 2);
        assert_eq!(report.minimal_failing_seed(), Some(3));
        let text = report.to_string();
        assert!(text.contains("seed 9 FAILED"), "{text}");
    }

    struct NonDeterministic(std::sync::atomic::AtomicU64);
    impl Scenario for NonDeterministic {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn run(&self, _seed: u64) -> RunReport {
            let run = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            RunReport {
                digest: format!("run-{run}"),
                bill: "$0".to_owned(),
                violations: vec![],
            }
        }
    }

    #[test]
    fn replay_divergence_is_a_failure() {
        let report = sweep(&NonDeterministic(Default::default()), &[1]);
        assert!(!report.passed());
        assert!(report.results[0].violations[0].contains("replay divergence"));
    }
}
