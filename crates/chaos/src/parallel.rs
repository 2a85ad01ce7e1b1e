//! Multi-core seed fan-out: run deterministic single-threaded simulations
//! on every core at once.
//!
//! Each DES instance is single-threaded and a pure function of its seed,
//! which makes a seed sweep embarrassingly parallel — the same structure
//! Lambada exploits for interactive-speed serverless analytics. The
//! [`ParallelSweep`] engine fans seeds out across plain `std::thread`
//! workers pulling from a shared atomic cursor, then reassembles results
//! **in seed order**, so a parallel sweep is byte-identical to the serial
//! one: same [`SweepReport`], same digests, same minimal failing seed.
//!
//! Determinism is preserved because no simulation state crosses threads —
//! only seeds go in and finished reports come out. Thread scheduling can
//! reorder *completion*, never *content* or *placement*.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::sweep::{run_twice, Scenario, SeedReport, SweepReport};

/// A worker pool for fanning pure `seed -> result` jobs across cores.
#[derive(Clone, Copy, Debug)]
pub struct ParallelSweep {
    workers: usize,
}

impl ParallelSweep {
    /// A pool with an explicit worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> ParallelSweep {
        ParallelSweep {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine: one worker per available core.
    pub fn auto() -> ParallelSweep {
        ParallelSweep::new(Self::available_cores())
    }

    /// Cores the OS reports as available (1 if unknown).
    pub fn available_cores() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Number of worker threads this pool uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `job` once per seed across the pool and return the outputs in
    /// **seed order** (index-aligned with `seeds`), regardless of which
    /// worker finished first. `job` must be a pure function of the seed;
    /// every simulation it builds lives and dies on one thread.
    ///
    /// A panic in any job is propagated to the caller after the other
    /// workers drain.
    pub fn map<T, F>(&self, seeds: &[u64], job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        if seeds.is_empty() {
            return Vec::new();
        }
        let workers = self.workers.min(seeds.len());
        if workers == 1 {
            return seeds.iter().map(|&s| job(s)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> =
            seeds.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let slots = &slots;
                let job = &job;
                handles.push(scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = seeds.get(i) else { break };
                    let out = job(seed);
                    *slots[i].lock().expect("slot poisoned") = Some(out);
                }));
            }
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("every seed slot filled")
            })
            .collect()
    }

    /// Sweep `scenario` over `seeds` across the pool: every seed runs
    /// twice through [`run_twice`], and a replay divergence is a failure.
    /// The [`SweepReport`] is byte-identical whatever the worker count.
    pub fn sweep(&self, scenario: &dyn Scenario, seeds: &[u64]) -> SweepReport {
        SweepReport {
            scenario: scenario.name().to_owned(),
            results: self.map(seeds, |seed| SeedReport {
                seed,
                violations: run_twice(scenario, seed).violations,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{sweep, RunReport};

    struct FailsOdd;
    impl Scenario for FailsOdd {
        fn name(&self) -> &'static str {
            "fails-odd"
        }
        fn run(&self, seed: u64) -> RunReport {
            RunReport {
                digest: format!("digest-{seed}"),
                bill: format!("bill-{seed}"),
                violations: if seed % 2 == 1 {
                    vec![format!("odd seed {seed}")]
                } else {
                    vec![]
                },
            }
        }
    }

    #[test]
    fn map_preserves_seed_order() {
        let pool = ParallelSweep::new(4);
        let seeds: Vec<u64> = (0..37).collect();
        let out = pool.map(&seeds, |s| s * 10);
        assert_eq!(out, seeds.iter().map(|s| s * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_on_empty_and_single() {
        let pool = ParallelSweep::new(8);
        assert!(pool.map(&[], |s| s).is_empty());
        assert_eq!(pool.map(&[9], |s| s + 1), vec![10]);
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let seeds: Vec<u64> = (1..=23).collect();
        let serial = sweep(&FailsOdd, &seeds);
        for workers in [1, 2, 3, 8] {
            let parallel = ParallelSweep::new(workers).sweep(&FailsOdd, &seeds);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ParallelSweep::new(0).workers(), 1);
        assert!(ParallelSweep::auto().workers() >= 1);
    }

    #[test]
    fn panics_propagate() {
        let pool = ParallelSweep::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&[1, 2, 3, 4], |s| {
                if s == 3 {
                    panic!("boom at {s}");
                }
                s
            })
        }));
        assert!(caught.is_err());
    }
}
