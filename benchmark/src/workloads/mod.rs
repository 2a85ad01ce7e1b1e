//! The four workloads. Each is one set of generated inputs plus the calls
//! that push them through the simulator; why each exists is in the README
//! and in `BENCHMARK.json`.

mod data_plane;
mod paper_suite;
mod replay;

pub use data_plane::{link_fan_in, log_object, Flow, SYNTH_LINE};
pub use replay::ReplayCounts;

use crate::span::Tracer;

/// Workload names, in the order a full set runs them.
pub const NAMES: [&str; 4] = [
    "replay_direct",
    "replay_frontdoor_faulty",
    "data_plane",
    "paper_suite",
];

/// Input sizes. `--smoke` runs the same code at [`Sizes::smoke`].
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Trace arrivals per timed replay iteration.
    pub replay_arrivals: u64,
    /// Trace arrivals of the replay warm-up iteration.
    pub warmup_arrivals: u64,
    /// Concurrent flows of the `data_plane` link fan-in.
    pub flows: u64,
    /// Inline corpus: objects × bytes each.
    pub corpus_objects: usize,
    /// Bytes per inline corpus object.
    pub corpus_object_bytes: usize,
    /// Symbolic corpus: objects × bytes each.
    pub synth_objects: usize,
    /// Bytes per symbolic corpus object.
    pub synth_object_bytes: u64,
    /// Rounds of the payload slice/concat/line-count loop.
    pub payload_rounds: usize,
    /// Experiments at `quick()` instead of paper-scale parameters.
    pub quick_experiments: bool,
    /// Seeds per chaos sweep in `paper_suite`.
    pub sweep_seeds: u64,
}

impl Sizes {
    /// [`Sizes::smoke`] for a `--smoke` run, [`Sizes::full`] otherwise.
    pub fn for_run(smoke: bool) -> Sizes {
        if smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    /// The sizes `BENCHMARK.json` is defined at.
    pub fn full() -> Sizes {
        Sizes {
            replay_arrivals: 250_000,
            warmup_arrivals: 100_000,
            flows: 150_000,
            corpus_objects: 10,
            corpus_object_bytes: 5 * 1024 * 1024,
            synth_objects: 30,
            synth_object_bytes: 1024 * 1024 * 1024,
            payload_rounds: 150,
            quick_experiments: false,
            sweep_seeds: 8,
        }
    }

    /// Shrunk sizes for the `cargo test` smoke run.
    pub fn smoke() -> Sizes {
        Sizes {
            replay_arrivals: 20_000,
            warmup_arrivals: 5_000,
            flows: 10_000,
            corpus_objects: 2,
            corpus_object_bytes: 256 * 1024,
            synth_objects: 2,
            synth_object_bytes: 1024 * 1024,
            payload_rounds: 10,
            quick_experiments: true,
            sweep_seeds: 2,
        }
    }
}

/// What one iteration of a workload did.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Units of work completed (invocations or passes).
    pub units: u64,
    /// Operations attempted, exact for a seed.
    pub attempted: u64,
    /// Operations that failed, exact for a seed.
    pub failed: u64,
    /// Recorder digest, bill and report of the iteration; every iteration
    /// of a run must produce the same bytes.
    pub fingerprint: String,
    /// Output checks that did not hold (empty = correct).
    pub violations: Vec<String>,
    /// Exact per-layer counts and simulated statistics by metric name,
    /// filled only when the iteration was asked to count.
    pub counts: Vec<(&'static str, f64)>,
    /// The raw counts behind `counts`, for the replay budget.
    pub replay: Option<ReplayCounts>,
}

/// A workload whose inputs are built and whose caches are warm.
pub trait Workload {
    /// The unit `work_per_s` counts.
    fn unit(&self) -> &'static str;

    /// Run one iteration. With `count`, also read the exact per-layer
    /// counts afterwards (costs host time; never set on a timed iteration).
    fn iterate(&mut self, tr: &Tracer, count: bool) -> Iteration;

    /// Traced-only calls into layers that the iteration reaches only
    /// indirectly, so they get a span of their own.
    fn probes(&mut self, _tr: &Tracer) {}
}

/// Set `name` up for `seed`: build its inputs and run its warm-up. `None`
/// for an unknown name.
pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "replay_direct" => Box::new(replay::Replay::direct(seed, sizes)),
        "replay_frontdoor_faulty" => Box::new(replay::Replay::frontdoor_faulty(seed, sizes)),
        "data_plane" => Box::new(data_plane::DataPlane::new(seed, sizes)),
        "paper_suite" => Box::new(paper_suite::PaperSuite::new(seed, sizes)),
        _ => return None,
    })
}

/// 64-bit FNV-1a of `text`, as 16 hex digits: the short form of a
/// fingerprint that goes into result files.
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex("foobar"), "85944171f73967e8");
    }

    #[test]
    fn unknown_names_set_nothing_up_and_known_ones_are_legal() {
        assert!(setup("no_such_workload", 1, &Sizes::smoke()).is_none());
        for name in NAMES {
            assert!(crate::metric::valid_name(name));
        }
    }
}
