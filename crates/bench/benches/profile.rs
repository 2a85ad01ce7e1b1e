//! `make profile`: run the replay kernels once each and dump the
//! engine's [`SimProfile`](faasim::simcore::SimProfile) counters next to
//! events/sec, so perf work can attribute wins (poll count? timer
//! traffic? spawn volume?) instead of guessing from wall-clock alone.
//!
//! Scale is picked by `PROFILE_SCALE`:
//! - `100k` (default): both 100k replay kernels, direct and gateway.
//! - `1m`: the full million-invocation paper-scale kernel.
//! - `1m-smoke`: the 1m kernel's trace shape capped at 20k arrivals —
//!   the CI smoke gate, seconds instead of minutes on a loaded runner.

use std::time::Instant;

use faasim_bench::wallclock::{
    assert_calm_replay, replay_100k_config, replay_1m_config, BENCH_SEED,
};
use faasim_trace::{replay, ReplayConfig};

fn profile_one(name: &str, cfg: &ReplayConfig) {
    let start = Instant::now();
    let out = replay(cfg, BENCH_SEED, &|_| {});
    let wall = start.elapsed().as_secs_f64();
    assert_calm_replay(&out);
    let inv = out.report.invocations;
    println!(
        "{name}: {inv} invocations in {wall:.3}s = {:.0} invocations/sec",
        inv as f64 / wall.max(1e-9)
    );
    println!("    engine: {}", out.report.engine);
}

fn main() {
    let scale = std::env::var("PROFILE_SCALE").unwrap_or_else(|_| "100k".to_owned());
    println!("\n=== engine profile, replay kernels ({scale}) ===\n");
    match scale.as_str() {
        "100k" => {
            profile_one("trace/replay_100k_invocations", &replay_100k_config(false));
            profile_one("trace/replay_100k_invocations_gateway", &replay_100k_config(true));
        }
        "1m" => profile_one("trace/replay_1m_invocations", &replay_1m_config()),
        "1m-smoke" => {
            let mut cfg = replay_1m_config();
            cfg.trace.max_events = 20_000;
            profile_one("trace/replay_1m_invocations (20k smoke)", &cfg);
        }
        other => {
            eprintln!("unknown PROFILE_SCALE '{other}' (expected 100k, 1m, or 1m-smoke)");
            std::process::exit(2);
        }
    }
}
