//! The paper experiments as chaos scenarios: sweep the eight workloads
//! (`experiment_scenarios`) across many seeds, under both the calm and
//! the hostile fault plan, checking every invariant (EXPERIMENTS.md
//! "Resilience model") and that each seed replays byte-identically.
//! Exits nonzero on any violation and prints the minimal failing seed
//! for byte-exact reproduction. Beside pass/fail, each scenario's line
//! says in how many seeds each injected fault actually fired, so a sweep
//! that passes because nothing happened to it shows.
//!
//! Seeds fan out across every available core via `ParallelSweep`.
//!
//! ```text
//! cargo run --release --example chaos_experiments               # 16 seeds
//! cargo run --release --example chaos_experiments -- --seeds 4  # CI smoke
//! cargo run --release --example chaos_experiments -- --serial   # one core
//! cargo run --release --example chaos_experiments -- --hostile-only
//! ```
//!
//! `CHAOS_SEEDS=<n>` is honoured when no `--seeds` flag is given.

use std::time::Instant;

use faasim_chaos::{
    experiment_scenarios, run_twice, ParallelSweep, Scenario, SeedReport, SweepReport,
};

/// The recorder counters that count an injected fault.
const INJECTED: [&str; 8] = [
    "faas.chaos_kills",
    "faas.chaos_evicted",
    "kv.throttled",
    "blob.unavailable",
    "net.messages_lost",
    "net.chaos_delay_spikes",
    "queue.chaos_duplicated",
    "queue.chaos_delayed",
];

/// `"name seeds"` for each injected fault that fired in any of `digests`,
/// `seeds` being how many of them it fired in.
fn faults_met(digests: &[String]) -> String {
    let fired = |digest: &String, fault: &str| {
        let prefix = format!("counter {fault} = ");
        digest.lines().any(|line| line.strip_prefix(&prefix).is_some_and(|n| n != "0"))
    };
    let met = INJECTED.iter().filter_map(|fault| {
        let seeds = digests.iter().filter(|digest| fired(digest, fault)).count();
        (seeds > 0).then(|| format!("{fault} {seeds}"))
    });
    let met: Vec<String> = met.collect();
    if met.is_empty() {
        "none".to_owned()
    } else {
        met.join(", ")
    }
}

struct Args {
    seeds: usize,
    serial: bool,
    hostile_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: std::env::var("CHAOS_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16),
        serial: false,
        hostile_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds takes a positive integer");
            }
            "--serial" => args.serial = true,
            "--hostile-only" => args.hostile_only = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos_experiments [--seeds N] [--serial] [--hostile-only]");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let seeds: Vec<u64> = (1..=args.seeds as u64).collect();
    let pool = if args.serial {
        ParallelSweep::new(1)
    } else {
        ParallelSweep::auto()
    };

    let mut scenarios = Vec::new();
    if !args.hostile_only {
        scenarios.extend(experiment_scenarios(false));
    }
    scenarios.extend(experiment_scenarios(true));

    let mut failed = false;
    for scenario in &scenarios {
        let start = Instant::now();
        let runs = pool.map(&seeds, |seed| run_twice(scenario, seed));
        let wall = start.elapsed().as_secs_f64();
        let (digests, results) = seeds
            .iter()
            .zip(runs)
            .map(|(&seed, run)| (run.digest, SeedReport { seed, violations: run.violations }))
            .unzip::<_, _, Vec<_>, Vec<_>>();
        let report = SweepReport { scenario: scenario.name().to_owned(), results };
        print!("{report}");
        println!(
            "  {:.1} seeds/sec over {} worker(s), {wall:.3}s wall",
            seeds.len() as f64 / wall.max(1e-9),
            pool.workers(),
        );
        println!("  injected faults fired (seeds of {}): {}", seeds.len(), faults_met(&digests));
        if !report.passed() {
            failed = true;
            if let Some(seed) = report.minimal_failing_seed() {
                eprintln!(
                    "minimal failing seed for {}: {seed} — the run is a pure \
                     function of the seed, so it reproduces byte-exactly",
                    scenario.name(),
                );
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "all {} experiment scenarios passed across {} seeds",
        scenarios.len(),
        seeds.len()
    );
}
