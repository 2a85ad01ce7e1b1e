//! Trace-driven workload replay at paper scale: generate a deterministic
//! Azure-Functions-style trace — Zipf app popularity, Poisson/bursty/
//! diurnal arrivals, ~1.1M invocations across 12,000 functions — and
//! stream it through the simulated platform, printing the full
//! [`ReplayReport`]: cold-start rate, latency percentiles from the
//! streaming sketch, per-app fairness spread, container packing density,
//! and $/hr from the pricing ledger.
//!
//! The replay runs **twice** at the same seed and the run fails (nonzero
//! exit) unless the recorder digest, the bill, and the report are
//! byte-identical — the million-invocation determinism check from the
//! issue, as a user-facing gate rather than a test — and the report
//! satisfies its own conservation identities
//! ([`ReplayReport::violations`]). `--smoke` holds every seed of the
//! small sweep to both, too.
//!
//! ```text
//! cargo run --release --example trace_replay               # paper scale
//! cargo run --release --example trace_replay -- --seed 7
//! cargo run --release --example trace_replay -- --smoke 4  # CI: sweep a
//!                                # small trace, calm + hostile plans
//! cargo run --release --example trace_replay -- --smoke 4 --serial
//! ```

use std::time::Instant;

use faasim_chaos::{ParallelSweep, Scenario, TraceReplay};
use faasim_trace::{replay, ReplayConfig};

struct Args {
    seed: u64,
    smoke: Option<usize>,
    serial: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        seed: 2019,
        smoke: None,
        serial: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--smoke" => {
                out.smoke = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--smoke takes a positive seed count"),
                );
            }
            "--serial" => out.serial = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: trace_replay [--seed S] [--smoke N] [--serial]");
                std::process::exit(2);
            }
        }
    }
    out
}

/// CI smoke: sweep the small calm and hostile trace scenarios across
/// `n_seeds` seeds each (every seed replayed twice by the harness).
fn smoke(n_seeds: usize, serial: bool) {
    let seeds: Vec<u64> = (1..=n_seeds as u64).collect();
    let pool = if serial {
        ParallelSweep::new(1)
    } else {
        ParallelSweep::auto()
    };
    let scenarios = [TraceReplay::small_calm(), TraceReplay::small_hostile()];
    let mut failed = false;
    for scenario in &scenarios {
        let start = Instant::now();
        let report = pool.sweep(scenario, &seeds);
        let wall = start.elapsed().as_secs_f64();
        print!("{report}");
        println!(
            "  {:.1} seeds/sec over {} worker(s), {wall:.3}s wall",
            seeds.len() as f64 / wall.max(1e-9),
            pool.workers(),
        );
        if !report.passed() {
            failed = true;
            if let Some(seed) = report.minimal_failing_seed() {
                eprintln!("minimal failing seed for {}: {seed}", scenario.name());
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("trace-replay smoke passed across {} seeds", seeds.len());
}

fn main() {
    let args = parse_args();
    if let Some(n_seeds) = args.smoke {
        smoke(n_seeds, args.serial);
        return;
    }

    let cfg = ReplayConfig::paper_scale();
    let funcs = cfg.trace.apps as u64 * cfg.trace.funcs_per_app as u64;
    println!(
        "replaying ~{} invocations across {} functions ({} apps), seed {} ...",
        cfg.trace.expected_events(),
        funcs,
        cfg.trace.apps,
        args.seed,
    );

    let start = Instant::now();
    let first = replay(&cfg, args.seed, &|_| {});
    let wall = start.elapsed().as_secs_f64();
    println!("{}", first.report);
    println!(
        "wall: {wall:.2}s ({:.0} invocations/sec host)",
        first.report.invocations as f64 / wall.max(1e-9),
    );
    let violations = first.report.violations();
    if !violations.is_empty() {
        eprintln!("REPORT VIOLATIONS:\n  {}", violations.join("\n  "));
        std::process::exit(1);
    }

    println!("replaying the same seed again to verify determinism ...");
    let second = replay(&cfg, args.seed, &|_| {});
    if first.digest != second.digest || first.bill != second.bill || first.report != second.report
    {
        eprintln!("NONDETERMINISM: same seed, different outcome");
        std::process::exit(1);
    }
    println!(
        "digest, bill, and report byte-identical across both runs ({} metric lines)",
        first.digest.lines().count(),
    );
}
