//! `make bench-compare`: re-run the wall-clock suite and gate it against
//! the newest committed snapshot (`BENCH_pr<N>.json` with the highest
//! `N`; `BENCH_baseline.json` only while no such file exists).
//!
//! Exits nonzero if any kernel's events/sec is more than 25% below the
//! snapshot's.

use faasim_bench::{compare, wallclock};

fn main() {
    let snapshots = compare::committed_snapshots();
    let newest = snapshots.last().expect("no BENCH_*.json snapshot — run `make bench` first");

    println!("\n=== bench-compare (fresh run vs BENCH_{}.json) ===\n", newest.label);
    let current = wallclock::run_suite();
    let (report, regressions) = compare::compare(newest, &current);
    println!("{report}");

    if !regressions.is_empty() {
        std::process::exit(1);
    }
}
