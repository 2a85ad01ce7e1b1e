//! `make bench-trend`: the perf trajectory in one table.
//!
//! Reads `BENCH_baseline.json` and every `BENCH_pr<N>.json` beside it, in
//! PR order, and prints kernel events/sec per snapshot with the ratio to
//! the snapshot before. It measures nothing — it only parses committed
//! files — so it is free to run in CI, where it fails (nonzero exit) on a
//! snapshot the parser cannot read.

use faasim_bench::compare;

fn main() {
    println!("\n=== bench-trend (committed snapshots, oldest first) ===\n");
    print!("{}", compare::trend(&compare::committed_snapshots()));
}
