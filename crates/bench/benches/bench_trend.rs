//! `make bench-trend`: the perf trajectory in one table.
//!
//! Reads `BENCH_baseline.json` and every `BENCH_pr<N>.json` beside it, in
//! PR order, and prints kernel events/sec per snapshot with the ratio to
//! the snapshot before. It measures nothing — it only parses committed
//! files — so it is free to run in CI, where it fails (nonzero exit) on a
//! snapshot the parser cannot read.

use faasim_bench::compare;

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut prs: Vec<u32> = std::fs::read_dir(root)
        .unwrap_or_else(|e| panic!("read {root}: {e}"))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_pr")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .collect();
    prs.sort_unstable();
    let labels = std::iter::once("baseline".to_owned()).chain(prs.iter().map(|n| format!("pr{n}")));

    let snapshots: Vec<_> = labels
        .map(|label| {
            let path = format!("{root}/BENCH_{label}.json");
            let json =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let numbers = compare::parse_baseline(&json)
                .unwrap_or_else(|| panic!("unrecognized snapshot schema in {path}"));
            (label, numbers)
        })
        .collect();

    faasim_bench::section("bench-trend (committed snapshots, oldest first)");
    print!("{}", compare::trend(&snapshots));
}
