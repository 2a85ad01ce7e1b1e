//! `make bench-compare` and `make bench-trend`: the regression gate and
//! the trajectory over the committed wall-clock snapshots.
//!
//! A snapshot is what [`crate::wallclock`] wrote at some PR:
//! `BENCH_baseline.json` (PR 10) and one `BENCH_pr<N>.json` per perf PR
//! since, beside the workspace's `Cargo.toml`. The gate re-runs the suite
//! and compares it with the **newest** of them, kernel by kernel on
//! events/sec: anything more than [`TOLERANCE`] slower fails with a
//! nonzero exit, so a PR that quietly gives back an earlier PR's gain
//! turns red in CI. The trend prints all of them, oldest first.
//!
//! The files are our own schema (`faasim-bench/wallclock/1`) and the
//! build is offline, so parsing is a small hand-rolled extractor rather
//! than an external JSON dependency. It reads the `kernel` array only:
//! snapshots up to PR 19 also carry `experiments` and `sweep` sections
//! from arms the suite no longer has.

use std::fmt::Write as _;

use crate::wallclock::SuiteRun;

/// A kernel may lose this share of its snapshot's events/sec before the
/// gate fails (each side is a best-of-5; `wall_secs_max` in a snapshot
/// shows what the rounds spread over).
pub const TOLERANCE: f64 = 0.25;

/// One committed snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// `baseline`, or `pr<N>`.
    pub label: String,
    /// Kernel bench name → events per host second.
    pub kernel: Vec<(String, f64)>,
}

/// Extract a `"key": "string"` field from a flat JSON object body.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')? + start;
    Some(obj[start..end].to_owned())
}

/// Extract a `"key": <number>` field from a flat JSON object body.
fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The body of the `"key": [ ... ]` array in `json`.
fn array_section<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": [");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find(']')? + start;
    Some(&json[start..end])
}

/// Split an array body into the `{...}` object bodies it contains.
fn objects(section: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = section;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        out.push(&rest[open + 1..open + close]);
        rest = &rest[open + close + 1..];
    }
    out
}

/// The kernels of one snapshot file. Returns `None` if the schema line or
/// the `kernel` array is missing or malformed.
pub fn parse_snapshot(json: &str) -> Option<Vec<(String, f64)>> {
    if !json.contains("\"schema\": \"faasim-bench/wallclock/1\"") {
        return None;
    }
    objects(array_section(json, "kernel")?)
        .into_iter()
        .map(|obj| Some((field_str(obj, "name")?, field_f64(obj, "events_per_sec")?)))
        .collect()
}

/// The labels of the snapshot files among `file_names`, oldest first:
/// `baseline`, then every `pr<N>` by `N` as a number.
pub fn snapshot_labels(file_names: impl IntoIterator<Item = String>) -> Vec<String> {
    // `None` is the baseline and sorts before every `Some(n)`.
    let mut prs: Vec<Option<u32>> = file_names
        .into_iter()
        .filter_map(|name| {
            let label = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            if label == "baseline" {
                return Some(None);
            }
            label.strip_prefix("pr")?.parse().ok().map(Some)
        })
        .collect();
    prs.sort_unstable();
    let label = |pr: Option<u32>| pr.map_or("baseline".to_owned(), |n| format!("pr{n}"));
    prs.into_iter().map(label).collect()
}

/// Every committed snapshot, oldest first; the last one is what the gate
/// compares with. Panics on a file it cannot read or parse.
pub fn committed_snapshots() -> Vec<Snapshot> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let entries = std::fs::read_dir(root).unwrap_or_else(|e| panic!("read {root}: {e}"));
    let names = entries.filter_map(|entry| entry.ok()?.file_name().into_string().ok());
    snapshot_labels(names)
        .into_iter()
        .map(|label| {
            let path = format!("{root}/BENCH_{label}.json");
            let json =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let kernel = parse_snapshot(&json)
                .unwrap_or_else(|| panic!("unrecognized snapshot schema in {path}"));
            Snapshot { label, kernel }
        })
        .collect()
}

/// The value recorded under `name` in a snapshot.
fn lookup(kernel: &[(String, f64)], name: &str) -> Option<f64> {
    kernel.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Diff a fresh run against `snapshot`: every kernel of the snapshot is
/// gated on events/sec at [`TOLERANCE`]. Returns the human-readable
/// report and the names of the kernels that regressed. A kernel on one
/// side only is reported (`new`, `dropped`) but never fails the gate — it
/// becomes gated, or stops being listed, with the next recorded snapshot.
pub fn compare(snapshot: &Snapshot, current: &SuiteRun) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut regressions = Vec::new();

    writeln!(
        out,
        "{:<40} {:>14} {:>14} {:>8}  verdict",
        "kernel bench",
        format!("{} ev/s", snapshot.label),
        "now ev/s",
        "ratio"
    )
    .unwrap();
    for k in &current.kernel {
        let now = k.events_per_sec();
        let Some(base) = lookup(&snapshot.kernel, &k.name) else {
            writeln!(out, "{:<40} {:>14} {now:>14.0} {:>8}  new", k.name, "-", "-").unwrap();
            continue;
        };
        let ratio = now / base.max(1e-9);
        let bad = ratio < 1.0 - TOLERANCE;
        writeln!(
            out,
            "{:<40} {base:>14.0} {now:>14.0} {ratio:>7.2}x  {}",
            k.name,
            if bad { "REGRESSION" } else { "ok" }
        )
        .unwrap();
        if bad {
            regressions.push(k.name.clone());
        }
    }
    for (name, base) in &snapshot.kernel {
        if !current.kernel.iter().any(|k| &k.name == name) {
            writeln!(out, "{name:<40} {base:>14.0} {:>14} {:>8}  dropped", "-", "-").unwrap();
        }
    }

    writeln!(out).unwrap();
    if regressions.is_empty() {
        writeln!(
            out,
            "bench-compare: OK — no kernel more than {:.0}% slower than {}",
            TOLERANCE * 100.0,
            snapshot.label
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "bench-compare: FAIL — {} kernel(s) more than {:.0}% slower than {}",
            regressions.len(),
            TOLERANCE * 100.0,
            snapshot.label
        )
        .unwrap();
    }
    (out, regressions)
}

/// `make bench-trend`: one table of kernel events/sec across the
/// committed snapshots, oldest first — each cell followed by its ratio to
/// the snapshot before it. A kernel a snapshot does not have (it was
/// added or renamed later) prints `—`, and so does a ratio with nothing
/// to its left to divide by.
pub fn trend(snapshots: &[Snapshot]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for snapshot in snapshots {
        for (name, _) in &snapshot.kernel {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let mut out = String::new();
    write!(out, "{:<40}", "kernel bench (events/sec)").unwrap();
    for snapshot in snapshots {
        write!(out, " {:>16} {:>7}", snapshot.label, "ratio").unwrap();
    }
    writeln!(out).unwrap();
    for name in names {
        write!(out, "{name:<40}").unwrap();
        let mut previous = None;
        for snapshot in snapshots {
            let now = lookup(&snapshot.kernel, name);
            let value = now.map_or("—".to_owned(), |v| format!("{v:.0}"));
            let ratio = match (previous, now) {
                (Some(before), Some(now)) if before > 0.0 => format!("{:.2}x", now / before),
                _ => "—".to_owned(),
            };
            write!(out, " {value:>16} {ratio:>7}").unwrap();
            previous = now;
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallclock::KernelBench;

    fn snapshot(label: &str, kernel: &[(&str, f64)]) -> Snapshot {
        let kernel = kernel.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
        Snapshot { label: label.to_owned(), kernel }
    }

    /// A fresh run of `kernel/x` at one million events/sec.
    fn sample_current() -> SuiteRun {
        SuiteRun {
            cores: 1,
            kernel: vec![KernelBench {
                name: "kernel/x".into(),
                wall_secs: 1.0,
                wall_secs_max: 1.25,
                events: 1_000_000,
                profile: None,
            }],
        }
    }

    #[test]
    fn trend_prints_ratios_and_dashes_for_missing_kernels() {
        let table = trend(&[
            snapshot("baseline", &[("kernel/old", 1000.0), ("kernel/gone", 50.0)]),
            snapshot("pr1", &[("kernel/old", 1500.0)]),
            snapshot("pr2", &[("kernel/old", 1200.0), ("kernel/new", 7.0)]),
        ]);
        let cells = |name: &str| -> Vec<String> {
            let row = table.lines().find(|l| l.starts_with(name)).expect(name);
            row.split_whitespace().skip(1).map(str::to_owned).collect()
        };
        // value, ratio per snapshot: 1500/1000 and 1200/1500.
        assert_eq!(
            cells("kernel/old"),
            ["1000", "—", "1500", "1.50x", "1200", "0.80x"]
        );
        // Dropped after the baseline; the gap is not a ratio of zero.
        assert_eq!(cells("kernel/gone"), ["50", "—", "—", "—", "—", "—"]);
        // Added last: nothing to its left to compare with.
        assert_eq!(cells("kernel/new"), ["—", "—", "—", "—", "7", "—"]);
        assert_eq!(table.lines().count(), 4, "{table}");
    }

    #[test]
    fn roundtrip_through_json_is_clean() {
        let current = sample_current();
        let kernel = parse_snapshot(&current.to_json()).expect("parse own output");
        assert_eq!(kernel, vec![("kernel/x".to_owned(), 1_000_000.0)]);
        // Comparing a run against its own numbers never regresses.
        let own = Snapshot { label: "own".to_owned(), kernel };
        let (report, regressions) = compare(&own, &current);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("bench-compare: OK"));
    }

    #[test]
    fn newest_snapshot_is_chosen_by_pr_number() {
        let names = ["BENCH_pr12.json", "Cargo.toml", "BENCH_pr9.json", "BENCH_baseline.json"];
        let labels = snapshot_labels(names.map(str::to_owned));
        assert_eq!(labels, ["baseline", "pr9", "pr12"]);
        // The baseline anchors the gate only while it is alone.
        let names = ["BENCH_baseline.json", "BENCH_prx.json", "BENCHMARK.json"];
        assert_eq!(snapshot_labels(names.map(str::to_owned)), ["baseline"]);
    }

    #[test]
    fn the_gate_holds_a_kernel_to_the_newest_snapshot() {
        let current = sample_current();
        // 30% below the snapshot: fail. 20% below: within the tolerance.
        let ahead = snapshot("pr12", &[("kernel/x", 1_000_000.0 / 0.7)]);
        let (report, regressions) = compare(&ahead, &current);
        assert_eq!(regressions, ["kernel/x"], "{report}");
        assert!(report.contains("REGRESSION") && report.contains("bench-compare: FAIL"));
        let close = snapshot("pr12", &[("kernel/x", 1_000_000.0 / 0.8)]);
        assert!(compare(&close, &current).1.is_empty());

        // The ratchet, on the committed files: a million-invocation
        // replay 30% below the newest snapshot fails the gate, where
        // against `BENCH_baseline.json` the same run would have passed.
        let snapshots = committed_snapshots();
        let (oldest, newest) = (&snapshots[0], snapshots.last().unwrap());
        assert_eq!(oldest.label, "baseline");
        assert_ne!(newest.label, "baseline");
        let name = "trace/replay_1m_invocations";
        let mut slow = sample_current();
        slow.kernel[0].name = name.to_owned();
        slow.kernel[0].events = (0.7 * lookup(&newest.kernel, name).unwrap()) as u64;
        assert_eq!(compare(newest, &slow).1.len(), 1);
        assert!(compare(oldest, &slow).1.is_empty());
    }

    #[test]
    fn dropped_and_new_kernels_are_listed_but_do_not_fail() {
        let current = sample_current();
        let renamed = snapshot("pr12", &[("kernel/gone", 5_000_000.0)]);
        let (report, regressions) = compare(&renamed, &current);
        assert!(regressions.is_empty(), "{report}");
        let verdict = |name: &str| {
            let row = report.lines().find(|l| l.starts_with(name)).expect(name);
            row.split_whitespace().last().unwrap().to_owned()
        };
        assert_eq!(verdict("kernel/gone"), "dropped");
        assert_eq!(verdict("kernel/x"), "new");
    }

    /// `make bench-trend` as a test: every committed file parses, old
    /// `experiments` and `sweep` sections included, and a kernel a
    /// snapshot lacks is a dash, not a zero.
    #[test]
    fn committed_snapshots_parse_and_trend() {
        let snapshots = committed_snapshots();
        let labels: Vec<&str> = snapshots.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels[..6], ["baseline", "pr12", "pr13", "pr14", "pr17", "pr19"]);
        for s in &snapshots {
            assert!(lookup(&s.kernel, "trace/replay_1m_invocations").is_some(), "{}", s.label);
        }
        let table = trend(&snapshots);
        assert_eq!(table.lines().next().unwrap().matches("ratio").count(), snapshots.len());
        // Added in PR 19: no value and no ratio in the five columns before.
        let row = table.lines().find(|l| l.starts_with("kernel/recorder_ledger_by_name")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().skip(1).collect();
        assert!(cells[..10].iter().all(|&c| c == "—"), "{row}");
        assert_eq!(cells[10], "55532317", "{row}");
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(parse_snapshot("").is_none());
        assert!(parse_snapshot("{\"schema\": \"other/2\"}").is_none());
        let valid = sample_current().to_json();
        assert!(parse_snapshot(&valid.replace("\"kernel\"", "\"k\"")).is_none());
        assert!(parse_snapshot(&valid.replace("\"events_per_sec\"", "\"eps\"")).is_none());
    }
}
