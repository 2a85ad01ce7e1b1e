//! The whole benchmark at shrunk sizes: `run.sh --smoke --trace` builds
//! the release binary, runs all four workloads untraced and traced, and
//! must emit exactly the metric names `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use faasim_benchmark::json::{self, Value};
use faasim_benchmark::metric::valid_name;
use faasim_benchmark::spec;
use faasim_benchmark::workloads::NAMES;

fn names_of(run: &Value) -> BTreeSet<String> {
    run.get("metrics")
        .expect("run has metrics")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric has a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_names_in_benchmark_json() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().expect("benchmark/ sits in the repo root");
    let status = Command::new("bash")
        .arg(package.join("run.sh"))
        .args(["--smoke", "--trace", "--seed", "7"])
        .status()
        .expect("run.sh starts");
    assert!(
        status.success(),
        "run.sh --smoke --trace exited with {status}"
    );

    let spec =
        spec::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    assert_eq!(
        spec.workloads, NAMES,
        "BENCHMARK.json and the harness name different workloads"
    );
    let names = |metrics: &[spec::SpecMetric]| -> BTreeSet<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    let (end_to_end, per_layer) = (names(&spec.end_to_end), names(&spec.per_layer));
    assert_eq!(
        end_to_end.len(),
        spec.end_to_end.len(),
        "an end-to-end name is used twice"
    );
    assert_eq!(
        per_layer.len(),
        spec.per_layer.len(),
        "a per-layer name is used twice"
    );
    for name in end_to_end.iter().chain(&per_layer).chain(&spec.workloads) {
        assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }
    assert!(end_to_end.contains("setup_s"));

    let results = json::parse(
        &std::fs::read_to_string(root.join("benchmark/out/results.json")).expect("results.json"),
    )
    .expect("results.json parses");
    let runs = results.get("runs").expect("results.json has runs").items();
    assert_eq!(
        runs.len(),
        2 * NAMES.len(),
        "one untraced and one traced run per workload"
    );
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .expect("run names its workload");
        assert_eq!(
            run.get("correct"),
            Some(&Value::Bool(true)),
            "{workload} failed its output checks"
        );
        let traced = run.get("trace").and_then(Value::as_f64) == Some(1.0);
        let expected = if traced { &per_layer } else { &end_to_end };
        assert_eq!(
            &names_of(run),
            expected,
            "{workload} (trace {traced}) emitted other names than BENCHMARK.json lists"
        );
        if traced {
            assert!(root
                .join(format!("benchmark/out/trace_{workload}.json"))
                .exists());
        }
    }
}
