//! `BENCHMARK.json`, read back: the one place metric names, units and
//! bounds are written down.

use crate::json::{self, Value};

/// One metric as `BENCHMARK.json` lists it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// How long one run measures, seconds.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<SpecMetric>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
        .items()
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} metric has no {f}"))
            };
            Ok(SpecMetric {
                name: field("name")?,
                unit: field("unit")?,
                better: field("better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parse the text of a `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        workloads: doc
            .get("workloads")
            .ok_or("BENCHMARK.json has no workloads")?
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// Read `BENCHMARK.json` from the current directory, which `run.sh` makes
/// the root of the checkout.
pub fn load() -> Result<Spec, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_names_units_and_bounds() {
        let spec = parse(
            r#"{"command": ["bash", "x"], "paths": ["benchmark"], "run_seconds": 15,
                "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "simcore.sleep_ns", "unit": "ns", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.run_seconds, 15.0);
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.25));
        assert_eq!(spec.per_layer[0].name, "simcore.sleep_ns");
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(parse("{}").is_err());
    }
}
