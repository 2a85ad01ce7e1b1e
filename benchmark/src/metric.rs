//! A measured number with its name, unit and provenance.

/// Where a metric's value comes from, which decides how two runs of it
/// may differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: what a user of the simulator sees. Gated by a bound.
    EndToEnd,
    /// Host time of an isolated kernel, timed around public calls.
    Kernel,
    /// Exact count read from the simulator's public stats.
    Count,
    /// Exact simulated statistic.
    Model,
    /// Computed from kernels and counts (the `budget.*` rows).
    Derived,
}

impl Kind {
    /// One-letter code used in the result files and the README tables.
    pub fn code(self) -> &'static str {
        match self {
            Kind::EndToEnd => "E",
            Kind::Kernel => "K",
            Kind::Count => "C",
            Kind::Model => "M",
            Kind::Derived => "D",
        }
    }

    /// Whether two runs at one seed must agree to the last bit.
    pub fn exact(self) -> bool {
        matches!(self, Kind::Count | Kind::Model)
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Provenance.
    pub kind: Kind,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            kind,
        }
    }
}

/// Whether `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_benchmark_contract() {
        assert!(valid_name("simcore.sleep_ns"));
        assert!(valid_name("budget.unattributed_pct"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("per/inv"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(Kind::Count.exact() && Kind::Model.exact());
        assert!(!Kind::Kernel.exact() && !Kind::EndToEnd.exact() && !Kind::Derived.exact());
    }
}
