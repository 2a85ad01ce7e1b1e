//! `paper_suite`: what a user who wants to reproduce and validate the
//! paper runs. One pass is all eight experiments at paper-scale
//! parameters (plus the memory sweep and the churn study), all eight
//! chaos-hardened `resilient()` variants under the hostile fault plan, and
//! two chaos scenarios swept over a few seeds. kv, blob, queue, compute,
//! ml, protocols, agents, resilience, chaos and the exact-sample recorder
//! do the work; trace and gateway do none.

use std::hint::black_box;

use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, prediction, table1, training,
    ExperimentProbe,
};
use faasim_chaos::{experiment_scenarios, sweep, CrdtSync, QueuePipeline, Scenario};

use super::{Iteration, Sizes, Workload};
use crate::span::Tracer;

pub struct PaperSuite {
    seed: u64,
    quick: bool,
    sweep_seeds: Vec<u64>,
}

/// One `faasim::experiments::<name>::run` per entry, under the span
/// `core.exp.<name>`. A macro because every experiment has its own
/// parameter and result types; `$more` are the extra studies that ride in
/// the same span.
macro_rules! run_experiment {
    ($self:ident, $tr:ident, $probes:ident, $name:literal, $module:ident :: $params:ident $(, $more:expr)*) => {{
        let _span = $tr.span(concat!("core.exp.", $name));
        let params = if $self.quick { $module::$params::quick() } else { $module::$params::default() };
        $probes.push(($name, $module::run(&params, $self.seed).probe));
        $( $probes.push(($name, $more)); )*
    }};
}

impl PaperSuite {
    pub fn new(seed: u64, sizes: &Sizes) -> PaperSuite {
        let mut workload = PaperSuite {
            seed,
            quick: sizes.quick_experiments,
            sweep_seeds: (0..sizes.sweep_seeds)
                .map(|k| seed.wrapping_add(k))
                .collect(),
        };
        black_box(workload.iterate(&Tracer::off(), false));
        workload
    }
}

impl Workload for PaperSuite {
    fn unit(&self) -> &'static str {
        "pass"
    }

    fn iterate(&mut self, tr: &Tracer, _count: bool) -> Iteration {
        let mut probes: Vec<(&str, ExperimentProbe)> = Vec::new();
        run_experiment!(self, tr, probes, "table1", table1::Table1Params);
        run_experiment!(
            self,
            tr,
            probes,
            "cold_starts",
            cold_starts::ColdStartParams
        );
        run_experiment!(self, tr, probes, "bandwidth", bandwidth::BandwidthParams, {
            let params = if self.quick {
                bandwidth::MemorySweepParams::quick()
            } else {
                bandwidth::MemorySweepParams::default()
            };
            bandwidth::run_memory_sweep(&params, self.seed).probe
        });
        run_experiment!(
            self,
            tr,
            probes,
            "data_shipping",
            data_shipping::DataShippingParams
        );
        run_experiment!(self, tr, probes, "training", training::TrainingParams);
        run_experiment!(self, tr, probes, "prediction", prediction::PredictionParams);
        run_experiment!(self, tr, probes, "election", election::ElectionParams, {
            let params = if self.quick {
                election::ChurnParams::quick()
            } else {
                election::ChurnParams::default()
            };
            election::run_churn(&params, self.seed).probe
        });
        run_experiment!(self, tr, probes, "agents_cmp", agents_cmp::AgentsCmpParams);

        let mut violations = Vec::new();
        let mut failed = 0;
        let mut fingerprint = String::new();
        for (name, probe) in &probes {
            if probe.is_empty() {
                failed += 1;
                violations.push(format!("{name}: experiment captured no cloud"));
            }
            fingerprint.push_str(&format!(
                "== {name}\n{}\n{}\n",
                probe.digests.join("\n"),
                probe.bills.join("\n")
            ));
        }
        let mut attempted = probes.len() as u64;

        let span = tr.span("core.exp.resilient");
        for scenario in experiment_scenarios(true) {
            let report = scenario.run(self.seed);
            attempted += 1;
            if !report.violations.is_empty() {
                failed += 1;
                violations.push(format!(
                    "{}: {}",
                    scenario.name(),
                    report.violations.join("; ")
                ));
            }
            fingerprint.push_str(&format!(
                "== {}\n{}\n{}\n",
                scenario.name(),
                report.digest,
                report.bill
            ));
        }
        drop(span);

        let span = tr.span("core.exp.sweep");
        let scenarios: [&dyn Scenario; 2] = [&CrdtSync::chaotic(), &QueuePipeline::chaotic()];
        for scenario in scenarios {
            let report = sweep(scenario, &self.sweep_seeds);
            attempted += report.results.len() as u64;
            failed += report.failures() as u64;
            if !report.passed() {
                violations.push(report.to_string());
            }
            fingerprint.push_str(&format!("== sweep {report:?}\n"));
        }
        drop(span);

        Iteration {
            units: 1,
            attempted,
            failed,
            fingerprint,
            violations,
            ..Iteration::default()
        }
    }
}
