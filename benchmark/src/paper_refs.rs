//! The paper's own numbers, and the simulator's error against them.
//!
//! Every non-zero number the paper reports for an artefact this repo
//! reproduces (Table 1 means and ratios, the three §3.1 case studies, the
//! §3(2) bandwidth figures), copied with the expression that extracts the
//! simulator's value from `crates/bench/benches/*`. The error metrics are
//! sim-side: for one seed they repeat exactly, so a change meant only to
//! speed the simulator up must leave them bit-identical.

use faasim::experiments::{bandwidth, election, prediction, table1, training};

/// One reference number and the simulator's value for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Ref {
    /// Which artefact of the paper the number belongs to.
    pub group: &'static str,
    /// What the number is.
    pub label: &'static str,
    /// The paper's value (never zero).
    pub paper: f64,
    /// The simulator's value at the measured seed.
    pub measured: f64,
}

impl Ref {
    /// `|measured − paper| / paper`, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper.abs() * 100.0
    }
}

/// The groups [`measure`] covers, in order.
pub const GROUPS: [&str; 5] = ["Table 1", "CS-1", "CS-2", "CS-3", "§3(2)"];

const TABLE1_MS: [(&str, f64); 6] = [
    ("Func. Invoc. (1KB)", 303.0),
    ("Lambda I/O (S3)", 108.0),
    ("Lambda I/O (DynamoDB)", 11.0),
    ("EC2 I/O (S3)", 106.0),
    ("EC2 I/O (DynamoDB)", 11.0),
    ("EC2 NW (0MQ)", 0.29),
];

const TABLE1_RATIO: [(&str, f64); 6] = [
    ("Func. Invoc. (1KB)", 1045.0),
    ("Lambda I/O (S3)", 372.0),
    ("Lambda I/O (DynamoDB)", 37.9),
    ("EC2 I/O (S3)", 365.0),
    ("EC2 I/O (DynamoDB)", 37.9),
    ("EC2 NW (0MQ)", 1.0),
];

const PREDICTION_MS: [(&str, f64); 4] = [
    ("Lambda + S3 model", 559.0),
    ("Lambda optimized (model baked in, SQS out)", 447.0),
    ("EC2 + SQS", 13.0),
    ("EC2 + ZeroMQ", 2.8),
];

/// Run the five experiments the paper gives numbers for, at their default
/// (paper-scale) parameters, and pair every reference with its measured
/// value.
pub fn measure(seed: u64) -> Vec<Ref> {
    let mut out = Vec::new();
    let mut push = |group, label, paper, measured| {
        out.push(Ref {
            group,
            label,
            paper,
            measured,
        })
    };

    let t1 = table1::run(&table1::Table1Params::default(), seed);
    for (label, paper) in TABLE1_MS {
        push(
            "Table 1",
            label,
            paper,
            t1.mean_of(label).as_secs_f64() * 1e3,
        );
    }
    for (label, paper) in TABLE1_RATIO {
        push("Table 1", label, paper, t1.ratio_of(label));
    }

    let tr = training::run(&training::TrainingParams::default(), seed);
    push(
        "CS-1",
        "Lambda s/iteration",
        3.08,
        tr.lambda.per_iteration.as_secs_f64(),
    );
    push(
        "CS-1",
        "EC2 s/iteration",
        0.14,
        tr.ec2.per_iteration.as_secs_f64(),
    );
    push(
        "CS-1",
        "Lambda sequential executions",
        31.0,
        tr.lambda.executions as f64,
    );
    push(
        "CS-1",
        "Lambda total minutes",
        465.0,
        tr.lambda.total_time.as_secs_f64() / 60.0,
    );
    push(
        "CS-1",
        "EC2 total seconds",
        1300.0,
        tr.ec2.total_time.as_secs_f64(),
    );
    push("CS-1", "Lambda cost $", 0.29, tr.lambda.compute_cost);
    push("CS-1", "EC2 cost $", 0.04, tr.ec2.compute_cost);
    push("CS-1", "slowdown", 21.0, tr.slowdown());
    push("CS-1", "cost ratio", 7.3, tr.cost_ratio());

    let pr = prediction::run(&prediction::PredictionParams::default(), seed);
    for (label, paper) in PREDICTION_MS {
        push(
            "CS-2",
            label,
            paper,
            pr.latency_of(label).as_secs_f64() * 1e3,
        );
    }
    push(
        "CS-2",
        "SQS $/hr at 1M msg/s",
        1584.0,
        pr.sqs_hourly_at_rate,
    );
    push(
        "CS-2",
        "EC2 instances at 1M msg/s",
        290.0,
        pr.ec2_instances_at_rate as f64,
    );
    push("CS-2", "EC2 fleet $/hr", 27.84, pr.ec2_hourly_at_rate);
    push("CS-2", "cost advantage", 57.0, pr.cost_ratio());
    push(
        "CS-2",
        "per-instance throughput r/s",
        3500.0,
        pr.ec2_throughput_per_instance,
    );

    let el = election::run(&election::ElectionParams::default(), seed);
    push(
        "CS-3",
        "election round seconds",
        16.7,
        el.mean_round.as_secs_f64(),
    );
    push(
        "CS-3",
        "% aggregate time electing",
        1.9,
        el.fraction_electing * 100.0,
    );
    push(
        "CS-3",
        "steady KV requests/node/s",
        8.0,
        el.requests_per_node_second,
    );
    push(
        "CS-3",
        "1,000-node cluster $/hr",
        450.0,
        el.hourly_cost_extrapolated,
    );
    let churn = election::run_churn(&election::ChurnParams::default(), seed);
    push(
        "CS-3",
        "% time without agreement",
        1.9,
        churn.fraction * 100.0,
    );

    let bw = bandwidth::run(&bandwidth::BandwidthParams::default(), seed);
    push(
        "§3(2)",
        "single function Mbps",
        538.0,
        bw.at(1).per_function_mbps,
    );
    push(
        "§3(2)",
        "20 functions, per-function Mbps",
        28.7,
        bw.at(20).per_function_mbps,
    );

    out
}

/// Mean and maximum of [`Ref::err_pct`] over `refs`.
pub fn err_mean_max(refs: &[Ref]) -> (f64, f64) {
    let errs: Vec<f64> = refs.iter().map(Ref::err_pct).collect();
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let max = errs.iter().copied().fold(0.0, f64::max);
    (mean, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_group_with_no_zero_reference() {
        let refs = measure(2019);
        for group in GROUPS {
            assert!(
                refs.iter().any(|r| r.group == group),
                "no reference for {group}"
            );
        }
        assert!(refs.len() >= 37, "only {} references", refs.len());
        for r in &refs {
            assert!(
                r.paper != 0.0,
                "{}/{} has a zero reference",
                r.group,
                r.label
            );
            assert!(
                r.measured.is_finite(),
                "{}/{} is not finite",
                r.group,
                r.label
            );
            assert!(GROUPS.contains(&r.group));
        }
    }

    #[test]
    fn error_is_relative_and_absolute() {
        let r = Ref {
            group: "Table 1",
            label: "x",
            paper: 200.0,
            measured: 190.0,
        };
        assert_eq!(r.err_pct(), 5.0);
        let s = Ref {
            measured: 230.0,
            ..r.clone()
        };
        assert_eq!(err_mean_max(&[r, s]), (10.0, 15.0));
    }
}
