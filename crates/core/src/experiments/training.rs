//! Experiment E3 — §3.1 case study 1: **model training**, Lambda vs EC2.
//!
//! The workload is the paper's: 90 GB of featurized Amazon-review data in
//! 100 MB batches, an MLP (6,787 → 10 → 10 → 1, Adam, lr 0.001), ten full
//! passes. On Lambda each iteration fetches its batch from the object
//! store and computes on a 640 MB function's CPU slice; executions chain
//! sequentially because each one dies at the 15-minute cap. On EC2 the
//! batch comes from the attached volume and both cores compute.
//!
//! Compute cost per iteration is the calibrated 0.2 reference-core-seconds
//! (CS-1: 0.10 s on an m4.large's two cores, 0.59 s on a 640 MB Lambda).
//! The real MLP itself lives in `faasim-ml` and is exercised for real by
//! the tests and the `training_lambda_vs_ec2` example at laptop scale.

use std::cell::Cell;
use std::rc::Rc;

use faasim_faas::{FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_pricing::Service;
use faasim_simcore::SimDuration;

use crate::cloud::CloudProfile;
use crate::experiments::clients::{chain, plain, Backend, Clients, Plain, Run, UNBOUNDED};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_ratio, PaperRow, Table};

/// Parameters of the training comparison.
#[derive(Clone, Debug)]
pub struct TrainingParams {
    /// Total featurized dataset size in MB (paper: 90 GB).
    pub dataset_mb: u64,
    /// Full passes over the data (paper: 10).
    pub epochs: u32,
    /// The training function's time limit (paper: the platform's
    /// 15-minute cap).
    pub lambda_time_limit: SimDuration,
}

impl Default for TrainingParams {
    fn default() -> Self {
        TrainingParams {
            dataset_mb: 90_000,
            epochs: 10,
            lambda_time_limit: SimDuration::from_secs(900),
        }
    }
}

/// Batch size in MB (paper: 100 MB).
const BATCH_MB: u64 = 100;
/// Lambda memory (paper: 640 MB).
const LAMBDA_MEMORY_MB: u64 = 640;
/// Reference-core-seconds of compute per iteration (calibrated 0.2).
const ITERATION_REF_WORK: SimDuration = SimDuration::from_millis(200);
/// EC2 instance type (paper: m4.large).
const INSTANCE_TYPE: &str = "m4.large";

impl TrainingParams {
    /// Reduced scale for tests: 45 GB, one epoch — still big enough that
    /// EC2's one-minute billing minimum doesn't distort the cost ratio.
    pub fn quick() -> TrainingParams {
        TrainingParams {
            dataset_mb: 45_000,
            epochs: 1,
            ..TrainingParams::default()
        }
    }

    /// Total iterations implied by the parameters.
    pub fn total_iterations(&self) -> u64 {
        (self.dataset_mb / BATCH_MB) * self.epochs as u64
    }
}

/// Result of one side of the comparison.
#[derive(Clone, Debug)]
pub struct TrainingSide {
    /// Wall-clock (virtual) training time.
    pub total_time: SimDuration,
    /// Mean time per iteration.
    pub per_iteration: SimDuration,
    /// Dollars spent on compute (Lambda GB-s + requests, or EC2 hours).
    pub compute_cost: f64,
    /// Number of Lambda executions (1 for EC2).
    pub executions: u64,
    /// Iterations completed per execution, averaged.
    pub iterations_per_execution: f64,
}

/// The full comparison.
#[derive(Clone, Debug)]
pub struct TrainingResult {
    /// Lambda side.
    pub lambda: TrainingSide,
    /// EC2 side.
    pub ec2: TrainingSide,
    /// Byte-exact replay probe (Lambda cloud, then EC2 cloud).
    pub probe: ExperimentProbe,
}

impl TrainingResult {
    /// How many times slower Lambda was.
    pub fn slowdown(&self) -> f64 {
        self.lambda.total_time.as_secs_f64() / self.ec2.total_time.as_secs_f64()
    }

    /// How many times more expensive Lambda was.
    pub fn cost_ratio(&self) -> f64 {
        self.lambda.compute_cost / self.ec2.compute_cost
    }

    /// The paper's CS-1 numbers, each beside this run's.
    pub fn paper_rows(&self) -> Vec<PaperRow> {
        let (lambda, ec2) = (&self.lambda, &self.ec2);
        vec![
            PaperRow::new("Lambda s/iteration", 3.08, lambda.per_iteration.as_secs_f64(), "s"),
            PaperRow::new("EC2 s/iteration", 0.14, ec2.per_iteration.as_secs_f64(), "s"),
            PaperRow::new("Lambda sequential executions", 31.0, lambda.executions as f64, ""),
            PaperRow::new("Lambda total minutes", 465.0, lambda.total_time.as_secs_f64() / 60.0, "min"),
            PaperRow::new("EC2 total seconds", 1300.0, ec2.total_time.as_secs_f64(), "s"),
            PaperRow::new("Lambda cost", 0.29, lambda.compute_cost, "$"),
            PaperRow::new("EC2 cost", 0.04, ec2.compute_cost, "$"),
            PaperRow::new("slowdown", 21.0, self.slowdown(), "x"),
            PaperRow::new("cost ratio", 7.3, self.cost_ratio(), "x"),
        ]
    }

    /// Render like the case study's prose table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Case study 1: model training (Lambda vs EC2)",
            &["", "Lambda (640MB)", "EC2 (m4.large)"],
        );
        t.row(&[
            "per-iteration".into(),
            format!("{:.2}s", self.lambda.per_iteration.as_secs_f64()),
            format!("{:.2}s", self.ec2.per_iteration.as_secs_f64()),
        ]);
        t.row(&[
            "executions".into(),
            format!("{}", self.lambda.executions),
            "1".into(),
        ]);
        t.row(&[
            "total time".into(),
            format!("{:.0}min", self.lambda.total_time.as_secs_f64() / 60.0),
            format!("{:.0}s", self.ec2.total_time.as_secs_f64()),
        ]);
        t.row(&[
            "cost".into(),
            format!("${:.2}", self.lambda.compute_cost),
            format!("${:.2}", self.ec2.compute_cost),
        ]);
        t.row(&[
            "vs EC2".into(),
            format!(
                "{} slower, {} more expensive",
                fmt_ratio(self.slowdown()),
                fmt_ratio(self.cost_ratio())
            ),
            "1\u{d7}".into(),
        ]);
        t.render()
    }
}

/// Run the comparison.
pub fn run(params: &TrainingParams, seed: u64) -> TrainingResult {
    plain(|run| {
        let lambda = lambda_side(run, params, seed);
        let ec2 = run_ec2(params, seed + 1, run);
        TrainingResult {
            lambda,
            ec2,
            probe: run.probe.clone(),
        }
    })
}

/// The Lambda side on any backend: executions chained until every
/// iteration has run, or an entry in `run.failures` saying why not. The
/// iteration counter advances between awaits, so an execution cut short
/// loses the iteration in flight and counts nothing twice.
pub fn lambda_side<B: Backend>(run: &mut Run<B>, params: &TrainingParams, seed: u64) -> TrainingSide {
    let (cloud, clients, _) = run.open(CloudProfile::aws_2018().exact(), seed);
    cloud.blob.create_bucket("training");
    let batch_bytes = BATCH_MB * 1_000_000;
    // One symbolic batch object stands in for all of them: a
    // [`Payload::zeros`] carries only its length, and transfer time
    // depends only on size (DESIGN.md §1.4) — so the paper's 100 MB
    // batch costs no RAM at all, not even once.
    {
        let (c, host) = (clients.clone(), cloud.client_host());
        let data = Payload::zeros(batch_bytes as usize);
        let put = cloud
            .sim
            .block_on(async move {
                c.blob(UNBOUNDED, |blob| blob.put(&host, "training", "batch", data.clone()))
                    .await
            });
        run.fail("training", put.err().map(|e| format!("populate batch: {e}")));
        cloud.ledger.reset(); // setup traffic isn't part of the bill
    }

    let total_iters = params.total_iterations();
    let done = Rc::new(Cell::new(0u64));
    let d = done.clone();
    cloud.faas.register(FunctionSpec::new(
        "train",
        LAMBDA_MEMORY_MB,
        params.lambda_time_limit,
        move |ctx, _payload| {
            let clients = clients.clone();
            let d = d.clone();
            async move {
                // Train until the 15-minute guillotine kills us (the
                // paper's functions "run as many training iterations as
                // possible"), or until the job is done.
                while d.get() < total_iters {
                    clients
                        .blob(UNBOUNDED, |blob| blob.get(ctx.host(), "training", "batch"))
                        .await
                        .map_err(FnError::Handler)?;
                    ctx.cpu(ITERATION_REF_WORK).await;
                    d.set(d.get() + 1);
                }
                Ok(Payload::new())
            }
        },
    ));

    let t0 = cloud.sim.now();
    let left = move || total_iters - done.get();
    let chained = chain(cloud.faas.clone(), "train", left, |_| Payload::default());
    let executions = cloud.sim.block_on(chained).unwrap_or_else(|e| {
        run.fail("training", [e]);
        0
    });
    let total_time = cloud.sim.now() - t0;
    let compute_cost = cloud.ledger.total_for(Service::Faas);
    run.close("training", &cloud);
    TrainingSide {
        total_time,
        per_iteration: total_time / total_iters.max(1),
        compute_cost,
        executions,
        iterations_per_execution: total_iters as f64 / executions.max(1) as f64,
    }
}

fn run_ec2(params: &TrainingParams, seed: u64, run: &mut Run<Plain>) -> TrainingSide {
    let (cloud, ..) = run.open(CloudProfile::aws_2018().exact(), seed);
    let vm = cloud
        .ec2
        .provision_ready(INSTANCE_TYPE, 0)
        .expect("instance type");
    let total_iters = params.total_iterations();
    let batch_bytes = BATCH_MB * 1_000_000;
    let t0 = cloud.sim.now();
    let vm2 = vm.clone();
    cloud.sim.block_on(async move {
        for _ in 0..total_iters {
            vm2.ebs_read(batch_bytes).await;
            vm2.cpu_work_parallel(ITERATION_REF_WORK).await;
        }
    });
    let total_time = cloud.sim.now() - t0;
    vm.terminate();
    let compute_cost = cloud.ledger.total_for(Service::Compute);
    run.close("training", &cloud);
    TrainingSide {
        total_time,
        per_iteration: total_time / total_iters.max(1),
        compute_cost,
        executions: 1,
        iterations_per_execution: total_iters as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_case_study_shape() {
        let result = run(&TrainingParams::quick(), 42);
        // Per-iteration: ~3.08 s on Lambda (2.49 fetch + 0.59 compute),
        // ~0.14 s on EC2 (0.04 fetch + 0.10 compute). At this reduced
        // scale the one cold start adds ~0.13 s amortized.
        let li = result.lambda.per_iteration.as_secs_f64();
        assert!((li - 3.08).abs() < 0.25, "lambda iter {li}");
        let ei = result.ec2.per_iteration.as_secs_f64();
        assert!((ei - 0.14).abs() < 0.01, "ec2 iter {ei}");
        // Paper headline: 21x slower, 7.3x more expensive.
        let slow = result.slowdown();
        assert!((15.0..30.0).contains(&slow), "slowdown {slow}");
        let cost = result.cost_ratio();
        assert!((5.0..11.0).contains(&cost), "cost ratio {cost}");
        // 450 iterations at ~292 per 15-minute execution = 2 executions.
        assert_eq!(result.lambda.executions, 2);
        let rendered = result.render();
        assert!(rendered.contains("slower"));
    }

    #[test]
    fn full_scale_derives_paper_totals() {
        // The full 90 GB x 10 epochs run is still fast in virtual time.
        let result = run(&TrainingParams::default(), 1);
        // Paper: 31 sequential executions, 465 min total, $0.29 vs $0.04.
        assert!(
            (29..=33).contains(&result.lambda.executions),
            "executions {}",
            result.lambda.executions
        );
        let minutes = result.lambda.total_time.as_secs_f64() / 60.0;
        assert!((440.0..490.0).contains(&minutes), "lambda total {minutes} min");
        let ec2_secs = result.ec2.total_time.as_secs_f64();
        assert!((1200.0..1400.0).contains(&ec2_secs), "ec2 total {ec2_secs} s");
        assert!(
            (result.lambda.compute_cost - 0.29).abs() < 0.03,
            "lambda cost {}",
            result.lambda.compute_cost
        );
        assert!(
            (result.ec2.compute_cost - 0.036).abs() < 0.01,
            "ec2 cost {}",
            result.ec2.compute_cost
        );
    }
}
