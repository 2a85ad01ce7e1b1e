//! Integration tests: every experiment reproduces the *shape* of the
//! paper's result — orderings, ratio bands, crossovers — at reduced
//! scale, with seeds distinct from the unit tests.

use faasim::experiments::{agents_cmp, bandwidth, election, prediction, table1, training};
use faasim::trends;

mod jittered;

#[test]
fn table1_ordering_and_bands() {
    let r = table1::run(&table1::Table1Params::quick(), 999);
    // The paper's ordering: invocation > S3 I/O > DynamoDB I/O > ZeroMQ.
    let invoc = r.mean_of("Func. Invoc. (1KB)");
    let s3 = r.mean_of("Lambda I/O (S3)");
    let kv = r.mean_of("Lambda I/O (DynamoDB)");
    let zmq = r.mean_of("EC2 NW (0MQ)");
    assert!(invoc > s3 && s3 > kv && kv > zmq);
    // Three orders of magnitude between the extremes.
    let spread = invoc.as_secs_f64() / zmq.as_secs_f64();
    assert!(
        (900.0..1200.0).contains(&spread),
        "invocation/zmq spread {spread}"
    );
    // Lambda and EC2 see the same storage latency — the paper's
    // observation that "the overhead is in the storage service costs,
    // not in Lambda".
    let ec2_s3 = r.mean_of("EC2 I/O (S3)");
    let ratio = s3.as_secs_f64() / ec2_s3.as_secs_f64();
    assert!((0.95..1.05).contains(&ratio), "lambda/ec2 S3 ratio {ratio}");
}

#[test]
fn table1_with_jitter_keeps_shape() {
    // Realistic latency spreads (not exact means) must preserve the story.
    let r = jittered::table1_run(&table1::Table1Params::quick(), 1000);
    assert!(r.ratio_of("Func. Invoc. (1KB)") > 500.0);
    assert!(r.ratio_of("Lambda I/O (DynamoDB)") > 20.0);
    assert!((r.ratio_of("EC2 NW (0MQ)") - 1.0).abs() < 1e-9);
}

#[test]
fn training_shape() {
    let r = training::run(&training::TrainingParams::quick(), 999);
    assert!(r.slowdown() > 15.0, "slowdown {}", r.slowdown());
    assert!(r.cost_ratio() > 4.0, "cost ratio {}", r.cost_ratio());
    // The data-shipping decomposition: fetch dominates Lambda iterations.
    let lambda_iter = r.lambda.per_iteration.as_secs_f64();
    let ec2_iter = r.ec2.per_iteration.as_secs_f64();
    assert!(lambda_iter > 2.5 && lambda_iter < 3.5);
    assert!(ec2_iter < 0.2);
}

#[test]
fn prediction_shape() {
    let r = prediction::run(&prediction::PredictionParams::quick(), 999);
    let l_s3 = r.latency_of("Lambda + S3 model");
    let l_opt = r.latency_of("Lambda optimized (model baked in, SQS out)");
    let e_sqs = r.latency_of("EC2 + SQS");
    let e_zmq = r.latency_of("EC2 + ZeroMQ");
    // Strict ordering, an order of magnitude per step down the stack.
    assert!(l_s3 > l_opt && l_opt > e_sqs && e_sqs > e_zmq);
    assert!(l_opt.as_secs_f64() / e_sqs.as_secs_f64() > 20.0);
    assert!(l_opt.as_secs_f64() / e_zmq.as_secs_f64() > 90.0);
    // Cost: SQS pricing is tens of times the serverful fleet.
    assert!(r.cost_ratio() > 30.0);
}

#[test]
fn election_shape() {
    let r = election::run(&election::ElectionParams::quick(), 999);
    let secs = r.mean_round.as_secs_f64();
    assert!((10.0..25.0).contains(&secs), "round {secs}");
    assert!(r.hourly_cost_extrapolated > 300.0);
    // The fraction claim only needs the right order of magnitude.
    assert!((0.005..0.05).contains(&r.fraction_electing));
}

#[test]
fn bandwidth_shape() {
    let r = bandwidth::run(&bandwidth::BandwidthParams::quick(), 999);
    let solo = r.at(1).per_function_mbps;
    let packed = r.at(20).per_function_mbps;
    assert!(solo / packed > 15.0, "collapse {}", solo / packed);
    // Aggregate is capacity-bound, not growing with concurrency.
    assert!(r.at(20).aggregate_mbps < solo * 1.1 + 40.0);
}

#[test]
fn agents_shape() {
    let r = agents_cmp::run(&agents_cmp::AgentsCmpParams::quick(), 999);
    assert!(r.speedup() > 10.0, "speedup {}", r.speedup());
}

#[test]
fn figure1_shape() {
    let pts = trends::generate();
    let (mr_peak, sv_final, crossover) = trends::headline_claims(&pts);
    assert!(sv_final > mr_peak * 0.85);
    assert!(crossover.is_some());
}
