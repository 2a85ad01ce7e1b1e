//! Integration tests: the whole stack is deterministic — the same seed
//! reproduces every experiment bit-for-bit, and different seeds actually
//! differ when distributions have spread.

use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, prediction, table1, training,
};
use faasim::faas::FunctionSpec;
use faasim::payload::Payload;
use faasim::simcore::SimDuration;
use faasim::{Cloud, CloudProfile};

mod jittered;

#[test]
fn table1_is_bit_reproducible() {
    let a = table1::run(&table1::Table1Params::quick(), 5);
    let b = table1::run(&table1::Table1Params::quick(), 5);
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.mean, rb.mean);
        assert_eq!(ra.samples, rb.samples);
    }
}

#[test]
fn jittered_runs_differ_across_seeds_but_not_within() {
    let params = table1::Table1Params {
        invocations: 30,
        io_trials: 30,
        rtt_trials: 30,
        ..table1::Table1Params::quick()
    };
    let a = jittered::table1_run(&params, 5);
    let b = jittered::table1_run(&params, 5);
    let c = jittered::table1_run(&params, 6);
    assert_eq!(
        a.mean_of("Func. Invoc. (1KB)"),
        b.mean_of("Func. Invoc. (1KB)")
    );
    assert_ne!(
        a.mean_of("Func. Invoc. (1KB)"),
        c.mean_of("Func. Invoc. (1KB)")
    );
}

#[test]
fn training_and_prediction_reproducible() {
    let t1 = training::run(&training::TrainingParams::quick(), 9);
    let t2 = training::run(&training::TrainingParams::quick(), 9);
    assert_eq!(t1.lambda.total_time, t2.lambda.total_time);
    assert_eq!(t1.lambda.compute_cost, t2.lambda.compute_cost);
    assert_eq!(t1.ec2.total_time, t2.ec2.total_time);

    let p1 = prediction::run(&prediction::PredictionParams::quick(), 9);
    let p2 = prediction::run(&prediction::PredictionParams::quick(), 9);
    for (a, b) in p1.deployments.iter().zip(p2.deployments.iter()) {
        assert_eq!(a.mean_batch_latency, b.mean_batch_latency, "{}", a.label);
    }
}

/// Every experiment result now carries an `ExperimentProbe`: the byte-exact
/// `Recorder` digest and `Ledger` report of every cloud it built. Equal
/// probes mean every counter, histogram, and billed line item replayed
/// identically — a much stronger check than comparing headline numbers.
mod probe_replay {
    use super::*;
    use faasim::experiments::ExperimentProbe;

    fn assert_probe_replay(label: &str, a: &ExperimentProbe, b: &ExperimentProbe) {
        assert!(!a.is_empty(), "{label}: probe captured no clouds");
        assert_eq!(a, b, "{label}: same seed must replay byte-identically");
    }

    #[test]
    fn table1_probe_replays() {
        let a = table1::run(&table1::Table1Params::quick(), 11);
        let b = table1::run(&table1::Table1Params::quick(), 11);
        assert_probe_replay("table1", &a.probe, &b.probe);
    }

    #[test]
    fn training_probe_replays() {
        let a = training::run(&training::TrainingParams::quick(), 11);
        let b = training::run(&training::TrainingParams::quick(), 11);
        assert_probe_replay("training", &a.probe, &b.probe);
    }

    #[test]
    fn prediction_probe_replays() {
        let a = prediction::run(&prediction::PredictionParams::quick(), 11);
        let b = prediction::run(&prediction::PredictionParams::quick(), 11);
        assert_probe_replay("prediction", &a.probe, &b.probe);
    }

    #[test]
    fn cold_starts_probe_replays() {
        let a = cold_starts::run(&cold_starts::ColdStartParams::quick(), 11);
        let b = cold_starts::run(&cold_starts::ColdStartParams::quick(), 11);
        assert_probe_replay("cold_starts", &a.probe, &b.probe);
    }

    #[test]
    fn bandwidth_probes_replay() {
        let a = bandwidth::run(&bandwidth::BandwidthParams::quick(), 11);
        let b = bandwidth::run(&bandwidth::BandwidthParams::quick(), 11);
        assert_probe_replay("bandwidth", &a.probe, &b.probe);

        let ma = bandwidth::run_memory_sweep(&bandwidth::MemorySweepParams::quick(), 11);
        let mb = bandwidth::run_memory_sweep(&bandwidth::MemorySweepParams::quick(), 11);
        assert_probe_replay("memory_sweep", &ma.probe, &mb.probe);
    }

    #[test]
    fn data_shipping_probe_replays() {
        let a = data_shipping::run(&data_shipping::DataShippingParams::quick(), 11);
        let b = data_shipping::run(&data_shipping::DataShippingParams::quick(), 11);
        assert_probe_replay("data_shipping", &a.probe, &b.probe);
    }

    #[test]
    fn election_probes_replay() {
        let a = election::run(&election::ElectionParams::quick(), 11);
        let b = election::run(&election::ElectionParams::quick(), 11);
        assert_probe_replay("election", &a.probe, &b.probe);

        let ca = election::run_churn(&election::ChurnParams::quick(), 11);
        let cb = election::run_churn(&election::ChurnParams::quick(), 11);
        assert_probe_replay("churn", &ca.probe, &cb.probe);
    }

    #[test]
    fn agents_cmp_probe_replays() {
        let a = agents_cmp::run(&agents_cmp::AgentsCmpParams::quick(), 11);
        let b = agents_cmp::run(&agents_cmp::AgentsCmpParams::quick(), 11);
        assert_probe_replay("agents_cmp", &a.probe, &b.probe);
    }

    #[test]
    fn different_seeds_perturb_the_probe() {
        let params = table1::Table1Params {
            invocations: 30,
            io_trials: 30,
            rtt_trials: 30,
            ..table1::Table1Params::quick()
        };
        let a = jittered::table1_run(&params, 11);
        let c = jittered::table1_run(&params, 12);
        assert_ne!(a.probe, c.probe, "jittered runs must differ across seeds");
    }
}

#[test]
fn whole_cloud_metric_digest_is_reproducible() {
    fn run(seed: u64) -> (String, String) {
        let cloud = Cloud::new(CloudProfile::aws_2018(), seed);
        cloud.blob.create_bucket("b");
        let blob = cloud.blob.clone();
        cloud.faas.register(FunctionSpec::new(
            "touch",
            256,
            SimDuration::from_secs(30),
            move |ctx, payload| {
                let blob = blob.clone();
                async move {
                    blob.put(ctx.host(), "b", "k", payload.clone()).await.unwrap();
                    blob.get(ctx.host(), "b", "k").await.unwrap();
                    Ok(payload)
                }
            },
        ));
        let faas = cloud.faas.clone();
        cloud.sim.block_on(async move {
            for i in 0..20u8 {
                faas.invoke("touch", Payload::from(vec![i])).await;
            }
        });
        (cloud.recorder.digest(), cloud.ledger.report())
    }
    let (m1, l1) = run(77);
    let (m2, l2) = run(77);
    let (m3, _) = run(78);
    assert_eq!(m1, m2);
    assert_eq!(l1, l2);
    assert_ne!(m1, m3, "different seeds must perturb jittered latencies");
}
