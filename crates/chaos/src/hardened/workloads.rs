//! The seven workloads whose chaos run is the paper's body itself: each
//! function is the reduced scale, chosen so that the hostile plan's 3 %
//! kills land inside handler run time (the platform draws a kill instant
//! uniformly over the function's time limit, so a function is exposed
//! for the share of its limit it runs), and what the invariant asks of
//! the result beyond "nothing failed".

use faasim::experiments::agents_cmp::{self, AgentsCmpParams};
use faasim::experiments::bandwidth::{self, BandwidthParams};
use faasim::experiments::clients::Run;
use faasim::experiments::cold_starts::{self, ColdStartParams};
use faasim::experiments::data_shipping::{self, DataShippingParams};
use faasim::experiments::election::{self, ElectionParams};
use faasim::experiments::table1::{self, Table1Params};
use faasim::experiments::training::{self, TrainingParams};
use faasim_simcore::SimDuration;

use super::Faulty;

/// Every trial completes, or fails by its declared deadline. The I/O
/// functions run ~0.5 s of write+read pairs per 2.5 s limit, some ninety
/// executions in all.
pub(super) fn table1(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = Table1Params {
        invocations: 12,
        io_trials: 400,
        rtt_trials: 20,
        lambda_time_limit: SimDuration::from_millis(2_500),
        ..Table1Params::default()
    };
    let result = table1::run_on(run, &params, seed);
    let (io, rtt) = (params.io_trials, params.rtt_trials);
    for (row, trials) in result.rows.iter().zip([params.invocations, io, io, io, io, rtt]) {
        run.check(row.label, row.samples == trials, || {
            format!("{} samples of {trials} trials", row.samples)
        });
    }
}

/// Completion under fault: every arrival echoes its payload or fails
/// cleanly, never hangs. Each holds its container for 27 s of the 30 s
/// limit.
pub(super) fn cold_starts(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = ColdStartParams {
        inter_arrivals: vec![SimDuration::from_secs(1), SimDuration::from_mins(20)],
        invocations: 12,
        hold: SimDuration::from_secs(27),
        ..ColdStartParams::default()
    };
    cold_starts::run_on(run, &params, seed);
}

/// Exactly one recorded rate per completed download, all positive (the
/// body's own check). Twenty packed functions pull 2.9 GB each, ~810 s
/// of the 900 s limit at their 28.7 Mbps share.
pub(super) fn bandwidth(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = BandwidthParams {
        concurrency_levels: vec![20],
        transfer_bytes: 2_900_000_000,
        ..BandwidthParams::default()
    };
    bandwidth::run_on(run, &params, seed);
}

/// An exact line count despite at-least-once execution (the body's own
/// check). 1 GB in 100 objects of ~0.3 s each under a 1.5 s execution
/// cap: some twenty executions.
pub(super) fn data_shipping(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = DataShippingParams {
        dataset_mbs: vec![1_000],
        object_mb: 10,
        lifetime_cap: Some(SimDuration::from_millis(1_500)),
    };
    data_shipping::data_to_code(run, &params, params.dataset_mbs[0], seed);
}

/// An exact iteration count: the chain ends when every iteration has run
/// once. Sixty iterations of ~3.1 s under a 10 s limit: some twenty
/// executions, as the paper's job spans 31.
pub(super) fn training(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = TrainingParams {
        dataset_mb: 6_000,
        epochs: 1,
        lambda_time_limit: SimDuration::from_secs(10),
        ..TrainingParams::default()
    };
    let lambda = training::lambda_side(run, &params, seed);
    let iterations = params.total_iterations();
    run.check("training", lambda.executions >= iterations / 3, || {
        format!("{iterations} iterations in {} executions of at most 3", lambda.executions)
    });
}

/// Liveness under brownout (~10 % of blackboard polls throttled): the
/// highest id is elected and every leader kill completes a failover
/// round, inside twenty windows each.
pub(super) fn election(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = ElectionParams {
        nodes: 5,
        rounds: 2,
        wait_slices: 20,
        ..ElectionParams::default()
    };
    election::run_on(run, &params, seed);
}

/// The same liveness over direct sockets under packet loss and delay
/// spikes, and (`check_cloud`) the fabric accounts for every message it
/// accepted, the chaos-dropped ones included.
pub(super) fn agents_cmp(run: &mut Run<Faulty<'_>>, seed: u64) {
    let params = AgentsCmpParams {
        nodes: 5,
        rounds: 2,
        wait_slices: 20,
    };
    agents_cmp::agents_side(run, &params, seed);
}
