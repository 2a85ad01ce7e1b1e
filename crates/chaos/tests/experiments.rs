//! The paper's workload bodies under the chaos backend: the hostile runs
//! are not vacuous, and the backend itself is free — under a calm plan
//! the shared body reads exactly as the plain run does.

use faasim::experiments::clients::{Backend, Bare, Opened, Plain, Run};
use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, table1, training,
};
use faasim::faas::FaasPlatform;
use faasim::{Cloud, CloudProfile};
use faasim_chaos::{experiment_scenarios, sweep, FaultPlan, Faulty, Scenario};

/// The value of counter `name` summed over the clouds of a run's digest.
fn counter(digest: &str, name: &str) -> u64 {
    let value = |line: &str| -> Option<u64> {
        let value = line.strip_prefix("counter ")?.strip_prefix(name)?.strip_prefix(" = ")?;
        value.parse().ok()
    };
    digest.lines().filter_map(value).sum()
}

#[test]
fn all_eight_experiments_are_wrapped() {
    for (hostile, suffix) in [(false, "/calm"), (true, "/hostile")] {
        let scenarios = experiment_scenarios(hostile);
        assert_eq!(scenarios.len(), 8);
        assert!(scenarios.iter().all(|s| s.name().ends_with(suffix)));
    }
}

/// Each hostile scenario with the injected fault its invariant names, and
/// how many invocations its workload asks its retrying invoker for (when
/// every one of them goes through it).
const HOSTILE: [(&str, &str, Option<u64>); 8] = [
    ("table1/hostile", "faas.chaos_kills", None),
    ("cold_starts/hostile", "faas.chaos_kills", Some(24)),
    ("bandwidth/hostile", "faas.chaos_kills", Some(20)),
    ("data_shipping/hostile", "faas.chaos_kills", None),
    ("training/hostile", "faas.chaos_kills", None),
    ("prediction/hostile", "faas.chaos_kills", None),
    ("election/hostile", "kv.throttled", None),
    ("agents_cmp/hostile", "net.messages_lost", None),
];

/// Over seeds 1..=16 every hostile scenario holds its invariant, meets the
/// fault the invariant is about in at least four seeds, and its retrying
/// clients really retried: an attempt for every operation that succeeded
/// and one more for every fault that hit one.
#[test]
fn hostile_runs_meet_the_faults_their_invariants_name() {
    let scenarios = experiment_scenarios(true);
    for (scenario, (name, fault, invocations)) in scenarios.iter().zip(HOSTILE) {
        assert_eq!(scenario.name(), name);
        let (mut hit, mut retried) = (0, 0);
        for seed in 1..=16 {
            let report = scenario.run(seed);
            assert_eq!(report.violations, Vec::<String>::new(), "{name} at seed {seed}");
            let count = |counter_name| counter(&report.digest, counter_name);
            hit += u64::from(count(fault) > 0);
            for (attempts, done, faults) in [
                ("chaos.blob.attempts", count("blob.get") + count("blob.put"), count("blob.unavailable")),
                ("resil.faas.attempts", invocations.unwrap_or(0), count("faas.chaos_kills")),
            ] {
                let attempts = count(attempts);
                if attempts > 0 && done > 0 {
                    assert!(attempts >= done + faults, "{name} at seed {seed}: {attempts} attempts");
                    retried += attempts - done;
                }
            }
            if name == "table1/hostile" {
                let done = count("kv.reads") + count("kv.writes");
                assert!(count("chaos.kv.attempts") >= done + count("kv.throttled"), "{name} at seed {seed}");
            }
        }
        assert!(hit >= 4, "{name}: {fault} in only {hit} of 16 seeds");
        if fault == "faas.chaos_kills" && name != "prediction/hostile" {
            assert!(retried > 0, "{name}: no attempt beyond the operations");
        }
    }
}

/// Byte-identical replay of the runs above, on the seeds the suite has
/// always replayed: a kill-and-retry run is still a pure function of its
/// seed, and the idempotent pipeline stays exactly-once under duplication.
#[test]
fn hostile_runs_replay() {
    for (name, seeds) in [("cold_starts/hostile", &[11, 12][..]), ("prediction/hostile", &[5][..])] {
        let scenarios = experiment_scenarios(true);
        let scenario = scenarios.iter().find(|s| s.name() == name).expect("scenario");
        let report = sweep(scenario, seeds);
        assert!(report.passed(), "{report}");
    }
}

/// A calm plan applied, bare clients: what the plain entry points must be
/// indistinguishable from.
struct CalmBare;

impl Backend for CalmBare {
    type Clients = Bare;
    type Invoker = FaasPlatform;

    fn open(&self, profile: CloudProfile, seed: u64) -> Opened<CalmBare> {
        let opened = Plain.open(profile, seed);
        FaultPlan::calm().apply(&opened.0);
        opened
    }

    fn audit(&self, _: &Cloud) -> Vec<String> {
        Vec::new()
    }
}

/// The measured values of a run, as bits.
fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// One attempt per operation, for every retrying client a run used (the
/// election's blackboard reads the store itself, through no client). An
/// execution the time limit cuts may take an attempt with it: `cut` is how
/// many executions ended that way.
fn assert_no_retries(name: &str, run: &Run<Faulty<'_>>, invocations: u64, cut: u64) {
    assert_eq!(run.failures, Vec::<String>::new(), "{name}");
    let digest = run.probe.digests.join("\n");
    let count = |counter_name| counter(&digest, counter_name);
    for (attempts, done) in [
        ("chaos.blob.attempts", count("blob.get") + count("blob.put")),
        ("chaos.kv.attempts", count("kv.reads") + count("kv.writes")),
    ] {
        let attempts = count(attempts);
        let one_each = (done..=done + cut).contains(&attempts);
        assert!(attempts == 0 || one_each, "{name}: {attempts} attempts for {done} operations");
    }
    assert_eq!(count("resil.faas.attempts"), invocations, "{name}: invocations");
}

/// Hold a workload's three readings at one seed to each other. `$plain` is
/// the plain entry point's measured values and the digests of the clouds
/// the body captures; `$body` is the shared body, returning the same
/// values. On a calm plan with bare clients it must capture the same
/// clouds and measure the same values (no new sim event, sample or draw);
/// on a calm plan with retrying clients it must measure the same values
/// bit for bit with one attempt per operation (a retry layer that never
/// retries costs no sim time).
macro_rules! differential {
    ($name:literal, $invocations:expr, $cut:expr, $plain:expr, |$run:ident| $body:expr) => {{
        let (values, digests): (Vec<u64>, Vec<String>) = $plain;
        let mut $run = Run::new(CalmBare);
        assert_eq!($body, values, "{}: calm plan, bare clients", $name);
        assert_eq!($run.failures, Vec::<String>::new(), $name);
        assert_eq!($run.probe.digests, digests, "{}: calm plan, bare clients", $name);
        let calm = FaultPlan::calm();
        let mut $run = Run::new(Faulty(&calm));
        assert_eq!($body, values, "{}: calm plan, retrying clients", $name);
        assert_no_retries($name, &$run, $invocations, $cut);
    }};
}

#[test]
fn calm_backends_read_as_the_plain_run_does() {
    let seed = 42;

    let params = table1::Table1Params::quick();
    let values = |r: &table1::Table1Result| bits(r.rows.iter().map(|row| row.mean.as_secs_f64()));
    let plain = table1::run(&params, seed);
    differential!("table1", 51, 0, (values(&plain), plain.probe.digests), |run| {
        values(&table1::run_on(&mut run, &params, seed))
    });

    let params = cold_starts::ColdStartParams::quick();
    let values = |r: &cold_starts::ColdStartResult| {
        let point = |p: &cold_starts::ColdStartPoint| {
            [p.cold_fraction, p.mean_latency.as_secs_f64(), p.p99_latency.as_secs_f64()]
        };
        bits(r.points.iter().flat_map(point))
    };
    let plain = cold_starts::run(&params, seed);
    differential!("cold_starts", 20, 0, (values(&plain), plain.probe.digests), |run| {
        values(&cold_starts::run_on(&mut run, &params, seed))
    });

    let params = bandwidth::BandwidthParams::quick();
    let values = |r: &bandwidth::BandwidthResult| {
        bits(r.points.iter().flat_map(|p| [p.per_function_mbps, p.hosts_used as f64]))
    };
    let plain = bandwidth::run(&params, seed);
    differential!("bandwidth", 21, 0, (values(&plain), plain.probe.digests), |run| {
        values(&bandwidth::run_on(&mut run, &params, seed))
    });

    let params = election::ElectionParams::quick();
    let values = |r: &election::ElectionResult| {
        bits(r.rounds.iter().map(|d| d.as_secs_f64()).chain([r.requests_per_node_second]))
    };
    let plain = election::run(&params, seed);
    differential!("election", 0, 0, (values(&plain), plain.probe.digests), |run| {
        values(&election::run_on(&mut run, &params, seed))
    });

    // The three workloads chaos runs one side of: that side's cloud is the
    // plain run's first capture (its last, for the agents).
    let params = data_shipping::DataShippingParams {
        dataset_mbs: vec![250],
        ..data_shipping::DataShippingParams::quick()
    };
    let plain = data_shipping::run(&params, seed);
    let point = plain.at(250);
    let values = bits([
        point.data_to_code.as_secs_f64(),
        point.data_to_code_executions as f64,
        point.data_to_code_cost,
    ]);
    differential!("data_shipping", 0, 0, (values, plain.probe.digests[..1].to_vec()), |run| {
        let (took, executions, cost, _) = data_shipping::data_to_code(&mut run, &params, 250, seed);
        bits([took.as_secs_f64(), executions as f64, cost])
    });

    let params = training::TrainingParams::quick();
    let values = |side: &training::TrainingSide| {
        bits([side.total_time.as_secs_f64(), side.executions as f64, side.compute_cost])
    };
    let plain = training::run(&params, seed);
    differential!("training", 0, plain.lambda.executions - 1, (values(&plain.lambda), plain.probe.digests[..1].to_vec()), |run| {
        values(&training::lambda_side(&mut run, &params, seed))
    });

    let params = agents_cmp::AgentsCmpParams::quick();
    let plain = agents_cmp::run(&params, seed);
    let values = bits([plain.agents_round.as_secs_f64()]);
    differential!("agents_cmp", 0, 0, (values, plain.probe.digests[1..].to_vec()), |run| {
        bits([agents_cmp::agents_side(&mut run, &params, seed + 100).as_secs_f64()])
    });
}

/// A function body may hold the retrying clients it is handed: they do not
/// hold the platform, so a sweep's clouds are freed as it goes.
#[test]
fn retried_clients_do_not_keep_the_platform_alive() {
    use faasim::faas::FunctionSpec;
    use faasim::simcore::SimDuration;
    let held = std::rc::Rc::new(());
    {
        let plan = FaultPlan::hostile();
        let (cloud, clients, _) = Faulty(&plan).open(CloudProfile::aws_2018().exact(), 1);
        let witness = held.clone();
        cloud.faas.register(FunctionSpec::new("f", 128, SimDuration::from_secs(1), move |_, payload| {
            let _held = (clients.clone(), witness.clone());
            async move { Ok(payload) }
        }));
        assert_eq!(std::rc::Rc::strong_count(&held), 2);
    }
    assert_eq!(std::rc::Rc::strong_count(&held), 1, "the function body outlived its cloud");
}
