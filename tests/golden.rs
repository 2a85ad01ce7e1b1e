//! Golden pins: cross-PR byte-identity as a test instead of a commit
//! message. Each entry is an FNV-1a hash of a run's recorder digest and
//! bill, blessed once and then held by every later change; a trace
//! replay's row carries a second pin, of the `{:?}` of its report, so a
//! drift says whether the run moved or only how its report reads.
//!
//! A refactor that claims to be digest-neutral must leave this file
//! untouched. A change that *means* to move a digest re-blesses: the
//! failure message prints the full table in source form.

use std::sync::OnceLock;

use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, prediction, table1, training,
};
use faasim_chaos::{
    experiment_scenarios, CrdtSync, FaultPlan, LinkChurn, NoisyNeighbor, QueuePipeline, Scenario,
    TraceReplay,
};
use faasim_resilience::RetryPolicy;
use faasim_trace::{replay, GatewaySpec, ReplayConfig};

const SEEDS: [u64; 2] = [5, 11];

fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        // A separator byte keeps ("ab", "c") and ("a", "bc") apart.
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A golden row as it reads in this file: its label, then its pins.
fn source_row(name: &str, pins: &[u64]) -> String {
    let pins: Vec<String> = pins.iter().map(|pin| format!("0x{pin:016x}")).collect();
    format!("    (\"{name}\", {}),\n", pins.join(", "))
}

/// Compare the rows a run produced with a golden table, both in source
/// form; on any difference print the whole table as it should read in
/// this file.
fn assert_golden(what: &str, actual: &[String], golden: Vec<String>) {
    if actual != golden {
        panic!("{what} drifted from the golden pins; the run now reads:\n{}", actual.concat());
    }
}

/// The source form of a table with one pin per row.
fn one_pin(golden: &[(&str, u64)]) -> Vec<String> {
    golden.iter().map(|(name, pin)| source_row(name, &[*pin])).collect()
}

/// One row per (scenario, seed): the row's label and the hash of the
/// run's digest and bill. A pinned run must report no violation.
fn scenario_rows(scenarios: &[(&str, &dyn Scenario)]) -> Vec<String> {
    let mut rows = Vec::new();
    for (label, scenario) in scenarios {
        for seed in SEEDS {
            let run = scenario.run(seed);
            assert!(run.violations.is_empty(), "{label} seed {seed}: {:?}", run.violations);
            rows.push(source_row(&format!("{label}@{seed}"), &[fnv1a(&[&run.digest, &run.bill])]));
        }
    }
    rows
}

#[test]
fn resilient_experiments_match_golden() {
    let scenarios: Vec<_> = [false, true].into_iter().flat_map(experiment_scenarios).collect();
    let labelled: Vec<_> = scenarios.iter().map(|s| (s.name(), s as &dyn Scenario)).collect();
    assert_golden("resilient experiments", &scenario_rows(&labelled), one_pin(GOLDEN_EXPERIMENTS));
}

#[test]
fn noisy_neighbor_matches_golden() {
    let (calm, hostile) = (NoisyNeighbor::default(), NoisyNeighbor::chaotic());
    let rows = scenario_rows(&[(calm.name(), &calm), (hostile.name(), &hostile)]);
    assert_golden("noisy neighbor", &rows, one_pin(GOLDEN_NOISY_NEIGHBOR));
}

/// The chaos scenarios proper, calm and chaotic arm each. Two arms of one
/// scenario share its `name()`, so the rows carry their own labels.
#[test]
fn chaos_scenarios_match_golden() {
    let rows = scenario_rows(&[
        ("crdt-sync/default", &CrdtSync::default()),
        ("crdt-sync/chaotic", &CrdtSync::chaotic()),
        ("queue-pipeline/default", &QueuePipeline::default()),
        ("queue-pipeline/chaotic", &QueuePipeline::chaotic()),
        ("link-churn/default", &LinkChurn::default()),
        ("trace-replay/small_calm", &TraceReplay::small_calm()),
        ("trace-replay/small_hostile", &TraceReplay::small_hostile()),
    ]);
    assert_golden("chaos scenarios", &rows, one_pin(GOLDEN_CHAOS));
}

/// A 2 000-event replay in every client shape: gateway or not, client
/// retries or not, each under the calm and the hostile plan. Two pins a
/// row: digest and bill, then the report's `{:?}`.
#[test]
fn replay_client_shapes_match_golden() {
    let mut actual = Vec::new();
    for (gateway, gw_name) in [(false, "direct"), (true, "gateway")] {
        for (retry, retry_name) in [(false, "once"), (true, "retry")] {
            for (plan, plan_name) in [(FaultPlan::calm(), "calm"), (FaultPlan::hostile(), "hostile")] {
                let mut cfg = ReplayConfig::small();
                cfg.trace.max_events = 2_000;
                cfg.gateway = gateway.then(GatewaySpec::default);
                cfg.retry = retry.then(RetryPolicy::default);
                for seed in SEEDS {
                    let out = replay(&cfg, seed, &|cloud| plan.apply(cloud));
                    let r = &out.report;
                    assert_eq!(r.generated, 2_000);
                    assert_eq!(r.violations(), Vec::<String>::new(), "{gw_name}/{retry_name}");
                    if retry && plan_name == "hostile" {
                        // The retry layer really ran: more platform
                        // executions than requests.
                        assert!(r.attempts > r.invocations, "{gw_name}/{retry_name}: {r:?}");
                        let counter = if gateway {
                            "resil.gateway.attempts"
                        } else {
                            "resil.faas.attempts"
                        };
                        assert!(out.digest.contains(counter), "{counter} missing:\n{}", out.digest);
                    }
                    actual.push(source_row(
                        &format!("replay/{gw_name}/{retry_name}/{plan_name}@{seed}"),
                        &[fnv1a(&[&out.digest, &out.bill]), fnv1a(&[&format!("{r:?}")])],
                    ));
                }
            }
        }
    }
    let golden = GOLDEN_REPLAY.iter().map(|(name, run, report)| source_row(name, &[*run, *report]));
    assert_golden("replay client shapes", &actual, golden.collect());
}

/// The reproduction itself: every plain experiment at its `Default`
/// (paper-scale) parameters, seed 2019. Run once, read by the two tests
/// below: a pin per run, the hash of its probe's digests and bills, and
/// the source form of each paper reference with the value measured for it.
fn paper_runs() -> &'static (Vec<String>, Vec<String>) {
    static RUNS: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
    RUNS.get_or_init(|| {
        const SEED: u64 = 2019;
        let t1 = table1::run(&Default::default(), SEED);
        let tr = training::run(&Default::default(), SEED);
        let pr = prediction::run(&Default::default(), SEED);
        let el = election::run(&Default::default(), SEED);
        let churn = election::run_churn(&Default::default(), SEED);
        let bw = bandwidth::run(&Default::default(), SEED);
        let probes = [
            ("table1", &t1.probe),
            ("cold_starts", &cold_starts::run(&Default::default(), SEED).probe),
            ("bandwidth", &bw.probe),
            ("bandwidth/memory_sweep", &bandwidth::run_memory_sweep(&Default::default(), SEED).probe),
            ("data_shipping", &data_shipping::run(&Default::default(), SEED).probe),
            ("training", &tr.probe),
            ("prediction", &pr.probe),
            ("election", &el.probe),
            ("election/churn", &churn.probe),
            ("agents_cmp", &agents_cmp::run(&Default::default(), SEED).probe),
        ];
        let pins = probes.map(|(name, probe)| {
            let parts: Vec<&str> = probe.digests.iter().chain(&probe.bills).map(String::as_str).collect();
            source_row(&format!("{name}@{SEED}"), &[fnv1a(&parts)])
        });

        let groups = [
            ("E1", t1.paper_rows()),
            ("E3", tr.paper_rows()),
            ("E4", pr.paper_rows()),
            ("E5", el.paper_rows()),
            ("E5", churn.paper_rows()),
            ("E6", bw.paper_rows()),
        ];
        let mut refs = Vec::new();
        for (group, rows) in groups {
            for row in rows {
                let unit = if row.unit.is_empty() { String::new() } else { format!(" [{}]", row.unit) };
                let label = format!("{group}/{}{unit}", row.label);
                refs.push(reference_row(&label, &row.paper.to_string(), row.measured.to_bits()));
            }
        }
        (pins.to_vec(), refs)
    })
}

/// A reference row as it reads in this file: label, the paper's value as
/// it prints, the bits of the measured one — and the measured one in
/// decimal, for the reader.
fn reference_row(label: &str, paper: &str, bits: u64) -> String {
    format!("    (\"{label}\", \"{paper}\", 0x{bits:016x}), // {}\n", f64::from_bits(bits))
}

#[test]
fn plain_experiments_match_golden() {
    assert_golden("plain experiments", &paper_runs().0, one_pin(GOLDEN_PLAIN));
}

/// The 37 numbers the paper reports for the artefacts reproduced here,
/// each beside the value the simulator measures for it, bit for bit.
#[test]
fn paper_reference_values_match_golden() {
    let golden: Vec<String> =
        GOLDEN_REFERENCES.iter().map(|(label, paper, bits)| reference_row(label, paper, *bits)).collect();
    if paper_runs().1 != golden {
        panic!(
            "a measured paper number moved; refresh EXPERIMENTS.md E1-E6 from \
             `cargo run --release --example paper_tables`. The table now reads:\n{}",
            paper_runs().1.concat()
        );
    }
    assert_eq!(golden.len(), 37);
}

const GOLDEN_PLAIN: &[(&str, u64)] = &[
    ("table1@2019", 0x84756c11953e8ad4),
    ("cold_starts@2019", 0xcad1e4d0ee317a09),
    ("bandwidth@2019", 0xd4cd291de22ed5ae),
    ("bandwidth/memory_sweep@2019", 0xefdf4faf2a6027f9),
    ("data_shipping@2019", 0x2a13e39dbcb74524),
    ("training@2019", 0x0c812a10f333e17c),
    ("prediction@2019", 0xa346de3bf4f6dc8b),
    ("election@2019", 0xa2d0427a8ce13d84),
    ("election/churn@2019", 0x95000bdb0970ad67),
    ("agents_cmp@2019", 0xbc9e4c322737c66e),
];

const GOLDEN_REFERENCES: &[(&str, &str, u64)] = &[
    ("E1/Func. Invoc. (1KB) [ms]", "303", 0x4072e00000000000), // 302
    ("E1/Lambda I/O (S3) [ms]", "108", 0x405a83319c5a3e3a), // 106.049903
    ("E1/Lambda I/O (DynamoDB) [ms]", "11", 0x4026000000000000), // 11
    ("E1/EC2 I/O (S3) [ms]", "106", 0x405a83319c5a3e3a), // 106.049903
    ("E1/EC2 I/O (DynamoDB) [ms]", "11", 0x4026000000000000), // 11
    ("E1/EC2 NW (0MQ) [ms]", "0.29", 0x3fd2c881e4712e41), // 0.293488
    ("E1/Func. Invoc. (1KB) [x]", "1045", 0x40901402f56f6293), // 1029.0028893855967
    ("E1/Lambda I/O (S3) [x]", "372", 0x4076957de2b84033), // 361.34323379490814
    ("E1/Lambda I/O (DynamoDB) [x]", "37.9", 0x4042bd786dc08e04), // 37.48023769285285
    ("E1/EC2 I/O (S3) [x]", "365", 0x4076957de2b84033), // 361.34323379490814
    ("E1/EC2 I/O (DynamoDB) [x]", "37.9", 0x4042bd786dc08e04), // 37.48023769285285
    ("E1/EC2 NW (0MQ) [x]", "1", 0x3ff0000000000000), // 1
    ("E3/Lambda s/iteration [s]", "3.08", 0x4008ab6de07209f7), // 3.083705667
    ("E3/EC2 s/iteration [s]", "0.14", 0x3fc1eb851eb851ec), // 0.14
    ("E3/Lambda sequential executions", "31", 0x403f000000000000), // 31
    ("E3/Lambda total minutes [min]", "465", 0x407ce8e4c312b407), // 462.55585009866667
    ("E3/EC2 total seconds [s]", "1300", 0x4093b00000000000), // 1260
    ("E3/Lambda cost [$]", "0.29", 0x3fd27e3bd4cafb9a), // 0.2889546945625
    ("E3/EC2 cost [$]", "0.04", 0x3fa1eb851eb851ec), // 0.035
    ("E3/slowdown [x]", "21", 0x403606c6ad020f43), // 22.026469052317463
    ("E3/cost ratio [x]", "7.3", 0x402082fe90478537), // 8.255848416071428
    ("E4/Lambda + S3 model [ms]", "559", 0x4081964d8c2a454e), // 562.787865
    ("E4/Lambda optimized (model baked in, SQS out) [ms]", "447", 0x407c15e50b52439a), // 449.368419
    ("E4/EC2 + SQS [ms]", "13", 0x402a5d1633482be9), // 13.18181
    ("E4/EC2 + ZeroMQ [ms]", "2.8", 0x4008eb3edd8b60f2), // 3.114866
    ("E4/SQS $/hr [$]", "1584", 0x4098c00000000001), // 1584.0000000000002
    ("E4/EC2 instances", "290", 0x4073800000000000), // 312
    ("E4/EC2 fleet $/hr [$]", "27.84", 0x403df3b645a1cac1), // 29.952
    ("E4/cost advantage [x]", "57", 0x404a713b13b13b14), // 52.88461538461539
    ("E4/per-instance throughput [r/s]", "3500", 0x40a914d26ba648d7), // 3210.41097755088
    ("E5/election round seconds [s]", "16.7", 0x403025c28f5c28f6), // 16.1475
    ("E5/% aggregate time electing [%]", "1.9", 0x3ffcb4e81b4e81b6), // 1.794166666666667
    ("E5/steady KV requests/node/s (4 polls x 2 reads) [r/s]", "8", 0x401e000000000000), // 7.5
    ("E5/1,000-node cluster $/hr [$]", "450", 0x407bd80000000001), // 445.50000000000006
    ("E5/% time without agreement (paper derives >=1.9%) [%]", "1.9", 0x3ff9f21e7e10d6d0), // 1.6216111111111111
    ("E6/single function Mbps [Mbps]", "538", 0x4080cfffffebc80c), // 537.9999998493599
    ("E6/20 functions, per-function Mbps [Mbps]", "28.7", 0x403cb3333332e450), // 28.699999999928252
];

const GOLDEN_EXPERIMENTS: &[(&str, u64)] = &[
    ("table1/calm@5", 0x04cbc8ef4f4f877d),
    ("table1/calm@11", 0x04cbc8ef4f4f877d),
    ("cold_starts/calm@5", 0x887d67f9c541ece0),
    ("cold_starts/calm@11", 0x887d67f9c541ece0),
    ("bandwidth/calm@5", 0xad8e74764eb09510),
    ("bandwidth/calm@11", 0xad8e74764eb09510),
    ("data_shipping/calm@5", 0xe657bcc1a9811e52),
    ("data_shipping/calm@11", 0xe657bcc1a9811e52),
    ("training/calm@5", 0xb7bfcffedb1e646a),
    ("training/calm@11", 0xb7bfcffedb1e646a),
    ("prediction/calm@5", 0x52623fe1b1aa745a),
    ("prediction/calm@11", 0x52623fe1b1aa745a),
    ("election/calm@5", 0xb55d31235435ada1),
    ("election/calm@11", 0xb55d31235435ada1),
    ("agents_cmp/calm@5", 0xb1b21c090410037c),
    ("agents_cmp/calm@11", 0xb1b21c090410037c),
    ("table1/hostile@5", 0x98c07b9d1bc09e9e),
    ("table1/hostile@11", 0xccf4fe96ab475d46),
    ("cold_starts/hostile@5", 0x3e94ac57805cc270),
    ("cold_starts/hostile@11", 0x887d67f9c541ece0),
    ("bandwidth/hostile@5", 0xe30ac24dc3596c3e),
    ("bandwidth/hostile@11", 0xad8e74764eb09510),
    ("data_shipping/hostile@5", 0x2f29814394c5de24),
    ("data_shipping/hostile@11", 0x3f2a52b06255735f),
    ("training/hostile@5", 0x3c212ba94213b505),
    ("training/hostile@11", 0xb9998a5951ca1166),
    ("prediction/hostile@5", 0x39603b775306ece2),
    ("prediction/hostile@11", 0xa325ae7b72371249),
    ("election/hostile@5", 0x2766027755a97ec5),
    ("election/hostile@11", 0x0b866095ffe73034),
    ("agents_cmp/hostile@5", 0xe4c5a3d39f3b482c),
    ("agents_cmp/hostile@11", 0xd8124055be00165c),
];

const GOLDEN_NOISY_NEIGHBOR: &[(&str, u64)] = &[
    ("noisy-neighbor/calm@5", 0x421db479b4619402),
    ("noisy-neighbor/calm@11", 0xba390663241fd42e),
    ("noisy-neighbor/hostile@5", 0x421db479b4619402),
    ("noisy-neighbor/hostile@11", 0x5d1aeb3a5497d553),
];

const GOLDEN_CHAOS: &[(&str, u64)] = &[
    ("crdt-sync/default@5", 0x18197538570711de),
    ("crdt-sync/default@11", 0x18197538570711de),
    ("crdt-sync/chaotic@5", 0xfcb73767660aa260),
    ("crdt-sync/chaotic@11", 0x200704073e16323a),
    ("queue-pipeline/default@5", 0xc540f764d7862510),
    ("queue-pipeline/default@11", 0xc540f764d7862510),
    ("queue-pipeline/chaotic@5", 0x2381c2c258ca128f),
    ("queue-pipeline/chaotic@11", 0x163976d5435d6e87),
    ("link-churn/default@5", 0xb35630558e7bed22),
    ("link-churn/default@11", 0x7f27a66c9dd6a7be),
    ("trace-replay/small_calm@5", 0x9bdecef70e0c1439),
    ("trace-replay/small_calm@11", 0x52bed0d43851ac1f),
    ("trace-replay/small_hostile@5", 0xec8fa24b6b563fd0),
    ("trace-replay/small_hostile@11", 0x02bdbe575a9604aa),
];

const GOLDEN_REPLAY: &[(&str, u64, u64)] = &[
    ("replay/direct/once/calm@5", 0xac1e8227f5d81771, 0x32fd23880c708d95),
    ("replay/direct/once/calm@11", 0x1d8576309a680b60, 0x11a98538bd599dec),
    ("replay/direct/once/hostile@5", 0x8e84cf6a8dce10cc, 0x3bb82ac02e21b6b0),
    ("replay/direct/once/hostile@11", 0x89b2b116b51ec618, 0xfab001255775eefe),
    ("replay/direct/retry/calm@5", 0x9f72daa794187c4c, 0x32fd23880c708d95),
    ("replay/direct/retry/calm@11", 0xe60a3d223d329b75, 0x11a98538bd599dec),
    ("replay/direct/retry/hostile@5", 0x24e33c386a410723, 0x94834554a6a0037c),
    ("replay/direct/retry/hostile@11", 0x2295320515215843, 0x999c7e5e6e92aee9),
    ("replay/gateway/once/calm@5", 0x5dcf8abdd8761a62, 0x181e999818ba8c4f),
    ("replay/gateway/once/calm@11", 0x4c75057dc73eff59, 0x7b7e328887032414),
    ("replay/gateway/once/hostile@5", 0x45d190c2536989a3, 0x112920e3faacd52b),
    ("replay/gateway/once/hostile@11", 0xa17facf13b538861, 0xb9c9844c0eaa2b0f),
    ("replay/gateway/retry/calm@5", 0x461cd38b9c11a120, 0x181e999818ba8c4f),
    ("replay/gateway/retry/calm@11", 0xc6ae4b2491e1f503, 0x7b7e328887032414),
    ("replay/gateway/retry/hostile@5", 0xd93274d44d6a2a96, 0x35b78086b5a64c12),
    ("replay/gateway/retry/hostile@11", 0x63c823fdd6ee4d32, 0xaa182ead4886bed6),
];
