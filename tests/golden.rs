//! Golden pins: cross-PR byte-identity as a test instead of a commit
//! message. Each entry is an FNV-1a hash of a run's recorder digest and
//! bill, blessed once and then held by every later change; a trace
//! replay's row carries a second pin, of the `{:?}` of its report, so a
//! drift says whether the run moved or only how its report reads.
//!
//! A refactor that claims to be digest-neutral must leave this file
//! untouched. A change that *means* to move a digest re-blesses: the
//! failure message prints the full table in source form.

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

const GOLDEN_EXPERIMENTS: &[(&str, u64)] = &[
    ("table1/calm@5", 0x4240aec282019e22),
    ("table1/calm@11", 0x4240aec282019e22),
    ("cold_starts/calm@5", 0xd8bbd09ed4726119),
    ("cold_starts/calm@11", 0xd8bbd09ed4726119),
    ("bandwidth/calm@5", 0x6a53838d058defba),
    ("bandwidth/calm@11", 0x6a53838d058defba),
    ("data_shipping/calm@5", 0x76d407a375a2a239),
    ("data_shipping/calm@11", 0x76d407a375a2a239),
    ("training/calm@5", 0x693a9555c59edcb9),
    ("training/calm@11", 0x693a9555c59edcb9),
    ("prediction/calm@5", 0xd84a794647f2bcaf),
    ("prediction/calm@11", 0xd84a794647f2bcaf),
    ("election/calm@5", 0x12600c9f581fd070),
    ("election/calm@11", 0x12600c9f581fd070),
    ("agents_cmp/calm@5", 0x331ae86f26535b83),
    ("agents_cmp/calm@11", 0x331ae86f26535b83),
    ("table1/hostile@5", 0x8069afdeaf8fb1f2),
    ("table1/hostile@11", 0x566d0e43302ebf1e),
    ("cold_starts/hostile@5", 0xd8bbd09ed4726119),
    ("cold_starts/hostile@11", 0xd8bbd09ed4726119),
    ("bandwidth/hostile@5", 0x6a53838d058defba),
    ("bandwidth/hostile@11", 0x6a53838d058defba),
    ("data_shipping/hostile@5", 0x76d407a375a2a239),
    ("data_shipping/hostile@11", 0xd468a756407222a1),
    ("training/hostile@5", 0x693a9555c59edcb9),
    ("training/hostile@11", 0xbe5134e2ddba04ca),
    ("prediction/hostile@5", 0x1f22473574b6a09b),
    ("prediction/hostile@11", 0xdcc5db47826ae6b5),
    ("election/hostile@5", 0x73d3963f652f62c6),
    ("election/hostile@11", 0xadb00d933df84baa),
    ("agents_cmp/hostile@5", 0x128decc4cf7276c4),
    ("agents_cmp/hostile@11", 0xf5c570c6e553ad94),
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
