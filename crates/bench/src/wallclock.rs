//! The wall-clock kernel suite: how fast is the simulator *itself*?
//!
//! The experiments measure **virtual** time — what the simulated cloud
//! experiences. This measures **host** time: events per second through
//! the DES kernel, the fair-share link, the election's poll loop, the
//! prediction study's text work, and invocations per second through the
//! trace replays. `make bench-compare` gates the suite against the newest
//! committed `BENCH_pr<N>.json`, and a perf PR records the next one with
//! `BENCH_OUT` (the SeBS lesson: a benchmark suite without reproducible
//! throughput baselines is a demo, not a measurement).
//!
//! Experiment wall-clock, chaos-sweep throughput and a kernel per layer
//! are the repo benchmark's (`benchmark/`, `BENCHMARK.json`); a kernel
//! lives here when it is an end-to-end replay, a meter a ROADMAP item
//! names, or has no counterpart there (EXPERIMENTS.md "Benchmark
//! methodology" has the table).

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use faasim::faas::{FunctionId, FunctionSpec};
use faasim::net::NicConfig;
use faasim::payload::Payload;
use faasim::simcore::{gbps, mbps, FairShareLink, Sim, SimDuration, SimRng};
use faasim_trace::{function_name, replay, ReplayConfig};

/// The seed of every kernel, so event counts and engine profiles are
/// reproducible.
pub const BENCH_SEED: u64 = 2019;

/// One kernel microbenchmark: wall-clock plus the kernel's own event
/// counter, giving events/sec.
#[derive(Clone, Debug)]
pub struct KernelBench {
    /// Benchmark name, `kernel/<what>`.
    pub name: String,
    /// Host seconds elapsed: the fastest of the suite's rounds.
    pub wall_secs: f64,
    /// The slowest round, so a snapshot shows the spread the gate's
    /// tolerance sits on. Recorded, never compared.
    pub wall_secs_max: f64,
    /// Events the kernel processed (task polls + timer firings).
    pub events: u64,
    /// Rendered engine [`SimProfile`](faasim::simcore::SimProfile) for
    /// benches that surface one (the replay kernels) — deterministic, so
    /// it doubles as a cross-round identity check.
    pub profile: Option<String>,
}

impl KernelBench {
    /// Events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Everything `make bench` measures.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// Cores the host reports.
    pub cores: usize,
    /// The kernels, best of `BENCH_RUNS` rounds each.
    pub kernel: Vec<KernelBench>,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Kernel timings are best-of-N **suite rounds**: on a
/// shared host, single-shot wall-clock is right-skewed by interference
/// (another tenant's burst can double a 20 ms measurement), and the
/// minimum of a few runs is the classic antidote — it estimates the
/// undisturbed cost, which is what the regression gate wants to track.
/// The rounds loop over the whole suite rather than re-running each
/// bench back-to-back, so the N samples of any one bench are separated
/// by seconds: a load burst that swallows one round rarely survives
/// into the next. Five, because on the shared two-core sandbox the
/// snapshots are recorded on, the same binary's best-of-3 read up to 1.7×
/// apart between two runs and its best-of-5 within 1.16× — and the gate's
/// tolerance is 25%.
const BENCH_RUNS: usize = 5;

fn kernel_bench(name: &str, f: impl FnOnce() -> u64) -> KernelBench {
    kernel_bench_profiled(name, || (f(), None))
}

/// Like [`kernel_bench`] for kernels that also report an engine
/// [`SimProfile`](faasim::simcore::SimProfile) line.
fn kernel_bench_profiled(name: &str, f: impl FnOnce() -> (u64, Option<String>)) -> KernelBench {
    let (wall_secs, (events, profile)) = time(f);
    KernelBench {
        name: name.to_owned(),
        wall_secs,
        wall_secs_max: wall_secs,
        events,
        profile,
    }
}

/// Fold one suite round into the best-of-rounds accumulator: keep the
/// fastest and the slowest wall-clock per entry (event counts are
/// deterministic and must agree across rounds).
fn merge_min_wall(acc: &mut Vec<KernelBench>, round: Vec<KernelBench>) {
    if acc.is_empty() {
        *acc = round;
        return;
    }
    for (best, sample) in acc.iter_mut().zip(round) {
        assert_eq!(best.name, sample.name, "bench rounds must line up");
        assert_eq!(best.events, sample.events, "{}: nondeterministic events", best.name);
        assert_eq!(
            best.profile, sample.profile,
            "{}: nondeterministic engine profile",
            best.name
        );
        best.wall_secs = best.wall_secs.min(sample.wall_secs);
        best.wall_secs_max = best.wall_secs_max.max(sample.wall_secs);
    }
}

/// One round of the suite: each kernel returns its event count so the
/// score is events/sec, not iterations/sec. [`run_suite`] runs
/// `BENCH_RUNS` rounds and keeps the fastest wall-clock per bench.
pub fn run_kernel_benches() -> Vec<KernelBench> {
    let mut out = base_kernel_benches();
    out.push(blackboard_poll_bench(SimDuration::from_hours(2)));
    out.push(platform_warm_hit_bench(12_000, 10));
    out.push(trace_replay_bench(false));
    out.push(trace_replay_bench(true));
    out.push(trace_replay_1m_bench());
    out
}

/// The platform's warm-hit path in isolation: `functions` no-op
/// functions, each with one idle container, invoked by id one after
/// another, round-robin, `rounds` times over. Nothing else runs, so the
/// cost is the invocation path itself — concurrency gate, overhead sleep,
/// warm-container pick, handler under its timeout, release, two ledger
/// charges, two recorder samples — at the paper-scale replay's table
/// sizes, where every pick lands on a different function and container
/// than the one before. `events` is the invocation count.
fn platform_warm_hit_bench(functions: u32, rounds: u32) -> KernelBench {
    let mut profile = faasim::CloudProfile::aws_2018().exact();
    // One round is `functions` × 302 ms of sim time, far past the real
    // ten-minute keep-alive; this kernel wants warm hits only.
    profile.faas.container_idle_timeout = SimDuration::from_hours(24);
    let cloud = faasim::Cloud::new(profile, BENCH_SEED);
    let per_app = ReplayConfig::paper_scale().trace.funcs_per_app;
    let ids: Rc<[FunctionId]> = (0..functions)
        .map(|i| {
            cloud.faas.register(FunctionSpec::new(
                function_name(i / per_app, i % per_app),
                128,
                SimDuration::from_secs(60),
                |_ctx, payload| async move { Ok(payload) },
            ))
        })
        .collect();
    // Untimed: `round` 0 cold-starts one container per function.
    let run_round = |expect_cold: bool| {
        let (faas, ids) = (cloud.faas.clone(), ids.clone());
        cloud.sim.block_on(async move {
            for &id in ids.iter() {
                let out = faas.invoke_id(id, Payload::new()).await;
                assert_eq!(out.cold, expect_cold, "{id}: wrong kind of start");
            }
        });
    };
    run_round(true);
    kernel_bench("kernel/platform_warm_hit_12k_functions", || {
        for _ in 0..rounds {
            run_round(false);
        }
        assert_eq!(cloud.faas.container_count(), functions as usize);
        u64::from(functions) * u64::from(rounds)
    })
}


/// The election case study's steady state in isolation: ten bully nodes
/// over the KV blackboard with a leader already elected, left alone for
/// `window` of sim time (two hours in the suite, the span of the churn
/// study; ten sim-minutes are 9 ms of host time, under the gate's noise
/// floor). Nothing happens but polls — every 250 ms each node makes one
/// `get` of the coordinator cell and one `scan_prefix` of an empty inbox
/// under `run_node`'s stop-or-timeout race, and the leader its heartbeat
/// `put` — so the cost is the per-request path of the store
/// (latency sample, sleep, two recorder series, one ledger item), the
/// transport's poll and the timers around it. `events` is the billed KV
/// requests of the window: the score is simulated KV operations per host
/// second.
fn blackboard_poll_bench(window: SimDuration) -> KernelBench {
    use faasim::pricing::Service;
    use faasim::protocols::{
        spawn_node, BlackboardTransport, BullyConfig, ElectionObserver, NodeId,
    };

    const NODES: NodeId = 10;
    let cloud = faasim::Cloud::new(faasim::CloudProfile::aws_2018().exact(), BENCH_SEED);
    BlackboardTransport::setup(&cloud.kv);
    let observer = ElectionObserver::new();
    let members: Vec<NodeId> = (1..=NODES).collect();
    let nodes: Vec<_> = members
        .iter()
        .map(|&id| {
            let host = cloud.fabric.add_host(0, NicConfig::simple(mbps(1_000.0)));
            let poll = SimDuration::from_millis(250);
            let t = BlackboardTransport::new(&cloud.sim, &cloud.kv, host, id, &members, poll);
            spawn_node(
                &cloud.sim,
                t,
                BullyConfig::blackboard_2018(),
                observer.clone(),
            )
        })
        .collect();
    // Untimed: the initial election.
    cloud
        .sim
        .run_until(cloud.sim.now() + SimDuration::from_secs(60));
    assert_eq!(observer.current_leader(), Some(NODES));
    let requests = || {
        cloud.ledger.item_quantity(Service::Kv, "read-requests")
            + cloud.ledger.item_quantity(Service::Kv, "write-requests")
    };
    let (before, rounds) = (requests(), observer.rounds().len());
    let bench = kernel_bench("kernel/blackboard_poll_10_nodes", || {
        cloud.sim.run_until(cloud.sim.now() + window);
        (requests() - before) as u64
    });
    assert_eq!(
        observer.rounds().len(),
        rounds,
        "the cluster must stay idle"
    );
    for node in &nodes {
        node.kill();
    }
    bench
}

/// The 100k-invocation replay kernel config (shared with `make
/// profile`): 256 apps at 500 req/s for four minutes, with or without
/// the gateway tier.
pub fn replay_100k_config(gateway: bool) -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.trace.apps = 256;
    cfg.trace.total_rate = 500.0;
    cfg.trace.duration = SimDuration::from_mins(4);
    cfg.trace.max_events = 100_000;
    if !gateway {
        cfg.gateway = None;
    }
    cfg
}

/// The million-invocation replay kernel config (shared with `make
/// profile`): the full paper-scale trace — 3000 apps, 12k functions, 32
/// tenants, gateway tier on — capped at one million arrivals.
pub fn replay_1m_config() -> ReplayConfig {
    let mut cfg = ReplayConfig::paper_scale();
    cfg.trace.max_events = 1_000_000;
    cfg
}

/// Assert what a calm (fault-free) replay must satisfy: the report's
/// own identities, and no failure that is not an admission shed (these
/// traces deliberately saturate the in-flight cap, so the shedder
/// fires) — without a gateway, no failure at all. Shared by the replay
/// kernels and `make profile`.
pub fn assert_calm_replay(out: &faasim_trace::ReplayOutcome) {
    let r = &out.report;
    assert_eq!(r.violations(), Vec::<String>::new());
    let shed = r.front_door.as_ref().map_or(0, |door| door.shed_requests);
    assert_eq!(r.failed, shed, "calm replay may only fail by shedding");
}

/// A 100k-invocation trace replay end to end: generator, platform,
/// retrying invoker, reaper, sketch, and report — optionally through the
/// multi-tenant gateway tier, so the pair prices the front door's
/// per-request overhead at scale. `events` is the invocation count —
/// deterministic across rounds, so the gate scores replayed invocations
/// per host second.
fn trace_replay_bench(gateway: bool) -> KernelBench {
    let cfg = replay_100k_config(gateway);
    let name = if gateway {
        "trace/replay_100k_invocations_gateway"
    } else {
        "trace/replay_100k_invocations"
    };
    kernel_bench_profiled(name, || {
        let out = replay(&cfg, BENCH_SEED, &|_| {});
        assert_calm_replay(&out);
        (out.report.invocations, Some(out.report.engine.to_string()))
    })
}

/// The acceptance-scale replay kernel: one million invocations of the
/// paper-scale trace through the gateway tier, end to end. This is the
/// scale every future policy shoot-out wants to sweep at, so its
/// events/sec is the headline number the suite carries.
fn trace_replay_1m_bench() -> KernelBench {
    let cfg = replay_1m_config();
    kernel_bench_profiled("trace/replay_1m_invocations", || {
        let out = replay(&cfg, BENCH_SEED, &|_| {});
        assert_calm_replay(&out);
        assert!(
            out.report.invocations >= 1_000_000,
            "paper-scale trace must reach the million-arrival cap, got {}",
            out.report.invocations
        );
        (out.report.invocations, Some(out.report.engine.to_string()))
    })
}

fn base_kernel_benches() -> Vec<KernelBench> {
    vec![
        kernel_bench("kernel/sequential_sleeps_100k", || {
            let sim = Sim::new(BENCH_SEED);
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..100_000 {
                    s.sleep(SimDuration::from_micros(1)).await;
                }
            });
            sim.stats().events_processed
        }),
        kernel_bench("kernel/concurrent_tasks_10k", || {
            let sim = Sim::new(BENCH_SEED);
            for i in 0..10_000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for _ in 0..10 {
                        s.sleep(SimDuration::from_nanos(1 + i % 977)).await;
                    }
                });
            }
            sim.run();
            sim.stats().events_processed
        }),
        kernel_bench("kernel/timer_cancel_churn_50k", || {
            // Timeouts that never fire: every sleep is registered and
            // then canceled — the slab-recycling hot path.
            let sim = Sim::new(BENCH_SEED);
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..50_000 {
                    s.timeout(SimDuration::from_secs(3600), s.sleep(SimDuration::from_nanos(10)))
                        .await;
                }
            });
            sim.stats().events_processed
        }),
        kernel_bench("kernel/link_fanin_5k_flows", || {
            // The data-shipping hot path: thousands of staggered flows
            // fanning into one shared link, so every join/leave reshapes
            // the fair share and churns the flow slab.
            let sim = Sim::new(BENCH_SEED);
            let link = FairShareLink::new(&sim, mbps(1000.0));
            for i in 0..5_000u64 {
                let l = link.clone();
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(i * 13)).await;
                    let cap = if i % 4 == 0 { Some(mbps(10.0)) } else { None };
                    l.transfer(250_000, cap).await;
                });
            }
            sim.run();
            sim.stats().events_processed
        }),
        kernel_bench("kernel/censor_40k_docs", censor_docs),
        kernel_bench("kernel/link_fanin_1m_flows", || {
            link_fanin_at_scale(1_000_000)
        }),
        kernel_bench("kernel/link_fanin_150k_mixed_sizes", || {
            link_fanin_mixed_sizes(150_000)
        }),
    ]
}

/// The prediction-serving case study's host-side text work in isolation:
/// a paper-scale `prediction::run` censors 40 080 hundred-word documents
/// (1 002 ten-document batches in each of four deployments) against the
/// 500-word blacklist, and none of that is simulation. `events` is the
/// document count, so the score is documents per host second.
fn censor_docs() -> u64 {
    const DOCS: u64 = 40_000;
    let model = faasim::ml::DirtyWordModel::synthetic(500);
    let batch: Vec<String> = (0..10)
        .map(|i| faasim::ml::synthetic_document(500, 100, BENCH_SEED * 1000 + i))
        .collect();
    let mut dirty = 0usize;
    for _ in 0..DOCS / batch.len() as u64 {
        for doc in &batch {
            dirty += std::hint::black_box(model.censor(std::hint::black_box(doc))).dirty_count;
        }
    }
    assert!(dirty > 0, "the documents must exercise the rewrite path");
    DOCS
}

/// The virtual-time fair-queueing stress: `n` staggered flows pile onto
/// one 10 Gbps link until every one of them is concurrently in flight,
/// then drain. Transfers are sized so the last joiner arrives long
/// before the first completion — peak concurrency equals `n` — and one
/// flow in sixteen is rate-capped so the class buckets and the
/// water-level crossings stay on the measured path. Returns the event
/// count; the score is events/sec at the target scale the ROADMAP set
/// (100k–1M concurrent flows).
fn link_fanin_at_scale(n: u64) -> u64 {
    link_fanin(n, |_| 1_000_000)
}

/// [`link_fanin_at_scale`] as the repo benchmark's `data_plane` drives it:
/// sizes drawn from 0.9–1.1 MB, so flows finish in an order unrelated to
/// the order they joined — and were allocated — in, and every completion
/// lands on cold memory. With equal sizes completions walk the heap in
/// allocation order and the kernels above never see that cost. Returns
/// the **flow** count: the score is flows per host second and does not
/// move when the link needs fewer events per flow.
fn link_fanin_mixed_sizes(n: u64) -> u64 {
    let mut rng = SimRng::stream(BENCH_SEED, "bench.link_fanin_mixed_sizes");
    link_fanin(n, |_| rng.range_u64(900_000..1_100_000));
    n
}

/// `n` flows of `bytes_of(i)` bytes joining one 10 Gbps link 500 ns apart,
/// every sixteenth capped at 1 Mbps; all must drain. Returns the kernel's
/// event count.
fn link_fanin(n: u64, mut bytes_of: impl FnMut(u64) -> u64) -> u64 {
    let sim = Sim::new(BENCH_SEED);
    let link = FairShareLink::new(&sim, gbps(10.0));
    let done = Rc::new(std::cell::Cell::new(0u64));
    for i in 0..n {
        let l = link.clone();
        let s = sim.clone();
        let d = done.clone();
        let bytes = bytes_of(i);
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(i * 500)).await;
            let cap = if i % 16 == 0 { Some(mbps(1.0)) } else { None };
            l.transfer(bytes, cap).await;
            d.set(d.get() + 1);
        });
    }
    sim.run();
    assert_eq!(done.get(), n, "all flows must drain");
    assert_eq!(link.active_flows(), 0);
    sim.stats().events_processed
}

/// Run the suite `BENCH_RUNS` times, keeping each kernel's fastest and
/// slowest wall-clock (see `BENCH_RUNS`).
pub fn run_suite() -> SuiteRun {
    let mut kernel = Vec::new();
    for _ in 0..BENCH_RUNS {
        merge_min_wall(&mut kernel, run_kernel_benches());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    SuiteRun { cores, kernel }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

impl SuiteRun {
    /// Serialize to the snapshot schema `BENCH_baseline.json` and every
    /// `BENCH_pr<N>.json` share (no external JSON dependency — the build
    /// is offline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"faasim-bench/wallclock/1\",\n");
        writeln!(out, "  \"cores\": {},", self.cores).unwrap();
        out.push_str("  \"kernel\": [\n");
        for (i, k) in self.kernel.iter().enumerate() {
            let comma = if i + 1 < self.kernel.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"wall_secs\": {}, \"wall_secs_max\": {}, \"events\": {}, \"events_per_sec\": {}}}{comma}",
                k.name,
                json_f64(k.wall_secs),
                json_f64(k.wall_secs_max),
                k.events,
                json_f64(k.events_per_sec()),
            )
            .unwrap();
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable table, printed by the bench target.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "wall-clock kernel suite ({} core(s))", self.cores).unwrap();
        writeln!(out).unwrap();
        writeln!(
            out,
            "{:<40} {:>10} {:>10} {:>12} {:>14}",
            "kernel bench", "wall (s)", "max (s)", "events", "events/sec"
        )
        .unwrap();
        for k in &self.kernel {
            writeln!(
                out,
                "{:<40} {:>10.3} {:>10.3} {:>12} {:>14.0}",
                k.name,
                k.wall_secs,
                k.wall_secs_max,
                k.events,
                k.events_per_sec()
            )
            .unwrap();
            if let Some(profile) = &k.profile {
                writeln!(out, "    engine: {profile}").unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_is_well_formed() {
        let b = SuiteRun {
            cores: 4,
            kernel: vec![KernelBench {
                name: "kernel/x".into(),
                wall_secs: 0.5,
                wall_secs_max: 0.75,
                events: 1000,
                profile: None,
            }],
        };
        let json = b.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["\"schema\"", "\"cores\"", "\"kernel\"", "\"events_per_sec\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"wall_secs\": 0.500000, \"wall_secs_max\": 0.750000"), "{json}");
        assert!(json.contains("\"events_per_sec\": 2000.000000"), "{json}");
        assert!(b.render().contains("0.750"));
    }

    #[test]
    fn rounds_keep_the_fastest_and_the_slowest_wall_clock() {
        let round = |wall_secs| {
            vec![KernelBench {
                name: "kernel/x".into(),
                wall_secs,
                wall_secs_max: wall_secs,
                events: 10,
                profile: None,
            }]
        };
        let mut acc = Vec::new();
        for wall_secs in [0.3, 0.2, 0.5] {
            merge_min_wall(&mut acc, round(wall_secs));
        }
        assert_eq!((acc[0].wall_secs, acc[0].wall_secs_max), (0.2, 0.5));
    }

    #[test]
    fn kernel_events_per_sec_handles_zero_wall() {
        let k = KernelBench {
            name: "kernel/x".into(),
            wall_secs: 0.0,
            wall_secs_max: 0.0,
            events: 10,
            profile: None,
        };
        assert_eq!(k.events_per_sec(), 0.0);
    }

    #[test]
    fn blackboard_poll_smoke() {
        // The real kernel idles for two sim-hours. Per second: ten
        // nodes × just under four polls (250 ms apart, 11 ms long) × two
        // reads, and the leader's heartbeat writes; the helper asserts
        // that no election interrupts them.
        let b = blackboard_poll_bench(SimDuration::from_secs(30));
        assert_eq!(b.name, "kernel/blackboard_poll_10_nodes");
        assert!(
            (2_100..2_400).contains(&b.events),
            "{} KV requests",
            b.events
        );
    }

    #[test]
    fn platform_warm_hit_smoke() {
        // The real kernel is 12 000 functions × 10 rounds; the helper
        // asserts one cold start per function and warm hits ever after.
        let b = platform_warm_hit_bench(600, 3);
        assert_eq!(b.name, "kernel/platform_warm_hit_12k_functions");
        assert_eq!(b.events, 1_800);
    }

    #[test]
    fn link_fanin_100k_smoke() {
        // CI gate for the virtual-time fair-queueing scale target, on the
        // million-flow kernel's body at a tenth of its size: 100k
        // concurrent flows (every sixteenth rate-capped) must fully
        // drain — the helper asserts completion and an empty link — and
        // the event count must stay linear in the flow count, not
        // quadratic as the pre-rewrite O(n)-rescan allocator was.
        let events = link_fanin_at_scale(100_000);
        assert!(
            (200_000..2_000_000).contains(&events),
            "100k-flow fan-in event count off the linear envelope: {events}"
        );
    }

    #[test]
    fn link_fanin_mixed_smoke() {
        // The mixed-size kernel at 10k flows: the helper asserts that all
        // drain and that `active_flows() == 0`; the score counts flows.
        assert_eq!(link_fanin_mixed_sizes(10_000), 10_000);
    }
}
