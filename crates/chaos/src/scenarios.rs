//! Built-in chaos scenarios: the §3.2 CRDT gossip and the §2 queue
//! pipeline under fault injection, a fair-share link churn, and the
//! gateway's noisy-neighbor isolation experiment.
//!
//! All four are pure functions of the seed, so the [`sweep`](crate::sweep)
//! harness can replay any failure exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use faasim::protocols::{Crdt, GCounter};
use faasim::CloudProfile;
use faasim_faas::{add_queue_trigger, decode_batch, FunctionSpec};
use faasim_gateway::{Gateway, GatewayConfig, TenantConfig, TenantStats};
use faasim_kv::{Consistency, KvStore};
use faasim_payload::Payload;
use faasim_queue::QueueConfig;
use faasim_simcore::{nearest_rank, LatencyModel, SimDuration};

use faasim_resilience::{settled, Deadline, RetryPolicy, Retrying};

use crate::faults::FaultPlan;
use crate::sweep::{RunReport, Scenario};

fn base_profile() -> CloudProfile {
    CloudProfile::aws_2018().exact()
}

/// §3.2's "disorderly" claim under fire: G-counter replicas gossip
/// snapshots through the *eventually consistent* KV tier while chaos
/// throttles the store and spikes the network, and every replica must
/// still converge to the exact global count once writes quiesce.
///
/// Each replica's KV traffic goes through a [`Retrying`] client, so
/// the scenario also demonstrates the retry discipline absorbing
/// `Throttled` errors.
#[derive(Clone, Debug, Default)]
pub struct CrdtSync {
    /// The faults to inject.
    pub plan: FaultPlan,
}

impl CrdtSync {
    /// The chaotic arm: 15% KV throttling, 5% network delay spikes, 2%
    /// packet loss.
    pub fn chaotic() -> CrdtSync {
        let mut s = CrdtSync::default();
        s.plan.kv.throttle_prob = 0.15;
        s.plan.net.delay_spike_prob = 0.05;
        s.plan.net.loss_prob = 0.02;
        s
    }
}

/// Number of gossiping replicas.
const REPLICAS: u64 = 4;
/// Increments each replica performs.
const INCREMENTS_EACH: u64 = 25;

impl Scenario for CrdtSync {
    fn name(&self) -> &'static str {
        "crdt-sync"
    }

    fn run(&self, seed: u64) -> RunReport {
        let mut profile = base_profile();
        // A deliberately laggy store: eventual reads can be 2 s stale.
        profile.kv.eventual_lag = LatencyModel::Constant(SimDuration::from_secs(2));
        let cloud = self.plan.build(profile, seed);
        cloud.kv.create_table("crdt");

        // Retry policy for the replicas' KV clients.
        let policy = RetryPolicy {
            max_attempts: 8,
            call_timeout: Some(SimDuration::from_secs(10)),
            ..RetryPolicy::default()
        };
        let states: Rc<RefCell<Vec<GCounter>>> =
            Rc::new(RefCell::new((0..REPLICAS).map(|_| GCounter::new()).collect()));
        let stuck: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

        for r in 1..=REPLICAS {
            let kv = Retrying::new(
                &cloud.sim,
                &cloud.kv,
                cloud.recorder.clone(),
                policy.clone(),
                &format!("chaos.crdt.replica-{r}"),
            );
            let sim = cloud.sim.clone();
            let host = cloud.client_host();
            let states = states.clone();
            let stuck = stuck.clone();
            cloud.sim.spawn(async move {
                let idx = (r - 1) as usize;
                let my_key = format!("replica-{r}");
                let unbounded = Deadline::unbounded();
                for step in 0..INCREMENTS_EACH {
                    states.borrow_mut()[idx].increment(r, 1);
                    let snapshot = Payload::from(states.borrow()[idx].encode());
                    // A publish that exhausts its retries is not fatal —
                    // the next step republishes a superseding snapshot.
                    let _ = kv
                        .call(unbounded, |kv| kv.put(&host, "crdt", &my_key, snapshot.clone()))
                        .await;
                    let peer = (r + step) % REPLICAS + 1;
                    if peer != r {
                        let peer_key = format!("replica-{peer}");
                        let read = |kv| KvStore::get(kv, &host, "crdt", &peer_key, Consistency::Eventual);
                        // A peer not yet published, or retries exhausted:
                        // gossip again later.
                        if let Ok(item) = kv.call(unbounded, read).await {
                            if let Some(other) = GCounter::decode(&item.value.bytes()) {
                                states.borrow_mut()[idx].merge(&other);
                            }
                        }
                    }
                    sim.sleep(SimDuration::from_millis(500)).await;
                }
                // Quiesce: keep publishing + merging until propagated.
                for _round in 0..20u64 {
                    let snapshot = Payload::from(states.borrow()[idx].encode());
                    let publish = kv.call(unbounded, |kv| kv.put(&host, "crdt", &my_key, snapshot.clone()));
                    if publish.await.is_err() {
                        stuck
                            .borrow_mut()
                            .push(format!("replica {r}: quiesce publish exhausted retries"));
                    }
                    for peer in 1..=REPLICAS {
                        if peer == r {
                            continue;
                        }
                        let peer_key = format!("replica-{peer}");
                        let read = |kv| KvStore::get(kv, &host, "crdt", &peer_key, Consistency::Eventual);
                        if let Ok(item) = kv.call(unbounded, read).await {
                            if let Some(other) = GCounter::decode(&item.value.bytes()) {
                                states.borrow_mut()[idx].merge(&other);
                            }
                        }
                    }
                    sim.sleep(SimDuration::from_secs(1)).await;
                }
            });
        }
        cloud.sim.run();

        let mut violations = stuck.borrow().clone();
        let want = REPLICAS * INCREMENTS_EACH;
        for (i, s) in states.borrow().iter().enumerate() {
            if s.value() != want {
                violations.push(format!(
                    "replica {i} did not converge: {} != {want}",
                    s.value()
                ));
            }
        }
        RunReport::audit(&cloud, violations)
    }
}

/// The §2 queue-to-function pipeline under at-least-once chaos: a
/// producer sends `MESSAGES` distinct payloads, the queue duplicates
/// and delays deliveries, the platform kills workers mid-flight — and
/// the worker fleet must still process **exactly** the expected payload
/// set (dedup makes redelivery idempotent) and drain the queue.
#[derive(Clone, Debug, Default)]
pub struct QueuePipeline {
    /// The faults to inject.
    pub plan: FaultPlan,
}

impl QueuePipeline {
    /// The chaotic arm: 20% duplicate delivery, 10% delayed delivery,
    /// 5% mid-flight kills, 2% packet loss.
    pub fn chaotic() -> QueuePipeline {
        let mut s = QueuePipeline::default();
        s.plan.queue.duplicate_prob = 0.20;
        s.plan.queue.delay_prob = 0.10;
        s.plan.faas.kill_prob = 0.05;
        s.plan.net.loss_prob = 0.02;
        s
    }
}

/// Number of distinct payloads sent.
const MESSAGES: u32 = 30;
/// Virtual time allowed for the pipeline to drain.
const DEADLINE: SimDuration = SimDuration::from_secs(180);

impl Scenario for QueuePipeline {
    fn name(&self) -> &'static str {
        "queue-pipeline"
    }

    fn run(&self, seed: u64) -> RunReport {
        let cloud = self.plan.build(base_profile(), seed);
        cloud.queue.create_queue(
            "jobs",
            QueueConfig {
                visibility_timeout: SimDuration::from_secs(5),
                dead_letter: None,
            },
        );

        // payload -> delivery count; duplicates and redeliveries bump the
        // count, the invariant only demands the *set* be exact.
        let seen: Rc<RefCell<BTreeMap<u32, u32>>> = Rc::new(RefCell::new(BTreeMap::new()));
        let s = seen.clone();
        cloud.faas.register(FunctionSpec::new(
            "worker",
            256,
            // A short limit keeps the chaos kill window tight enough that
            // kills actually land mid-handler.
            SimDuration::from_secs(1),
            move |ctx, payload| {
                let s = s.clone();
                async move {
                    // Real work before the side effect, so a mid-flight
                    // kill can strike first and force a redelivery.
                    ctx.cpu(SimDuration::from_millis(100)).await;
                    for m in decode_batch(&payload).expect("batch codec") {
                        let id = u32::from_le_bytes(m.bytes()[..4].try_into().expect("4-byte payload"));
                        *s.borrow_mut().entry(id).or_insert(0) += 1;
                    }
                    Ok(Payload::new())
                }
            },
        ));
        let trigger =
            add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "worker", "jobs", 10);

        let host = cloud.client_host();
        let queue = cloud.queue.clone();
        cloud.sim.spawn(async move {
            for i in 0..MESSAGES {
                queue
                    .send(&host, "jobs", Payload::from(i.to_le_bytes().to_vec()))
                    .await
                    .expect("queue exists");
            }
        });
        cloud.sim.run_until(cloud.sim.now() + DEADLINE);
        trigger.stop();

        let mut violations = Vec::new();
        {
            let seen = seen.borrow();
            for i in 0..MESSAGES {
                if !seen.contains_key(&i) {
                    violations.push(format!("payload {i} was never delivered"));
                }
            }
            for id in seen.keys() {
                if *id >= MESSAGES {
                    violations.push(format!("unexpected payload {id} delivered"));
                }
            }
        }
        let backlog = cloud.queue.queue_len("jobs");
        if backlog != 0 {
            violations.push(format!("queue not drained: {backlog} messages left"));
        }
        RunReport::audit(&cloud, violations)
    }
}

/// Determinism regression for the virtual-time fair-sharing link: a
/// seeded storm of transfers (staggered joins, five cap classes, a slice
/// of mid-flight cancels and zero-byte sends) fans into one link, and
/// every completion is folded into the recorder. The sweep harness runs
/// each seed twice, so any nondeterminism in the heap/bucket machinery —
/// iteration order, lazy compaction, stale-entry handling — shows up as
/// a digest divergence at a pinpointed seed.
///
/// It has no settings; `#[non_exhaustive]` keeps `LinkChurn::default()`
/// the way to build it, as for the other scenarios.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct LinkChurn;

/// Transfers launched into the link.
const FLOWS: u64 = 2_000;
/// Link capacity in bits/sec (1 000 Mbps).
const CAPACITY: f64 = 1_000e6;

impl Scenario for LinkChurn {
    fn name(&self) -> &'static str {
        "link-churn"
    }

    fn run(&self, seed: u64) -> RunReport {
        use faasim_simcore::{FairShareLink, Recorder, Sim};

        let sim = Sim::new(seed);
        let recorder = Recorder::new();
        let link = FairShareLink::new(&sim, CAPACITY);
        let mut rng = sim.rng("chaos.link_churn");
        let completed = Rc::new(RefCell::new(0u64));
        let canceled = Rc::new(RefCell::new(0u64));
        let mut expect_completed = 0u64;
        for i in 0..FLOWS {
            let delay = SimDuration::from_micros(rng.range_u64(0..200_000));
            let bytes = if rng.chance(0.03) {
                0
            } else {
                rng.range_u64(1..2_000_000)
            };
            let cap = if rng.chance(0.4) {
                Some(CAPACITY * [0.002, 0.01, 0.05, 0.2, 1.5][rng.range_usize(0..5)])
            } else {
                None
            };
            let cancel_after = if rng.chance(0.15) {
                Some(SimDuration::from_micros(rng.range_u64(1..150_000)))
            } else {
                expect_completed += 1;
                None
            };
            let l = link.clone();
            let s = sim.clone();
            let rec = recorder.clone();
            let completed = completed.clone();
            let canceled = canceled.clone();
            sim.spawn(async move {
                s.sleep(delay).await;
                let fut = l.transfer(bytes, cap);
                let finished = match cancel_after {
                    Some(c) => s.timeout(c, fut).await.is_some(),
                    None => {
                        fut.await;
                        true
                    }
                };
                if finished {
                    *completed.borrow_mut() += 1;
                    rec.record(
                        &format!("link.completion.{}", i % 8),
                        s.now().as_nanos() as f64,
                    );
                } else {
                    *canceled.borrow_mut() += 1;
                    rec.incr("link.canceled");
                }
            });
        }
        sim.run();

        let mut violations = Vec::new();
        if *completed.borrow() < expect_completed {
            violations.push(format!(
                "only {} of {} un-canceled transfers completed",
                completed.borrow(),
                expect_completed
            ));
        }
        if link.active_flows() != 0 {
            violations.push(format!(
                "{} flows still active after drain",
                link.active_flows()
            ));
        }
        // A bare `Sim` has no `Cloud` to tear it down: every task must
        // have run to completion, or the sweep leaks one sim per seed.
        let parked = sim.stats().tasks_alive;
        if parked != 0 {
            violations.push(format!("{parked} tasks still parked after drain"));
        }
        RunReport {
            digest: recorder.digest(),
            bill: String::new(),
            violations,
        }
    }
}

/// The front door's reason to exist, as a two-arm experiment: a victim
/// tenant sends steady, in-allotment traffic while an aggressor tenant
/// bursts at `BURST_MULTIPLIER`× the victim's rate through the same
/// gateway. The scenario runs both arms from the same seed — aggressor
/// idle, then aggressor bursting — and demands that
///
/// 1. the victim's exact p99 latency in the hostile arm stays within
///    `p99_bound`× of the quiet arm (plus a small absolute slack for
///    quantile granularity),
/// 2. the victim is never shed in either arm,
/// 3. the aggressor's overload is absorbed at the door: admissions stay
///    within its token allotment and the overwhelming majority of its
///    burst is shed, and
/// 4. per-tenant admission accounting conserves
///    (`offered == admitted + shed`) in both arms.
///
/// Both arms fold into one digest, so the sweep harness's double-run
/// check also proves the isolation result replays byte-identically.
#[derive(Clone, Debug)]
pub struct NoisyNeighbor {
    name: &'static str,
    /// The faults both arms run under.
    pub plan: FaultPlan,
    /// Allowed victim p99 inflation factor, hostile vs quiet arm.
    pub p99_bound: f64,
}

impl Default for NoisyNeighbor {
    fn default() -> NoisyNeighbor {
        NoisyNeighbor {
            name: "noisy-neighbor/calm",
            plan: FaultPlan::calm(),
            p99_bound: 1.5,
        }
    }
}

impl NoisyNeighbor {
    /// The hostile arm: the same 50× burst under the all-tier hostile
    /// fault plan. Chaos draws are shared across tenants, so the bound
    /// is looser — kills and delay spikes land on different victim
    /// requests in the two arms.
    pub fn chaotic() -> NoisyNeighbor {
        NoisyNeighbor {
            name: "noisy-neighbor/hostile",
            plan: FaultPlan::hostile(),
            p99_bound: 3.0,
        }
    }
}

/// Victim tenant id in the [`NoisyNeighbor`] gateway.
const VICTIM: u32 = 0;
/// Aggressor tenant id.
const AGGRESSOR: u32 = 1;
/// Aggressor burst rate as a multiple of the victim's rate.
const BURST_MULTIPLIER: f64 = 50.0;
/// Victim request rate (req/s).
const VICTIM_RATE: f64 = 10.0;
/// Per-tenant token allotment (req/s): headroom over the victim's
/// offered rate, far under the aggressor's burst.
const ALLOTMENT: f64 = VICTIM_RATE * 2.0;
/// Length of the experiment; the aggressor bursts through the middle
/// half of it.
const DURATION: SimDuration = SimDuration::from_secs(60);

struct NeighborArm {
    p99: f64,
    victim: TenantStats,
    aggressor: TenantStats,
    victim_failed: u64,
    /// The arm's cloud, closed out.
    run: RunReport,
}

impl NoisyNeighbor {
    fn arm(&self, seed: u64, aggressor_on: bool) -> NeighborArm {
        let cloud = self.plan.build(base_profile(), seed);
        let sim = cloud.sim.clone();

        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(5),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(20)).await;
                Ok(Payload::new())
            },
        ));

        let gw = Gateway::new(
            &sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            GatewayConfig::new(vec![
                TenantConfig {
                    rate: ALLOTMENT,
                    burst: ALLOTMENT * 2.0,
                    // Generous: the cold-start era alone holds
                    // rate × ~5 s in flight; concurrency is not the
                    // isolation mechanism under test here.
                    max_concurrent: 256,
                    priority: 3,
                },
                TenantConfig {
                    rate: ALLOTMENT,
                    burst: ALLOTMENT * 2.0,
                    max_concurrent: 32,
                    priority: 0,
                },
            ]),
        );
        let victim_client = Retrying::new(
            &sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "chaos.noisy.victim",
        );

        // Victim: a fixed count of in-allotment Poisson arrivals, so both
        // arms offer the identical request stream (its own RNG stream).
        // Only requests arriving inside the aggressor's window count
        // toward the p99 — by then the victim's containers are warm, so
        // the quantile measures steady-state service, not the shared
        // cold-start era both arms pay identically.
        let victim_n = (VICTIM_RATE * DURATION.as_secs_f64()).round() as u64;
        let window_start = SimDuration::from_secs_f64(DURATION.as_secs_f64() * 0.25);
        let window = SimDuration::from_secs_f64(DURATION.as_secs_f64() * 0.5);
        let latencies: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let failed = Rc::new(RefCell::new(0u64));
        {
            let sim2 = sim.clone();
            let mean = 1.0 / VICTIM_RATE;
            let (latencies, failed) = (latencies.clone(), failed.clone());
            let (w0, w1) = (
                faasim_simcore::SimTime::ZERO + window_start,
                faasim_simcore::SimTime::ZERO + window_start + window,
            );
            sim.spawn(async move {
                let mut rng = sim2.rng("chaos.noisy.victim");
                for _ in 0..victim_n {
                    sim2.sleep(SimDuration::from_secs_f64(rng.exponential(mean)))
                        .await;
                    let client = victim_client.clone();
                    let s = sim2.clone();
                    let (latencies, failed) = (latencies.clone(), failed.clone());
                    sim2.spawn(async move {
                        let t0 = s.now();
                        let ok = client
                            .call(Deadline::unbounded(), |gw| async move {
                                settled(gw.invoke(VICTIM, "work", Payload::zeros(512)).await?)
                            })
                            .await
                            .is_ok();
                        if !ok {
                            *failed.borrow_mut() += 1;
                        }
                        if t0 >= w0 && t0 < w1 {
                            latencies
                                .borrow_mut()
                                .push(s.now().duration_since(t0).as_secs_f64());
                        }
                    });
                }
            });
        }

        // Aggressor: bursts at `BURST_MULTIPLIER`× the victim's rate
        // through the middle half of the run, single-shot (a client that
        // hammers without backoff — the tenant the door exists for).
        if aggressor_on {
            let sim2 = sim.clone();
            let gw2 = gw.clone();
            let mean = 1.0 / (VICTIM_RATE * BURST_MULTIPLIER);
            sim.spawn(async move {
                sim2.sleep(window_start).await;
                let mut rng = sim2.rng("chaos.noisy.aggressor");
                let end = sim2.now() + window;
                while sim2.now() < end {
                    sim2.sleep(SimDuration::from_secs_f64(rng.exponential(mean)))
                        .await;
                    let gw3 = gw2.clone();
                    sim2.spawn(async move {
                        let _ = gw3.invoke(AGGRESSOR, "work", Payload::zeros(512)).await;
                    });
                }
            });
        }

        sim.run();

        let mut lats = latencies.borrow().clone();
        lats.sort_by(f64::total_cmp);
        let victim_failed = *failed.borrow();
        NeighborArm {
            p99: nearest_rank(&lats, 0.99),
            victim: gw.tenant_stats(VICTIM),
            aggressor: gw.tenant_stats(AGGRESSOR),
            victim_failed,
            run: RunReport::audit(&cloud, Vec::new()),
        }
    }
}

impl Scenario for NoisyNeighbor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, seed: u64) -> RunReport {
        let quiet = self.arm(seed, false);
        let hostile = self.arm(seed, true);
        let mut violations = quiet.run.violations.clone();
        violations.extend(hostile.run.violations.iter().cloned());

        for (arm, label) in [(&quiet, "quiet"), (&hostile, "hostile")] {
            for (st, tenant) in [(&arm.victim, "victim"), (&arm.aggressor, "aggressor")] {
                if !st.conserved() {
                    violations.push(format!(
                        "{label} arm: {tenant} admission accounting broken: {st:?}"
                    ));
                }
            }
            if arm.victim.shed() > 0 {
                violations.push(format!(
                    "{label} arm: victim was shed {} times despite staying in allotment",
                    arm.victim.shed()
                ));
            }
        }
        if quiet.aggressor.offered != 0 {
            violations.push(format!(
                "quiet arm: aggressor offered {} requests, expected 0",
                quiet.aggressor.offered
            ));
        }

        // The door must clamp the aggressor to its token allotment...
        let window_secs = DURATION.as_secs_f64() * 0.5;
        let admit_cap = (ALLOTMENT * window_secs + ALLOTMENT * 2.0 + 16.0) as u64;
        if hostile.aggressor.admitted > admit_cap {
            violations.push(format!(
                "hostile arm: aggressor admitted {} > cap {}",
                hostile.aggressor.admitted, admit_cap
            ));
        }
        // ...shedding the overwhelming majority of a 50× burst.
        if hostile.aggressor.shed() < 5 * hostile.aggressor.admitted {
            violations.push(format!(
                "hostile arm: aggressor shed {} vs {} admitted — the burst was not absorbed",
                hostile.aggressor.shed(),
                hostile.aggressor.admitted
            ));
        }

        // The isolation claim itself: the burst must not move the
        // victim's p99 beyond the documented bound (absolute slack
        // covers quantile granularity at small victim counts).
        if hostile.p99 > quiet.p99 * self.p99_bound + 0.005 {
            violations.push(format!(
                "victim p99 moved {:.1} ms -> {:.1} ms under a {}x burst (bound {}x)",
                quiet.p99 * 1e3,
                hostile.p99 * 1e3,
                BURST_MULTIPLIER,
                self.p99_bound
            ));
        }
        // Chaos kills can legitimately exhaust the victim's retries; a
        // calm plan leaves nothing that may fail.
        let calm = self.plan == FaultPlan::calm();
        if calm && quiet.victim_failed + hostile.victim_failed > 0 {
            violations.push(format!(
                "victim failed {} quiet / {} hostile requests under a calm plan",
                quiet.victim_failed, hostile.victim_failed
            ));
        }

        RunReport {
            // Both arms and the measured quantiles fold into the digest,
            // so the sweep's double-run check covers the whole result.
            digest: format!(
                "quiet {}\nhostile {}\nvictim p99 quiet {:.9} hostile {:.9}",
                quiet.run.digest, hostile.run.digest, quiet.p99, hostile.p99
            ),
            bill: format!(
                "quiet arm\n{}\nhostile arm\n{}",
                quiet.run.bill, hostile.run.bill
            ),
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_scenarios_pass_at_one_seed() {
        let crdt = CrdtSync::default().run(1);
        assert_eq!(crdt.violations, Vec::<String>::new());
        let pipe = QueuePipeline::default().run(1);
        assert_eq!(pipe.violations, Vec::<String>::new());
    }

    #[test]
    fn link_churn_replays_byte_identically() {
        let sc = LinkChurn::default();
        for seed in [1, 9, 42] {
            let a = sc.run(seed);
            let b = sc.run(seed);
            assert_eq!(a.violations, Vec::<String>::new(), "seed {seed}");
            assert_eq!(a, b, "seed {seed} diverged on replay");
        }
    }

    #[test]
    fn chaotic_pipeline_duplicates_but_still_delivers() {
        let report = QueuePipeline::chaotic().run(5);
        assert_eq!(report.violations, Vec::<String>::new());
        assert!(
            report.digest.contains("queue.chaos_duplicated"),
            "expected duplicate deliveries in\n{}",
            report.digest
        );
    }

    #[test]
    fn noisy_neighbor_holds_the_isolation_bound() {
        for seed in [1, 2, 3, 4] {
            let report = NoisyNeighbor::default().run(seed);
            assert_eq!(report.violations, Vec::<String>::new(), "seed {seed}");
        }
    }

    #[test]
    fn noisy_neighbor_survives_the_hostile_plan() {
        let report = NoisyNeighbor::chaotic().run(1);
        assert_eq!(report.violations, Vec::<String>::new());
    }

    #[test]
    fn noisy_neighbor_replays_byte_identically() {
        let sc = NoisyNeighbor::default();
        let a = sc.run(7);
        let b = sc.run(7);
        assert_eq!(a, b, "noisy-neighbor diverged on replay");
    }
}
