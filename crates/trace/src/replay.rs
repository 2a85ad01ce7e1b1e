//! Stream a generated trace through the simulated FaaS platform and
//! report what the paper says matters: cold-start rate, client-observed
//! latency percentiles, per-app fairness, container packing density, and
//! dollars per hour.
//!
//! The driver task walks the lazy [`TraceGenerator`], sleeps to each
//! arrival instant, and fires an invocation task per event — optionally
//! through the gateway tier, and optionally under the resilience layer's
//! [`Retrying`] so chaos plans can be absorbed the way a production
//! client would. In-flight invocations
//! are capped by a semaphore, so memory stays bounded by the cap (plus
//! `O(apps + functions)` bookkeeping), never by trace length. A keep-alive
//! reaper runs alongside, reclaiming idle containers mid-replay exactly
//! like the platform's real idle janitor.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use faasim::net::NicStats;
use faasim::{Cloud, CloudProfile};
use faasim_faas::{FaasPlatform, FunctionId, FunctionSpec, InvokeOutcome, PackingStats};
use faasim_gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats, TenantConfig};
use faasim_payload::Payload;
use faasim_resilience::{settled, Deadline, RetryError, RetryPolicy, Retrying, Service};
use faasim_simcore::{nearest_rank, Semaphore, SimDuration, SimProfile, SimTime};

use crate::sketch::QuantileSketch;
use crate::workload::{
    function_name, function_profile, tenant_rates, TraceConfig, TraceEvent, TraceGenerator,
};

/// Replay knobs on top of the trace itself.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// The workload to generate and stream.
    pub trace: TraceConfig,
    /// Cloud calibration to run against.
    pub profile: CloudProfile,
    /// Client-side retry policy; `None` invokes the platform directly
    /// (one attempt per trace event).
    pub retry: Option<RetryPolicy>,
    /// How often the keep-alive reaper reclaims idle containers. Must be
    /// positive: [`replay_with`] panics on zero.
    pub reap_every: SimDuration,
    /// Cap on concurrently in-flight client requests (bounds memory).
    pub max_in_flight: usize,
    /// Route every invocation through the multi-tenant gateway tier,
    /// sized by this recipe; `None` invokes the platform directly.
    pub gateway: Option<GatewaySpec>,
}

/// How to size the gateway for a trace. The per-tenant limits are
/// derived at replay time from the trace's own expected tenant rates
/// (which depend on the seed via the tenant assignment), so one spec
/// serves every seed of a sweep.
#[derive(Clone, Debug, Default)]
pub struct GatewaySpec;

/// Per-tenant token rate = this × the tenant's expected mean arrival
/// rate. Must exceed the bursty ON-phase boost (up to
/// `(burst_on + burst_off) / burst_on`, 4–6× in the stock configs) or
/// calm traffic would be shed.
const RATE_MARGIN: f64 = 8.0;
/// Bucket capacity in seconds of margined rate.
const BURST_SECS: f64 = 20.0;
/// Per-tenant concurrency cap in seconds of margined rate…
const CONC_SECS: f64 = 15.0;
/// …plus this floor (absorbs cold-start latency spikes of cold tenants).
const CONC_FLOOR: usize = 64;
/// Load-shed watermarks per priority tier, as fractions of the replay's
/// `max_in_flight`. Replay-oriented: shed only near saturation, and
/// never the top tier before the hard cap.
const WATERMARKS: [f64; faasim_gateway::TIERS] = [0.85, 0.90, 0.95, 1.0];

/// Priority tier for a tenant in replay: round-robin from the hottest
/// tenant down, so every tier is populated and tenant 0 (the heaviest)
/// is shed last.
fn tenant_priority(tenant: u32) -> u8 {
    (faasim_gateway::TIERS as u32 - 1 - tenant % faasim_gateway::TIERS as u32) as u8
}

impl GatewaySpec {
    /// Size a [`GatewayConfig`] for `trace` at `seed`.
    fn resolve(&self, trace: &TraceConfig, max_in_flight: usize, seed: u64) -> GatewayConfig {
        let tenants = tenant_rates(trace, seed)
            .into_iter()
            .enumerate()
            .map(|(t, expected)| {
                let rate = (expected * RATE_MARGIN).max(1.0);
                TenantConfig {
                    rate,
                    burst: (rate * BURST_SECS).max(16.0),
                    max_concurrent: (rate * CONC_SECS).ceil() as usize + CONC_FLOOR,
                    priority: tenant_priority(t as u32),
                }
            })
            .collect();
        GatewayConfig {
            tenants,
            max_in_flight,
            shed_watermarks: WATERMARKS,
        }
    }
}

impl ReplayConfig {
    /// Small smoke-scale replay (~10k invocations).
    pub fn small() -> ReplayConfig {
        ReplayConfig {
            trace: TraceConfig::small(),
            profile: CloudProfile::aws_2018(),
            retry: Some(RetryPolicy::default()),
            reap_every: SimDuration::from_secs(30),
            max_in_flight: 4096,
            gateway: Some(GatewaySpec),
        }
    }

    /// Acceptance-scale replay (~1.08M invocations, 12k functions).
    pub fn paper_scale() -> ReplayConfig {
        ReplayConfig {
            trace: TraceConfig::paper_scale(),
            ..ReplayConfig::small()
        }
    }
}

/// What a replay measured: the run's own counts, then one section per
/// layer that produced numbers of its own, each a stats type that layer's
/// crate owns and prints. Plain numbers throughout, so reports can be
/// compared bit-for-bit across runs — the determinism harness does.
#[derive(Clone, PartialEq)]
pub struct ReplayReport {
    /// Seed the trace and cloud were built from.
    pub seed: u64,
    /// Trace events generated (arrivals).
    pub generated: u64,
    /// Client requests that ran to a final outcome.
    pub invocations: u64,
    /// Requests whose final outcome was success.
    pub succeeded: u64,
    /// Requests that failed after exhausting retries (or on first error
    /// when retries are disabled).
    pub failed: u64,
    /// Platform-level executions, including retry attempts.
    pub attempts: u64,
    /// Executions that had to cold-start a container.
    pub cold_starts: u64,
    /// Client-observed latency percentiles in seconds (sketch estimates
    /// within the configured relative error).
    pub latency_p50: f64,
    /// 95th percentile latency (seconds).
    pub latency_p95: f64,
    /// 99th percentile latency (seconds).
    pub latency_p99: f64,
    /// 99.9th percentile latency (seconds).
    pub latency_p999: f64,
    /// Mean latency in seconds (exact).
    pub latency_mean: f64,
    /// p95 / p50 of per-app mean latencies — how unevenly apps are
    /// served (1.0 = perfectly even).
    pub fairness_spread: f64,
    /// Apps that completed at least one request.
    pub apps_seen: u32,
    /// Distinct functions that completed at least one request.
    pub distinct_functions: u64,
    /// The platform's busy-vs-resident container memory-time.
    pub packing: PackingStats,
    /// Fan-in on the function hosts' NICs, every host folded together —
    /// §3(2)'s bandwidth collapse.
    pub nic: NicStats,
    /// Total bill across all services.
    pub dollars: f64,
    /// Simulated seconds from start to the last completed request.
    pub sim_secs: f64,
    /// Requests that waited on the account concurrency limit.
    pub throttled_waits: u64,
    /// Chaos: containers killed mid-invocation.
    pub chaos_kills: u64,
    /// Chaos: warm containers evicted by storms.
    pub chaos_evicted: u64,
    /// What the gateway tier saw; `None` when requests went straight to
    /// the platform (tenancy is only observed at the front door).
    pub front_door: Option<FrontDoorStats>,
    /// Engine-level profile of the run: task polls, timer-wheel traffic,
    /// spawn counts. Deterministic for a given seed.
    pub engine: SimProfile,
}

/// The front-door section of a [`ReplayReport`]: admission at the
/// gateway, and how evenly its tenants were served.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontDoorStats {
    /// The gateway's own admission counters, all tenants folded.
    pub gateway: GatewayStats,
    /// Requests whose *final* outcome (after retries) was a gateway
    /// shed — a subset of the report's `failed`.
    pub shed_requests: u64,
    /// Distinct tenants that completed at least one request.
    pub tenants_seen: u32,
    /// p95 / p50 of per-tenant mean latencies (1.0 = perfectly even).
    pub tenant_fairness_spread: f64,
    /// Worst per-tenant p99 latency in seconds.
    pub tenant_p99_max: f64,
    /// Median per-tenant p99 latency in seconds.
    pub tenant_p99_median: f64,
}

impl ReplayReport {
    /// `cold_starts / attempts` (0 when nothing ran).
    pub fn cold_start_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.attempts as f64
        }
    }

    /// The bill normalized to simulated wall time.
    pub fn dollars_per_hour(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.dollars / (self.sim_secs / 3600.0)
        } else {
            0.0
        }
    }

    /// Every conservation identity this report breaks, one message each;
    /// empty for a sound replay that ran to quiescence.
    pub fn violations(&self) -> Vec<String> {
        let Self { generated, invocations, succeeded, failed, attempts, cold_starts, .. } = self;
        let mut found = Vec::new();
        let mut check = |ok: bool, broken: String| {
            if !ok {
                found.push(broken);
            }
        };
        check(
            invocations == generated,
            format!("lost requests: {generated} generated but {invocations} completed"),
        );
        check(
            succeeded + failed == *invocations,
            format!("outcome accounting broken: {succeeded} ok + {failed} failed != {invocations} invocations"),
        );
        check(
            attempts >= succeeded,
            format!("impossible attempt count: {attempts} attempts for {succeeded} successes"),
        );
        check(
            cold_starts <= attempts,
            format!("cold starts over-counted: {cold_starts} cold of {attempts} attempts"),
        );
        if let Some(FrontDoorStats { gateway, shed_requests, .. }) = &self.front_door {
            let gw = &gateway.totals;
            check(gw.conserved(), format!("gateway admission accounting broken: {gw}"));
            check(
                gw.offered >= *invocations,
                format!("requests bypassed the gateway: {} offered for {invocations} requests", gw.offered),
            );
            check(
                gw.admitted == gw.succeeded + gw.failed,
                format!(
                    "gateway not quiescent: {} admitted but {} ok + {} failed came back",
                    gw.admitted, gw.succeeded, gw.failed
                ),
            );
            check(
                shed_requests <= failed,
                format!("{shed_requests} requests shed for good but only {failed} failed"),
            );
        }
        found
    }
}

impl fmt::Debug for ReplayReport {
    // Everything but `engine`: sweep digests and golden pins fold this
    // text, and must hold across engine-internal refactors.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayReport")
            .field("seed", &self.seed)
            .field("generated", &self.generated)
            .field("invocations", &self.invocations)
            .field("succeeded", &self.succeeded)
            .field("failed", &self.failed)
            .field("attempts", &self.attempts)
            .field("cold_starts", &self.cold_starts)
            .field("latency_p50", &self.latency_p50)
            .field("latency_p95", &self.latency_p95)
            .field("latency_p99", &self.latency_p99)
            .field("latency_p999", &self.latency_p999)
            .field("latency_mean", &self.latency_mean)
            .field("fairness_spread", &self.fairness_spread)
            .field("apps_seen", &self.apps_seen)
            .field("distinct_functions", &self.distinct_functions)
            .field("packing", &self.packing)
            .field("nic", &self.nic)
            .field("dollars", &self.dollars)
            .field("sim_secs", &self.sim_secs)
            .field("throttled_waits", &self.throttled_waits)
            .field("chaos_kills", &self.chaos_kills)
            .field("chaos_evicted", &self.chaos_evicted)
            .field("front_door", &self.front_door)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replay seed={} — {} invocations ({} generated) over {:.1} sim-secs",
            self.seed, self.invocations, self.generated, self.sim_secs
        )?;
        writeln!(
            f,
            "  outcomes    {} ok / {} failed, {} attempts, {} throttled waits",
            self.succeeded, self.failed, self.attempts, self.throttled_waits
        )?;
        writeln!(
            f,
            "  cold starts {} ({:.2}% of attempts)",
            self.cold_starts,
            self.cold_start_rate() * 100.0
        )?;
        writeln!(
            f,
            "  latency     p50 {:.1} ms · p95 {:.1} ms · p99 {:.1} ms · p99.9 {:.1} ms · mean {:.1} ms",
            self.latency_p50 * 1e3,
            self.latency_p95 * 1e3,
            self.latency_p99 * 1e3,
            self.latency_p999 * 1e3,
            self.latency_mean * 1e3,
        )?;
        writeln!(
            f,
            "  fairness    p95/p50 app-mean spread {:.2} across {} apps, {} functions",
            self.fairness_spread, self.apps_seen, self.distinct_functions
        )?;
        writeln!(f, "  packing     {}", self.packing)?;
        writeln!(f, "  network     {}", self.nic)?;
        if let Some(door) = &self.front_door {
            writeln!(
                f,
                "  tenants     {} seen · p99 worst {:.1} ms / median {:.1} ms · mean-latency spread {:.2}",
                door.tenants_seen,
                door.tenant_p99_max * 1e3,
                door.tenant_p99_median * 1e3,
                door.tenant_fairness_spread,
            )?;
            writeln!(
                f,
                "  gateway     {} · {} requests shed for good · peak {} in flight",
                door.gateway.totals, door.shed_requests, door.gateway.peak_in_flight,
            )?;
        }
        if self.chaos_kills > 0 || self.chaos_evicted > 0 {
            writeln!(
                f,
                "  chaos       {} kills, {} evictions",
                self.chaos_kills, self.chaos_evicted
            )?;
        }
        writeln!(f, "  engine      {}", self.engine)?;
        write!(
            f,
            "  cost        ${:.4} total = ${:.4}/hr",
            self.dollars,
            self.dollars_per_hour()
        )
    }
}

/// A replay's full result: the report plus the raw determinism artifacts.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The measured report.
    pub report: ReplayReport,
    /// `Recorder::digest()` of the underlying cloud — byte-identical
    /// across same-seed replays.
    pub digest: String,
    /// Ledger report of the underlying cloud.
    pub bill: String,
}

#[derive(Clone, Default)]
struct AppAgg {
    completed: u64,
    lat_sum: f64,
}

struct Stats {
    sketch: QuantileSketch,
    per_app: Vec<AppAgg>,
    /// Latencies per tenant (a sketch's count and mean are exact). Empty
    /// without a gateway: tenancy is only observed at the front door.
    per_tenant: Vec<QuantileSketch>,
    seen_funcs: Vec<bool>,
    succeeded: u64,
    failed: u64,
    gw_shed: u64,
    completed: u64,
    last_done: SimTime,
}

/// How a request reaches the platform: through the gateway tier when
/// one is configured, straight in otherwise. Both ways go by the
/// function's id; no request touches a name.
#[derive(Clone)]
struct FrontDoor {
    faas: FaasPlatform,
    gateway: Option<Gateway>,
}

impl FrontDoor {
    /// One attempt at `(tenant, function id)`, seen through [`settled`].
    async fn attempt(
        &self,
        (tenant, id): (u32, FunctionId),
        payload: Payload,
    ) -> Result<InvokeOutcome, GatewayError> {
        settled(match &self.gateway {
            Some(gw) => gw.invoke_id(tenant, id, payload).await?,
            None => self.faas.invoke_id(id, payload).await,
        })
    }
}

impl Service for FrontDoor {
    type Error = GatewayError;
    const RACE: bool = false;

    fn attempts(&self) -> &'static str {
        match &self.gateway {
            Some(gw) => gw.attempts(),
            None => self.faas.attempts(),
        }
    }

    fn retry_at(err: &GatewayError) -> Option<SimTime> {
        Gateway::retry_at(err)
    }
}

/// Everything a spawned request task needs, bundled so the hot loop
/// clones one `Rc` per invocation instead of a handful of handles. A
/// request carries only `(tenant, id)`: names stay at registration.
struct ReqCtx {
    sim: faasim_simcore::Sim,
    door: FrontDoor,
    /// The client-side retry layer around the door, when configured.
    retry: Option<Retrying<FrontDoor>>,
    stats: RefCell<Stats>,
    /// The ids the platform registered the trace's functions under,
    /// indexed `app * funcs_per_app + func`.
    ids: Vec<FunctionId>,
    funcs_per_app: u32,
    /// Requests spawned, set once the driver has spawned its last; `done`
    /// flips when every one of them has completed, which stops the reaper.
    total: Cell<Option<u64>>,
    done: Cell<bool>,
}

impl ReqCtx {
    /// Index of `ev`'s function in `ids`.
    fn func(&self, ev: &TraceEvent) -> usize {
        (ev.app * self.funcs_per_app + ev.func) as usize
    }

    /// Book the request `ev`, issued at `t0`, as finished now. `shed`
    /// marks a failure that was a gateway admission refusal rather than
    /// an execution failure.
    fn complete(&self, ev: &TraceEvent, t0: SimTime, ok: bool, shed: bool) {
        let now = self.sim.now();
        let latency = now.duration_since(t0).as_secs_f64();
        let mut st = self.stats.borrow_mut();
        st.sketch.insert(latency);
        if let Some(tenant) = st.per_tenant.get_mut(ev.tenant as usize) {
            tenant.insert(latency);
        }
        let agg = &mut st.per_app[ev.app as usize];
        agg.completed += 1;
        agg.lat_sum += latency;
        st.seen_funcs[self.func(ev)] = true;
        if ok {
            st.succeeded += 1;
        } else {
            st.failed += 1;
            if shed {
                st.gw_shed += 1;
            }
        }
        st.completed += 1;
        st.last_done = now;
        if self.total.get() == Some(st.completed) {
            self.done.set(true);
        }
    }
}

/// Run `cfg` at `seed`, applying `chaos` to the freshly built cloud
/// before any traffic flows (pass `&|_| {}` for a fault-free replay —
/// the hook keeps this crate independent of the chaos crate while its
/// `FaultPlan`s slot straight in).
pub fn replay(cfg: &ReplayConfig, seed: u64, chaos: &dyn Fn(&Cloud)) -> ReplayOutcome {
    replay_with(cfg, seed, chaos, &mut |_| {})
}

/// Coefficient of variation of execution time *within* a function.
pub const EXEC_CV: f64 = 0.25;

/// Like [`replay`], but also hands the quiesced cloud to `finish` after
/// the last request completes — the hook the chaos harness uses to run
/// its cross-service invariant checks before the cloud is dropped.
///
/// # Panics
/// Panics when `cfg.reap_every` is zero: the reaper's zero-length sleep
/// is ready at once, so it would spin without virtual time advancing.
pub fn replay_with(
    cfg: &ReplayConfig,
    seed: u64,
    chaos: &dyn Fn(&Cloud),
    finish: &mut dyn FnMut(&Cloud),
) -> ReplayOutcome {
    assert!(
        !cfg.reap_every.is_zero(),
        "ReplayConfig::reap_every must be positive: a zero period never lets the reaper yield"
    );
    let cloud = Cloud::new(cfg.profile.clone(), seed);
    chaos(&cloud);
    let sim = cloud.sim.clone();
    let faas = cloud.faas.clone();

    // Register every function; the handler burns a fresh sample of the
    // function's execution-time distribution on each invocation.
    let exec_rng = Rc::new(RefCell::new(sim.rng("trace.exec")));
    let mut ids = Vec::with_capacity((cfg.trace.apps * cfg.trace.funcs_per_app) as usize);
    for app in 0..cfg.trace.apps {
        for func in 0..cfg.trace.funcs_per_app {
            let (memory_mb, mean_exec) = function_profile(seed, app, func);
            let rng = exec_rng.clone();
            let mean = mean_exec.as_secs_f64();
            ids.push(faas.register(FunctionSpec::new(
                function_name(app, func),
                memory_mb,
                cfg.trace.func_timeout,
                move |ctx, payload| {
                    let rng = rng.clone();
                    async move {
                        // Ship the request body over the container host's
                        // shared NIC before executing — the fan-in this
                        // creates under fill-first packing is exactly the
                        // paper's §3(2) bandwidth collapse, and at paper
                        // scale it drives ~1M concurrent-flow churn through
                        // the virtual-time fair-share allocator.
                        ctx.host().nic_transfer(payload.len() as u64).await;
                        let work =
                            SimDuration::from_secs_f64(rng.borrow_mut().lognormal_mean_cv(mean, EXEC_CV));
                        ctx.cpu(work).await;
                        Ok(Payload::new())
                    }
                },
            )));
        }
    }

    // Build the front door, and the retry layer around it when configured.
    let gateway = cfg.gateway.as_ref().map(|spec| {
        Gateway::new(
            &sim,
            &faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            spec.resolve(&cfg.trace, cfg.max_in_flight.max(1), seed),
        )
    });
    let funcs_per_app = cfg.trace.funcs_per_app.max(1);
    let gateway_tenants = gateway.as_ref().map_or(0, |gw| gw.tenants() as usize);
    let stats = Stats {
        sketch: QuantileSketch::with_default_error(),
        per_app: vec![AppAgg::default(); cfg.trace.apps as usize],
        per_tenant: vec![QuantileSketch::with_default_error(); gateway_tenants],
        seen_funcs: vec![false; (cfg.trace.apps * funcs_per_app) as usize],
        succeeded: 0,
        failed: 0,
        gw_shed: 0,
        completed: 0,
        last_done: SimTime::ZERO,
    };
    let door = FrontDoor {
        faas: faas.clone(),
        gateway: gateway.clone(),
    };
    let retry = cfg.retry.clone().map(|policy| {
        Retrying::new(&sim, &door, cloud.recorder.clone(), policy, "trace.invoker")
    });
    let inflight = Semaphore::new(cfg.max_in_flight.max(1));
    let ctx = Rc::new(ReqCtx {
        sim: sim.clone(),
        door,
        retry,
        stats: RefCell::new(stats),
        ids,
        funcs_per_app,
        total: Cell::new(None),
        done: Cell::new(false),
    });

    // Keep-alive reaper: runs mid-replay like the platform's idle janitor.
    {
        let (sim2, faas2, ctx2) = (sim.clone(), faas.clone(), ctx.clone());
        let every = cfg.reap_every;
        sim.spawn_detached(async move {
            while !ctx2.done.get() {
                sim2.sleep(every).await;
                faas2.reap_idle();
            }
        });
    }

    // Driver: walk the lazy generator in arrival order.
    {
        let gen = TraceGenerator::new(cfg.trace.clone(), seed);
        let ctx2 = ctx.clone();
        let inflight2 = inflight.clone();
        // One shared zero block keeps symbolic payloads allocation-free.
        let zero_block = Payload::zeros(256).bytes();
        // A request with neither gateway nor retry layer is one platform
        // call. Its task leaves out the other arm's futures, which would
        // more than double its block.
        let direct = cfg.gateway.is_none() && cfg.retry.is_none();
        sim.spawn_detached(async move {
            let mut spawned = 0u64;
            for ev in gen {
                ctx2.sim.sleep_until(ev.at).await;
                let permit = inflight2.acquire(1).await;
                spawned += 1;
                let ctx3 = ctx2.clone();
                let payload = Payload::synthetic(
                    zero_block.clone(),
                    ev.payload_bytes.div_ceil(zero_block.len() as u64).max(1),
                );
                if direct {
                    ctx2.sim.spawn_detached(async move {
                        let t0 = ctx3.sim.now();
                        let id = ctx3.ids[ctx3.func(&ev)];
                        let out = ctx3.door.faas.invoke_id(id, payload).await;
                        ctx3.complete(&ev, t0, out.result.is_ok(), false);
                        drop(permit);
                    });
                } else {
                    ctx2.sim.spawn_detached(async move {
                        let t0 = ctx3.sim.now();
                        let call = (ev.tenant, ctx3.ids[ctx3.func(&ev)]);
                        // The final attempt's outcome, or the error it ended
                        // on (none when a retry layer gave up on a budget).
                        let outcome = match &ctx3.retry {
                            Some(retry) => retry
                                .call(Deadline::unbounded(), |d| d.attempt(call, payload.clone()))
                                .await
                                .map_err(RetryError::into_inner),
                            None => ctx3.door.attempt(call, payload).await.map_err(Some),
                        };
                        let (ok, shed) = match outcome {
                            Ok(_) => (true, false),
                            Err(last) => (false, last.is_some_and(|e| e.is_shed())),
                        };
                        ctx3.complete(&ev, t0, ok, shed);
                        drop(permit);
                    });
                }
            }
            ctx2.total.set(Some(spawned));
            if ctx2.stats.borrow().completed == spawned {
                ctx2.done.set(true);
            }
        });
    }

    sim.run();
    finish(&cloud);

    let recorder = &cloud.recorder;
    let st = ctx.stats.borrow();
    let cold = recorder.counter("faas.invoke.cold");
    let warm = recorder.counter("faas.invoke.warm");

    // Fairness: distribution of per-app mean latencies.
    let mut app_means: Vec<f64> = st
        .per_app
        .iter()
        .filter(|a| a.completed > 0)
        .map(|a| a.lat_sum / a.completed as f64)
        .collect();
    app_means.sort_by(f64::total_cmp);

    // Tenant-level fairness: the same rank statistics over per-tenant
    // means and p99s, for traffic that flowed through the gateway.
    let front_door = gateway.map(|gw| {
        let mut tenant_means: Vec<f64> = Vec::new();
        let mut tenant_p99s: Vec<f64> = Vec::new();
        for tenant in st.per_tenant.iter().filter(|t| t.count() > 0) {
            tenant_means.push(tenant.mean());
            tenant_p99s.push(tenant.p99());
        }
        tenant_means.sort_by(f64::total_cmp);
        tenant_p99s.sort_by(f64::total_cmp);
        FrontDoorStats {
            gateway: gw.stats(),
            shed_requests: st.gw_shed,
            tenants_seen: tenant_means.len() as u32,
            tenant_fairness_spread: spread(&tenant_means),
            tenant_p99_max: nearest_rank(&tenant_p99s, 1.0),
            tenant_p99_median: nearest_rank(&tenant_p99s, 0.50),
        }
    });

    let report = ReplayReport {
        seed,
        generated: ctx.total.get().expect("the driver walked the whole trace"),
        invocations: st.completed,
        succeeded: st.succeeded,
        failed: st.failed,
        attempts: cold + warm,
        cold_starts: cold,
        latency_p50: st.sketch.p50(),
        latency_p95: st.sketch.p95(),
        latency_p99: st.sketch.p99(),
        latency_p999: st.sketch.p999(),
        latency_mean: st.sketch.mean(),
        fairness_spread: spread(&app_means),
        apps_seen: app_means.len() as u32,
        distinct_functions: st.seen_funcs.iter().filter(|&&s| s).count() as u64,
        packing: faas.packing_stats(),
        nic: faas.nic_stats(),
        dollars: cloud.ledger.total(),
        sim_secs: st.last_done.as_secs_f64(),
        throttled_waits: recorder.counter("faas.throttled_waits"),
        chaos_kills: recorder.counter("faas.chaos_kills"),
        chaos_evicted: recorder.counter("faas.chaos_evicted"),
        front_door,
        engine: sim.profile(),
    };
    ReplayOutcome {
        report,
        digest: recorder.digest(),
        bill: cloud.ledger.report(),
    }
}

/// p95 / p50 of an ascending slice of means (0 when empty).
fn spread(sorted: &[f64]) -> f64 {
    let median = nearest_rank(sorted, 0.50);
    if median > 0.0 {
        nearest_rank(sorted, 0.95) / median
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_gateway::TenantStats;

    const SOUND: Vec<String> = Vec::new();

    #[test]
    fn tiny_replay_completes_every_event() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 500;
        let r = replay(&cfg, 11, &|_| {}).report;
        assert_eq!(r.violations(), SOUND);
        assert_eq!(r.generated, 500);
        assert_eq!(r.failed, 0, "calm replay must not fail");
        // Default config routes through the gateway: every request was
        // offered at the front door, and a calm trace is never shed for
        // good.
        let door = r.front_door.as_ref().expect("front-door section");
        assert!(door.gateway.totals.offered >= 500);
        assert_eq!(door.shed_requests, 0);
        assert!(door.tenants_seen >= 1);
        assert!(door.tenant_p99_max >= door.tenant_p99_median);
        assert!(door.gateway.peak_in_flight >= 1);
        assert!(r.cold_starts > 0);
        assert!(r.latency_p50 > 0.0);
        assert!(r.latency_p99 >= r.latency_p50);
        assert!(r.packing.density() > 0.0 && r.packing.density() <= 1.0);
        assert!(r.dollars > 0.0);
        assert!(r.distinct_functions > 1);
        // Every attempt ships its payload over a host NIC, so the fan-in
        // probes must have seen real traffic.
        assert_eq!(r.nic.transfers, r.attempts);
        assert!(r.nic.peak_flows >= 1);
        assert!(r.nic.mean_fan_in() >= 1.0);
        assert!(r.nic.min_share_mbps() > 0.0);
    }

    #[test]
    fn same_seed_same_outcome() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 300;
        let a = replay(&cfg, 5, &|_| {});
        let b = replay(&cfg, 5, &|_| {});
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.report, b.report);
        assert_eq!(a.bill, b.bill);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 300;
        let a = replay(&cfg, 5, &|_| {});
        let b = replay(&cfg, 6, &|_| {});
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn gatewayless_replay_still_works() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 300;
        cfg.gateway = None;
        let r = replay(&cfg, 11, &|_| {}).report;
        assert_eq!(r.violations(), SOUND);
        assert_eq!(r.invocations, 300);
        assert_eq!(r.failed, 0);
        assert_eq!(r.front_door, None);
    }

    #[test]
    fn gateway_rides_without_retries_too() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 300;
        cfg.retry = None;
        let r = replay(&cfg, 11, &|_| {}).report;
        assert_eq!(r.violations(), SOUND);
        assert_eq!(r.invocations, 300);
        // Single-shot sheds (if any) must be counted as shed requests.
        assert_eq!(r.failed, r.front_door.expect("front-door section").shed_requests);
    }

    /// A zero reaper period would spin inside one poll with virtual time
    /// stopped; the replay refuses it up front instead of hanging.
    #[test]
    #[should_panic(expected = "reap_every")]
    fn zero_reap_period_panics_instead_of_hanging() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 10;
        cfg.reap_every = SimDuration::ZERO;
        replay(&cfg, 1, &|_| {});
    }

    /// Each identity broken in turn on a hand-built report yields that
    /// identity's message and no other.
    #[test]
    fn violations_names_exactly_the_broken_identity() {
        let totals = TenantStats {
            offered: 12,
            admitted: 9,
            bucket_shed: 1,
            concurrency_shed: 1,
            load_shed: 1,
            succeeded: 8,
            failed: 1,
            ..TenantStats::default()
        };
        let sound = ReplayReport {
            seed: 1,
            generated: 10,
            invocations: 10,
            succeeded: 8,
            failed: 2,
            attempts: 9,
            cold_starts: 3,
            latency_p50: 0.1,
            latency_p95: 0.2,
            latency_p99: 0.3,
            latency_p999: 0.4,
            latency_mean: 0.15,
            fairness_spread: 1.0,
            apps_seen: 2,
            distinct_functions: 4,
            packing: PackingStats::default(),
            nic: NicStats::default(),
            dollars: 0.01,
            sim_secs: 60.0,
            throttled_waits: 0,
            chaos_kills: 0,
            chaos_evicted: 0,
            front_door: Some(FrontDoorStats {
                gateway: GatewayStats {
                    tenants: 1,
                    totals,
                    peak_in_flight: 3,
                },
                shed_requests: 1,
                tenants_seen: 1,
                tenant_fairness_spread: 1.0,
                tenant_p99_max: 0.3,
                tenant_p99_median: 0.3,
            }),
            engine: SimProfile::default(),
        };
        assert_eq!(sound.violations(), SOUND);
        let door = |edit: &dyn Fn(&mut FrontDoorStats)| {
            let mut r = sound.clone();
            edit(r.front_door.as_mut().expect("built above"));
            r
        };
        let broken = [
            (ReplayReport { generated: 11, ..sound.clone() }, "lost requests: 11 generated but 10 completed"),
            (
                ReplayReport { failed: 3, ..sound.clone() },
                "outcome accounting broken: 8 ok + 3 failed != 10 invocations",
            ),
            (
                ReplayReport { attempts: 7, cold_starts: 0, ..sound.clone() },
                "impossible attempt count: 7 attempts for 8 successes",
            ),
            (
                ReplayReport { cold_starts: 10, ..sound.clone() },
                "cold starts over-counted: 10 cold of 9 attempts",
            ),
            (
                door(&|d| d.gateway.totals.offered = 13),
                "gateway admission accounting broken: \
                 13 offered = 9 admitted + 2 rate + 1 load + 0 breaker shed",
            ),
            (
                door(&|d| {
                    d.gateway.totals.offered = 9;
                    d.gateway.totals.bucket_shed = 0;
                    d.gateway.totals.concurrency_shed = 0;
                    d.gateway.totals.load_shed = 0;
                }),
                "requests bypassed the gateway: 9 offered for 10 requests",
            ),
            (
                door(&|d| d.gateway.totals.failed = 0),
                "gateway not quiescent: 9 admitted but 8 ok + 0 failed came back",
            ),
            (
                door(&|d| d.shed_requests = 3),
                "3 requests shed for good but only 2 failed",
            ),
        ];
        for (report, message) in broken {
            assert_eq!(report.violations(), [message]);
        }
        // Without a front door there is nothing of the gateway's to check.
        let direct = ReplayReport { front_door: None, ..sound };
        assert_eq!(direct.violations(), SOUND);
    }
}
