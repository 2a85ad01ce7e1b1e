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

use faasim::{Cloud, CloudProfile};
use faasim_faas::{FaasPlatform, FunctionId, FunctionSpec, InvokeOutcome};
use faasim_gateway::{Gateway, GatewayConfig, GatewayError, TenantConfig};
use faasim_payload::Payload;
use faasim_resilience::{
    settled, BreakerConfig, Deadline, Invoke, RetryError, RetryPolicy, Retrying,
};
use faasim_simcore::{Semaphore, SimDuration, SimProfile, SimTime};

use crate::sketch::QuantileSketch;
use crate::workload::{
    function_name, function_profile, tenant_rates, TraceConfig, TraceGenerator,
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
    /// How often the keep-alive reaper reclaims idle containers.
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
/// Constant per-request gateway overhead.
const OVERHEAD: SimDuration = SimDuration::from_millis(1);

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
            breaker: BreakerConfig::default(),
            overhead: OVERHEAD,
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

/// What a replay measured. All fields are plain numbers, so reports can
/// be compared bit-for-bit across runs — the determinism harness does.
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
    /// `cold_starts / attempts`.
    pub cold_start_rate: f64,
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
    /// GB·seconds spent executing handlers.
    pub busy_gb_seconds: f64,
    /// GB·seconds of container residency (warm + busy).
    pub resident_gb_seconds: f64,
    /// `busy / resident` — the fraction of keep-alive memory-time doing
    /// real work.
    pub packing_density: f64,
    /// Payload transfers started on function-host NICs.
    pub nic_transfers: u64,
    /// Worst concurrent fan-in any single function-host NIC saw.
    pub nic_peak_fan_in: u64,
    /// Mean concurrent flows per NIC at transfer start.
    pub nic_mean_fan_in: f64,
    /// Lowest per-flow fair-share estimate at any transfer start, in
    /// Mbit/s (`0` when no transfers ran) — §3(2)'s bandwidth collapse.
    pub nic_min_share_mbps: f64,
    /// Total bill across all services.
    pub dollars: f64,
    /// Bill normalized to simulated wall time.
    pub dollars_per_hour: f64,
    /// Simulated seconds from start to the last completed request.
    pub sim_secs: f64,
    /// Requests that waited on the account concurrency limit.
    pub throttled_waits: u64,
    /// Chaos: containers killed mid-invocation.
    pub chaos_kills: u64,
    /// Chaos: warm containers evicted by storms.
    pub chaos_evicted: u64,
    /// Distinct tenants that completed at least one request (0 when the
    /// gateway is disabled — tenancy is only observed at the front door).
    pub tenants_seen: u32,
    /// p95 / p50 of per-tenant mean latencies (1.0 = perfectly even;
    /// 0 when the gateway is disabled).
    pub tenant_fairness_spread: f64,
    /// Worst per-tenant p99 latency in seconds.
    pub tenant_p99_max: f64,
    /// Median per-tenant p99 latency in seconds.
    pub tenant_p99_median: f64,
    /// Gateway: requests offered at the front door.
    pub gw_offered: u64,
    /// Gateway: requests admitted to the platform.
    pub gw_admitted: u64,
    /// Gateway: attempts shed by per-tenant rate/concurrency limits.
    pub gw_rate_shed: u64,
    /// Gateway: attempts shed by the priority load shedder.
    pub gw_load_shed: u64,
    /// Gateway: attempts rejected by open per-tenant breakers.
    pub gw_breaker_rejected: u64,
    /// Requests whose *final* outcome (after retries) was a gateway
    /// shed — a subset of `failed`.
    pub gw_shed_requests: u64,
    /// Gateway: peak concurrent admitted requests.
    pub gw_peak_in_flight: u64,
    /// Engine-level profile of the run: task polls, timer-wheel traffic,
    /// spawn counts. Deterministic for a given seed, but excluded from
    /// `Debug` so chaos-sweep digests (which fold `{:?}` of the report)
    /// stay comparable across engine-internal refactors.
    pub engine: SimProfile,
}

impl fmt::Debug for ReplayReport {
    // Hand-rolled to match the pre-`engine` derived output byte-for-byte:
    // the chaos sweep folds `format!("{:?}")` of this report into its run
    // digests, which the determinism harness compares across releases.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayReport")
            .field("seed", &self.seed)
            .field("generated", &self.generated)
            .field("invocations", &self.invocations)
            .field("succeeded", &self.succeeded)
            .field("failed", &self.failed)
            .field("attempts", &self.attempts)
            .field("cold_starts", &self.cold_starts)
            .field("cold_start_rate", &self.cold_start_rate)
            .field("latency_p50", &self.latency_p50)
            .field("latency_p95", &self.latency_p95)
            .field("latency_p99", &self.latency_p99)
            .field("latency_p999", &self.latency_p999)
            .field("latency_mean", &self.latency_mean)
            .field("fairness_spread", &self.fairness_spread)
            .field("apps_seen", &self.apps_seen)
            .field("distinct_functions", &self.distinct_functions)
            .field("busy_gb_seconds", &self.busy_gb_seconds)
            .field("resident_gb_seconds", &self.resident_gb_seconds)
            .field("packing_density", &self.packing_density)
            .field("nic_transfers", &self.nic_transfers)
            .field("nic_peak_fan_in", &self.nic_peak_fan_in)
            .field("nic_mean_fan_in", &self.nic_mean_fan_in)
            .field("nic_min_share_mbps", &self.nic_min_share_mbps)
            .field("dollars", &self.dollars)
            .field("dollars_per_hour", &self.dollars_per_hour)
            .field("sim_secs", &self.sim_secs)
            .field("throttled_waits", &self.throttled_waits)
            .field("chaos_kills", &self.chaos_kills)
            .field("chaos_evicted", &self.chaos_evicted)
            .field("tenants_seen", &self.tenants_seen)
            .field("tenant_fairness_spread", &self.tenant_fairness_spread)
            .field("tenant_p99_max", &self.tenant_p99_max)
            .field("tenant_p99_median", &self.tenant_p99_median)
            .field("gw_offered", &self.gw_offered)
            .field("gw_admitted", &self.gw_admitted)
            .field("gw_rate_shed", &self.gw_rate_shed)
            .field("gw_load_shed", &self.gw_load_shed)
            .field("gw_breaker_rejected", &self.gw_breaker_rejected)
            .field("gw_shed_requests", &self.gw_shed_requests)
            .field("gw_peak_in_flight", &self.gw_peak_in_flight)
            .finish()
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
            self.cold_start_rate * 100.0
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
        writeln!(
            f,
            "  packing     {:.1} busy GB·s / {:.1} resident GB·s = {:.1}% density",
            self.busy_gb_seconds,
            self.resident_gb_seconds,
            self.packing_density * 100.0
        )?;
        writeln!(
            f,
            "  network     {} NIC transfers, fan-in peak {} / mean {:.1}, min fair share {:.1} Mbit/s",
            self.nic_transfers, self.nic_peak_fan_in, self.nic_mean_fan_in, self.nic_min_share_mbps
        )?;
        if self.gw_offered > 0 {
            writeln!(
                f,
                "  tenants     {} seen · p99 worst {:.1} ms / median {:.1} ms · mean-latency spread {:.2}",
                self.tenants_seen,
                self.tenant_p99_max * 1e3,
                self.tenant_p99_median * 1e3,
                self.tenant_fairness_spread,
            )?;
            writeln!(
                f,
                "  gateway     {} offered = {} admitted + {} rate + {} load + {} breaker shed · {} requests shed for good · peak {} in flight",
                self.gw_offered,
                self.gw_admitted,
                self.gw_rate_shed,
                self.gw_load_shed,
                self.gw_breaker_rejected,
                self.gw_shed_requests,
                self.gw_peak_in_flight,
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
            self.dollars, self.dollars_per_hour
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

struct AppAgg {
    completed: u64,
    lat_sum: f64,
}

struct TenantAgg {
    sketch: QuantileSketch,
    completed: u64,
    lat_sum: f64,
}

struct Stats {
    sketch: QuantileSketch,
    per_app: Vec<AppAgg>,
    per_tenant: Vec<TenantAgg>,
    seen_funcs: Vec<bool>,
    succeeded: u64,
    failed: u64,
    gw_shed: u64,
    completed: u64,
    last_done: SimTime,
}

/// How a request reaches the platform: through the gateway tier when
/// one is configured, straight in (by id, never touching a name)
/// otherwise.
#[derive(Clone)]
struct FrontDoor {
    faas: FaasPlatform,
    gateway: Option<Gateway>,
}

impl Invoke for FrontDoor {
    /// Tenant, then the function's platform id and its name.
    type Call<'a> = (u32, FunctionId, &'a str);
    type Error = GatewayError;

    fn attempts_counter(&self) -> &'static str {
        match &self.gateway {
            Some(gw) => gw.attempts_counter(),
            None => self.faas.attempts_counter(),
        }
    }

    async fn attempt(
        &self,
        (tenant, id, name): Self::Call<'_>,
        payload: Payload,
    ) -> Result<InvokeOutcome, GatewayError> {
        settled(match &self.gateway {
            Some(gw) => gw.invoke(tenant, name, payload).await?,
            None => self.faas.invoke_id(id, payload).await,
        })
    }

    fn retry_at(err: &GatewayError) -> Option<SimTime> {
        Gateway::retry_at(err)
    }
}

/// Everything a spawned request task needs, bundled so the hot loop
/// clones one `Rc` per invocation instead of a handful of handles.
struct ReqCtx {
    sim: faasim_simcore::Sim,
    door: FrontDoor,
    /// The client-side retry layer around the door, when configured.
    retry: Option<Retrying<FrontDoor>>,
    stats: RefCell<Stats>,
    /// Function names pre-rendered once (`app * funcs_per_app + func`),
    /// so the per-event path never formats a `String`.
    names: Vec<String>,
    /// The ids the platform registered them under, same indexing.
    ids: Vec<FunctionId>,
    funcs_per_app: u32,
    /// Set once the driver has spawned its last request; `done` flips
    /// when every spawned request has completed, which stops the reaper.
    total: Cell<Option<u64>>,
    done: Cell<bool>,
    generated: Cell<u64>,
}

/// Run `cfg` at `seed`, applying `chaos` to the freshly built cloud
/// before any traffic flows (pass `&|_| {}` for a fault-free replay —
/// the hook keeps this crate independent of the chaos crate while its
/// `FaultPlan`s slot straight in).
pub fn replay(cfg: &ReplayConfig, seed: u64, chaos: &dyn Fn(&Cloud)) -> ReplayOutcome {
    replay_with(cfg, seed, chaos, &mut |_| {})
}

/// Like [`replay`], but also hands the quiesced cloud to `finish` after
/// the last request completes — the hook the chaos harness uses to run
/// its cross-service invariant checks before the cloud is dropped.
pub fn replay_with(
    cfg: &ReplayConfig,
    seed: u64,
    chaos: &dyn Fn(&Cloud),
    finish: &mut dyn FnMut(&Cloud),
) -> ReplayOutcome {
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
            let prof = function_profile(&cfg.trace, seed, app, func);
            let rng = exec_rng.clone();
            let mean = prof.mean_exec.as_secs_f64();
            let cv = prof.exec_cv;
            ids.push(faas.register(FunctionSpec::new(
                prof.name,
                prof.memory_mb,
                prof.timeout,
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
                            SimDuration::from_secs_f64(rng.borrow_mut().lognormal_mean_cv(mean, cv));
                        ctx.cpu(work).await;
                        Ok(Payload::new())
                    }
                },
            )));
        }
    }

    let funcs_per_app = cfg.trace.funcs_per_app.max(1);
    let stats = Stats {
        sketch: QuantileSketch::with_default_error(),
        per_app: (0..cfg.trace.apps)
            .map(|_| AppAgg {
                completed: 0,
                lat_sum: 0.0,
            })
            .collect(),
        per_tenant: (0..cfg.trace.tenants.max(1))
            .map(|_| TenantAgg {
                sketch: QuantileSketch::with_default_error(),
                completed: 0,
                lat_sum: 0.0,
            })
            .collect(),
        seen_funcs: vec![false; (cfg.trace.apps * funcs_per_app) as usize],
        succeeded: 0,
        failed: 0,
        gw_shed: 0,
        completed: 0,
        last_done: SimTime::ZERO,
    };
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
        names: (0..cfg.trace.apps)
            .flat_map(|app| (0..funcs_per_app).map(move |func| function_name(app, func)))
            .collect(),
        ids,
        funcs_per_app,
        total: Cell::new(None),
        done: Cell::new(false),
        generated: Cell::new(0),
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
                ctx2.sim.spawn_detached(async move {
                    let t0 = ctx3.sim.now();
                    let func = (ev.app * ctx3.funcs_per_app + ev.func) as usize;
                    let call = (ev.tenant, ctx3.ids[func], ctx3.names[func].as_str());
                    // The final attempt's outcome, or the error it ended on
                    // (none when a retry layer gave up on a budget).
                    let outcome = match &ctx3.retry {
                        Some(retry) => retry
                            .invoke(call, &payload, Deadline::unbounded())
                            .await
                            .map_err(RetryError::into_inner),
                        None => ctx3.door.attempt(call, payload).await.map_err(Some),
                    };
                    // `shed` marks a failure that was a gateway admission
                    // refusal rather than an execution failure.
                    let (ok, shed) = match outcome {
                        Ok(_) => (true, false),
                        Err(last) => (false, last.is_some_and(|e| e.is_shed())),
                    };
                    let now = ctx3.sim.now();
                    let latency = now.duration_since(t0).as_secs_f64();
                    {
                        let mut st = ctx3.stats.borrow_mut();
                        st.sketch.insert(latency);
                        let tagg = &mut st.per_tenant[ev.tenant as usize];
                        tagg.sketch.insert(latency);
                        tagg.completed += 1;
                        tagg.lat_sum += latency;
                        let agg = &mut st.per_app[ev.app as usize];
                        agg.completed += 1;
                        agg.lat_sum += latency;
                        st.seen_funcs[func] = true;
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
                        if ctx3.total.get() == Some(st.completed) {
                            ctx3.done.set(true);
                        }
                    }
                    drop(permit);
                });
            }
            ctx2.generated.set(spawned);
            ctx2.total.set(Some(spawned));
            if ctx2.stats.borrow().completed == spawned {
                ctx2.done.set(true);
            }
        });
    }

    sim.run();
    finish(&cloud);

    let packing = faas.packing_stats();
    let nic = faas.nic_stats();
    let recorder = &cloud.recorder;
    let st = ctx.stats.borrow();
    let cold = recorder.counter("faas.invoke.cold");
    let warm = recorder.counter("faas.invoke.warm");
    let attempts = cold + warm;
    let sim_secs = st.last_done.as_secs_f64();
    let dollars = cloud.ledger.total();

    // Fairness: distribution of per-app mean latencies.
    let mut app_means: Vec<f64> = st
        .per_app
        .iter()
        .filter(|a| a.completed > 0)
        .map(|a| a.lat_sum / a.completed as f64)
        .collect();
    app_means.sort_by(f64::total_cmp);
    let (p50_app, p95_app) = (rank(&app_means, 0.50), rank(&app_means, 0.95));

    // Tenant-level fairness: same rank statistics over per-tenant means
    // and p99s (only meaningful when traffic flowed through the gateway).
    let mut tenant_means: Vec<f64> = Vec::new();
    let mut tenant_p99s: Vec<f64> = Vec::new();
    for agg in st.per_tenant.iter().filter(|a| a.completed > 0) {
        tenant_means.push(agg.lat_sum / agg.completed as f64);
        tenant_p99s.push(agg.sketch.p99());
    }
    tenant_means.sort_by(f64::total_cmp);
    tenant_p99s.sort_by(f64::total_cmp);
    let gw_stats = gateway.as_ref().map(|gw| gw.stats());
    let gw_used = gw_stats.is_some();

    let report = ReplayReport {
        seed,
        generated: ctx.generated.get(),
        invocations: st.completed,
        succeeded: st.succeeded,
        failed: st.failed,
        attempts,
        cold_starts: cold,
        cold_start_rate: if attempts == 0 {
            0.0
        } else {
            cold as f64 / attempts as f64
        },
        latency_p50: st.sketch.p50(),
        latency_p95: st.sketch.p95(),
        latency_p99: st.sketch.p99(),
        latency_p999: st.sketch.p999(),
        latency_mean: st.sketch.mean(),
        fairness_spread: if p50_app > 0.0 { p95_app / p50_app } else { 0.0 },
        apps_seen: app_means.len() as u32,
        distinct_functions: st.seen_funcs.iter().filter(|&&s| s).count() as u64,
        busy_gb_seconds: packing.busy_gb_seconds,
        resident_gb_seconds: packing.resident_gb_seconds,
        packing_density: packing.density(),
        nic_transfers: nic.transfers,
        nic_peak_fan_in: nic.peak_flows,
        nic_mean_fan_in: nic.mean_fan_in(),
        nic_min_share_mbps: if nic.transfers == 0 {
            0.0
        } else {
            nic.min_fair_share / 1e6
        },
        dollars,
        dollars_per_hour: if sim_secs > 0.0 {
            dollars / (sim_secs / 3600.0)
        } else {
            0.0
        },
        sim_secs,
        throttled_waits: recorder.counter("faas.throttled_waits"),
        chaos_kills: recorder.counter("faas.chaos_kills"),
        chaos_evicted: recorder.counter("faas.chaos_evicted"),
        tenants_seen: if gw_used { tenant_means.len() as u32 } else { 0 },
        tenant_fairness_spread: if gw_used && rank(&tenant_means, 0.50) > 0.0 {
            rank(&tenant_means, 0.95) / rank(&tenant_means, 0.50)
        } else {
            0.0
        },
        tenant_p99_max: if gw_used { rank(&tenant_p99s, 1.0) } else { 0.0 },
        tenant_p99_median: if gw_used { rank(&tenant_p99s, 0.50) } else { 0.0 },
        gw_offered: gw_stats.as_ref().map_or(0, |s| s.totals.offered),
        gw_admitted: gw_stats.as_ref().map_or(0, |s| s.totals.admitted),
        gw_rate_shed: gw_stats.as_ref().map_or(0, |s| s.totals.rate_shed()),
        gw_load_shed: gw_stats.as_ref().map_or(0, |s| s.totals.load_shed),
        gw_breaker_rejected: gw_stats.as_ref().map_or(0, |s| s.totals.breaker_rejected),
        gw_shed_requests: st.gw_shed,
        gw_peak_in_flight: gw_stats.as_ref().map_or(0, |s| s.peak_in_flight),
        engine: sim.profile(),
    };
    ReplayOutcome {
        report,
        digest: recorder.digest(),
        bill: cloud.ledger.report(),
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_replay_completes_every_event() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 500;
        let out = replay(&cfg, 11, &|_| {});
        assert_eq!(out.report.generated, 500);
        assert_eq!(out.report.invocations, 500);
        assert_eq!(out.report.succeeded + out.report.failed, 500);
        assert_eq!(out.report.failed, 0, "calm replay must not fail");
        // Default config routes through the gateway: every request was
        // offered at the front door, admissions conserve, and a calm
        // trace is never shed for good.
        assert!(out.report.gw_offered >= 500);
        assert_eq!(
            out.report.gw_offered,
            out.report.gw_admitted
                + out.report.gw_rate_shed
                + out.report.gw_load_shed
                + out.report.gw_breaker_rejected,
            "gateway conservation"
        );
        assert_eq!(out.report.gw_shed_requests, 0);
        assert!(out.report.tenants_seen >= 1);
        assert!(out.report.tenant_p99_max >= out.report.tenant_p99_median);
        assert!(out.report.gw_peak_in_flight >= 1);
        assert!(out.report.cold_starts > 0);
        assert!(out.report.latency_p50 > 0.0);
        assert!(out.report.latency_p99 >= out.report.latency_p50);
        assert!(out.report.packing_density > 0.0 && out.report.packing_density <= 1.0);
        assert!(out.report.dollars > 0.0);
        assert!(out.report.distinct_functions > 1);
        // Every attempt ships its payload over a host NIC, so the fan-in
        // probes must have seen real traffic.
        assert_eq!(out.report.nic_transfers, out.report.attempts);
        assert!(out.report.nic_peak_fan_in >= 1);
        assert!(out.report.nic_mean_fan_in >= 1.0);
        assert!(out.report.nic_min_share_mbps > 0.0);
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
        let out = replay(&cfg, 11, &|_| {});
        assert_eq!(out.report.invocations, 300);
        assert_eq!(out.report.failed, 0);
        assert_eq!(out.report.gw_offered, 0);
        assert_eq!(out.report.tenants_seen, 0);
    }

    #[test]
    fn gateway_rides_without_retries_too() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 300;
        cfg.retry = None;
        let out = replay(&cfg, 11, &|_| {});
        assert_eq!(out.report.invocations, 300);
        assert_eq!(
            out.report.gw_offered,
            out.report.gw_admitted
                + out.report.gw_rate_shed
                + out.report.gw_load_shed
                + out.report.gw_breaker_rejected,
        );
        // Single-shot sheds (if any) must be counted as shed requests.
        assert_eq!(out.report.failed, out.report.gw_shed_requests);
    }
}
