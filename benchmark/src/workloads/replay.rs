//! `replay_direct` and `replay_frontdoor_faulty`: the paper-scale trace
//! (3 000 apps, 12 000 functions, 32 tenants) streamed through the
//! platform, once straight in and calm, once through the gateway and the
//! retry layer under a hostile fault plan. Same layers, used differently.

use std::cell::RefCell;
use std::hint::black_box;

use faasim::simcore::{SimDuration, SimProfile};
use faasim::{Cloud, CloudProfile};
use faasim_chaos::FaultPlan;
use faasim_resilience::RetryPolicy;
use faasim_trace::{replay_with, GatewaySpec, ReplayConfig, ReplayOutcome, TraceGenerator};

use super::{Iteration, Sizes, Workload};
use crate::span::Tracer;

/// Cold-start storms in the faulty replay, evenly spaced over the trace
/// (every ~2.8 sim-minutes at full size).
const STORMS: u64 = 4;

/// Exact counts of one replay, read from public stats: what the per-layer
/// budget multiplies the kernel costs by.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayCounts {
    /// Trace events replayed.
    pub invocations: u64,
    /// Platform invocations (cold + warm), retries included.
    pub attempts: u64,
    /// Attempts that started a container.
    pub cold_starts: u64,
    /// Executor and timer-wheel counters.
    pub engine: SimProfile,
    /// Samples recorded into the recorder's histograms.
    pub recorder_samples: u64,
    /// Requests that reached the gateway (0 without one).
    pub gw_offered: u64,
    /// Requests the gateway admitted (0 without one).
    pub gw_admitted: u64,
    /// Functions registered before the first arrival.
    pub functions: u64,
    /// Keep-alive reaper passes over the replay's sim time.
    pub reaps: u64,
    /// Whether a client-side retry layer wrapped every request.
    pub retrying: bool,
    /// Client-observed latency percentiles, sim seconds.
    pub sim_p50_s: f64,
    /// See `sim_p50_s`.
    pub sim_p99_s: f64,
    /// The replay's bill.
    pub dollars: f64,
    /// Sim time from the first arrival to the last completion.
    pub sim_secs: f64,
}

pub struct Replay {
    cfg: ReplayConfig,
    plan: FaultPlan,
    seed: u64,
    faulty: bool,
}

impl Replay {
    /// The platform both replays run on. At the 2018 default of 1 000
    /// concurrent executions this trace saturates the account limit to a
    /// degree that depends on the seed (sim p50 0.6–9.9 s, polls per
    /// invocation spread over 17 %), which would make `work_per_s` a
    /// property of the seed. At 3 000 nothing queues on the limit and the
    /// work per invocation is the same on every seed to 0.3 %; it also
    /// leaves room for a cold-start storm's wave (300 arrivals/s × ~5 s).
    fn platform() -> ReplayConfig {
        let mut cfg = ReplayConfig::paper_scale();
        cfg.profile.faas.account_concurrency = 3_000;
        cfg
    }

    /// Calm plan, no gateway, no retries: trace → simcore → faas → net NIC
    /// → pricing do all the work.
    pub fn direct(seed: u64, sizes: &Sizes) -> Replay {
        let mut cfg = Replay::platform();
        cfg.gateway = None;
        cfg.retry = None;
        // With no retry layer a handler that outruns its timeout is a
        // failed request, and at the trace's 60 s the slowest class of
        // function (2 s of work on 128 MB, ~29 s of CPU) does so on a +3σ
        // draw: two requests in 250 000 on some seeds. Twice the timeout
        // puts that at +6σ, so nothing fails on any seed.
        cfg.trace.func_timeout = SimDuration::from_secs(120);
        Replay::warmed(cfg, FaultPlan::calm(), seed, false, sizes)
    }

    /// Gateway + retries under `FaultPlan::hostile()` with 10 % mid-flight
    /// kills and [`STORMS`] cold-start storms. Sized so the
    /// resilience layers absorb every fault: the in-flight cap leaves room
    /// for a storm's cold-start wave and eight attempts outlast any run of
    /// kills, so no request finally fails and `ops_failed` stays 0.
    pub fn frontdoor_faulty(seed: u64, sizes: &Sizes) -> Replay {
        let mut cfg = Replay::platform();
        cfg.gateway = Some(GatewaySpec::default());
        cfg.retry = Some(RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        });
        cfg.max_in_flight = 16_384;
        let mut plan = FaultPlan::hostile();
        plan.faas.kill_prob = 0.10;
        let trace_secs = sizes.replay_arrivals as f64 / cfg.trace.total_rate;
        plan.storms = (1..=STORMS)
            .map(|k| SimDuration::from_secs_f64(trace_secs * k as f64 / (STORMS + 1) as f64))
            .collect();
        Replay::warmed(cfg, plan, seed, true, sizes)
    }

    fn warmed(
        mut cfg: ReplayConfig,
        plan: FaultPlan,
        seed: u64,
        faulty: bool,
        sizes: &Sizes,
    ) -> Replay {
        cfg.trace.max_events = sizes.warmup_arrivals;
        let mut workload = Replay {
            cfg,
            plan,
            seed,
            faulty,
        };
        // Warm-up: page in the allocator and the instruction cache on a
        // short prefix of the same trace.
        black_box(workload.run(&Tracer::off(), false));
        workload.cfg.trace.max_events = sizes.replay_arrivals;
        workload
    }

    fn run(&self, tr: &Tracer, count: bool) -> (ReplayOutcome, Option<ReplayCounts>) {
        let counts = RefCell::new(None);
        let span = tr.span("trace.replay");
        let out = replay_with(
            &self.cfg,
            self.seed,
            &|cloud: &Cloud| {
                let _span = tr.span("chaos.plan_apply");
                self.plan.apply(cloud);
            },
            &mut |cloud: &Cloud| {
                if tr.enabled() {
                    // The same two calls `replay_with` makes right after
                    // this hook, repeated here so they get spans.
                    let digest = tr.span("simcore.recorder_digest");
                    black_box(cloud.recorder.digest());
                    drop(digest);
                    let _report = tr.span("pricing.report");
                    black_box(cloud.ledger.report());
                }
                if count {
                    let recorder = &cloud.recorder;
                    *counts.borrow_mut() = Some(ReplayCounts {
                        recorder_samples: recorder
                            .histogram_names()
                            .iter()
                            .map(|name| recorder.histogram(name).count() as u64)
                            .sum(),
                        gw_offered: recorder.counter("gw.offered"),
                        gw_admitted: recorder.counter("gw.admitted"),
                        ..ReplayCounts::default()
                    });
                }
            },
        );
        span.ops(out.report.invocations);
        drop(span);
        let counts = counts.into_inner().map(|c| {
            let r = &out.report;
            ReplayCounts {
                invocations: r.invocations,
                attempts: r.attempts,
                cold_starts: r.cold_starts,
                engine: r.engine,
                functions: u64::from(self.cfg.trace.apps * self.cfg.trace.funcs_per_app),
                reaps: (r.sim_secs / self.cfg.reap_every.as_secs_f64()) as u64,
                retrying: self.cfg.retry.is_some(),
                sim_p50_s: r.latency_p50,
                sim_p99_s: r.latency_p99,
                dollars: r.dollars,
                sim_secs: r.sim_secs,
                ..c
            }
        });
        (out, counts)
    }
}

impl Workload for Replay {
    fn unit(&self) -> &'static str {
        "invocation"
    }

    fn iterate(&mut self, tr: &Tracer, count: bool) -> Iteration {
        let (out, counts) = self.run(tr, count);
        let r = &out.report;
        // Only the fields the README's API-surface manifest lists, so the
        // fingerprint survives the planned nesting of the other report
        // sections.
        let report = format!(
            "generated={} invocations={} succeeded={} failed={} attempts={} cold_starts={} \
             latency_p50={} latency_p99={} dollars={} sim_secs={} chaos_kills={} chaos_evicted={}",
            r.generated,
            r.invocations,
            r.succeeded,
            r.failed,
            r.attempts,
            r.cold_starts,
            r.latency_p50,
            r.latency_p99,
            r.dollars,
            r.sim_secs,
            r.chaos_kills,
            r.chaos_evicted,
        );
        let mut violations = Vec::new();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                violations.push(format!("{what} ({report})"));
            }
        };
        check(
            r.generated == self.cfg.trace.max_events,
            "trace ended before the arrival cap",
        );
        check(
            r.generated == r.invocations && r.invocations == r.succeeded + r.failed,
            "generated == invocations == succeeded + failed does not hold",
        );
        if self.faulty {
            check(r.chaos_kills > 0, "hostile plan killed nothing");
            check(r.chaos_evicted > 0, "cold-start storms evicted nothing");
            check(r.attempts > r.invocations, "no kill was retried");
        } else {
            check(r.failed == 0, "calm replay failed requests");
            check(r.attempts == r.invocations, "calm replay retried");
        }
        Iteration {
            units: r.invocations,
            attempted: r.generated,
            failed: r.failed,
            fingerprint: format!("{}\n{}\n{report}", out.digest, out.bill),
            violations,
            counts: counts.as_ref().map(count_values).unwrap_or_default(),
            replay: counts,
        }
    }

    fn probes(&mut self, tr: &Tracer) {
        // `replay_with` walks the generator and builds the cloud inside
        // its one span; repeat both here to see them on their own.
        let span = tr.span("trace.generate");
        span.ops(TraceGenerator::new(self.cfg.trace.clone(), self.seed).count() as u64);
        drop(span);
        let _span = tr.span("core.cloud_new");
        black_box(Cloud::new(CloudProfile::aws_2018(), self.seed));
    }
}

/// The C and M values of a replay (one invocation = one trace event):
/// exact for a seed, so a host-speed change must leave every one
/// identical. Units and kinds are in `run::COUNT_METRICS`.
fn count_values(c: &ReplayCounts) -> Vec<(&'static str, f64)> {
    let inv = c.invocations.max(1) as f64;
    let e = &c.engine;
    vec![
        ("simcore.polls_per_inv", e.task_polls as f64 / inv),
        ("simcore.spawns_per_inv", e.tasks_spawned as f64 / inv),
        ("simcore.timer_pushes_per_inv", e.timer_pushes as f64 / inv),
        (
            "simcore.timer_cancels_per_inv",
            e.timer_cancels as f64 / inv,
        ),
        (
            "simcore.wheel_cascades_per_inv",
            e.timer_cascades as f64 / inv,
        ),
        ("simcore.peak_live_tasks", e.peak_live_tasks as f64),
        ("simcore.peak_pending_timers", e.peak_pending_timers as f64),
        (
            "simcore.recorder_samples_per_inv",
            c.recorder_samples as f64 / inv,
        ),
        ("faas.attempts_per_inv", c.attempts as f64 / inv),
        (
            "faas.cold_start_pct",
            c.cold_starts as f64 / c.attempts.max(1) as f64 * 100.0,
        ),
        ("faas.sim_p50_ms", c.sim_p50_s * 1e3),
        ("faas.sim_p99_ms", c.sim_p99_s * 1e3),
        (
            "faas.usd_per_sim_hr",
            c.dollars / (c.sim_secs.max(1e-9) / 3600.0),
        ),
    ]
}
