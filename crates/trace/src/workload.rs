//! Deterministic, lazily generated workload traces in the style of the
//! Azure Functions production traces: many applications with heavy-tailed
//! (Zipf) popularity, each firing invocations under its own arrival
//! process — steady Poisson, bursty on/off, or diurnal-cycle modulated —
//! against functions whose execution-time and memory profiles are drawn
//! per function from configurable distributions.
//!
//! The generator is an [`Iterator`] over [`TraceEvent`]s, merged across
//! apps through a binary heap of next-arrival times, so a
//! million-invocation trace costs `O(apps)` memory and is never
//! materialized. Every draw comes from per-app named [`SimRng`] streams:
//! the same seed always yields the byte-identical event stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faasim_simcore::{SimDuration, SimRng, SimTime};

/// One invocation request in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival instant (non-decreasing across the stream).
    pub at: SimTime,
    /// Application id — also its popularity rank (0 = hottest).
    pub app: u32,
    /// Function index within the app.
    pub func: u32,
    /// Request payload size in bytes.
    pub payload_bytes: u64,
    /// Owning tenant (see [`tenant_of`]); always 0 when the config has
    /// a single tenant.
    pub tenant: u32,
}

/// How one app's invocations arrive over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless steady-state arrivals.
    Poisson,
    /// On/off bursts: silent most of the time, then arrival clusters at a
    /// boosted rate (long-run mean rate is preserved).
    Bursty,
    /// Poisson thinned against a sinusoidal daily cycle.
    Diurnal,
}

/// Everything that defines a workload trace. All fields are plain data so
/// configs can be shared across sweep worker threads.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Number of applications; app id doubles as popularity rank.
    pub apps: u32,
    /// Functions per application.
    pub funcs_per_app: u32,
    /// Zipf exponent over app popularity (higher ⇒ heavier head).
    pub zipf_s: f64,
    /// Zipf exponent for picking a function within an app.
    pub func_zipf_s: f64,
    /// Aggregate arrival rate across all apps, invocations/sec.
    pub total_rate: f64,
    /// Trace horizon: no arrivals are generated past this point.
    pub duration: SimDuration,
    /// Hard cap on emitted events (`u64::MAX` = horizon-bounded only).
    pub max_events: u64,
    /// Fraction of apps with bursty on/off arrivals.
    pub bursty_fraction: f64,
    /// Fraction of apps with diurnal-cycle modulation.
    pub diurnal_fraction: f64,
    /// Mean burst (ON) duration for bursty apps.
    pub burst_on: SimDuration,
    /// Mean silence (OFF) duration for bursty apps.
    pub burst_off: SimDuration,
    /// Period of the diurnal cycle.
    pub diurnal_period: SimDuration,
    /// Diurnal modulation amplitude in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Mean request payload size in bytes (lognormal).
    pub payload_mean_bytes: f64,
    /// Coefficient of variation of the payload size.
    pub payload_cv: f64,
    /// Per-function mean execution time is drawn log-uniformly from this
    /// range (milliseconds) — a heavy-tailed spread *across* functions.
    pub exec_mean_ms: (f64, f64),
    /// Coefficient of variation of execution time *within* a function.
    pub exec_cv: f64,
    /// Memory sizes functions are assigned from (uniformly by hash).
    pub memory_choices_mb: Vec<u64>,
    /// Configured timeout for every generated function.
    pub func_timeout: SimDuration,
    /// Number of tenants apps are assigned to (Zipf over tenants). With
    /// `tenants <= 1` no tenant stream is ever consulted, so the event
    /// stream is byte-identical to a tenantless trace.
    pub tenants: u32,
    /// Zipf exponent over tenant popularity (higher ⇒ the hottest
    /// tenant owns more apps).
    pub tenant_zipf_s: f64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::small()
    }
}

impl TraceConfig {
    /// A small smoke-test trace: 64 apps × 4 functions, ~10k invocations
    /// over five simulated minutes.
    pub fn small() -> TraceConfig {
        TraceConfig {
            apps: 64,
            funcs_per_app: 4,
            zipf_s: 1.1,
            func_zipf_s: 1.0,
            total_rate: 36.0,
            duration: SimDuration::from_mins(5),
            max_events: u64::MAX,
            bursty_fraction: 0.2,
            diurnal_fraction: 0.2,
            burst_on: SimDuration::from_secs(20),
            burst_off: SimDuration::from_secs(60),
            diurnal_period: SimDuration::from_mins(5),
            diurnal_amplitude: 0.8,
            payload_mean_bytes: 4096.0,
            payload_cv: 1.0,
            exec_mean_ms: (5.0, 2000.0),
            exec_cv: 0.25,
            memory_choices_mb: vec![128, 256, 512, 1024, 1536, 2048, 3008],
            func_timeout: SimDuration::from_secs(60),
            tenants: 4,
            tenant_zipf_s: 1.0,
        }
    }

    /// The acceptance-scale trace: 3,000 apps × 4 functions (12k distinct
    /// functions), ~1.08M invocations over one simulated hour.
    pub fn paper_scale() -> TraceConfig {
        TraceConfig {
            apps: 3_000,
            funcs_per_app: 4,
            total_rate: 300.0,
            duration: SimDuration::from_hours(1),
            diurnal_period: SimDuration::from_hours(1),
            burst_on: SimDuration::from_secs(60),
            burst_off: SimDuration::from_mins(5),
            tenants: 32,
            ..TraceConfig::small()
        }
    }

    /// Per-app mean arrival rates (invocations/sec), strictly decreasing
    /// in rank for any positive Zipf exponent.
    pub fn app_rates(&self) -> Vec<f64> {
        let weights: Vec<f64> = (0..self.apps)
            .map(|r| 1.0 / ((r + 1) as f64).powf(self.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| self.total_rate * w / total)
            .collect()
    }

    /// Expected number of events over the horizon (ignores `max_events`).
    pub fn expected_events(&self) -> f64 {
        self.total_rate * self.duration.as_secs_f64()
    }
}

/// The tenant owning `app` at this seed: a Zipf draw over tenants from
/// the app's own `trace.tenant.<app>` stream, so tenancy is independent
/// of arrival generation. With `tenants <= 1` nothing is drawn and the
/// answer is always tenant 0 — existing streams stay byte-identical.
pub fn tenant_of(cfg: &TraceConfig, seed: u64, app: u32) -> u32 {
    if cfg.tenants <= 1 {
        return 0;
    }
    let mut rng = SimRng::stream(seed, &format!("trace.tenant.{app}"));
    rng.zipf(cfg.tenants as usize, cfg.tenant_zipf_s) as u32
}

/// Expected mean arrival rate per tenant (invocations/sec): the Zipf
/// app rates folded by the deterministic tenant assignment. Tenants
/// that happen to own no apps have rate 0.
pub(crate) fn tenant_rates(cfg: &TraceConfig, seed: u64) -> Vec<f64> {
    let mut rates = vec![0.0; cfg.tenants.max(1) as usize];
    for (app, rate) in cfg.app_rates().into_iter().enumerate() {
        rates[tenant_of(cfg, seed, app as u32) as usize] += rate;
    }
    rates
}

/// The platform-facing name of a trace function.
pub fn function_name(app: u32, func: u32) -> String {
    format!("a{app}-f{func}")
}

/// Allocated memory in MB (which also sets the CPU share) and mean
/// execution time on a reference core of function `(app, func)`, derived
/// deterministically from `(seed, app, func)` — no table of 100k specs
/// needs to exist anywhere.
pub(crate) fn function_profile(cfg: &TraceConfig, seed: u64, app: u32, func: u32) -> (u64, SimDuration) {
    let mut rng = SimRng::stream(seed, &format!("trace.fn.{app}.{func}"));
    let (lo, hi) = cfg.exec_mean_ms;
    let (lo, hi) = (lo.max(0.001), hi.max(lo.max(0.001)));
    let mean_ms = lo * (hi / lo).powf(rng.unit_f64());
    let memory_mb = *rng.choose(&cfg.memory_choices_mb).unwrap_or(&128);
    (memory_mb, SimDuration::from_secs_f64(mean_ms / 1e3))
}

struct AppState {
    rng: SimRng,
    rate: f64,
    tenant: u32,
    kind: ArrivalKind,
    /// Bursty phase machine: end of the current phase and whether it's ON.
    phase_end: SimTime,
    on: bool,
}

impl AppState {
    /// Next arrival strictly derived from this app's own stream, so the
    /// merged trace is independent of iteration interleaving.
    fn next_arrival(&mut self, from: SimTime, cfg: &TraceConfig) -> SimTime {
        match self.kind {
            ArrivalKind::Poisson => from + exp_gap(&mut self.rng, self.rate),
            ArrivalKind::Diurnal => {
                let amp = cfg.diurnal_amplitude.clamp(0.0, 0.999);
                let peak = self.rate * (1.0 + amp);
                let period = cfg.diurnal_period.as_secs_f64().max(1e-9);
                let mut t = from;
                // Thinning: propose at the peak rate, accept against the
                // instantaneous sinusoidal rate.
                loop {
                    t += exp_gap(&mut self.rng, peak);
                    let phase = std::f64::consts::TAU * t.as_secs_f64() / period;
                    let instantaneous = self.rate * (1.0 + amp * phase.sin());
                    if self.rng.unit_f64() * peak < instantaneous {
                        return t;
                    }
                }
            }
            ArrivalKind::Bursty => {
                let on = cfg.burst_on.as_secs_f64().max(1e-9);
                let off = cfg.burst_off.as_secs_f64().max(0.0);
                // Boost the ON rate so the long-run mean stays `rate`.
                let on_rate = self.rate * (on + off) / on;
                let mut t = from;
                loop {
                    if !self.on {
                        t = self.phase_end;
                        self.on = true;
                        self.phase_end =
                            t + SimDuration::from_secs_f64(self.rng.exponential(on));
                    }
                    let cand = t + exp_gap(&mut self.rng, on_rate);
                    if cand < self.phase_end {
                        return cand;
                    }
                    t = self.phase_end;
                    self.on = false;
                    self.phase_end = t + SimDuration::from_secs_f64(self.rng.exponential(off));
                }
            }
        }
    }
}

fn exp_gap(rng: &mut SimRng, rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(1.0 / rate.max(1e-12)))
}

/// Lazy, heap-merged trace generator. See the module docs.
pub struct TraceGenerator {
    cfg: TraceConfig,
    apps: Vec<AppState>,
    /// Min-heap of `(next arrival, app)`; at most one entry per app.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    horizon: SimTime,
    emitted: u64,
}

impl TraceGenerator {
    /// Build the generator for `cfg` at `seed`. Costs `O(apps)` time and
    /// memory; no event is generated until the iterator is driven.
    pub fn new(cfg: TraceConfig, seed: u64) -> TraceGenerator {
        let rates = cfg.app_rates();
        let horizon = SimTime::ZERO + cfg.duration;
        let mut apps = Vec::with_capacity(cfg.apps as usize);
        let mut heap = BinaryHeap::with_capacity(cfg.apps as usize);
        for (id, &rate) in rates.iter().enumerate() {
            let mut rng = SimRng::stream(seed, &format!("trace.app.{id}"));
            let u = rng.unit_f64();
            let kind = if u < cfg.bursty_fraction {
                ArrivalKind::Bursty
            } else if u < cfg.bursty_fraction + cfg.diurnal_fraction {
                ArrivalKind::Diurnal
            } else {
                ArrivalKind::Poisson
            };
            let mut st = AppState {
                rng,
                rate,
                tenant: tenant_of(&cfg, seed, id as u32),
                kind,
                phase_end: SimTime::ZERO,
                on: false,
            };
            let first = st.next_arrival(SimTime::ZERO, &cfg);
            if first <= horizon {
                heap.push(Reverse((first, id as u32)));
            }
            apps.push(st);
        }
        TraceGenerator {
            cfg,
            apps,
            heap,
            horizon,
            emitted: 0,
        }
    }

    /// Events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.emitted >= self.cfg.max_events {
            return None;
        }
        let Reverse((at, app)) = self.heap.pop()?;
        let st = &mut self.apps[app as usize];
        let func = st
            .rng
            .zipf(self.cfg.funcs_per_app.max(1) as usize, self.cfg.func_zipf_s)
            as u32;
        let payload_bytes = st
            .rng
            .lognormal_mean_cv(self.cfg.payload_mean_bytes.max(1.0), self.cfg.payload_cv)
            .clamp(64.0, 1024.0 * 1024.0) as u64;
        let next = st.next_arrival(at, &self.cfg);
        if next <= self.horizon {
            self.heap.push(Reverse((next, app)));
        }
        self.emitted += 1;
        Some(TraceEvent {
            at,
            app,
            func,
            payload_bytes,
            tenant: st.tenant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_time_ordered_and_within_horizon() {
        let cfg = TraceConfig::small();
        let horizon = SimTime::ZERO + cfg.duration;
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        for ev in TraceGenerator::new(cfg, 7) {
            assert!(ev.at >= last, "time went backwards");
            assert!(ev.at <= horizon);
            last = ev.at;
            n += 1;
        }
        // ~36/s over 300 s ≈ 10.8k events.
        assert!(n > 8_000 && n < 14_000, "got {n} events");
    }

    #[test]
    fn max_events_caps_the_stream() {
        let mut cfg = TraceConfig::small();
        cfg.max_events = 100;
        assert_eq!(TraceGenerator::new(cfg, 1).count(), 100);
    }

    #[test]
    fn rates_are_strictly_zipf_monotone() {
        let cfg = TraceConfig::small();
        let rates = cfg.app_rates();
        assert!((rates.iter().sum::<f64>() - cfg.total_rate).abs() < 1e-9);
        for pair in rates.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    fn tenant_assignment_is_stable_and_head_heavy() {
        let cfg = TraceConfig::small();
        for app in 0..cfg.apps {
            assert_eq!(tenant_of(&cfg, 9, app), tenant_of(&cfg, 9, app));
            assert!(tenant_of(&cfg, 9, app) < cfg.tenants);
        }
        let rates = tenant_rates(&cfg, 9);
        assert_eq!(rates.len(), cfg.tenants as usize);
        assert!((rates.iter().sum::<f64>() - cfg.total_rate).abs() < 1e-9);
    }

    #[test]
    fn single_tenant_draws_nothing_and_owns_everything() {
        let mut cfg = TraceConfig::small();
        cfg.tenants = 1;
        for app in 0..cfg.apps {
            assert_eq!(tenant_of(&cfg, 3, app), 0);
        }
        assert!(TraceGenerator::new(cfg, 3).all(|ev| ev.tenant == 0));
    }

    #[test]
    fn function_profiles_are_stable() {
        let cfg = TraceConfig::small();
        let (memory_mb, mean_exec) = function_profile(&cfg, 42, 3, 1);
        assert_eq!((memory_mb, mean_exec), function_profile(&cfg, 42, 3, 1));
        let (lo, hi) = cfg.exec_mean_ms;
        let ms = mean_exec.as_secs_f64() * 1e3;
        assert!(ms >= lo && ms <= hi);
        assert!(cfg.memory_choices_mb.contains(&memory_mb));
    }
}
