//! The admission pipeline itself: token bucket → load shedder →
//! concurrency semaphore → circuit breaker, in that order, with every
//! decision deterministic in simulation time.
//!
//! Stage order matters twice over. The breaker runs *last* so that a
//! shed at an earlier stage can never strand its half-open probe slot
//! (the probe is only claimed once admission is otherwise certain).
//! And every stage after the bucket refunds the token it took, so the
//! bucket meters traffic that actually reaches the platform — overload
//! does not also burn down the tenant's paid-for rate.

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::fmt;
use std::rc::Rc;

use faasim_faas::{FaasPlatform, InvokeOutcome};
use faasim_payload::Payload;
use faasim_pricing::{ItemId, Ledger, PriceBook, Service};
use faasim_resilience::{BreakerConfig, BreakerError, CircuitBreaker};
use faasim_simcore::{LazyCounter, Recorder, SemPermit, Semaphore, Sim, SimDuration, SimTime};

use crate::bucket::TokenBucket;
use crate::stats::{GatewayStats, TenantStats};

/// Number of shed-priority tiers (priorities clamp to `TIERS - 1`).
pub const TIERS: usize = 4;

/// Per-tenant admission limits.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Token refill rate, requests per second.
    pub rate: f64,
    /// Token bucket capacity (burst size), in requests.
    pub burst: f64,
    /// Maximum concurrently admitted requests for this tenant.
    pub max_concurrent: usize,
    /// Shed priority: tier 0 is shed first, tier `TIERS - 1` last.
    pub priority: u8,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            rate: 100.0,
            burst: 200.0,
            max_concurrent: 256,
            priority: TIERS as u8 - 1,
        }
    }
}

/// Gateway-wide tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct GatewayConfig {
    /// One entry per tenant; tenant ids are indices into this vec.
    pub tenants: Vec<TenantConfig>,
    /// Hard cap on concurrently admitted requests across all tenants.
    pub max_in_flight: usize,
    /// Load-shed watermarks per priority tier, as fractions of
    /// `max_in_flight`: a tier-`p` request is shed once the gateway's
    /// in-flight count reaches `watermark[p] * max_in_flight`. Must be
    /// non-decreasing so higher tiers never shed before lower ones.
    pub shed_watermarks: [f64; TIERS],
    /// Per-tenant circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Constant gateway processing overhead added to every *admitted*
    /// request (no randomness: the gateway must not perturb RNG
    /// streams).
    pub overhead: SimDuration,
}

impl GatewayConfig {
    /// Defaults around the given tenant set: 4096 in flight, watermarks
    /// at 50/70/85/97%, stock breaker, 1 ms of gateway overhead.
    pub fn new(tenants: Vec<TenantConfig>) -> GatewayConfig {
        GatewayConfig {
            tenants,
            max_in_flight: 4096,
            shed_watermarks: [0.50, 0.70, 0.85, 0.97],
            breaker: BreakerConfig::default(),
            overhead: SimDuration::from_millis(1),
        }
    }
}

/// Typed admission refusals — the errors a retrying client backs off
/// on. Execution errors of *admitted* requests are not here: they stay
/// in [`InvokeOutcome::result`], except when a retry wrapper reports a
/// final attempt via [`GatewayError::Function`].
#[derive(Clone, Debug, PartialEq)]
pub enum GatewayError {
    /// The tenant's token bucket is empty; a token arrives at `retry_at`.
    RateLimited {
        /// The refusing tenant.
        tenant: u32,
        /// When the bucket next holds a whole token.
        retry_at: SimTime,
    },
    /// The tenant's concurrency cap is fully in use.
    ConcurrencyLimited {
        /// The refusing tenant.
        tenant: u32,
    },
    /// The load shedder refused this tenant's priority tier.
    Overloaded {
        /// The refusing tenant.
        tenant: u32,
        /// Gateway-wide in-flight count at the decision.
        in_flight: usize,
    },
    /// The tenant's circuit breaker is open (its functions are failing).
    BreakerOpen {
        /// The refusing tenant.
        tenant: u32,
        /// When half-open probing becomes possible.
        retry_at: SimTime,
    },
    /// An admitted invocation failed; produced only by retry wrappers
    /// reporting the final attempt's platform error.
    Function(faasim_faas::FnError),
}

impl GatewayError {
    /// Whether backing off and retrying can help. Every admission
    /// refusal is transient by construction; function errors defer to
    /// [`faasim_faas::FnError::is_transient`].
    pub fn is_transient(&self) -> bool {
        match self {
            GatewayError::Function(e) => e.is_transient(),
            _ => true,
        }
    }

    /// Whether this is a gateway shed (as opposed to a function error).
    pub fn is_shed(&self) -> bool {
        !matches!(self, GatewayError::Function(_))
    }

    /// The earliest instant a retry could possibly succeed, when the
    /// refusing stage knows it.
    pub fn retry_after(&self) -> Option<SimTime> {
        match self {
            GatewayError::RateLimited { retry_at, .. }
            | GatewayError::BreakerOpen { retry_at, .. } => Some(*retry_at),
            _ => None,
        }
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::RateLimited { tenant, retry_at } => {
                write!(f, "tenant {tenant} rate limited; token at {retry_at}")
            }
            GatewayError::ConcurrencyLimited { tenant } => {
                write!(f, "tenant {tenant} at its concurrency cap")
            }
            GatewayError::Overloaded { tenant, in_flight } => {
                write!(f, "gateway overloaded ({in_flight} in flight); shed tenant {tenant}")
            }
            GatewayError::BreakerOpen { tenant, retry_at } => {
                write!(f, "tenant {tenant} breaker open; probing at {retry_at}")
            }
            GatewayError::Function(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

struct TenantRt {
    cfg: TenantConfig,
    bucket: RefCell<TokenBucket>,
    sem: Semaphore,
    breaker: CircuitBreaker,
    stats: RefCell<TenantStats>,
}

/// Pre-resolved handles for the admission hot path: every `try_admit`
/// at trace scale otherwise pays string hashing per counter and a map
/// walk plus `String` allocation per bill. Recorder counters resolve
/// lazily (see [`LazyCounter`] — eager interning would leak zero lines
/// into determinism digests); the ledger id is eager, safe because
/// never-charged slots stay off the bill.
struct GwHot {
    offered: LazyCounter,
    admitted: LazyCounter,
    shed_rate: LazyCounter,
    shed_load: LazyCounter,
    shed_breaker: LazyCounter,
    bill_requests: ItemId,
}

struct GatewayInner {
    sim: Sim,
    faas: FaasPlatform,
    ledger: Ledger,
    recorder: Recorder,
    tenants: Vec<TenantRt>,
    max_in_flight: usize,
    shed_at: [usize; TIERS],
    overhead: SimDuration,
    price_per_request: f64,
    hot: GwHot,
    in_flight: Cell<usize>,
    peak_in_flight: Cell<usize>,
}

impl GatewayInner {
    fn tenant(&self, tenant: u32) -> &TenantRt {
        self.tenants
            .get(tenant as usize)
            .unwrap_or_else(|| panic!("unknown tenant {tenant}: only {} configured", self.tenants.len()))
    }
}

/// The front door. Cheap to clone; clones share state, so one gateway
/// guards the whole platform.
#[derive(Clone)]
pub struct Gateway {
    inner: Rc<GatewayInner>,
}

impl Gateway {
    /// Put a gateway in front of `faas`. Gateway requests are billed to
    /// `ledger` at the price book's per-request gateway rate.
    ///
    /// # Panics
    /// Panics on an empty tenant set or watermarks that are not
    /// non-decreasing within `[0, 1]`.
    pub fn new(
        sim: &Sim,
        faas: &FaasPlatform,
        ledger: Ledger,
        recorder: Recorder,
        prices: &PriceBook,
        config: GatewayConfig,
    ) -> Gateway {
        assert!(!config.tenants.is_empty(), "gateway needs at least one tenant");
        assert!(config.max_in_flight >= 1, "max_in_flight must admit something");
        let mut shed_at = [0usize; TIERS];
        let mut prev = 0.0f64;
        for (tier, (&w, slot)) in config.shed_watermarks.iter().zip(&mut shed_at).enumerate() {
            assert!(
                (0.0..=1.0).contains(&w) && w >= prev,
                "watermarks must be non-decreasing in [0, 1]; tier {tier} is {w}"
            );
            prev = w;
            *slot = ((w * config.max_in_flight as f64) as usize).min(config.max_in_flight);
        }
        let now = sim.now();
        let tenants = config
            .tenants
            .into_iter()
            .map(|cfg| TenantRt {
                bucket: RefCell::new(TokenBucket::new(cfg.rate, cfg.burst, now)),
                sem: Semaphore::new(cfg.max_concurrent),
                // One shared counter name: per-tenant detail lives in
                // the recorder-free TenantStats, not the registry.
                breaker: CircuitBreaker::new(sim, recorder.clone(), "gateway.tenant", config.breaker.clone()),
                stats: RefCell::new(TenantStats::default()),
                cfg,
            })
            .collect();
        let hot = GwHot {
            offered: LazyCounter::new("gw.offered"),
            admitted: LazyCounter::new("gw.admitted"),
            shed_rate: LazyCounter::new("gw.shed.rate"),
            shed_load: LazyCounter::new("gw.shed.load"),
            shed_breaker: LazyCounter::new("gw.shed.breaker"),
            bill_requests: ledger.item_id(Service::Gateway, "requests"),
        };
        Gateway {
            inner: Rc::new(GatewayInner {
                sim: sim.clone(),
                faas: faas.clone(),
                ledger,
                recorder,
                tenants,
                max_in_flight: config.max_in_flight,
                shed_at,
                overhead: config.overhead,
                price_per_request: prices.gateway_per_request,
                hot,
                in_flight: Cell::new(0),
                peak_in_flight: Cell::new(0),
            }),
        }
    }

    /// Run the admission pipeline for one request from `tenant`. On
    /// success the returned [`Admission`] holds the tenant's
    /// concurrency slot until completed (or dropped, which counts as
    /// success). Every call is billed, admitted or not.
    pub fn try_admit(&self, tenant: u32) -> Result<Admission, GatewayError> {
        let inner = &*self.inner;
        let t = inner.tenant(tenant);
        let now = inner.sim.now();
        t.stats.borrow_mut().offered += 1;
        inner.hot.offered.incr(&inner.recorder);
        inner
            .ledger
            .charge_id(inner.hot.bill_requests, 1.0, inner.price_per_request);

        // 1. Token bucket: rate + burst.
        if let Err(retry_at) = t.bucket.borrow_mut().try_take(now) {
            t.stats.borrow_mut().bucket_shed += 1;
            inner.hot.shed_rate.incr(&inner.recorder);
            return Err(GatewayError::RateLimited { tenant, retry_at });
        }

        // 2. Load shedder: platform-wide pressure, lowest tier first.
        let in_flight = inner.in_flight.get();
        let tier = (t.cfg.priority as usize).min(TIERS - 1);
        if in_flight >= inner.shed_at[tier] || in_flight >= inner.max_in_flight {
            t.bucket.borrow_mut().put_back();
            t.stats.borrow_mut().load_shed += 1;
            inner.hot.shed_load.incr(&inner.recorder);
            return Err(GatewayError::Overloaded { tenant, in_flight });
        }

        // 3. Per-tenant concurrency cap.
        let Some(permit) = t.sem.try_acquire(1) else {
            t.bucket.borrow_mut().put_back();
            t.stats.borrow_mut().concurrency_shed += 1;
            inner.hot.shed_rate.incr(&inner.recorder);
            return Err(GatewayError::ConcurrencyLimited { tenant });
        };

        // 4. Circuit breaker, last: its half-open probe slot is only
        //    claimed once nothing downstream can shed the request.
        if let Err(e) = t.breaker.try_admit::<Infallible>() {
            let retry_at = match e {
                BreakerError::Open { retry_at } => retry_at,
                BreakerError::Inner(never) => match never {},
            };
            drop(permit);
            t.bucket.borrow_mut().put_back();
            t.stats.borrow_mut().breaker_rejected += 1;
            inner.hot.shed_breaker.incr(&inner.recorder);
            return Err(GatewayError::BreakerOpen { tenant, retry_at });
        }

        inner.hot.admitted.incr(&inner.recorder);
        {
            let mut st = t.stats.borrow_mut();
            st.admitted += 1;
            st.in_flight += 1;
            st.peak_in_flight = st.peak_in_flight.max(st.in_flight);
        }
        inner.in_flight.set(inner.in_flight.get() + 1);
        inner
            .peak_in_flight
            .set(inner.peak_in_flight.get().max(inner.in_flight.get()));

        Ok(Admission {
            inner: Rc::clone(&self.inner),
            tenant,
            _permit: permit,
            completed: false,
        })
    }

    /// Invoke `func` for `tenant` through the full admission pipeline.
    /// Admission refusals come back as typed [`GatewayError`]s;
    /// execution results (including platform errors of admitted calls)
    /// come back in the [`InvokeOutcome`], exactly as from
    /// [`FaasPlatform::invoke`]. Transient platform failures (crashes,
    /// timeouts) feed the tenant's breaker.
    pub async fn invoke(
        &self,
        tenant: u32,
        func: &str,
        payload: impl Into<Payload>,
    ) -> Result<InvokeOutcome, GatewayError> {
        let admission = self.try_admit(tenant)?;
        let inner = Rc::clone(&self.inner);
        if !inner.overhead.is_zero() {
            inner.sim.sleep(inner.overhead).await;
        }
        let out = inner.faas.invoke(func, payload).await;
        let breaker_failure = matches!(&out.result, Err(e) if e.is_transient());
        admission.complete(!breaker_failure);
        Ok(out)
    }

    /// Number of configured tenants.
    pub fn tenants(&self) -> u32 {
        self.inner.tenants.len() as u32
    }

    /// Currently admitted requests across all tenants.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.get()
    }

    /// One tenant's counters (recorder-free).
    pub fn tenant_stats(&self, tenant: u32) -> TenantStats {
        *self.inner.tenant(tenant).stats.borrow()
    }

    /// The gateway-wide aggregate, folded like `NicStats`.
    pub fn stats(&self) -> GatewayStats {
        let mut totals = TenantStats::default();
        for tenant in 0..self.tenants() {
            totals.merge(&self.tenant_stats(tenant));
        }
        GatewayStats {
            tenants: self.tenants(),
            totals,
            peak_in_flight: self.inner.peak_in_flight.get() as u64,
        }
    }

    /// A tenant's current bucket level (test/diagnostic probe).
    pub fn bucket_level(&self, tenant: u32) -> f64 {
        let inner = &*self.inner;
        inner.tenant(tenant).bucket.borrow_mut().level(inner.sim.now())
    }

    /// A tenant's bucket capacity.
    pub fn bucket_burst(&self, tenant: u32) -> f64 {
        self.inner.tenant(tenant).bucket.borrow().burst()
    }

    /// A tenant's breaker state.
    #[cfg(test)]
    fn breaker_state(&self, tenant: u32) -> faasim_resilience::BreakerState {
        self.inner.tenant(tenant).breaker.state()
    }
}

/// A granted admission slot. Call [`Admission::complete`] with the
/// outcome so the tenant's breaker sees it; dropping without completing
/// releases the slot and counts as success (an abandoned call proves
/// nothing about the tenant's functions).
pub struct Admission {
    inner: Rc<GatewayInner>,
    tenant: u32,
    _permit: SemPermit,
    completed: bool,
}

impl Admission {
    /// Release the slot, feeding `ok` to the tenant's breaker.
    pub fn complete(mut self, ok: bool) {
        self.finish(ok);
    }

    fn finish(&mut self, ok: bool) {
        if self.completed {
            return;
        }
        self.completed = true;
        let t = self.inner.tenant(self.tenant);
        self.inner.in_flight.set(self.inner.in_flight.get() - 1);
        {
            let mut st = t.stats.borrow_mut();
            st.in_flight -= 1;
            if ok {
                st.succeeded += 1;
            } else {
                st.failed += 1;
            }
        }
        t.breaker.observe(ok);
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.finish(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim::{Cloud, CloudProfile};
    use faasim_faas::FunctionSpec;
    use faasim_resilience::BreakerState;
    use faasim_simcore::join_all;

    fn cloud(seed: u64) -> Cloud {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(20)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        cloud
    }

    fn gateway(cloud: &Cloud, tenants: Vec<TenantConfig>) -> Gateway {
        let mut cfg = GatewayConfig::new(tenants);
        cfg.overhead = SimDuration::ZERO;
        Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        )
    }

    #[test]
    fn burst_admits_then_rate_limits_and_bills_everything() {
        let cloud = cloud(7);
        let gw = gateway(
            &cloud,
            vec![TenantConfig {
                rate: 10.0,
                burst: 5.0,
                ..TenantConfig::default()
            }],
        );
        let gw2 = gw.clone();
        cloud.sim.block_on(async move {
            // All 20 arrive at the same instant: only the burst passes.
            let mut admitted = Vec::new();
            let mut rate_limited = 0;
            for _ in 0..20 {
                match gw2.try_admit(0) {
                    Ok(a) => admitted.push(a),
                    Err(GatewayError::RateLimited { retry_at, .. }) => {
                        assert!(retry_at > SimTime::ZERO);
                        rate_limited += 1;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert_eq!(admitted.len(), 5, "exactly the burst is admitted");
            assert_eq!(rate_limited, 15);
            for a in admitted {
                a.complete(true);
            }
        });
        let st = gw.tenant_stats(0);
        assert!(st.conserved(), "{st:?}");
        assert_eq!(st.offered, 20);
        assert_eq!(st.bucket_shed, 15);
        // Shed traffic still bills: 20 requests at the gateway rate.
        assert_eq!(cloud.ledger.item_quantity(Service::Gateway, "requests"), 20.0);
        assert_eq!(gw.in_flight(), 0, "everything drained");
    }

    /// A cloud dropped with requests still in flight: the parked tasks'
    /// `Admission`s release mid-teardown (stats, breaker and the
    /// in-flight semaphore all re-entered from `drop`), and the gateway
    /// handle that outlives the cloud reads a drained, conserved front door.
    #[test]
    fn admissions_release_when_the_cloud_is_dropped_mid_flight() {
        let cloud = cloud(9);
        let gw = gateway(&cloud, vec![TenantConfig::default()]);
        for _ in 0..3 {
            let gw2 = gw.clone();
            cloud.sim.spawn(async move {
                let _ = gw2.invoke(0, "work", Payload::new()).await;
            });
        }
        let gw2 = gw.clone();
        cloud.sim.spawn(async move {
            let _held = gw2.try_admit(0).expect("admitted");
            std::future::pending::<()>().await;
        });
        cloud.sim.run_for(SimDuration::from_millis(1));
        assert_eq!(gw.in_flight(), 4);

        drop(cloud);
        assert_eq!(gw.in_flight(), 0);
        let st = gw.tenant_stats(0);
        assert!(st.conserved(), "{st:?}");
        assert_eq!(st.in_flight, 0);
    }

    #[test]
    fn load_shedder_drops_low_priority_first() {
        let cloud = cloud(8);
        let low = TenantConfig {
            rate: 1e6,
            burst: 1e6,
            max_concurrent: 1000,
            priority: 0,
        };
        let high = TenantConfig {
            priority: 3,
            ..low.clone()
        };
        let mut cfg = GatewayConfig::new(vec![low, high]);
        cfg.max_in_flight = 100;
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let gw2 = gw.clone();
        cloud.sim.block_on(async move {
            // Fill the gateway to between the tier-0 (50%) and tier-3
            // (97%) watermarks with held admissions.
            let held: Vec<Admission> =
                (0..60).map(|_| gw2.try_admit(1).expect("fill")).collect();
            assert!(matches!(
                gw2.try_admit(0),
                Err(GatewayError::Overloaded { .. })
            ));
            let ok = gw2.try_admit(1).expect("high priority still admitted");
            drop(ok);
            drop(held);
        });
        assert_eq!(gw.tenant_stats(0).load_shed, 1);
        assert_eq!(gw.tenant_stats(1).load_shed, 0);
        assert!(gw.tenant_stats(0).conserved());
        assert!(gw.tenant_stats(1).conserved());
        assert_eq!(gw.stats().peak_in_flight, 61);
    }

    #[test]
    fn concurrency_cap_sheds_and_releases() {
        let cloud = cloud(9);
        let gw = gateway(
            &cloud,
            vec![TenantConfig {
                rate: 1e6,
                burst: 1e6,
                max_concurrent: 3,
                priority: 3,
            }],
        );
        cloud.sim.block_on({
            let gw = gw.clone();
            async move {
                let held: Vec<Admission> =
                    (0..3).map(|_| gw.try_admit(0).expect("cap")).collect();
                assert!(matches!(
                    gw.try_admit(0),
                    Err(GatewayError::ConcurrencyLimited { .. })
                ));
                drop(held);
                let again = gw.try_admit(0).expect("slot released");
                again.complete(true);
            }
        });
        let st = gw.tenant_stats(0);
        assert_eq!(st.concurrency_shed, 1);
        assert_eq!(st.peak_in_flight, 3);
        assert!(st.conserved());
    }

    #[test]
    fn crashing_tenant_trips_its_breaker_but_not_its_neighbor() {
        let cloud = cloud(10);
        // A function that always outlives its timeout: every call is a
        // transient TimedOut, which counts as a breaker failure.
        cloud.faas.register(FunctionSpec::new(
            "hang",
            256,
            SimDuration::from_millis(5),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_secs(10)).await;
                Ok(Payload::inline("never"))
            },
        ));
        let t = TenantConfig {
            rate: 1e6,
            burst: 1e6,
            max_concurrent: 1000,
            priority: 3,
        };
        let gw = gateway(&cloud, vec![t.clone(), t]);
        let gw2 = gw.clone();
        cloud.sim.block_on(async move {
            // Default breaker trips after 5 consecutive failures.
            for _ in 0..5 {
                let out = gw2.invoke(0, "hang", Payload::inline("x")).await.expect("admitted");
                assert!(out.result.is_err());
            }
            assert_eq!(gw2.breaker_state(0), BreakerState::Open);
            assert!(matches!(
                gw2.invoke(0, "hang", Payload::inline("x")).await,
                Err(GatewayError::BreakerOpen { .. })
            ));
            // The neighbor is unaffected.
            let out = gw2.invoke(1, "work", Payload::inline("x")).await.expect("neighbor");
            assert!(out.result.is_ok());
            assert_eq!(gw2.breaker_state(1), BreakerState::Closed);
        });
        let st = gw.tenant_stats(0);
        assert_eq!(st.breaker_rejected, 1);
        assert_eq!(st.failed, 5);
        assert!(st.conserved());
        assert!(gw.tenant_stats(1).conserved());
    }

    #[test]
    fn shed_stages_refund_the_bucket_token() {
        let cloud = cloud(11);
        let gw = gateway(
            &cloud,
            vec![TenantConfig {
                rate: 0.0,
                burst: 4.0,
                max_concurrent: 1,
                priority: 3,
            }],
        );
        cloud.sim.block_on({
            let gw = gw.clone();
            async move {
                let held = gw.try_admit(0).expect("first");
                // Concurrency-shed twice: both tokens must come back.
                for _ in 0..2 {
                    assert!(matches!(
                        gw.try_admit(0),
                        Err(GatewayError::ConcurrencyLimited { .. })
                    ));
                }
                assert_eq!(gw.bucket_level(0), 3.0, "refunded (one held in flight)");
                drop(held);
            }
        });
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| -> (String, Vec<TenantStats>) {
            let cloud = cloud(seed);
            let gw = gateway(
                &cloud,
                vec![
                    TenantConfig { rate: 20.0, burst: 10.0, ..TenantConfig::default() },
                    TenantConfig { rate: 5.0, burst: 3.0, ..TenantConfig::default() },
                ],
            );
            let gw2 = gw.clone();
            let sim = cloud.sim.clone();
            cloud.sim.block_on(async move {
                let calls: Vec<_> = (0..40u32)
                    .map(|i| {
                        let gw = gw2.clone();
                        let sim = sim.clone();
                        async move {
                            sim.sleep(SimDuration::from_millis(25 * u64::from(i % 7))).await;
                            let _ = gw.invoke(i % 2, "work", Payload::inline("x")).await;
                        }
                    })
                    .collect();
                join_all(calls).await;
            });
            let stats = (0..2).map(|t| gw.tenant_stats(t)).collect();
            (cloud.recorder.digest(), stats)
        };
        let (d1, s1) = run(42);
        let (d2, s2) = run(42);
        assert_eq!(d1, d2, "gateway decisions must be byte-identical");
        assert_eq!(s1, s2);
    }
}
