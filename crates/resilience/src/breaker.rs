//! A deterministic circuit breaker: closed → open → half-open, with
//! every transition a pure function of call outcomes and simulation
//! time.
//!
//! Under a brownout (KV throttling storm, blob 503 wave) naive clients
//! retry-storm: every caller piles backoff on top of a service that is
//! already shedding load. A breaker converts that into fast, cheap
//! *declared* failures — callers see [`BreakerError::Open`] immediately
//! and can degrade — then probes the dependency with a bounded number
//! of half-open trial calls before closing again.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use faasim_simcore::{Recorder, Sim, SimDuration, SimTime};

/// Breaker tuning. All transitions are deterministic: no randomness is
/// ever consumed.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing half-open probes.
    pub cooldown: SimDuration,
    /// Consecutive probe successes (while half-open) required to close.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: SimDuration::from_secs(5),
            close_after: 2,
        }
    }
}

/// The three classic breaker states.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow through; consecutive failures are counted.
    Closed,
    /// Calls are shed immediately until the cooldown elapses.
    Open,
    /// A limited number of trial calls probe the dependency.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Error surface of a call made through a breaker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BreakerError<E> {
    /// The breaker is open: the call was shed without being attempted.
    Open {
        /// When half-open probing becomes possible.
        retry_at: SimTime,
    },
    /// The call was attempted and failed with the inner error.
    Inner(E),
}

impl<E: fmt::Display> fmt::Display for BreakerError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerError::Open { retry_at } => {
                write!(f, "circuit open (shed); probing possible at {retry_at}")
            }
            BreakerError::Inner(e) => write!(f, "{e}"),
        }
    }
}

struct Inner {
    state: BreakerState,
    /// Consecutive failures while closed.
    failures: u32,
    /// Consecutive successes while half-open.
    successes: u32,
    /// When the breaker last tripped open.
    opened_at: SimTime,
    /// Whether a half-open probe is currently in flight (only one is
    /// admitted at a time, so a burst of callers cannot re-storm a
    /// recovering dependency).
    probing: bool,
}

/// A shared circuit breaker. Cheap to clone; clones share state, so one
/// breaker can guard every client of a service.
#[derive(Clone)]
pub struct CircuitBreaker {
    sim: Sim,
    recorder: Recorder,
    name: &'static str,
    config: BreakerConfig,
    inner: Rc<RefCell<Inner>>,
}

impl CircuitBreaker {
    /// A new breaker named `name` (used in recorder counters:
    /// `resil.breaker.<name>.opened` / `.shed` / `.closed`).
    pub fn new(
        sim: &Sim,
        recorder: Recorder,
        name: &'static str,
        config: BreakerConfig,
    ) -> CircuitBreaker {
        CircuitBreaker {
            sim: sim.clone(),
            recorder,
            name,
            config,
            inner: Rc::new(RefCell::new(Inner {
                state: BreakerState::Closed,
                failures: 0,
                successes: 0,
                opened_at: SimTime::ZERO,
                probing: false,
            })),
        }
    }

    /// The current state, advancing open → half-open if the cooldown
    /// has elapsed.
    pub fn state(&self) -> BreakerState {
        let mut st = self.inner.borrow_mut();
        self.advance(&mut st);
        st.state
    }

    fn counter(&self, suffix: &str) -> String {
        format!("resil.breaker.{}.{suffix}", self.name)
    }

    /// Open → half-open once the cooldown has elapsed.
    fn advance(&self, st: &mut Inner) {
        if st.state == BreakerState::Open
            && self.sim.now() >= st.opened_at.saturating_add(self.config.cooldown)
        {
            st.state = BreakerState::HalfOpen;
            st.successes = 0;
            st.probing = false;
        }
    }

    /// Whether a call may proceed right now; errs with the shed
    /// response when the breaker is open (or a probe is already out).
    fn admit<E>(&self) -> Result<(), BreakerError<E>> {
        let mut st = self.inner.borrow_mut();
        self.advance(&mut st);
        match st.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                drop(st);
                self.recorder.incr(&self.counter("shed"));
                Err(BreakerError::Open {
                    retry_at: self.inner.borrow().opened_at.saturating_add(self.config.cooldown),
                })
            }
            BreakerState::HalfOpen => {
                if st.probing {
                    let retry_at = self.sim.now();
                    drop(st);
                    self.recorder.incr(&self.counter("shed"));
                    Err(BreakerError::Open { retry_at })
                } else {
                    st.probing = true;
                    Ok(())
                }
            }
        }
    }

    fn record(&self, ok: bool) {
        let mut st = self.inner.borrow_mut();
        match (st.state, ok) {
            (BreakerState::Closed, true) => st.failures = 0,
            (BreakerState::Closed, false) => {
                st.failures += 1;
                if st.failures >= self.config.failure_threshold.max(1) {
                    st.state = BreakerState::Open;
                    st.opened_at = self.sim.now();
                    st.failures = 0;
                    drop(st);
                    self.recorder.incr(&self.counter("opened"));
                }
            }
            (BreakerState::HalfOpen, true) => {
                st.probing = false;
                st.successes += 1;
                if st.successes >= self.config.close_after.max(1) {
                    st.state = BreakerState::Closed;
                    st.failures = 0;
                    drop(st);
                    self.recorder.incr(&self.counter("closed"));
                }
            }
            (BreakerState::HalfOpen, false) => {
                st.state = BreakerState::Open;
                st.opened_at = self.sim.now();
                st.probing = false;
                drop(st);
                self.recorder.incr(&self.counter("opened"));
            }
            // A call that started before the breaker tripped open can
            // complete while it is open; its outcome is stale — ignore.
            (BreakerState::Open, _) => {}
        }
    }

    /// Low-level admission check, for composing the breaker into a
    /// larger admission pipeline (e.g. a gateway front door) where the
    /// guarded section is not a single future. Pair every `Ok(())` with
    /// exactly one later [`observe`](CircuitBreaker::observe) call so
    /// the state machine sees the outcome.
    pub fn try_admit<E>(&self) -> Result<(), BreakerError<E>> {
        self.admit()
    }

    /// Feed the outcome of a call admitted via
    /// [`try_admit`](CircuitBreaker::try_admit).
    pub fn observe(&self, ok: bool) {
        self.record(ok);
    }

    /// Run `op` through the breaker. Sheds with [`BreakerError::Open`]
    /// when open; otherwise attempts the call, feeding its outcome into
    /// the state machine. `counts_as_failure` classifies errors — a
    /// fatal application error (missing table, bad request) should not
    /// trip the breaker, while throttling or timeouts should.
    pub async fn call<T, E, Fut>(
        &self,
        counts_as_failure: impl Fn(&E) -> bool,
        op: Fut,
    ) -> Result<T, BreakerError<E>>
    where
        Fut: Future<Output = Result<T, E>>,
    {
        self.admit::<E>()?;
        match op.await {
            Ok(v) => {
                self.record(true);
                Ok(v)
            }
            Err(e) => {
                self.record(!counts_as_failure(&e));
                Err(BreakerError::Inner(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(sim: &Sim) -> CircuitBreaker {
        CircuitBreaker::new(
            sim,
            Recorder::new(),
            "test",
            BreakerConfig {
                failure_threshold: 3,
                cooldown: SimDuration::from_secs(10),
                close_after: 2,
            },
        )
    }

    #[test]
    fn trips_after_threshold_and_sheds() {
        let sim = Sim::new(5);
        let b = breaker(&sim);
        let sim2 = sim.clone();
        let b2 = b.clone();
        sim.block_on(async move {
            for _ in 0..3 {
                let r: Result<(), _> = b2.call(|_| true, async { Err("boom") }).await;
                assert!(matches!(r, Err(BreakerError::Inner("boom"))));
            }
            assert_eq!(b2.state(), BreakerState::Open);
            // Shed without running the op.
            let r: Result<(), BreakerError<&str>> =
                b2.call(|_| true, async { Ok(()) }).await;
            assert!(matches!(r, Err(BreakerError::Open { .. })));
            sim2.sleep(SimDuration::from_secs(1)).await;
            assert_eq!(b2.state(), BreakerState::Open, "cooldown not elapsed");
        });
    }

    #[test]
    fn half_open_probes_then_closes() {
        let sim = Sim::new(5);
        let b = breaker(&sim);
        let sim2 = sim.clone();
        let b2 = b.clone();
        sim.block_on(async move {
            for _ in 0..3 {
                let _: Result<(), _> = b2.call(|_| true, async { Err("boom") }).await;
            }
            sim2.sleep(SimDuration::from_secs(10)).await;
            assert_eq!(b2.state(), BreakerState::HalfOpen);
            let r: Result<u32, BreakerError<&str>> = b2.call(|_| true, async { Ok(1) }).await;
            assert_eq!(r, Ok(1));
            assert_eq!(b2.state(), BreakerState::HalfOpen, "one success of two");
            let r: Result<u32, BreakerError<&str>> = b2.call(|_| true, async { Ok(2) }).await;
            assert_eq!(r, Ok(2));
            assert_eq!(b2.state(), BreakerState::Closed);
        });
    }

    #[test]
    fn half_open_failure_reopens() {
        let sim = Sim::new(5);
        let b = breaker(&sim);
        let sim2 = sim.clone();
        let b2 = b.clone();
        sim.block_on(async move {
            for _ in 0..3 {
                let _: Result<(), _> = b2.call(|_| true, async { Err("boom") }).await;
            }
            sim2.sleep(SimDuration::from_secs(10)).await;
            let _: Result<(), _> = b2.call(|_| true, async { Err("still down") }).await;
            assert_eq!(b2.state(), BreakerState::Open);
        });
    }

    #[test]
    fn fatal_errors_do_not_trip_the_breaker() {
        let sim = Sim::new(5);
        let b = breaker(&sim);
        let b2 = b.clone();
        sim.block_on(async move {
            for _ in 0..10 {
                let r: Result<(), _> = b2.call(|_| false, async { Err("bad request") }).await;
                assert!(matches!(r, Err(BreakerError::Inner(_))));
            }
            assert_eq!(b2.state(), BreakerState::Closed);
        });
    }
}
