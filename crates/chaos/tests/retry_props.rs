//! Property tests for [`RetryPolicy`]: for arbitrary (bounded) policies,
//! the deterministic backoff spine is monotone non-decreasing and capped,
//! and the jittered delay always lands inside the advertised envelope
//! `[backoff * (1 - jitter), backoff * (1 + jitter)]`.
//!
//! And differential tests for the one retry loop: the two hand-written
//! loops it replaced are kept here verbatim as oracles, and random
//! scripts of attempt outcomes must take both through the same result,
//! the same attempts at the same instants, the same jitter draws and
//! the same timers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use faasim_resilience::{settled, Deadline, RetryError, RetryPolicy, Retrying, Service};
use faasim_faas::{FnError, HandlerResult, InvokeOutcome};
use faasim_gateway::{Gateway, GatewayError};
use faasim_net::HostId;
use faasim_payload::Payload;
use faasim_simcore::{Recorder, Sim, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Strategy over policies with bounded but varied shapes: bases from 1 ms
/// to 10 s, factors from sub-1 (clamped internally) to 8x, caps from 10 ms
/// to 100 s, full jitter range.
fn policy(
    base_ms: u64,
    factor: f64,
    cap_ms: u64,
    jitter: f64,
) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base: SimDuration::from_millis(base_ms),
        factor,
        cap: SimDuration::from_millis(cap_ms),
        jitter,
        call_timeout: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn backoff_is_monotone_nondecreasing(
        base_ms in 1u64..10_000,
        factor in 0.5f64..8.0,
        cap_ms in 10u64..100_000,
    ) {
        let p = policy(base_ms, factor, cap_ms, 0.0);
        let mut prev = p.backoff(0);
        for attempt in 1..12u32 {
            let next = p.backoff(attempt);
            prop_assert!(
                next >= prev,
                "backoff shrank at attempt {attempt}: {prev} -> {next} ({p:?})"
            );
            prev = next;
        }
    }

    #[test]
    fn backoff_is_bounded_by_the_cap(
        base_ms in 1u64..10_000,
        factor in 0.5f64..8.0,
        cap_ms in 10u64..100_000,
        attempt in 0u32..64,
    ) {
        let p = policy(base_ms, factor, cap_ms, 0.0);
        let b = p.backoff(attempt);
        prop_assert!(
            b <= p.cap,
            "backoff {b} exceeds cap {} at attempt {attempt}",
            p.cap
        );
        // And it never undercuts the base (factor is clamped to >= 1),
        // unless the cap itself is below the base. Small slack for the
        // f64 secs -> SimDuration round-trip.
        let floor = p.base.min(p.cap).as_secs_f64();
        prop_assert!(
            b.as_secs_f64() >= floor - 1e-9,
            "backoff {b} undercuts min(base, cap) {floor}s"
        );
    }

    #[test]
    fn jittered_delay_stays_in_the_envelope(
        base_ms in 1u64..10_000,
        factor in 0.5f64..8.0,
        cap_ms in 10u64..100_000,
        jitter in 0.0f64..=1.0,
        attempt in 0u32..16,
        seed in 0u64..1_000_000,
    ) {
        let p = policy(base_ms, factor, cap_ms, jitter);
        let mut rng = SimRng::from_seed(seed);
        let b = p.backoff(attempt).as_secs_f64();
        let d = p.delay(attempt, &mut rng).as_secs_f64();
        // Small absolute slack for the f64 secs -> SimDuration round-trip.
        let eps = 1e-9 + b * 1e-12;
        prop_assert!(
            d >= b * (1.0 - jitter) - eps,
            "delay {d}s below envelope floor {}s (jitter {jitter})",
            b * (1.0 - jitter)
        );
        prop_assert!(
            d <= b * (1.0 + jitter) + eps,
            "delay {d}s above envelope ceiling {}s (jitter {jitter})",
            b * (1.0 + jitter)
        );
    }

    #[test]
    fn zero_jitter_delay_equals_the_spine(
        base_ms in 1u64..10_000,
        factor in 0.5f64..8.0,
        cap_ms in 10u64..100_000,
        attempt in 0u32..16,
    ) {
        let p = policy(base_ms, factor, cap_ms, 0.0);
        let mut rng = SimRng::from_seed(1);
        prop_assert_eq!(p.delay(attempt, &mut rng), p.backoff(attempt));
        // The same rng state must produce the same next draw as a fresh
        // one: no randomness was consumed.
        let mut fresh = SimRng::from_seed(1);
        prop_assert_eq!(rng.range_u64(0..1_000_000), fresh.range_u64(0..1_000_000));
    }
}

// --- The one loop against the loops it replaced ---------------------------

/// What one scripted attempt does once its service time has passed.
#[derive(Copy, Clone, Debug)]
enum Step {
    Ok,
    /// The function crashed: transient.
    Crash,
    /// The handler failed: fatal.
    Fatal,
    /// A shed that does not say when capacity returns.
    Shed,
    /// A shed naming the instant capacity returns, this long from now.
    ShedUntil(SimDuration),
}

fn step(kind: u8, until: SimDuration) -> Step {
    match kind {
        0 => Step::Ok,
        1 => Step::Crash,
        2 => Step::Fatal,
        3 => Step::Shed,
        _ => Step::ShedUntil(until),
    }
}

/// A front door that plays a script: each attempt logs when it started,
/// takes its service time, then yields its step (`Ok` once the script
/// is spent).
#[derive(Clone)]
struct Scripted {
    sim: Sim,
    script: Rc<RefCell<VecDeque<(Step, SimDuration)>>>,
    started: Rc<RefCell<Vec<SimTime>>>,
}

impl Scripted {
    async fn call(&self) -> Result<InvokeOutcome, GatewayError> {
        self.started.borrow_mut().push(self.sim.now());
        let (step, service) = self
            .script
            .borrow_mut()
            .pop_front()
            .unwrap_or((Step::Ok, SimDuration::ZERO));
        self.sim.sleep(service).await;
        let ran = |result: HandlerResult| InvokeOutcome {
            result,
            exec: service,
            billed: service,
            total: service,
            cold: false,
            host: HostId(0),
            container: 0,
        };
        match step {
            Step::Ok => Ok(ran(Ok(Payload::new()))),
            Step::Crash => Ok(ran(Err(FnError::Crashed { after: service }))),
            Step::Fatal => Ok(ran(Err(FnError::Handler("scripted".into())))),
            Step::Shed => Err(GatewayError::Overloaded {
                tenant: 0,
                in_flight: 1,
            }),
            Step::ShedUntil(d) => Err(GatewayError::RateLimited {
                tenant: 0,
                retry_at: self.sim.now() + d,
            }),
        }
    }
}

impl Service for Scripted {
    type Error = GatewayError;
    const RACE: bool = false;

    fn attempts(&self) -> &'static str {
        "resil.gateway.attempts"
    }

    fn retry_at(err: &GatewayError) -> Option<SimTime> {
        Gateway::retry_at(err)
    }
}

/// A store whose attempts the loop may abandon mid-flight; what each
/// attempt does is up to the operation it is handed.
#[derive(Clone)]
struct Raced;

impl Service for Raced {
    type Error = &'static str;
    const RACE: bool = true;

    fn attempts(&self) -> &'static str {
        "diff.raced.attempts"
    }

    fn retry_at(err: &&'static str) -> Option<SimTime> {
        (*err == "transient").then_some(SimTime::ZERO)
    }
}

/// The gateway client's `invoke` as it stood before the loops were unified,
/// verbatim but for `self.` and the gateway call being the scripted door.
async fn old_gateway_loop(
    sim: &Sim,
    policy: &RetryPolicy,
    rng: &Rc<RefCell<SimRng>>,
    recorder: &Recorder,
    door: &Scripted,
    deadline: Deadline,
) -> Result<InvokeOutcome, RetryError<GatewayError>> {
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<RetryError<GatewayError>> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let mut d = policy.delay(attempt - 1, &mut rng.borrow_mut());
            // A typed shed can name when capacity returns; retrying
            // earlier than that is guaranteed wasted work.
            if let Some(RetryError::Exhausted { last: e, .. }) = &last {
                if let Some(at) = e.retry_after() {
                    d = d.max(at.duration_since(sim.now()));
                }
            }
            if deadline.remaining(sim) <= d {
                return Err(RetryError::DeadlineExceeded { attempts: attempt });
            }
            sim.sleep(d).await;
        }
        if deadline.is_expired(sim) {
            return Err(RetryError::DeadlineExceeded { attempts: attempt });
        }
        recorder.incr("resil.gateway.attempts");
        match door.call().await {
            Ok(out) => match &out.result {
                Ok(_) => return Ok(out),
                Err(e) if e.is_transient() => {
                    last = Some(RetryError::Exhausted {
                        attempts: attempt + 1,
                        last: GatewayError::Function(e.clone()),
                    });
                }
                Err(e) => return Err(RetryError::Fatal(GatewayError::Function(e.clone()))),
            },
            Err(e) if e.is_transient() => {
                last = Some(RetryError::Exhausted {
                    attempts: attempt + 1,
                    last: e,
                });
            }
            Err(e) => return Err(RetryError::Fatal(e)),
        }
    }
    Err(last.expect("max_attempts >= 1 guarantees one attempt"))
}

/// The policy's old raced loop, `run_within`, as it stood before the
/// loops were unified, verbatim but for `self`.
async fn old_run_within<T, E, Fut>(
    policy: &RetryPolicy,
    sim: &Sim,
    rng: &Rc<RefCell<SimRng>>,
    deadline: Deadline,
    is_transient: impl Fn(&E) -> bool,
    mut op: impl FnMut() -> Fut,
) -> Result<T, RetryError<E>>
where
    Fut: Future<Output = Result<T, E>>,
{
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<RetryError<E>> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let d = policy.delay(attempt - 1, &mut rng.borrow_mut());
            if deadline.remaining(sim) <= d {
                return Err(RetryError::DeadlineExceeded { attempts: attempt });
            }
            sim.sleep(d).await;
        }
        let remaining = deadline.remaining(sim);
        if remaining == SimDuration::ZERO {
            return Err(RetryError::DeadlineExceeded { attempts: attempt });
        }
        let limit = match (policy.call_timeout, deadline.is_unbounded()) {
            (Some(t), false) => Some(t.min(remaining)),
            (Some(t), true) => Some(t),
            (None, false) => Some(remaining),
            (None, true) => None,
        };
        let outcome = match limit {
            Some(limit) => sim.timeout(limit, op()).await,
            None => Some(op().await),
        };
        match outcome {
            Some(Ok(v)) => return Ok(v),
            Some(Err(e)) if is_transient(&e) => {
                last = Some(RetryError::Exhausted {
                    attempts: attempt + 1,
                    last: e,
                });
            }
            Some(Err(e)) => return Err(RetryError::Fatal(e)),
            None if deadline.is_expired(sim) => {
                return Err(RetryError::DeadlineExceeded {
                    attempts: attempt + 1,
                });
            }
            None => {
                last = Some(RetryError::TimedOut {
                    attempts: attempt + 1,
                });
            }
        }
    }
    Err(last.expect("max_attempts >= 1 guarantees one attempt"))
}

/// Every scripted duration is a whole number of these, so that without
/// jitter a backoff often equals the remaining budget exactly and the
/// loops' `<=` boundaries are exercised.
fn ticks(n: u64) -> SimDuration {
    SimDuration::from_millis(25 * n)
}

fn loop_policy(max_attempts: u32, base: u64, factor: u8, cap: u64, jitter: u8) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base: ticks(base),
        factor: [1.0, 2.0, 1.5][usize::from(factor)],
        cap: ticks(cap),
        jitter: [0.0, 0.3, 1.0][usize::from(jitter)],
        call_timeout: None,
    }
}

/// `0` is no budget at all; anything else is that many ticks from the
/// start of the run.
fn budget(n: u64) -> Deadline {
    if n == 0 {
        Deadline::unbounded()
    } else {
        Deadline::at(SimTime::ZERO + ticks(n))
    }
}

/// Everything one run of an un-raced loop shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), RetryError<GatewayError>>,
    /// A second, fixed call through the same client: its one backoff is
    /// jittered from wherever the first call left the RNG stream, so it
    /// lands at the same instant only if both loops drew equally often.
    probe: Result<(), RetryError<GatewayError>>,
    started: Vec<SimTime>,
    counted: u64,
    ended: SimTime,
    timer_pushes: u64,
}

fn observe_unraced(
    unified: bool,
    policy: &RetryPolicy,
    script: &[(Step, SimDuration)],
    deadline: Deadline,
) -> Observed {
    let sim = Sim::new(7);
    let recorder = Recorder::new();
    let door = Scripted {
        sim: sim.clone(),
        script: Rc::new(RefCell::new(script.iter().copied().collect())),
        started: Rc::default(),
    };
    let client = Retrying::new(&sim, &door, recorder.clone(), policy.clone(), "diff.jitter");
    let rng = Rc::new(RefCell::new(sim.rng("diff.jitter")));
    let (sim2, policy2, recorder2, door2) =
        (sim.clone(), policy.clone(), recorder.clone(), door.clone());
    let (result, probe) = sim.block_on(async move {
        let call = |deadline| {
            let (client, sim, policy, rng, recorder, door) =
                (&client, &sim2, &policy2, &rng, &recorder2, &door2);
            async move {
                if unified {
                    client.call(deadline, |door| async move { settled(door.call().await?) }).await
                } else {
                    old_gateway_loop(sim, policy, rng, recorder, door, deadline).await
                }
                .map(|_| ())
            }
        };
        let result = call(deadline).await;
        *door2.script.borrow_mut() = VecDeque::from([(Step::Crash, SimDuration::ZERO)]);
        (result, call(Deadline::unbounded()).await)
    });
    let started = door.started.borrow().clone();
    Observed {
        result,
        probe,
        started,
        counted: recorder.counter("resil.gateway.attempts"),
        ended: sim.now(),
        timer_pushes: sim.profile().timer_pushes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Retrying::call` over an un-raced service, against the gateway
    /// client's old hand-written loop.
    #[test]
    fn unified_loop_matches_the_old_gateway_loop(
        max_attempts in 1u32..7,
        base in 0u64..16,
        factor in 0u8..3,
        cap in 1u64..120,
        jitter in 0u8..3,
        script in prop::collection::vec((0u8..5, 0u64..240, 0u64..12), 0..8),
        budget_ticks in 0u64..480,
    ) {
        let policy = loop_policy(max_attempts, base, factor, cap, jitter);
        let script: Vec<_> = script
            .into_iter()
            .map(|(kind, until, service)| (step(kind, ticks(until)), ticks(service)))
            .collect();
        let deadline = budget(budget_ticks);
        let old = observe_unraced(false, &policy, &script, deadline);
        let new = observe_unraced(true, &policy, &script, deadline);
        // `timer_pushes` included: the old loop never raced an attempt
        // against a timeout, so neither may the new one.
        prop_assert_eq!(new, old, "policy {:?}, script {:?}, budget {} ticks", policy, script, budget_ticks);
    }

    /// `Retrying::call` over a raced service, against the old raced loop
    /// `run_within`: attempts may time out mid-flight. A probe call after
    /// the run compares the jitter draws, as in `observe_unraced`.
    #[test]
    fn unified_loop_matches_the_old_run_within(
        max_attempts in 1u32..7,
        base in 0u64..16,
        factor in 0u8..3,
        cap in 1u64..120,
        jitter in 0u8..3,
        call_timeout in 0u64..20,
        script in prop::collection::vec((0u8..3, 0u64..32), 0..8),
        budget_ticks in 0u64..240,
    ) {
        let mut policy = loop_policy(max_attempts, base, factor, cap, jitter);
        // A quarter of the cases run without a per-call timeout.
        policy.call_timeout = (call_timeout >= 5).then(|| ticks(call_timeout));
        let deadline = budget(budget_ticks);
        let observe = |unified: bool| {
            let sim = Sim::new(7);
            let recorder = Recorder::new();
            let client =
                Retrying::new(&sim, &Raced, recorder.clone(), policy.clone(), "diff.jitter");
            let rng = Rc::new(RefCell::new(sim.rng("diff.jitter")));
            let started = Rc::new(RefCell::new(Vec::new()));
            let steps = Rc::new(RefCell::new(script.iter().copied().collect::<VecDeque<_>>()));
            let (sim2, started2, steps2, policy2) =
                (sim.clone(), started.clone(), steps.clone(), policy.clone());
            let (result, probe) = sim.block_on(async move {
                let op = || {
                    let (kind, service) = steps2.borrow_mut().pop_front().unwrap_or((0, 0));
                    started2.borrow_mut().push(sim2.now());
                    let sim3 = sim2.clone();
                    async move {
                        sim3.sleep(ticks(service)).await;
                        match kind {
                            0 => Ok(()),
                            1 => Err("transient"),
                            _ => Err("fatal"),
                        }
                    }
                };
                let transient = |e: &&str| *e == "transient";
                let call = |deadline| {
                    let (client, sim, policy, rng, op) = (&client, &sim2, &policy2, &rng, &op);
                    async move {
                        if unified {
                            client.call(deadline, |_| op()).await
                        } else {
                            old_run_within(policy, sim, rng, deadline, transient, op).await
                        }
                    }
                };
                let result = call(deadline).await;
                *steps.borrow_mut() = VecDeque::from([(1, 0)]);
                (result, call(Deadline::unbounded()).await)
            });
            let started = started.borrow().clone();
            if unified {
                assert_eq!(recorder.counter("diff.raced.attempts"), started.len() as u64);
            }
            (result, probe, started, sim.now(), sim.profile())
        };
        let (old, new) = (observe(false), observe(true));
        prop_assert_eq!(new, old, "policy {:?}, script {:?}, budget {} ticks", policy, script, budget_ticks);
    }
}
