//! Exponential backoff with bounded jitter, and the workspace's one
//! retry loop.
//!
//! The paper's §2 compositions only work because every client retries:
//! SQS is at-least-once, DynamoDB throttles, S3 returns 503 SlowDown.
//! [`RetryPolicy`] is that discipline made explicit — and, because the
//! jitter comes from a named simulation RNG stream, made deterministic.
//! Every retrying client in the workspace ([`crate::Retrying::call`]
//! over any [`crate::Service`]) ends in the same loop here: every backoff
//! sleep and per-call timeout is capped so the whole loop fits inside a
//! propagated [`Deadline`].

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use faasim_simcore::{Sim, SimDuration, SimRng, SimTime};

use crate::deadline::Deadline;

/// Why a retried operation ultimately failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every attempt failed transiently; `last` is the final error.
    Exhausted {
        /// Attempts made (equals the policy's `max_attempts`).
        attempts: u32,
        /// The error from the final attempt.
        last: E,
    },
    /// Every attempt failed and the final one hit the per-call timeout.
    TimedOut {
        /// Attempts made.
        attempts: u32,
    },
    /// The deadline budget ran out before an attempt could succeed.
    /// Only produced under a bounded [`Deadline`].
    DeadlineExceeded {
        /// Attempts made before the budget expired.
        attempts: u32,
    },
    /// A non-transient error: surfaced immediately, never retried.
    Fatal(E),
}

impl<E> RetryError<E> {
    /// The final underlying error, if one exists (timeouts and expired
    /// deadlines have none).
    pub fn into_inner(self) -> Option<E> {
        match self {
            RetryError::Exhausted { last, .. } | RetryError::Fatal(last) => Some(last),
            RetryError::TimedOut { .. } | RetryError::DeadlineExceeded { .. } => None,
        }
    }
}

impl<E: fmt::Display> fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RetryError::TimedOut { attempts } => {
                write!(f, "gave up after {attempts} attempts: call timed out")
            }
            RetryError::DeadlineExceeded { attempts } => {
                write!(f, "deadline budget expired after {attempts} attempts")
            }
            RetryError::Fatal(e) => write!(f, "fatal (not retried): {e}"),
        }
    }
}

/// Exponential backoff with bounded jitter and optional per-call
/// timeouts.
///
/// Attempt `k` (zero-based) sleeps [`RetryPolicy::delay`]`(k)` before
/// retrying, where the deterministic spine is
/// `backoff(k) = min(cap, base * factor^k)` and jitter scales it by a
/// uniform factor in `[1 - jitter, 1 + jitter]`. With `jitter == 0` no
/// randomness is consumed at all.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Multiplier per retry (clamped to ≥ 1, so backoff never shrinks).
    pub factor: f64,
    /// Ceiling on the deterministic backoff spine.
    pub cap: SimDuration,
    /// Jitter fraction in `[0, 1]`: the slept delay is
    /// `backoff * uniform(1 - jitter, 1 + jitter)`.
    pub jitter: f64,
    /// If set, each attempt is raced against this virtual-time deadline
    /// and a late response is treated as a transient failure.
    pub call_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base: SimDuration::from_millis(50),
            factor: 2.0,
            cap: SimDuration::from_secs(10),
            jitter: 0.5,
            call_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff spine for zero-based attempt `k`:
    /// `min(cap, base * factor^k)`. Non-decreasing in `k` and never
    /// above `cap`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = if self.factor.is_finite() {
            self.factor.max(1.0)
        } else {
            1.0
        };
        let exp = attempt.min(i32::MAX as u32) as i32;
        // Saturate the growth before multiplying: `0.0 * inf` is NaN and
        // `NaN.min(cap)` is `cap`, which would turn a zero base into the
        // full cap once the power overflows.
        let raw = self.base.as_secs_f64() * factor.powi(exp).min(f64::MAX);
        let capped = raw.min(self.cap.as_secs_f64());
        SimDuration::from_secs_f64(capped)
    }

    /// The actual delay slept before retry `attempt`: the backoff spine
    /// scaled by a uniform factor in `[1 - jitter, 1 + jitter]`. Draws
    /// from `rng` only when `jitter > 0`.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let b = self.backoff(attempt);
        let j = if self.jitter.is_finite() {
            self.jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if j == 0.0 {
            return b;
        }
        let scale = rng.uniform(1.0 - j, 1.0 + j);
        SimDuration::from_secs_f64(b.as_secs_f64() * scale)
    }

    /// The retry loop: drive `op` to success or final failure inside
    /// `deadline`. Each call to `op` builds a fresh attempt future. The
    /// shared `rng` is only borrowed between attempts (never across an
    /// `.await`), so one stream can serve many concurrent callers.
    ///
    /// `race` says whether an attempt may be abandoned mid-flight: a
    /// storage call is raced against the per-call timeout and the
    /// remaining budget; an invocation never is (dropping its future
    /// would strand a busy container), so the budget is only checked
    /// between attempts. `retry_at` classifies a failed attempt: `None` is
    /// fatal, `Some(t)` is transient and the retry must not fire before
    /// `t` — the backoff sleep is stretched to reach it. A backoff sleep
    /// that would cross the deadline ends the loop with
    /// [`RetryError::DeadlineExceeded`] instead of sleeping.
    pub(crate) async fn drive<T, E, Fut>(
        &self,
        sim: &Sim,
        rng: &Rc<RefCell<SimRng>>,
        deadline: Deadline,
        race: bool,
        retry_at: impl Fn(&E) -> Option<SimTime>,
        mut op: impl FnMut() -> Fut,
    ) -> Result<T, RetryError<E>>
    where
        Fut: Future<Output = Result<T, E>>,
    {
        let attempts = self.max_attempts.max(1);
        let mut last: Option<RetryError<E>> = None;
        let mut not_before = SimTime::ZERO;
        for attempt in 0..attempts {
            if attempt > 0 {
                let d = self
                    .delay(attempt - 1, &mut rng.borrow_mut())
                    .max(not_before.duration_since(sim.now()));
                if deadline.remaining(sim) <= d {
                    return Err(RetryError::DeadlineExceeded { attempts: attempt });
                }
                sim.sleep(d).await;
            }
            if deadline.is_expired(sim) {
                return Err(RetryError::DeadlineExceeded { attempts: attempt });
            }
            // Cap the per-call race at whatever budget is left; an
            // unbounded deadline leaves the policy's own timeout (or
            // none) in charge.
            let limit = match (self.call_timeout, deadline.is_unbounded()) {
                _ if !race => None,
                (Some(t), false) => Some(t.min(deadline.remaining(sim))),
                (None, false) => Some(deadline.remaining(sim)),
                (timeout, true) => timeout,
            };
            // One pinned attempt, awaited through a pointer either way,
            // so the loop's future holds one copy of it, not one per arm.
            let mut call = std::pin::pin!(op());
            let outcome = match limit {
                Some(limit) => sim.timeout(limit, call.as_mut()).await,
                None => Some(call.await),
            };
            match outcome {
                Some(Ok(v)) => return Ok(v),
                Some(Err(e)) => match retry_at(&e) {
                    Some(at) => {
                        not_before = at;
                        last = Some(RetryError::Exhausted {
                            attempts: attempt + 1,
                            last: e,
                        });
                    }
                    None => return Err(RetryError::Fatal(e)),
                },
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
}

/// [`RetryPolicy::drive`]'s verdict for an error with no opinion on
/// *when* to retry: any time if `transient`, never otherwise.
pub(crate) fn any_time(transient: bool) -> Option<SimTime> {
    transient.then_some(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_simcore::SimTime;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
    }

    #[test]
    fn backoff_doubles_until_cap() {
        let p = policy();
        assert_eq!(p.backoff(0), SimDuration::from_millis(50));
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2), SimDuration::from_millis(200));
        assert_eq!(p.backoff(20), SimDuration::from_secs(10), "capped");
        assert_eq!(p.backoff(60), SimDuration::from_secs(10), "no overflow");
    }

    #[test]
    fn zero_base_stays_zero_when_the_power_overflows() {
        // factor^k reaches infinity at k = 1024 (factor 2) and k = 31
        // (factor 1e10); a zero base must not jump to the cap there.
        for factor in [2.0, 1e10] {
            let p = RetryPolicy {
                max_attempts: 2_000,
                base: SimDuration::ZERO,
                factor,
                ..policy()
            };
            for k in (0..p.max_attempts).chain([u32::MAX]) {
                assert_eq!(p.backoff(k), SimDuration::ZERO, "factor {factor}, attempt {k}");
            }
        }
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let mut p = policy();
        p.jitter = 0.0;
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        assert_eq!(p.delay(3, &mut a), p.backoff(3));
        // `a` drew nothing, so the streams stay aligned.
        assert_eq!(a.unit_f64(), b.unit_f64());
    }

    #[test]
    fn drive_retries_transient_then_succeeds() {
        use std::cell::Cell;
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let p = policy();
        let tries = Rc::new(Cell::new(0u32));
        let t = tries.clone();
        let sim2 = sim.clone();
        let got: Result<u32, RetryError<&str>> = sim.block_on(async move {
            p.drive(&sim2, &rng, Deadline::unbounded(), true, |_| any_time(true), move || {
                let t = t.clone();
                async move {
                    t.set(t.get() + 1);
                    if t.get() < 3 {
                        Err("transient")
                    } else {
                        Ok(42)
                    }
                }
            })
            .await
        });
        assert_eq!(got, Ok(42));
        assert_eq!(tries.get(), 3);
    }

    #[test]
    fn drive_surfaces_fatal_immediately() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let p = policy();
        let sim2 = sim.clone();
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.drive(&sim2, &rng, Deadline::unbounded(), true, |_| None, || async { Err("nope") })
                .await
        });
        assert_eq!(got, Err(RetryError::Fatal("nope")));
    }

    #[test]
    fn drive_times_out_slow_calls() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 2;
        p.call_timeout = Some(SimDuration::from_millis(10));
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.drive(&sim2, &rng, Deadline::unbounded(), true, |_| any_time(true), move || {
                let sim3 = sim3.clone();
                async move {
                    sim3.sleep(SimDuration::from_secs(1)).await;
                    Ok(())
                }
            })
            .await
        });
        assert_eq!(got, Err(RetryError::TimedOut { attempts: 2 }));
    }

    #[test]
    fn drive_respects_the_budget() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 100;
        p.jitter = 0.0;
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let deadline = Deadline::at(SimTime::ZERO + SimDuration::from_secs(2));
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.drive(&sim2, &rng, deadline, true, |_| any_time(true), move || {
                let sim3 = sim3.clone();
                async move {
                    sim3.sleep(SimDuration::from_millis(100)).await;
                    Err("flaky")
                }
            })
            .await
        });
        // The loop must end on the budget, not on max_attempts.
        match got {
            Err(RetryError::DeadlineExceeded { attempts }) => {
                assert!(attempts > 0 && attempts < 100, "attempts = {attempts}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(sim.now() <= SimTime::ZERO + SimDuration::from_secs(2));
    }

    #[test]
    fn drive_classifies_budget_expiry_mid_call() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 3;
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let deadline = Deadline::at(SimTime::ZERO + SimDuration::from_millis(10));
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.drive(&sim2, &rng, deadline, true, |_| any_time(true), move || {
                let sim3 = sim3.clone();
                async move {
                    sim3.sleep(SimDuration::from_secs(5)).await;
                    Ok(())
                }
            })
            .await
        });
        assert_eq!(got, Err(RetryError::DeadlineExceeded { attempts: 1 }));
    }
}
