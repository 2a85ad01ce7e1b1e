//! A deterministic token bucket refilled on simulation time.
//!
//! The bucket is refilled *lazily*: instead of a background task adding
//! tokens on a timer (which would bloat the event queue with one wakeup
//! per tenant per tick), the level is recomputed from the elapsed sim
//! time whenever the bucket is consulted. The result is bit-identical
//! to continuous refill and costs one f64 multiply per decision.

use faasim_simcore::{SimDuration, SimTime};

/// A token bucket: `rate` tokens per second of capacity, up to `burst`
/// tokens banked. One admission costs one token.
#[derive(Clone, Debug)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// A full bucket. `rate` is tokens per second (may be zero for a
    /// one-shot quota); `burst` is the capacity and must admit at least
    /// one whole token, otherwise the bucket can never admit anything.
    ///
    /// # Panics
    /// Panics on non-finite or negative `rate`, or `burst < 1`.
    pub fn new(rate: f64, burst: f64, now: SimTime) -> TokenBucket {
        assert!(rate.is_finite() && rate >= 0.0, "bad bucket rate {rate}");
        assert!(burst.is_finite() && burst >= 1.0, "bad bucket burst {burst}");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            refilled_at: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now == self.refilled_at {
            // Same-instant consult (bursts arriving in one event batch):
            // dt is exactly zero, skip the float math.
            return;
        }
        let dt = now.duration_since(self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + self.rate * dt).min(self.burst);
        self.refilled_at = now;
    }

    /// Take one token, or report when one will next be available. With
    /// `rate == 0` and an empty bucket the retry time saturates to
    /// [`SimTime::MAX`] ("never").
    pub fn try_take(&mut self, now: SimTime) -> Result<(), SimTime> {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err(now.saturating_add(SimDuration::from_secs_f64(deficit / self.rate)))
        }
    }

    /// Return one token (used when a request passes the bucket but is
    /// shed by a later admission stage, so the tenant's paid-for rate
    /// is not double-penalized by overload).
    pub fn put_back(&mut self) {
        self.tokens = (self.tokens + 1.0).min(self.burst);
    }

    /// Current level at `now`. Always within `[0, burst]`.
    pub fn level(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// The configured burst capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs_f64: f64) -> SimTime {
        SimTime::ZERO.saturating_add(SimDuration::from_secs_f64(secs_f64))
    }

    #[test]
    fn burst_then_rate_limits() {
        let mut b = TokenBucket::new(10.0, 5.0, SimTime::ZERO);
        for _ in 0..5 {
            assert!(b.try_take(SimTime::ZERO).is_ok(), "burst admits");
        }
        let retry_at = b.try_take(SimTime::ZERO).unwrap_err();
        // Empty bucket at 10/s: next token in 100 ms.
        assert_eq!(retry_at, at(0.1));
        assert!(b.try_take(at(0.099)).is_err(), "still short of a token");
        assert!(b.try_take(at(0.1)).is_ok(), "refilled on schedule");
    }

    #[test]
    fn level_never_exceeds_burst() {
        let mut b = TokenBucket::new(100.0, 3.0, SimTime::ZERO);
        assert_eq!(b.level(at(1000.0)), 3.0, "refill caps at burst");
        b.put_back();
        assert_eq!(b.level(at(1000.0)), 3.0, "put_back caps at burst");
    }

    #[test]
    fn zero_rate_is_a_one_shot_quota() {
        let mut b = TokenBucket::new(0.0, 2.0, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO).is_ok());
        assert!(b.try_take(SimTime::ZERO).is_ok());
        assert_eq!(b.try_take(at(1e6)).unwrap_err(), SimTime::MAX, "never refills");
    }

    #[test]
    fn fractional_refill_accumulates() {
        let mut b = TokenBucket::new(2.0, 1.0, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO).is_ok());
        assert!(b.try_take(at(0.25)).is_err(), "half a token");
        assert!(b.try_take(at(0.5)).is_ok(), "two quarter-refills make one token");
    }
}
