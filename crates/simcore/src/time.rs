//! Virtual time for the simulation.
//!
//! The simulator advances a virtual clock measured in integer nanoseconds.
//! [`SimTime`] is an instant on that clock (nanoseconds since simulation
//! start) and [`SimDuration`] is a span between instants. Both are distinct
//! from `std::time` types on purpose: nothing in a simulation should ever
//! consult the host's clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as floating point.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Addition that saturates at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span; used as "forever".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative and non-finite inputs
    /// clamp to zero; values beyond the representable range clamp to
    /// [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Nanoseconds in this span.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this span (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds in this span, as floating point.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds in this span, as floating point.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the empty span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a float factor, saturating; negative/NaN factors give zero.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, other: SimDuration) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Pick the largest unit that keeps the integer part nonzero.
    if ns == u64::MAX {
        return write!(f, "forever");
    }
    if ns >= 60_000_000_000 {
        let secs = ns as f64 / 1e9;
        if secs >= 3_600.0 {
            return write!(f, "{:.2}h", secs / 3_600.0);
        }
        return write!(f, "{:.2}min", secs / 60.0);
    }
    if ns >= 1_000_000_000 {
        return write!(f, "{:.3}s", ns as f64 / 1e9);
    }
    if ns >= 1_000_000 {
        return write!(f, "{:.3}ms", ns as f64 / 1e6);
    }
    if ns >= 1_000 {
        return write!(f, "{:.3}us", ns as f64 / 1e3);
    }
    write!(f, "{ns}ns")
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3600));
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn float_edge_cases_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1 - t0, SimDuration::from_millis(5));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(5));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert!((d.mul_f64(2.5).as_millis_f64() - 25.0).abs() < 1e-9);
        assert!(((d / SimDuration::from_millis(4)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_and_sum() {
        let parts = vec![
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ];
        let total: SimDuration = parts.into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(6));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.50min");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
        assert_eq!(SimDuration::MAX.to_string(), "forever");
        assert_eq!(
            SimTime::from_nanos(1_500_000).to_string(),
            "t+1.500ms"
        );
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(!b.is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }
}
