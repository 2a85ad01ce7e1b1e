//! Recorder-free gateway probes, aggregated like `NicStats`: plain
//! counters the harnesses can assert on without touching the metrics
//! registry (and therefore without perturbing replay digests).

use std::fmt;

/// Admission accounting for one tenant. Every offered request lands in
/// exactly one of `admitted`, `bucket_shed`, `concurrency_shed`,
/// `load_shed`, or `breaker_rejected` — see [`TenantStats::conserved`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests that reached the front door (billed, whatever happened
    /// next).
    pub offered: u64,
    /// Requests admitted through every stage to the platform.
    pub admitted: u64,
    /// Shed by the token bucket (rate + burst exhausted).
    pub bucket_shed: u64,
    /// Shed by the per-tenant concurrency semaphore.
    pub concurrency_shed: u64,
    /// Shed by the platform-wide load shedder (priority watermark).
    pub load_shed: u64,
    /// Shed because the tenant's circuit breaker was open.
    pub breaker_rejected: u64,
    /// Admitted calls whose outcome did not count as a breaker failure.
    pub succeeded: u64,
    /// Admitted calls whose outcome counted as a breaker failure.
    pub failed: u64,
    /// Admitted calls currently in flight.
    pub in_flight: u64,
    /// High-water mark of concurrent admitted calls.
    pub peak_in_flight: u64,
}

impl TenantStats {
    /// Sheds attributable to the tenant's own rate/concurrency limits.
    pub fn rate_shed(&self) -> u64 {
        self.bucket_shed + self.concurrency_shed
    }

    /// All sheds, whatever the stage.
    pub fn shed(&self) -> u64 {
        self.rate_shed() + self.load_shed + self.breaker_rejected
    }

    /// The admission conservation law: every offered request was either
    /// admitted or shed by exactly one stage.
    pub fn conserved(&self) -> bool {
        self.offered == self.admitted + self.shed()
    }

    /// Fold another tenant's counters into this one (peaks take the
    /// max — per-tenant peaks at different instants don't sum).
    pub fn merge(&mut self, other: &TenantStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.bucket_shed += other.bucket_shed;
        self.concurrency_shed += other.concurrency_shed;
        self.load_shed += other.load_shed;
        self.breaker_rejected += other.breaker_rejected;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.in_flight += other.in_flight;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
    }
}

/// The admission identity with its numbers filled in.
impl fmt::Display for TenantStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} offered = {} admitted + {} rate + {} load + {} breaker shed",
            self.offered,
            self.admitted,
            self.rate_shed(),
            self.load_shed,
            self.breaker_rejected
        )
    }
}

/// Gateway-wide aggregate: the tenant counters folded together plus the
/// gateway-level concurrency high-water mark (which is a property of
/// the shared admission path, not a sum of per-tenant peaks).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Number of configured tenants.
    pub tenants: u32,
    /// Folded per-tenant counters (peak is the max per-tenant peak).
    pub totals: TenantStats,
    /// High-water mark of concurrent admitted calls across all tenants.
    pub peak_in_flight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_and_merge() {
        let mut a = TenantStats {
            offered: 10,
            admitted: 6,
            bucket_shed: 2,
            concurrency_shed: 1,
            load_shed: 1,
            peak_in_flight: 3,
            ..TenantStats::default()
        };
        assert!(a.conserved());
        assert_eq!(a.rate_shed(), 3);
        let b = TenantStats {
            offered: 4,
            admitted: 3,
            breaker_rejected: 1,
            peak_in_flight: 5,
            ..TenantStats::default()
        };
        assert!(b.conserved());
        a.merge(&b);
        assert!(a.conserved());
        assert_eq!(a.offered, 14);
        assert_eq!(a.peak_in_flight, 5, "peaks take the max");
    }
}
