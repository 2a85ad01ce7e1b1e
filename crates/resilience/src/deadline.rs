//! Propagated per-request deadline budgets.
//!
//! A deadline is an *absolute* virtual-time instant carried down a
//! request's call tree: every retry loop and backoff sleep must fit
//! inside it. This replaces unbounded retry loops — the failure mode the
//! paper's composed-by-queues applications exhibit when a dependency
//! browns out — with a clean, declared failure at a known time.

use faasim_simcore::{Sim, SimDuration, SimTime};

/// An absolute virtual-time budget for one request, cheap to copy and
/// pass down a call tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: SimTime,
}

impl Deadline {
    /// A deadline at the absolute instant `at`.
    pub fn at(at: SimTime) -> Deadline {
        Deadline { at }
    }

    /// A deadline `budget` from the simulation's current instant.
    pub fn within(sim: &Sim, budget: SimDuration) -> Deadline {
        Deadline {
            at: sim.now().saturating_add(budget),
        }
    }

    /// No budget at all: never expires, never caps a call. Useful as a
    /// control and as the bridge from the unbudgeted retry API.
    pub fn unbounded() -> Deadline {
        Deadline { at: SimTime::MAX }
    }

    /// Whether this is the [`Deadline::unbounded`] sentinel.
    pub fn is_unbounded(&self) -> bool {
        self.at == SimTime::MAX
    }

    /// Budget left right now (zero once expired; [`SimDuration::MAX`]-ish
    /// for unbounded deadlines).
    pub fn remaining(&self, sim: &Sim) -> SimDuration {
        self.at.duration_since(sim.now())
    }

    /// Whether the budget has run out.
    pub fn is_expired(&self, sim: &Sim) -> bool {
        !self.is_unbounded() && self.remaining(sim) == SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let sim = Sim::new(3);
        let d = Deadline::within(&sim, SimDuration::from_secs(5));
        assert_eq!(d.remaining(&sim), SimDuration::from_secs(5));
        assert!(!d.is_expired(&sim));
        let sim2 = sim.clone();
        sim.block_on(async move {
            sim2.sleep(SimDuration::from_secs(7)).await;
        });
        assert_eq!(d.remaining(&sim), SimDuration::ZERO);
        assert!(d.is_expired(&sim));
    }

    #[test]
    fn unbounded_never_expires() {
        let sim = Sim::new(3);
        let d = Deadline::unbounded();
        assert!(d.is_unbounded());
        assert!(!d.is_expired(&sim));
    }
}
