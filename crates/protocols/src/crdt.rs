//! Conflict-free replicated data types — the paper's §3.2 pointer to a
//! healthier programming model for loosely consistent platforms:
//! "this kind of 'disorderly' loosely-consistent model has been at the
//! heart of a number of more general-purpose proposals for scalable,
//! available program design in recent years, including from our group
//! [9, 1, 22]" — [22] being Shapiro et al.'s CRDTs.
//!
//! The grow-only counter here is a state-based (convergent) CRDT: every
//! replica mutates locally and periodically merges peers' full states;
//! merge is a join in a semilattice (commutative, associative,
//! idempotent), so replicas converge regardless of delivery order,
//! duplication, or staleness — exactly the guarantees one still has on
//! 2018 cloud storage. `tests/crdt_sync.rs` syncs replicas through the
//! eventually consistent KV store and converges despite stale reads.

use std::collections::BTreeMap;

use crate::message::NodeId;

/// A state-based CRDT: a join-semilattice element with a merge (join).
pub trait Crdt {
    /// Join `other` into `self`. Must be commutative, associative, and
    /// idempotent (property-tested in this module).
    fn merge(&mut self, other: &Self);
}

// ---------------------------------------------------------------------------
// G-Counter
// ---------------------------------------------------------------------------

/// Grow-only counter: per-replica increment slots, value = sum, merge =
/// pointwise max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GCounter {
    slots: BTreeMap<NodeId, u64>,
}

impl GCounter {
    /// An empty counter.
    pub fn new() -> GCounter {
        GCounter::default()
    }

    /// Increment this replica's slot.
    pub fn increment(&mut self, replica: NodeId, by: u64) {
        *self.slots.entry(replica).or_default() += by;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.slots.values().sum()
    }

    /// Serialize (replica/count pairs, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.slots.len() * 16);
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for (&id, &n) in &self.slots {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        out
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<GCounter> {
        let n = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        if bytes.len() != 4 + n * 16 {
            return None;
        }
        let mut slots = BTreeMap::new();
        for i in 0..n {
            let off = 4 + i * 16;
            let id = u64::from_le_bytes(bytes[off..off + 8].try_into().ok()?);
            let count = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().ok()?);
            slots.insert(id, count);
        }
        Some(GCounter { slots })
    }
}

impl Crdt for GCounter {
    fn merge(&mut self, other: &Self) {
        for (&id, &n) in &other.slots {
            let slot = self.slots.entry(id).or_default();
            *slot = (*slot).max(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcounter_basics() {
        let mut a = GCounter::new();
        a.increment(1, 5);
        a.increment(1, 2);
        let mut b = GCounter::new();
        b.increment(2, 10);
        a.merge(&b);
        assert_eq!(a.value(), 17);
        // Re-merging the same state changes nothing (idempotent).
        a.merge(&b);
        assert_eq!(a.value(), 17);
    }

    #[test]
    fn gcounter_codec_roundtrip() {
        let mut c = GCounter::new();
        c.increment(7, 3);
        c.increment(42, 9);
        assert_eq!(GCounter::decode(&c.encode()), Some(c));
        assert_eq!(GCounter::decode(&[1, 2, 3]), None);
        assert_eq!(GCounter::decode(&GCounter::new().encode()), Some(GCounter::new()));
    }

    // --- semilattice laws, property-tested over random op sequences -----

    /// One `increment(replica, by)`.
    type Op = (NodeId, u64);

    fn op_strategy() -> impl Strategy<Value = Op> {
        (1u64..4, 1u64..10)
    }

    fn counter(ops: &[Op]) -> GCounter {
        let mut c = GCounter::new();
        for &(r, n) in ops {
            c.increment(r, n);
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// merge is commutative, associative, idempotent for GCounters
        /// built from arbitrary op sequences.
        #[test]
        fn merge_is_a_semilattice_join(
            ops_a in prop::collection::vec(op_strategy(), 0..20),
            ops_b in prop::collection::vec(op_strategy(), 0..20),
            ops_c in prop::collection::vec(op_strategy(), 0..20),
        ) {
            let ca = counter(&ops_a);
            let cb = counter(&ops_b);
            let cc = counter(&ops_c);

            // Commutativity: a ⊔ b == b ⊔ a.
            let mut ab = ca.clone(); ab.merge(&cb);
            let mut ba = cb.clone(); ba.merge(&ca);
            prop_assert_eq!(&ab, &ba);

            // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
            let mut abc = ab.clone(); abc.merge(&cc);
            let mut bc = cb.clone(); bc.merge(&cc);
            let mut a_bc = ca.clone(); a_bc.merge(&bc);
            prop_assert_eq!(&abc, &a_bc);

            // Idempotence: a ⊔ a == a.
            let mut aa = ca.clone(); aa.merge(&ca);
            prop_assert_eq!(&aa, &ca);
        }

        /// Gossip convergence: replicas applying disjoint ops and merging
        /// in arbitrary pair order all reach the same state.
        #[test]
        fn replicas_converge_in_any_gossip_order(
            per_replica in prop::collection::vec(
                prop::collection::vec(op_strategy(), 0..10), 2..5),
            seed in 0u64..1000,
        ) {
            let n = per_replica.len();
            // Replica ids must be distinct for slot isolation.
            let mut counters: Vec<GCounter> = per_replica
                .iter()
                .enumerate()
                .map(|(i, ops)| {
                    let rebased: Vec<Op> = ops.iter().map(|&(_, k)| (i as NodeId + 1, k)).collect();
                    counter(&rebased)
                })
                .collect();
            // Random full gossip: every ordered pair merges at least once,
            // in a seed-shuffled order, twice over.
            let mut pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect();
            let mut rng = faasim_simcore::SimRng::from_seed(seed);
            for _ in 0..2 {
                // Fisher–Yates.
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.range_usize(0..i + 1));
                }
                for &(i, j) in &pairs {
                    let other = counters[j].clone();
                    counters[i].merge(&other);
                }
            }
            for i in 1..n {
                prop_assert_eq!(counters[0].value(), counters[i].value());
                prop_assert_eq!(&counters[0], &counters[i]);
            }
        }
    }
}
