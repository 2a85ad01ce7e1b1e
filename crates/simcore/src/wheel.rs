//! Hierarchical timer wheel: the executor's pending-timer queue.
//!
//! Replaces the former global `BinaryHeap` with a hashed hierarchical
//! wheel. Entries are bucketed by their absolute firing time: level `k`
//! covers slots of `2^(10 + 6k)` ns, so level 0 resolves ~1 µs and the
//! eight levels together span `2^58` ns (~9 sim-years) from the wheel's
//! floor. Times beyond the current top-level lap park in a far-future
//! overflow heap and migrate into the wheel when the floor reaches their
//! lap — each entry is touched O(levels) times total, versus O(log n)
//! comparisons per operation for a heap over every pending timer.
//!
//! Ordering is *exactly* the old heap's: entries pop in ascending
//! `(at, seq)` order, where `seq` is the executor's global registration
//! counter — the same-instant FIFO tie-break the whole workspace's
//! digest determinism rests on. The earliest occupied slot is pulled
//! into a sorted `front` buffer (a stable sort, so already-ordered slot
//! contents cost O(n)); pushes that land below the buffer's bound are
//! merge-inserted so late registrations at the current instant still
//! fire in seq order. The differential proptest at the bottom of this
//! file drives the wheel against the old `BinaryHeap` implementation
//! (kept here as the test oracle) through randomized push/cancel/drain
//! churn to prove the orders never diverge.

use std::collections::VecDeque;

/// Log2 of the level-0 slot width in nanoseconds (1024 ns ≈ 1 µs).
const GRAN_BITS: u32 = 10;
/// Log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond them the overflow heap takes over.
const LEVELS: usize = 8;
/// Shift that yields a time's top-level lap number.
const TOP_SHIFT: u32 = GRAN_BITS + LEVEL_BITS * LEVELS as u32;

/// One pending timer: absolute firing time, global registration sequence
/// (the FIFO tie-break), and the executor's payload.
pub(crate) struct WheelEntry<T> {
    pub at: u64,
    pub seq: u64,
    pub item: T,
}

/// Far-future entries live in a plain binary heap ordered by `(at, seq)`.
struct OverflowOrd<T>(WheelEntry<T>);

impl<T> PartialEq for OverflowOrd<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowOrd<T> {}
impl<T> PartialOrd for OverflowOrd<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowOrd<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// The timer queue: sorted front buffer + hierarchical wheel + overflow.
///
/// Invariants:
/// - `front` is sorted ascending by `(at, seq)` and every entry in it has
///   `at < front_bound`;
/// - every wheel/overflow entry has `at >= front_bound`;
/// - wheel entries share `front_bound`'s top-level lap, overflow entries
///   do not;
/// - `front_bound` is monotonically non-decreasing, so the minimum entry
///   is always `front.front()` once the buffer is refilled.
pub(crate) struct TimerWheel<T> {
    front: VecDeque<WheelEntry<T>>,
    front_bound: u64,
    /// `LEVELS * SLOTS` buckets, level-major. Buckets keep their
    /// allocation across drains.
    slots: Box<[Vec<WheelEntry<T>>]>,
    /// Per-level slot-occupancy bitmask.
    occupied: [u64; LEVELS],
    overflow: std::collections::BinaryHeap<OverflowOrd<T>>,
    len: usize,
    // Profiling counters (see `SimProfile`).
    peak_len: usize,
    cascades: u64,
    overflow_pushes: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> TimerWheel<T> {
        TimerWheel {
            front: VecDeque::new(),
            front_bound: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: std::collections::BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            cascades: 0,
            overflow_pushes: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak number of simultaneously pending timers.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total entries re-bucketed by cascades and overflow migrations.
    pub(crate) fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Total entries routed to the far-future overflow heap.
    pub(crate) fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    pub(crate) fn push(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        let entry = WheelEntry { at, seq, item };
        if at < self.front_bound {
            // Late registration below the buffer bound (e.g. at the
            // instant currently firing): merge-insert to keep `front`
            // sorted. `seq` is globally unique so the key is total.
            let key = (at, seq);
            let pos = self.front.partition_point(|e| (e.at, e.seq) < key);
            self.front.insert(pos, entry);
        } else if (at >> TOP_SHIFT) != (self.front_bound >> TOP_SHIFT) {
            self.overflow_pushes += 1;
            self.overflow.push(OverflowOrd(entry));
        } else {
            self.insert_wheel(entry);
        }
    }

    /// Minimum pending entry, refilling the front buffer if needed.
    #[cfg(test)]
    pub(crate) fn peek_min(&mut self) -> Option<&WheelEntry<T>> {
        self.peek_min_gc(&mut |_| false)
    }

    /// Pop the minimum pending entry.
    pub(crate) fn pop_min(&mut self) -> Option<WheelEntry<T>> {
        self.pop_min_gc(&mut |_| false)
    }

    /// [`TimerWheel::peek_min`], garbage-collecting dead entries on the
    /// way: whenever a refill re-buckets entries (cascades, overflow
    /// migration, front-buffer fill), any entry `dead` reports is dropped
    /// on the spot instead of being carried down level by level. Canceled
    /// far-future timers (e.g. every per-invocation timeout that did not
    /// fire) otherwise cascade through several levels before dying at
    /// their deadline. `dead` must be pure w.r.t. the wheel: it may
    /// release external per-entry state but must not touch the wheel.
    pub(crate) fn peek_min_gc(
        &mut self,
        dead: &mut dyn FnMut(&T) -> bool,
    ) -> Option<&WheelEntry<T>> {
        if self.front.is_empty() {
            self.refill_front(dead);
        }
        self.front.front()
    }

    /// [`TimerWheel::pop_min`] with the GC hook of [`TimerWheel::peek_min_gc`].
    pub(crate) fn pop_min_gc(&mut self, dead: &mut dyn FnMut(&T) -> bool) -> Option<WheelEntry<T>> {
        if self.front.is_empty() {
            self.refill_front(dead);
        }
        let e = self.front.pop_front();
        if e.is_some() {
            self.len -= 1;
        }
        e
    }

    /// Remove every pending entry, in no particular order. The floor, the
    /// buckets' allocations and the profiling counters stay, so the wheel
    /// remains usable and its peaks remain reportable.
    pub(crate) fn take_all(&mut self) -> Vec<T> {
        if self.len == 0 {
            return Vec::new(); // the common teardown: nothing to sweep for
        }
        let mut items = Vec::with_capacity(self.len);
        items.extend(self.front.drain(..).map(|e| e.item));
        for bucket in self.slots.iter_mut() {
            items.extend(bucket.drain(..).map(|e| e.item));
        }
        items.extend(self.overflow.drain().map(|e| e.0.item));
        self.occupied = [0; LEVELS];
        self.len = 0;
        items
    }

    /// Bucket an entry into the wheel. Requires `at >= front_bound` and
    /// `at` within `front_bound`'s top-level lap.
    fn insert_wheel(&mut self, entry: WheelEntry<T>) {
        debug_assert!(entry.at >= self.front_bound);
        let x = (entry.at >> GRAN_BITS) ^ (self.front_bound >> GRAN_BITS);
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        debug_assert!(level < LEVELS);
        let slot = ((entry.at >> (GRAN_BITS + level as u32 * LEVEL_BITS)) & 63) as usize;
        self.slots[level * SLOTS + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Absolute start time of `slot` at `level`, within `front_bound`'s lap.
    fn slot_base(&self, level: usize, slot: usize) -> u64 {
        let low = GRAN_BITS + (level as u32 + 1) * LEVEL_BITS;
        let lap = if low >= 64 { 0 } else { (self.front_bound >> low) << low };
        lap | ((slot as u64) << (GRAN_BITS + level as u32 * LEVEL_BITS))
    }

    /// Re-bucket every live entry of slot `(level, slot)` into lower
    /// levels, dropping entries `dead` reports.
    fn cascade(&mut self, level: usize, slot: usize, dead: &mut dyn FnMut(&T) -> bool) {
        self.occupied[level] &= !(1u64 << slot);
        let mut v = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        for e in v.drain(..) {
            if dead(&e.item) {
                self.len -= 1;
                continue;
            }
            self.cascades += 1;
            self.insert_wheel(e);
        }
        self.slots[level * SLOTS + slot] = v; // keep the bucket's allocation
    }

    /// Current slot index of the floor at `level`.
    fn cursor(&self, level: usize) -> usize {
        ((self.front_bound >> (GRAN_BITS + level as u32 * LEVEL_BITS)) & 63) as usize
    }

    /// Pull the earliest occupied slot into the (empty) front buffer,
    /// cascading higher levels and migrating overflow laps as needed.
    fn refill_front(&mut self, dead: &mut dyn FnMut(&T) -> bool) {
        debug_assert!(self.front.is_empty());
        'search: loop {
            // A higher-level slot the floor sits *inside* may hold entries
            // earlier than anything at level 0 (they were bucketed before
            // the floor entered its window), so cascade every occupied
            // current-position slot down first, highest level first.
            for level in (1..LEVELS).rev() {
                let idx = self.cursor(level);
                if self.occupied[level] & (1u64 << idx) != 0 {
                    self.cascade(level, idx, dead);
                }
            }
            // Earliest level-0 slot at or after the floor.
            let idx0 = self.cursor(0);
            let mask0 = self.occupied[0] & (!0u64 << idx0);
            if mask0 != 0 {
                let s = mask0.trailing_zeros() as usize;
                let end = self.slot_base(0, s).saturating_add(1 << GRAN_BITS);
                self.front_bound = self.front_bound.max(end);
                self.occupied[0] &= !(1u64 << s);
                let mut v = std::mem::take(&mut self.slots[s]);
                v.retain(|e| {
                    let live = !dead(&e.item);
                    if !live {
                        self.len -= 1;
                    }
                    live
                });
                // Stable, and slot contents are pushed in ascending seq —
                // already-ordered runs make this near-linear.
                v.sort_by_key(|e| (e.at, e.seq));
                self.front.extend(v.drain(..));
                self.slots[s] = v;
                if self.front.is_empty() {
                    // Every entry in the slot was dead; keep searching.
                    continue 'search;
                }
                return;
            }
            // Advance the floor to the earliest occupied future slot
            // (strictly later than the cursor — current slots were
            // cascaded above) and re-search from its base.
            for level in 1..LEVELS {
                let mask = self.occupied[level] & (!0u64 << self.cursor(level));
                if mask != 0 {
                    let s = mask.trailing_zeros() as usize;
                    self.front_bound = self.front_bound.max(self.slot_base(level, s));
                    self.cascade(level, s, dead);
                    continue 'search;
                }
            }
            // Wheel empty: advance the floor to the overflow's next lap.
            let Some(min_at) = self.overflow.peek().map(|e| e.0.at) else {
                return;
            };
            self.front_bound = self.front_bound.max(min_at & !((1u64 << GRAN_BITS) - 1));
            while self
                .overflow
                .peek()
                .is_some_and(|e| (e.0.at >> TOP_SHIFT) == (self.front_bound >> TOP_SHIFT))
            {
                let OverflowOrd(e) = self.overflow.pop().expect("peeked");
                if dead(&e.item) {
                    self.len -= 1;
                    continue;
                }
                self.cascades += 1;
                self.insert_wheel(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The executor's previous timer queue — a plain binary heap ordered
    /// by `(at, seq)` — kept as the differential oracle.
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    }

    impl HeapOracle {
        fn new() -> HeapOracle {
            HeapOracle {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: u64, seq: u64, id: u32) {
            self.heap.push(Reverse((at, seq, id)));
        }
        fn peek(&self) -> Option<(u64, u64, u32)> {
            self.heap.peek().map(|Reverse(e)| *e)
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// Drain both queues to exhaustion, asserting identical pop order.
    fn assert_same_order(wheel: &mut TimerWheel<u32>, oracle: &mut HeapOracle) {
        loop {
            let got = wheel.pop_min().map(|e| (e.at, e.seq, e.item));
            let want = oracle.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty());
    }

    /// Mirror of the executor's `fire_next_timers`: discard canceled
    /// entries at the head (uncounted), then pop every entry at the
    /// earliest live instant (canceled ones included). Returns the
    /// popped `(at, seq, id)` triples plus the instant.
    #[allow(clippy::type_complexity)]
    fn fire_step(
        wheel: &mut TimerWheel<u32>,
        oracle: &mut HeapOracle,
        canceled: &[bool],
        horizon: u64,
    ) -> Option<(u64, Vec<(u64, u64, u32)>)> {
        // Oracle side.
        let want_at = loop {
            match oracle.peek() {
                None => break None,
                Some((at, _, id)) if !canceled[id as usize] => break Some(at),
                Some(_) => {
                    oracle.pop();
                }
            }
        };
        // Wheel side.
        let got_at = loop {
            match wheel.peek_min() {
                None => break None,
                Some(e) if !canceled[e.item as usize] => break Some(e.at),
                Some(_) => {
                    wheel.pop_min();
                }
            }
        };
        assert_eq!(got_at, want_at);
        let at = want_at?;
        if at > horizon {
            return None;
        }
        let mut fired = Vec::new();
        while oracle.peek().is_some_and(|(a, _, _)| a == at) {
            let (a, s, id) = oracle.pop().expect("peeked");
            let got = wheel
                .pop_min()
                .map(|e| (e.at, e.seq, e.item))
                .expect("wheel has the entry the oracle has");
            assert_eq!(got, (a, s, id));
            fired.push(got);
        }
        assert!(wheel.peek_min().is_none_or(|e| e.at != at));
        Some((at, fired))
    }

    #[test]
    fn take_all_empties_every_tier_and_leaves_a_working_wheel() {
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        // Front buffer, every wheel level, and the overflow heap.
        let times = [5u64, 900, 1 << 12, 1 << 20, 1 << 33, 1 << 47, 1 << 57, 1 << 60, u64::MAX];
        for (i, &at) in times.iter().enumerate() {
            wheel.push(at, i as u64, i as u32);
        }
        assert_eq!(wheel.pop_min().map(|e| e.item), Some(0)); // fills `front`
        wheel.push(6, 100, 100); // below the bound: lands in `front`
        let mut taken = wheel.take_all();
        taken.sort_unstable();
        assert_eq!(taken, vec![1, 2, 3, 4, 5, 6, 7, 8, 100]);
        assert!(wheel.is_empty());
        assert!(wheel.pop_min().is_none());
        assert_eq!(wheel.peak_len(), 9);
        assert!(wheel.take_all().is_empty());

        for (i, &at) in times.iter().enumerate().skip(1) {
            wheel.push(at, 200 + i as u64, i as u32);
            oracle.push(at, 200 + i as u64, i as u32);
        }
        assert_same_order(&mut wheel, &mut oracle);
    }

    #[test]
    fn orders_across_slot_and_level_boundaries() {
        // Timers exactly at wheel-slot and level boundaries: 2^10 (slot
        // width), 2^16 (level 1), 2^22 (level 2), ... up to the 2^58
        // overflow lap boundary, each with ±1 neighbours and a
        // same-instant pair to exercise the seq tie-break.
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        let mut seq = 0u64;
        let mut push = |wheel: &mut TimerWheel<u32>, oracle: &mut HeapOracle, at: u64| {
            wheel.push(at, seq, seq as u32);
            oracle.push(at, seq, seq as u32);
            seq += 1;
        };
        for level in 0..=8u32 {
            let b = 1u64 << (GRAN_BITS + LEVEL_BITS * level);
            for at in [b - 1, b, b + 1, b, 3 * b, 3 * b] {
                push(&mut wheel, &mut oracle, at);
            }
        }
        for at in [0, 1, u64::MAX - 1, u64::MAX, u64::MAX, 1u64 << 58, (1u64 << 58) - 1] {
            push(&mut wheel, &mut oracle, at);
        }
        assert_same_order(&mut wheel, &mut oracle);
    }

    #[test]
    fn late_pushes_at_the_firing_instant_stay_fifo() {
        // Entries pushed *below* the front bound (the executor does this
        // when a firing callback schedules at the current instant) must
        // merge into the sorted front buffer, not fire out of order.
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        for seq in 0..10u64 {
            wheel.push(5000, seq, seq as u32);
            oracle.push(5000, seq, seq as u32);
        }
        // Force a refill: front now holds the 5000s, bound past them.
        assert_eq!(wheel.peek_min().map(|e| e.seq), Some(0));
        for seq in 10..20u64 {
            wheel.push(5000, seq, seq as u32);
            oracle.push(5000, seq, seq as u32);
        }
        // And one strictly below every buffered entry.
        wheel.push(4999, 20, 20);
        oracle.push(4999, 20, 20);
        assert_same_order(&mut wheel, &mut oracle);
    }

    #[test]
    fn far_future_entries_migrate_out_of_overflow_in_order() {
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        let lap = 1u64 << TOP_SHIFT;
        // Two future laps plus near-term entries, interleaved.
        let times = [
            3 * lap + 7,
            5,
            2 * lap,
            3 * lap + 7,
            lap - 1,
            2 * lap + 123_456_789,
            7 * lap + (lap - 1),
        ];
        for (seq, &at) in times.iter().enumerate() {
            wheel.push(at, seq as u64, seq as u32);
            oracle.push(at, seq as u64, seq as u32);
        }
        assert!(wheel.overflow_pushes() > 0);
        assert_same_order(&mut wheel, &mut oracle);
    }

    proptest! {
        /// Differential churn: randomized pushes (biased toward slot and
        /// level boundaries and same-instant collisions), cancels, and
        /// horizon-limited drains must fire in exactly the heap's order.
        #[test]
        fn wheel_matches_heap_oracle(ops in proptest::collection::vec(
            (0u8..10, any::<u64>(), any::<u32>()), 1..400,
        )) {
            let mut wheel = TimerWheel::new();
            let mut oracle = HeapOracle::new();
            let mut canceled: Vec<bool> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut last_at = 0u64;
            for (kind, a, b) in ops {
                match kind {
                    // Push: delta shaped to land on/near boundaries often.
                    0..=5 => {
                        let level = (a % 9) as u32;
                        let base = 1u64 << (GRAN_BITS + LEVEL_BITS * level.min(8));
                        let jitter = match b % 5 {
                            0 => 0,
                            1 => 1,
                            2 => base.saturating_sub(1),
                            3 => (a >> 32) % (base.saturating_mul(4).max(1)),
                            _ => b as u64 % 1024,
                        };
                        let at = if b % 7 == 0 {
                            last_at // deliberate same-instant collision
                        } else {
                            now.saturating_add(base / 2 + jitter)
                        };
                        let at = at.max(now);
                        last_at = at;
                        canceled.push(false);
                        wheel.push(at, seq, (canceled.len() - 1) as u32);
                        oracle.push(at, seq, (canceled.len() - 1) as u32);
                        seq += 1;
                    }
                    // Cancel a random still-pending id.
                    6..=7 => {
                        if !canceled.is_empty() {
                            let idx = a as usize % canceled.len();
                            canceled[idx] = true;
                        }
                    }
                    // Drain one instant under a horizon.
                    _ => {
                        let horizon = now.saturating_add(a % (1u64 << 40));
                        if let Some((at, _fired)) =
                            fire_step(&mut wheel, &mut oracle, &canceled, horizon)
                        {
                            now = at;
                        }
                    }
                }
            }
            // Drain to exhaustion with no horizon.
            while fire_step(&mut wheel, &mut oracle, &canceled, u64::MAX).is_some() {}
            prop_assert!(wheel.is_empty());
        }
    }
}
