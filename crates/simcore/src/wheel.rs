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
//!
//! A canceled timer leaves at once. The wheel remembers, per item slot
//! (the executor's timer-slab index), the bucket and position of the
//! entry's last bucketing; [`TimerWheel::remove`] checks that hint
//! against the bucket and swap-removes the entry, so every bucket holds
//! live entries only. An entry already in `front` or in the overflow heap
//! is not found that way and stays as a tombstone: the overflow migration
//! drops it through the caller's GC hook, and the executor discards it
//! when it reaches the head of `front`.

use std::collections::VecDeque;

/// Log2 of the level-0 slot width in nanoseconds (1024 ns ≈ 1 µs).
const GRAN_BITS: u32 = 10;
/// Log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (at most 64: a level's occupancy is one `u64`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask that yields a slot index from a shifted time.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of wheel levels; beyond them the overflow heap takes over.
const LEVELS: usize = 8;
/// Shift that yields a time's top-level lap number.
const TOP_SHIFT: u32 = GRAN_BITS + LEVEL_BITS * LEVELS as u32;

/// What the wheel needs of an item to unlink it: a small dense index (the
/// executor's timer-slab slot) to remember its bucket under, and equality
/// to tell it from a later item on the same slot.
pub(crate) trait Slotted: Copy + Eq {
    fn slot(self) -> usize;
}

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
///   is always `front.front()` once the buffer is refilled;
/// - every bucket entry is live and `hints[item.slot()]` names its bucket
///   and position.
pub(crate) struct TimerWheel<T> {
    front: VecDeque<WheelEntry<T>>,
    front_bound: u64,
    /// `LEVELS * SLOTS` buckets, level-major. Buckets keep their
    /// allocation across drains.
    slots: Box<[Vec<WheelEntry<T>>]>,
    /// Per-level slot-occupancy bitmask.
    occupied: [u64; LEVELS],
    /// Per item slot: `(bucket, position)` of its last `insert_wheel`.
    /// Stale once the entry leaves the bucket, so checked before use.
    hints: Vec<(u32, u32)>,
    overflow: std::collections::BinaryHeap<OverflowOrd<T>>,
    len: usize,
    // Profiling counters (see `SimProfile`).
    peak_len: usize,
    cascades: u64,
    overflow_pushes: u64,
}

impl<T: Slotted> TimerWheel<T> {
    pub(crate) fn new() -> TimerWheel<T> {
        TimerWheel {
            front: VecDeque::new(),
            front_bound: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            hints: Vec::new(),
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
        if self.front.is_empty() {
            self.refill_front(&mut |_| false);
        }
        let e = self.front.pop_front();
        if e.is_some() {
            self.len -= 1;
        }
        e
    }

    /// [`TimerWheel::peek_min`], dropping the dead entries a refill
    /// migrates out of the overflow heap instead of bucketing them: the
    /// one place a tombstone can re-enter the buckets, since a canceled
    /// bucket entry was unlinked by [`TimerWheel::remove`]. Dead entries
    /// already in `front` are the caller's to skip. `dead` must be pure
    /// w.r.t. the wheel.
    pub(crate) fn peek_min_gc(&mut self, dead: &mut dyn FnMut(&T) -> bool) -> Option<&WheelEntry<T>> {
        if self.front.is_empty() {
            self.refill_front(dead);
        }
        self.front.front()
    }

    /// Unlink `item`'s entry if it sits in a bucket: swap-remove it, fix
    /// the moved entry's hint and clear the bucket's occupancy bit if it
    /// empties. Returns false, leaving the entry, when it is in `front`
    /// or the overflow heap (or gone).
    pub(crate) fn remove(&mut self, item: T) -> bool {
        let Some(&(b, pos)) = self.hints.get(item.slot()) else {
            return false;
        };
        let (b, pos) = (b as usize, pos as usize);
        let Some(bucket) = self.slots.get_mut(b) else {
            return false;
        };
        if !bucket.get(pos).is_some_and(|e| e.item == item) {
            return false;
        }
        bucket.swap_remove(pos);
        match bucket.get(pos) {
            Some(moved) => self.hints[moved.item.slot()] = (b as u32, pos as u32),
            None if bucket.is_empty() => self.occupied[b / SLOTS] &= !(1u64 << (b % SLOTS)),
            None => {}
        }
        self.len -= 1;
        true
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
        let slot = ((entry.at >> (GRAN_BITS + level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        let b = level * SLOTS + slot;
        let index = entry.item.slot();
        if index >= self.hints.len() {
            self.hints.resize(index + 1, (u32::MAX, 0));
        }
        self.hints[index] = (b as u32, self.slots[b].len() as u32);
        self.slots[b].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Absolute start time of `slot` at `level`, within `front_bound`'s lap.
    fn slot_base(&self, level: usize, slot: usize) -> u64 {
        let low = GRAN_BITS + (level as u32 + 1) * LEVEL_BITS;
        let lap = if low >= 64 { 0 } else { (self.front_bound >> low) << low };
        lap | ((slot as u64) << (GRAN_BITS + level as u32 * LEVEL_BITS))
    }

    /// Re-bucket every entry of slot `(level, slot)` into lower levels.
    fn cascade(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1u64 << slot);
        let mut v = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.cascades += v.len() as u64;
        for e in v.drain(..) {
            self.insert_wheel(e);
        }
        self.slots[level * SLOTS + slot] = v; // keep the bucket's allocation
    }

    /// Current slot index of the floor at `level`.
    fn cursor(&self, level: usize) -> usize {
        ((self.front_bound >> (GRAN_BITS + level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize
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
                    self.cascade(level, idx);
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
                // Stable, and slot contents are pushed in ascending seq —
                // already-ordered runs make this near-linear.
                v.sort_by_key(|e| (e.at, e.seq));
                self.front.extend(v.drain(..));
                self.slots[s] = v;
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
                    self.cascade(level, s);
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
        /// Drop `id`'s entry; whether it had one.
        fn remove(&mut self, id: u32) -> bool {
            let before = self.heap.len();
            self.heap.retain(|Reverse((_, _, i))| *i != id);
            self.heap.len() < before
        }
    }

    impl Slotted for u32 {
        fn slot(self) -> usize {
            self as usize
        }
    }

    /// Whether `id` has an entry in one of the wheel's buckets.
    fn in_a_bucket(wheel: &TimerWheel<u32>, id: u32) -> bool {
        wheel.slots.iter().flatten().any(|e| e.item == id)
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
        // Timers exactly at wheel-slot and level boundaries: the slot
        // width, each level's span, ... up to the overflow lap boundary,
        // each with ±1 neighbours and a same-instant pair to exercise the
        // seq tie-break.
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        let mut seq = 0u64;
        let mut push = |wheel: &mut TimerWheel<u32>, oracle: &mut HeapOracle, at: u64| {
            wheel.push(at, seq, seq as u32);
            oracle.push(at, seq, seq as u32);
            seq += 1;
        };
        for level in 0..=LEVELS as u32 {
            let b = 1u64 << (GRAN_BITS + LEVEL_BITS * level);
            for at in [b - 1, b, b + 1, b, b.saturating_mul(3), b.saturating_mul(3)] {
                push(&mut wheel, &mut oracle, at);
            }
        }
        let lap = 1u64 << TOP_SHIFT;
        for at in [0, 1, u64::MAX - 1, u64::MAX, u64::MAX, lap, lap - 1] {
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
        // The start of the last lap `u64` reaches, and two laps before it.
        let last = (u64::MAX >> TOP_SHIFT) * lap;
        let (far, farther) = (last - 2 * lap, last - lap);
        // Future laps plus near-term entries, interleaved.
        let times = [
            farther + 7,
            5,
            far,
            farther + 7,
            lap - 1,
            far + 123_456_789 % lap,
            last + (lap - 1),
        ];
        for (seq, &at) in times.iter().enumerate() {
            wheel.push(at, seq as u64, seq as u32);
            oracle.push(at, seq as u64, seq as u32);
        }
        assert!(wheel.overflow_pushes() > 0);
        assert_same_order(&mut wheel, &mut oracle);
    }

    #[test]
    fn removing_the_last_entry_of_a_bucket_clears_its_bit() {
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        // Three entries in level 2's slot 1, one at level 0.
        let b = 1u64 << (GRAN_BITS + 2 * LEVEL_BITS);
        for (id, at) in [(0, b), (1, b + 5), (2, b + 9), (3, 5)] {
            wheel.push(at, id as u64, id);
        }
        oracle.push(5, 3, 3);
        assert_eq!(wheel.occupied[2], 1 << 1);
        // Swap-removing the first entry moves the last into its place.
        assert!(wheel.remove(0));
        assert!(wheel.remove(2), "the moved entry's hint was fixed");
        assert_eq!(wheel.occupied[2], 1 << 1, "one entry left in the bucket");
        assert!(wheel.remove(1));
        assert_eq!(wheel.occupied[2], 0);
        assert!(!wheel.remove(1), "a second remove finds nothing");
        assert_same_order(&mut wheel, &mut oracle);
    }

    #[test]
    fn an_entry_in_front_or_overflow_stays_a_tombstone() {
        let mut wheel = TimerWheel::new();
        let canceled = [false, true, true, false];
        let lap = 1u64 << TOP_SHIFT;
        for (id, at) in [(0, 5), (1, 6), (2, lap), (3, 100_000)] {
            wheel.push(at, id as u64, id);
        }
        assert_eq!(wheel.peek_min().map(|e| e.item), Some(0)); // 0 and 1 in `front`
        assert_eq!(wheel.overflow_pushes(), 1);
        assert!(!wheel.remove(1));
        assert!(!wheel.remove(2));
        let mut popped = Vec::new();
        while wheel.peek_min_gc(&mut |&id| canceled[id as usize]).is_some() {
            popped.push(wheel.pop_min().expect("peeked").item);
        }
        // 1 still pops, for the caller to skip as canceled; the overflow
        // migration dropped 2.
        assert_eq!(popped, [0, 1, 3]);
        assert!(wheel.is_empty());
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
                        // Every level, and the overflow lap past the top.
                        let level = (a % (LEVELS as u64 + 1)) as u32;
                        let base = 1u64 << (GRAN_BITS + LEVEL_BITS * level);
                        let jitter = match b % 5 {
                            0 => 0,
                            1 => 1,
                            2 => base.saturating_sub(1),
                            3 => (a >> 32) % (base.saturating_mul(4).max(1)),
                            _ => b as u64 % (1 << GRAN_BITS),
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
                    // Cancel a random id, as the executor does: unlink it
                    // if it sits in a bucket, else leave a tombstone.
                    6..=7 => {
                        if !canceled.is_empty() {
                            let idx = a as usize % canceled.len();
                            if !canceled[idx] {
                                canceled[idx] = true;
                                let id = idx as u32;
                                let removed = wheel.remove(id);
                                prop_assert!(!in_a_bucket(&wheel, id));
                                if removed {
                                    prop_assert!(oracle.remove(id));
                                }
                            }
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
