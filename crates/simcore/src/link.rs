//! Shared bandwidth links with max–min fair sharing in O(log n) per event.
//!
//! A [`FairShareLink`] models a capacity-limited pipe (a host NIC, a
//! storage-service connection pool) shared by concurrent transfers. Rates
//! are allocated max–min fairly with an optional per-flow cap via
//! water-filling: flows that cannot use a full equal share (because their
//! cap is lower) give their slack to the others.
//!
//! This is the mechanism behind the paper's §3 observation: with twenty
//! Lambda functions packed onto one host VM, the per-function share of the
//! NIC collapses from 538 Mbps to ~28.7 Mbps.
//!
//! # Virtual-time fair queueing
//!
//! The previous implementation rescanned every flow three times per
//! join/completion/cancel (charge elapsed service, re-water-fill, find the
//! earliest completion), making n-flow churn O(n²) — the simulator's last
//! scaling wall at 5k+ concurrent flows. This one makes each event
//! O(log n + classes):
//!
//! - **V(t)**, the fair-share work function, counts the bits an
//!   unthrottled flow has been served since the link's current busy
//!   period began. It is piecewise linear with slope equal to the water
//!   level and advances in O(1) per event. A flow riding the water level
//!   needs no per-event touch: joining with `B` bits remaining it
//!   finishes exactly when `V` reaches `V_join + B`, so all such flows
//!   sit in one min-queue of virtual finish times (a `FinishQueue`: a
//!   small heap for arrivals in front of a sorted run for departures).
//! - **Capped flows aggregate into rate classes** (one bucket per
//!   distinct cap). While a class sits *below* the water level every
//!   member runs at exactly its cap, so each member's completion is a
//!   fixed absolute instant computed once (a second min-queue). The
//!   water-fill step works on class aggregates — `Σ cap·members` — in
//!   O(classes), and members are individually charged and re-based only
//!   when the water level crosses their class's cap (lazy re-leveling).
//!
//! Completion instants still ceil to the next nanosecond, a flow is still
//! done when less than half a bit remains, and finished flows still wake in
//! flow-id order — so the event stream, and therefore every recorder
//! digest, is preserved. A retained O(n)-rescan reference allocator
//! (`#[cfg(test)]`, sharing the same per-flow accounting formulas)
//! differential-tests the heap and bucket machinery under randomized
//! churn.
//!
//! # One armed timer
//!
//! Every state change (join, completion, cancel) re-projects the earliest
//! completion and *reserves* its place in the simulation's event order:
//! the instant `at`, and a sequence number drawn from the executor right
//! then, exactly as if a callback had been scheduled — every other timer
//! in the run therefore keeps the `(at, seq)` it would have had. But a
//! timer is pushed into the wheel only when none is armed or the
//! projection moved to an *earlier* instant than the armed one (which is
//! thereby superseded: it will fire and be ignored). When the armed timer
//! fires and the reservation is still the position it was pushed for,
//! that is the completion event. When the reservation has moved on — to a
//! later instant, or to a later sequence number within this one — the
//! timer re-pushes itself at exactly the reserved `(at, seq)`, which is
//! still ahead in the event order because reservations are only ever made
//! at or after the armed timer's own position.
//!
//! So the callback that acts is always the one at the latest reservation,
//! at the position a callback-per-change link would have given it; what
//! is gone is the callbacks that link scheduled only to ignore: under a
//! fan-in, where every join pushes the projection later, one per flow.
//! One visible difference: those ignored callbacks used to hold the run
//! loop's attention, so [`Sim::run`] may now quiesce at an earlier clock
//! when the last pending thing was a superseded link callback (a lone
//! flow canceled after a joiner had moved its projection out, say).
//! Nothing that happens in the simulation moves.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

/// Bits per second.
pub type Bps = f64;

/// Convert megabits/second to [`Bps`].
pub fn mbps(v: f64) -> Bps {
    v * 1e6
}

/// Convert gigabits/second to [`Bps`].
pub fn gbps(v: f64) -> Bps {
    v * 1e9
}

/// Convert megabytes/second to [`Bps`].
pub fn mbytes_per_sec(v: f64) -> Bps {
    v * 8e6
}

/// A flow with less than half a bit left is finished: completion
/// boundaries are scheduled with ceil-to-nanosecond rounding, so the
/// residue at the completion instant is sub-bit.
const DONE_EPS_BITS: f64 = 0.5;

/// Completion delay for `secs` of service at the current rates: ceil to
/// the next nanosecond (so the completion event sees the flow done), at
/// least one nanosecond out.
#[inline]
fn ceil_ns(secs: f64) -> SimDuration {
    SimDuration::from_nanos((secs * 1e9).ceil().max(1.0) as u64)
}

/// Which service regime a flow is currently in.
#[derive(Copy, Clone, Debug)]
enum Phase {
    /// Served at the water level: finishes when V reaches `v_finish`.
    Virtual {
        /// Virtual-time finish tag: `V_at_last_touch + remaining_bits`.
        v_finish: f64,
    },
    /// Pinned at its cap (class below the water level): finishes at the
    /// absolute instant `fin`, computed once on entry.
    Capped {
        /// When the flow entered this phase (service accrues at `cap`
        /// from here, against `remaining_bits` as of this instant).
        since: SimTime,
        /// Absolute completion instant.
        fin: SimTime,
    },
}

#[derive(Debug)]
struct Flow {
    /// Remaining bits as of the flow's last touch (join or re-level).
    /// While `Virtual`, the live value is `v_finish - V`; while
    /// `Capped`, it is `remaining_bits - cap·(now - since)`.
    remaining_bits: f64,
    cap_bps: Option<Bps>,
    phase: Phase,
    waker: Option<Waker>,
    done: bool,
}

/// All flows sharing one cap value, water-filled as a unit.
struct CapClass {
    /// The class's rate; `cap.to_bits()` is its sort key (positive floats
    /// order the same as their bit patterns).
    cap: Bps,
    /// Live (not done, not canceled) member flows.
    members: usize,
    /// Whether the class currently sits below the water level (every
    /// member pinned at `cap`).
    saturated: bool,
    /// Member flow ids. Finished/canceled flows leave stale entries,
    /// skipped on re-level and compacted once they outnumber live
    /// members (`members`, never the slab occupancy — done-but-unreaped
    /// flows must not defer compaction).
    ids: Vec<u64>,
}

/// Min-heap key for virtual finish tags. Values are finite and positive;
/// ties are broken by flow id in the surrounding tuple.
#[derive(Copy, Clone, PartialEq, Debug)]
struct VKey(f64);

impl Eq for VKey {}

impl PartialOrd for VKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Entries a [`FinishQueue`]'s young heap may hold before a pop sorts them
/// into the run, however short the run is.
const YOUNG_MAX: usize = 64;

/// Min-queue of completion tags `(key, flow id)`, popped in ascending
/// order of the pair — ids are unique, so the order is total and equal
/// keys leave in id order whatever the queue's history.
///
/// Pushes go to a small binary heap (`young`); pops are served from a
/// sorted run, walked front to back. A pop that finds the young heap
/// larger than both [`YOUNG_MAX`] and what is left of the run sorts it
/// into the run first, so a queue that is filled and then drained — a
/// fan-in — sorts once and drains sequentially through memory instead of
/// sifting a heap whose lower levels miss the cache on every pop, while a
/// queue that stays small never leaves the heap. Each entry is sorted
/// O(log n) times: the run at least doubles with every merge.
struct FinishQueue<K> {
    /// Ascending; popped from the front.
    run: VecDeque<(K, u64)>,
    young: BinaryHeap<Reverse<(K, u64)>>,
}

impl<K: Ord + Copy> FinishQueue<K> {
    fn new() -> FinishQueue<K> {
        FinishQueue {
            run: VecDeque::new(),
            young: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.run.len() + self.young.len()
    }

    fn push(&mut self, key: K, id: u64) {
        self.young.push(Reverse((key, id)));
    }

    fn peek(&self) -> Option<(K, u64)> {
        let run = self.run.front().copied();
        let young = self.young.peek().map(|&Reverse(e)| e);
        match (run, young) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pop(&mut self) -> Option<(K, u64)> {
        if self.young.len() > YOUNG_MAX.max(self.run.len()) {
            self.run.extend(self.young.drain().map(|Reverse(e)| e));
            self.run.make_contiguous().sort_unstable();
        }
        match (self.run.front(), self.young.peek()) {
            (Some(a), Some(Reverse(b))) if b < a => self.young.pop().map(|Reverse(e)| e),
            (None, _) => self.young.pop().map(|Reverse(e)| e),
            (Some(_), _) => self.run.pop_front(),
        }
    }

    /// Keep only the entries `live` accepts (compaction of stale tags).
    fn retain(&mut self, mut live: impl FnMut(K, u64) -> bool) {
        self.run.retain(|&(k, id)| live(k, id));
        self.young.retain(|&Reverse((k, id))| live(k, id));
    }

    fn clear(&mut self) {
        self.run.clear();
        self.young.clear();
    }
}

struct LinkState {
    capacity_bps: Bps,
    /// Flows indexed by `id - base_id` (ids are sequential). Removed
    /// flows leave a `None` hole; leading holes are popped so the deque
    /// tracks the live window.
    flows: VecDeque<Option<Flow>>,
    base_id: u64,
    /// Occupied slots, including done-but-unreaped flows.
    occupied: usize,
    /// Live-not-done flows — kept exact so `active_flows()` and
    /// `fair_share_estimate()` are O(1) and compaction triggers compare
    /// against live work, not slab occupancy.
    active: usize,
    /// Live flows currently in [`Phase::Virtual`].
    virtual_n: usize,
    /// Rate classes in ascending cap order. A link sees one or two
    /// distinct caps, so a sorted `Vec` beats a map. A class goes when
    /// its last member leaves; its `ids` list, emptied, waits in
    /// `spare_ids` for the next class, so a transfer on a warm link
    /// allocates nothing.
    classes: Vec<CapClass>,
    spare_ids: Vec<Vec<u64>>,
    /// Min-queue of `(v_finish, id)` over `Virtual` flows. Entries go
    /// stale on cancel/re-level and are dropped lazily (validated
    /// against the flow's current phase tag).
    virt_heap: FinishQueue<VKey>,
    /// Min-queue of `(fin, id)` over `Capped` flows; same lazy staleness.
    cap_heap: FinishQueue<SimTime>,
    /// The fair-share work function V: bits served to a `Virtual` flow
    /// since the current busy period began (rebased to 0 at idle, so
    /// magnitudes stay comparable to transfer sizes).
    v_now: f64,
    /// Current water level in bits/sec (slope of V). +∞ when every live
    /// flow is saturated at its cap; 0 when idle.
    level: Bps,
    next_flow: u64,
    last_update: SimTime,
    /// The `(at, seq)` the latest state change reserved for the next
    /// completion event; `None` when no live flow is making progress.
    next: Option<(SimTime, u64)>,
    /// The `(at, seq)` of the one timer in the wheel that will be heard
    /// when it fires (see the module docs).
    armed: Option<(SimTime, u64)>,
    /// Flow ids finished during the event being processed, woken in id
    /// order (the order the old full-scan collector produced).
    finished: Vec<u64>,
    /// Scratch for re-level flip lists, reused across events.
    flips: Vec<u64>,
    /// Scratch for the wakers of `finished`, reused across events.
    wakers: Vec<Waker>,
    /// This link's callbacks now in the wheel, and how many of those were
    /// superseded by a later, earlier-firing one: the difference is the
    /// number that will be heard, which must never exceed one.
    #[cfg(test)]
    timers_pending: (usize, usize),
}

impl LinkState {
    fn flow_ref(&self, id: u64) -> Option<&Flow> {
        let idx = id.checked_sub(self.base_id)? as usize;
        self.flows.get(idx)?.as_ref()
    }

    fn flow_mut(&mut self, id: u64) -> Option<&mut Flow> {
        let idx = id.checked_sub(self.base_id)? as usize;
        self.flows.get_mut(idx)?.as_mut()
    }

    /// Take a flow out of the slab (reap or cancel). Pure slab
    /// bookkeeping: live-flow accounting is the caller's job.
    fn take_flow(&mut self, id: u64) -> Option<Flow> {
        let idx = id.checked_sub(self.base_id)? as usize;
        let f = self.flows.get_mut(idx)?.take();
        if f.is_some() {
            self.occupied -= 1;
            while let Some(None) = self.flows.front() {
                self.flows.pop_front();
                self.base_id += 1;
            }
        }
        f
    }

    /// Advance V across the interval since the last event, at the slope
    /// the previous re-level established.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        self.last_update = now;
        if dt > 0.0 && self.virtual_n > 0 && self.level > 0.0 {
            self.v_now += self.level * dt;
        }
    }

    /// Mark `id` finished as of the current event: drop it from the live
    /// accounting and queue its waker (wakes happen in id order).
    fn mark_done(&mut self, id: u64) {
        let base = self.base_id;
        let Some(flow) = self
            .flows
            .get_mut((id - base) as usize)
            .and_then(Option::as_mut)
        else {
            return;
        };
        debug_assert!(!flow.done);
        flow.done = true;
        flow.remaining_bits = 0.0;
        let was_virtual = matches!(flow.phase, Phase::Virtual { .. });
        let cap = flow.cap_bps;
        self.active -= 1;
        if was_virtual {
            self.virtual_n -= 1;
        }
        if let Some(cap) = cap {
            self.drop_class_member(cap.to_bits());
        }
        self.finished.push(id);
    }

    /// Where class `bits` sits in `classes`, or where it would go.
    fn class_index(&self, bits: u64) -> Result<usize, usize> {
        self.classes.binary_search_by_key(&bits, |c| c.cap.to_bits())
    }

    fn class_mut(&mut self, bits: u64) -> Option<&mut CapClass> {
        self.class_index(bits).ok().map(|i| &mut self.classes[i])
    }

    /// Keep an id list for the next class to form.
    fn recycle_ids(&mut self, mut ids: Vec<u64>) {
        if ids.capacity() > 0 {
            ids.clear();
            self.spare_ids.push(ids);
        }
    }

    fn drop_class_member(&mut self, bits: u64) {
        let i = self.class_index(bits).expect("flow's class exists");
        self.classes[i].members -= 1;
        if self.classes[i].members == 0 {
            let class = self.classes.remove(i);
            self.recycle_ids(class.ids);
        }
    }

    /// Drop from `ids` every flow that is no longer a live member of
    /// class `bits` (finished, canceled or reaped).
    fn retain_live_members(&self, bits: u64, ids: &mut Vec<u64>) {
        let base = self.base_id;
        ids.retain(|&id| {
            id.checked_sub(base)
                .and_then(|i| self.flows.get(i as usize))
                .and_then(Option::as_ref)
                .is_some_and(|f| !f.done && f.cap_bps.map(f64::to_bits) == Some(bits))
        });
    }

    /// Whether `(vf, id)` is the current finish tag of a live `Virtual`
    /// flow, rather than a stale queue entry.
    fn virt_tag_live(&self, vf: f64, id: u64) -> bool {
        self.flow_ref(id).is_some_and(|f| {
            !f.done
                && matches!(f.phase, Phase::Virtual { v_finish }
                    if v_finish.to_bits() == vf.to_bits())
        })
    }

    /// Whether `(fin, id)` is the current finish tag of a live `Capped` flow.
    fn cap_tag_live(&self, fin: SimTime, id: u64) -> bool {
        self.flow_ref(id).is_some_and(|f| {
            !f.done && matches!(f.phase, Phase::Capped { fin: f2, .. } if f2 == fin)
        })
    }

    /// Validate the virtual queue's top, discarding stale entries; returns
    /// the live minimum without popping it.
    fn clean_virt_top(&mut self) -> Option<(f64, u64)> {
        while let Some((VKey(vf), id)) = self.virt_heap.peek() {
            if self.virt_tag_live(vf, id) {
                return Some((vf, id));
            }
            self.virt_heap.pop();
        }
        None
    }

    /// Validate the capped queue's top, discarding stale entries.
    fn clean_cap_top(&mut self) -> Option<(SimTime, u64)> {
        while let Some((fin, id)) = self.cap_heap.peek() {
            if self.cap_tag_live(fin, id) {
                return Some((fin, id));
            }
            self.cap_heap.pop();
        }
        None
    }

    /// Pop every flow whose completion boundary has been reached:
    /// `Virtual` flows with less than [`DONE_EPS_BITS`] of virtual
    /// service left, `Capped` flows whose fixed instant has arrived.
    fn settle_completions(&mut self, now: SimTime) {
        while let Some((vf, id)) = self.clean_virt_top() {
            if vf - self.v_now < DONE_EPS_BITS {
                self.virt_heap.pop();
                self.mark_done(id);
            } else {
                break;
            }
        }
        while let Some((fin, id)) = self.clean_cap_top() {
            if fin <= now {
                self.cap_heap.pop();
                self.mark_done(id);
            } else {
                break;
            }
        }
    }

    /// Recompute the water level from the class aggregates and lazily
    /// re-level any class the level crossed. O(classes) plus O(size) for
    /// each class that actually flipped sides.
    fn relevel(&mut self, now: SimTime) {
        if self.active == 0 {
            // Idle: rebase the busy period so V stays at transfer-size
            // magnitudes, and drop whatever stale entries remain.
            self.level = 0.0;
            self.v_now = 0.0;
            self.virt_heap.clear();
            self.cap_heap.clear();
            // A class goes with its last member, so none is left.
            debug_assert!(self.classes.is_empty());
            return;
        }
        // Water-fill over class aggregates, cap-ascending: a class whose
        // cap is below the running fair share is saturated (members
        // pinned at cap) and surrenders its slack to everyone above.
        let mut budget = self.capacity_bps;
        let mut n_rem = self.active;
        let mut boundary = u64::MAX; // first cap (as bits) NOT saturated
        for class in &self.classes {
            let fair = budget / n_rem as f64;
            if class.cap < fair {
                budget -= class.cap * class.members as f64;
                n_rem -= class.members;
            } else {
                boundary = class.cap.to_bits();
                break;
            }
        }
        self.level = if n_rem > 0 {
            budget / n_rem as f64
        } else {
            f64::INFINITY
        };
        // Flip classes whose side changed.
        self.flips.clear();
        let mut flips = std::mem::take(&mut self.flips);
        for class in &self.classes {
            let bits = class.cap.to_bits();
            if class.saturated != (bits < boundary) {
                flips.push(bits);
            }
        }
        for &bits in &flips {
            self.flip_class(bits, now);
        }
        self.flips = flips;
    }

    /// Move every member of class `bits` across the water level: charge
    /// the service accrued in the old regime, then re-base in the new
    /// one. Members already on the target side (fresh joiners) and stale
    /// ids are skipped; stale ids are dropped while we're here. A member
    /// that finishes on the way may take the class with it.
    fn flip_class(&mut self, bits: u64, now: SimTime) {
        let (cap, to_sat, mut ids) = {
            let class = self.class_mut(bits).expect("flipping a live class");
            class.saturated = !class.saturated;
            (class.cap, class.saturated, std::mem::take(&mut class.ids))
        };
        self.retain_live_members(bits, &mut ids);
        for &id in &ids {
            self.relevel_member(id, cap, to_sat, now);
        }
        match self.class_mut(bits) {
            Some(class) => class.ids = ids,
            None => self.recycle_ids(ids),
        }
    }

    /// Re-base one capped flow on the other side of the water level.
    fn relevel_member(&mut self, id: u64, cap: Bps, to_sat: bool, now: SimTime) {
        let v_now = self.v_now;
        let base = self.base_id;
        let Some(flow) = self
            .flows
            .get_mut((id - base) as usize)
            .and_then(Option::as_mut)
        else {
            return;
        };
        match (flow.phase, to_sat) {
            (Phase::Virtual { v_finish }, true) => {
                let rem = v_finish - v_now;
                if rem < DONE_EPS_BITS {
                    flow.phase = Phase::Capped { since: now, fin: now };
                    self.virtual_n -= 1;
                    self.mark_done(id);
                } else {
                    flow.remaining_bits = rem;
                    let fin = now.saturating_add(ceil_ns(rem / cap));
                    flow.phase = Phase::Capped { since: now, fin };
                    self.virtual_n -= 1;
                    self.cap_heap.push(fin, id);
                }
            }
            (Phase::Capped { since, .. }, false) => {
                let dt = now.duration_since(since).as_secs_f64();
                let rem = flow.remaining_bits - cap * dt;
                if rem < DONE_EPS_BITS {
                    flow.phase = Phase::Virtual { v_finish: v_now };
                    self.virtual_n += 1;
                    self.mark_done(id);
                } else {
                    flow.remaining_bits = rem;
                    let v_finish = v_now + rem;
                    flow.phase = Phase::Virtual { v_finish };
                    self.virtual_n += 1;
                    self.virt_heap.push(VKey(v_finish), id);
                }
            }
            // Already on the target side (a joiner re-based by
            // `place_joiner`, or a double flip within one event).
            _ => {}
        }
    }

    /// A freshly joined capped flow enters as `Virtual` (zero service so
    /// far); if its class sits below the water level after the re-level,
    /// pin it at its cap now.
    fn place_joiner(&mut self, id: u64, now: SimTime) {
        let Some(flow) = self.flow_ref(id) else { return };
        if flow.done {
            return;
        }
        let Some(cap) = flow.cap_bps else { return };
        let saturated = self
            .class_index(cap.to_bits())
            .is_ok_and(|i| self.classes[i].saturated);
        if saturated && matches!(flow.phase, Phase::Virtual { .. }) {
            self.relevel_member(id, cap, true, now);
        }
    }

    /// Earliest projected completion among live flows: the virtual
    /// heap's minimum translated through the current level, against the
    /// capped heap's fixed minimum.
    fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.maybe_compact_heaps();
        let virt = self.clean_virt_top().and_then(|(vf, _)| {
            if self.level > 0.0 && self.level.is_finite() {
                Some(now.saturating_add(ceil_ns((vf - self.v_now) / self.level)))
            } else {
                None
            }
        });
        let capped = self.clean_cap_top().map(|(fin, _)| fin.max(now));
        match (virt, capped) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Rebuild a heap once stale entries outnumber live flows (plus
    /// slack), bounding memory under cancel/flip-heavy churn. Thresholds
    /// compare against live counts, never slab occupancy.
    fn maybe_compact_heaps(&mut self) {
        if self.virt_heap.len() > 64 + 2 * self.virtual_n {
            let mut heap = std::mem::replace(&mut self.virt_heap, FinishQueue::new());
            heap.retain(|VKey(vf), id| self.virt_tag_live(vf, id));
            self.virt_heap = heap;
        }
        let capped_n = self.active - self.virtual_n;
        if self.cap_heap.len() > 64 + 2 * capped_n {
            let mut heap = std::mem::replace(&mut self.cap_heap, FinishQueue::new());
            heap.retain(|fin, id| self.cap_tag_live(fin, id));
            self.cap_heap = heap;
        }
    }

    /// Register a capped joiner in its rate class (creating the class at
    /// the current side of the water level if it is new) and compact the
    /// member list when stale ids dominate live ones.
    fn class_insert(&mut self, id: u64, cap: Bps) {
        let bits = cap.to_bits();
        let i = self.class_index(bits).unwrap_or_else(|i| {
            let ids = self.spare_ids.pop().unwrap_or_default();
            let class = CapClass {
                cap,
                members: 0,
                saturated: false,
                ids,
            };
            self.classes.insert(i, class);
            i
        });
        let class = &mut self.classes[i];
        class.members += 1;
        class.ids.push(id);
        if class.ids.len() > 64 + 2 * class.members {
            let mut ids = std::mem::take(&mut class.ids);
            self.retain_live_members(bits, &mut ids);
            self.classes[i].ids = ids;
        }
    }

    /// Drop a live (not done) flow from the accounting counters; the
    /// slab entry is handled separately by [`LinkState::take_flow`].
    fn forget_live(&mut self, flow: &Flow) {
        self.active -= 1;
        if matches!(flow.phase, Phase::Virtual { .. }) {
            self.virtual_n -= 1;
        }
        if let Some(cap) = flow.cap_bps {
            self.drop_class_member(cap.to_bits());
        }
    }
}

/// A capacity-limited pipe shared by concurrent transfers.
#[derive(Clone)]
pub struct FairShareLink {
    sim: Sim,
    st: Rc<RefCell<LinkState>>,
}

impl FairShareLink {
    /// Create a link with the given total capacity in bits/second.
    pub fn new(sim: &Sim, capacity_bps: Bps) -> FairShareLink {
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        FairShareLink {
            sim: sim.clone(),
            st: Rc::new(RefCell::new(LinkState {
                capacity_bps,
                flows: VecDeque::new(),
                base_id: 0,
                occupied: 0,
                active: 0,
                virtual_n: 0,
                classes: Vec::new(),
                spare_ids: Vec::new(),
                virt_heap: FinishQueue::new(),
                cap_heap: FinishQueue::new(),
                v_now: 0.0,
                level: 0.0,
                next_flow: 0,
                last_update: sim.now(),
                next: None,
                armed: None,
                finished: Vec::new(),
                flips: Vec::new(),
                wakers: Vec::new(),
                #[cfg(test)]
                timers_pending: (0, 0),
            })),
        }
    }

    /// Total capacity in bits/second.
    pub fn capacity_bps(&self) -> Bps {
        self.st.borrow().capacity_bps
    }

    /// Number of in-flight transfers. O(1): a live counter, not a scan.
    pub fn active_flows(&self) -> usize {
        self.st.borrow().active
    }

    /// Current rate of a hypothetical new uncapped flow, in bits/second —
    /// useful for instrumentation. O(1).
    pub fn fair_share_estimate(&self) -> Bps {
        let st = self.st.borrow();
        st.capacity_bps / (st.active + 1) as f64
    }

    /// Transfer `bytes` through the link, optionally capped at
    /// `per_flow_cap` bits/second. Completes when the last byte clears.
    /// Zero-byte transfers complete immediately.
    ///
    /// # Panics
    /// Panics if the cap is zero, negative or NaN. `+∞` is allowed and
    /// never binds.
    pub fn transfer(&self, bytes: u64, per_flow_cap: Option<Bps>) -> Transfer {
        // `!(cap > 0.0)` also catches NaN, whose bit pattern would break
        // the "positive floats sort like their bits" key of `classes`.
        if let Some(cap) = per_flow_cap {
            assert!(cap > 0.0, "per-flow cap must be positive, got {cap}");
        }
        Transfer {
            link: self.clone(),
            bytes,
            cap: per_flow_cap,
            flow: None,
        }
    }

    /// Process one state change: charge the elapsed interval into V,
    /// settle completions, re-fill the water level, place a just-joined
    /// flow, wake finishers (in flow-id order), and reserve the next
    /// completion's place in the event order, arming a timer for it if
    /// the armed one would fire too late.
    fn on_change(&self, joined: Option<u64>) {
        let (mut wakers, push) = {
            let mut st = self.st.borrow_mut();
            let now = self.sim.now();
            st.advance_to(now);
            st.settle_completions(now);
            st.relevel(now);
            if let Some(id) = joined {
                st.place_joiner(id, now);
            }
            let mut finished = std::mem::take(&mut st.finished);
            finished.sort_unstable();
            let mut wakers = std::mem::take(&mut st.wakers);
            wakers.extend(
                finished
                    .iter()
                    .filter_map(|&id| st.flow_mut(id).and_then(|f| f.waker.take())),
            );
            finished.clear();
            st.finished = finished;
            // The sequence number is drawn whether or not a timer is
            // pushed: it is this change's place among the timers of its
            // instant, and everyone else's numbers depend on it.
            st.next = st
                .next_completion(now)
                .map(|at| (at, self.sim.next_seq()));
            let push = match (st.next, st.armed) {
                (Some(next), Some(armed)) if next.0 >= armed.0 => None,
                (next, _) => next,
            };
            (wakers, push)
        };
        for w in wakers.drain(..) {
            w.wake();
        }
        self.st.borrow_mut().wakers = wakers;
        if let Some(next) = push {
            self.arm(next);
        }
    }

    /// Push a timer for the reserved position `at` and make it the armed
    /// one; whatever was armed before is superseded and will be ignored.
    fn arm(&self, at: (SimTime, u64)) {
        {
            let mut st = self.st.borrow_mut();
            #[cfg(test)]
            {
                st.timers_pending.0 += 1;
                st.timers_pending.1 += usize::from(st.armed.is_some());
            }
            st.armed = Some(at);
        }
        self.sim.push_link_timer(at, LinkTimer(self.st.clone()));
    }

    /// The timer pushed for position `fired` went off.
    fn on_timer(&self, fired: (SimTime, u64)) {
        let next = {
            let mut st = self.st.borrow_mut();
            #[cfg(test)]
            {
                st.timers_pending.0 -= 1;
                st.timers_pending.1 -= usize::from(st.armed != Some(fired));
            }
            if st.armed != Some(fired) {
                return; // superseded by a timer armed for an earlier instant
            }
            st.armed = None;
            st.next
        };
        match next {
            // Nothing changed since this position was reserved: it is the
            // completion event.
            Some(next) if next == fired => self.on_change(None),
            // The completion moved later (or to a later place in this
            // instant): go there, to exactly the reserved position.
            Some(next) => self.arm(next),
            None => {}
        }
    }

    fn add_flow(&self, bits: f64, cap: Option<Bps>, waker: Waker) -> u64 {
        let id = {
            let mut st = self.st.borrow_mut();
            let now = self.sim.now();
            st.advance_to(now);
            let id = st.next_flow;
            st.next_flow += 1;
            // Every flow enters as `Virtual` with zero accrued service;
            // `place_joiner` pins it at its cap right after the re-level
            // if its class sits below the water level.
            let v_finish = st.v_now + bits;
            st.flows.push_back(Some(Flow {
                remaining_bits: bits,
                cap_bps: cap,
                phase: Phase::Virtual { v_finish },
                waker: Some(waker),
                done: false,
            }));
            st.occupied += 1;
            st.active += 1;
            st.virtual_n += 1;
            st.virt_heap.push(VKey(v_finish), id);
            if let Some(cap) = cap {
                st.class_insert(id, cap);
            }
            id
        };
        self.on_change(Some(id));
        id
    }

    fn poll_flow(&self, id: u64, waker: &Waker) -> bool {
        let mut st = self.st.borrow_mut();
        match st.flow_mut(id) {
            Some(f) if f.done => {
                st.take_flow(id);
                true
            }
            Some(f) => {
                f.waker = Some(waker.clone());
                false
            }
            None => true, // already reaped
        }
    }

    fn cancel_flow(&self, id: u64) {
        let removed = {
            let mut st = self.st.borrow_mut();
            match st.take_flow(id) {
                Some(flow) => {
                    if !flow.done {
                        st.forget_live(&flow);
                    }
                    true
                }
                None => false,
            }
        };
        if removed {
            self.on_change(None);
        }
    }

    /// How many of this link's callbacks now in the wheel will be heard
    /// when they fire. The armed-timer rule says at most one.
    #[cfg(test)]
    fn live_timers(&self) -> usize {
        let (pending, superseded) = self.st.borrow().timers_pending;
        pending - superseded
    }

    /// What is wrong with the rate classes, one line per fault. Classes
    /// ascend by cap and exist exactly while they have live members;
    /// `members` counts those, and `ids` lists each once and lists no
    /// flow of another cap; a spare id list is empty.
    #[cfg(test)]
    fn class_faults(&self) -> Vec<String> {
        let st = self.st.borrow();
        let mut faults = Vec::new();
        let mut live = std::collections::BTreeMap::<u64, usize>::new();
        for f in st.flows.iter().flatten().filter(|f| !f.done) {
            if let Some(cap) = f.cap_bps {
                *live.entry(cap.to_bits()).or_default() += 1;
            }
        }
        let classes: Vec<(u64, usize)> =
            st.classes.iter().map(|c| (c.cap.to_bits(), c.members)).collect();
        if classes != live.into_iter().collect::<Vec<_>>() {
            faults.push(format!("classes {classes:?} do not match the live capped flows"));
        }
        for class in &st.classes {
            let mut listed: Vec<u64> = Vec::new();
            for &id in &class.ids {
                match st.flow_ref(id) {
                    Some(f) if f.cap_bps.map(f64::to_bits) != Some(class.cap.to_bits()) => {
                        faults.push(format!("class {} lists flow {id} of another cap", class.cap));
                    }
                    Some(f) if !f.done => listed.push(id),
                    _ => {}
                }
            }
            if listed.len() != class.members {
                let members = class.members;
                faults.push(format!("class {} lists {listed:?} for {members} members", class.cap));
            }
        }
        if st.spare_ids.iter().any(|ids| !ids.is_empty()) {
            faults.push("a spare id list is not empty".to_string());
        }
        faults
    }

    /// Rates currently allocated to live flows, as `(id, rate, cap)` —
    /// for the water-filling invariant tests.
    #[cfg(test)]
    fn snapshot_rates(&self) -> Vec<(u64, f64, Option<f64>)> {
        let st = self.st.borrow();
        (st.base_id..st.base_id + st.flows.len() as u64)
            .filter_map(|id| {
                let f = st.flow_ref(id)?;
                if f.done {
                    return None;
                }
                let rate = match f.phase {
                    Phase::Virtual { .. } => st.level,
                    Phase::Capped { .. } => f.cap_bps.expect("capped flow has a cap"),
                };
                Some((id, rate, f.cap_bps))
            })
            .collect()
    }
}

/// A link's completion timer as the executor holds it: the link's state
/// itself, so arming one allocates nothing.
pub(crate) struct LinkTimer(Rc<RefCell<LinkState>>);

impl LinkTimer {
    /// The timer went off at `fired`, the `(at, seq)` of its wheel entry:
    /// exactly the position `FairShareLink::arm` reserved.
    pub(crate) fn fire(self, sim: &Sim, fired: (SimTime, u64)) {
        FairShareLink {
            sim: sim.clone(),
            st: self.0,
        }
        .on_timer(fired);
    }
}

/// In-flight transfer future returned by [`FairShareLink::transfer`].
///
/// Dropping the future cancels the transfer and returns its share to the
/// other flows.
pub struct Transfer {
    link: FairShareLink,
    bytes: u64,
    cap: Option<Bps>,
    flow: Option<u64>,
}

impl Future for Transfer {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.flow {
            None => {
                if this.bytes == 0 {
                    this.flow = Some(u64::MAX); // sentinel: completed
                    return Poll::Ready(());
                }
                let id =
                    this.link
                        .add_flow(this.bytes as f64 * 8.0, this.cap, cx.waker().clone());
                // The flow may already be done if rates were huge; check.
                if this.link.poll_flow(id, cx.waker()) {
                    this.flow = Some(u64::MAX);
                    return Poll::Ready(());
                }
                this.flow = Some(id);
                Poll::Pending
            }
            Some(u64::MAX) => Poll::Ready(()),
            Some(id) => {
                if this.link.poll_flow(id, cx.waker()) {
                    this.flow = Some(u64::MAX);
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Transfer {
    fn drop(&mut self) {
        if let Some(id) = self.flow {
            if id != u64::MAX {
                self.link.cancel_flow(id);
            }
        }
    }
}

/// O(n)-rescan reference allocator, retained as the differential oracle
/// for the heap-and-bucket machinery above. It shares the production
/// allocator's per-flow accounting formulas — the same V(t) advance, the
/// same phase-transition arithmetic in the same operation order, the same
/// ceil-to-nanosecond rounding — but recomputes everything by scanning
/// every flow on every event: no heaps, no rate classes, no lazy
/// staleness. Any disagreement in completion nanoseconds therefore
/// indicts the incremental bookkeeping, not floating-point noise.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    struct RefFlow {
        remaining_bits: f64,
        cap_bps: Option<Bps>,
        phase: Phase,
        waker: Option<Waker>,
        done: bool,
    }

    struct RefState {
        capacity_bps: Bps,
        flows: Vec<Option<RefFlow>>,
        active: usize,
        virtual_n: usize,
        v_now: f64,
        level: Bps,
        last_update: SimTime,
        epoch: u64,
    }

    impl RefState {
        fn advance_to(&mut self, now: SimTime) {
            let dt = now.duration_since(self.last_update).as_secs_f64();
            self.last_update = now;
            if dt > 0.0 && self.virtual_n > 0 && self.level > 0.0 {
                self.v_now += self.level * dt;
            }
        }
    }

    #[derive(Clone)]
    pub(super) struct RefLink {
        sim: Sim,
        st: Rc<RefCell<RefState>>,
    }

    impl RefLink {
        pub(super) fn new(sim: &Sim, capacity_bps: Bps) -> RefLink {
            RefLink {
                sim: sim.clone(),
                st: Rc::new(RefCell::new(RefState {
                    capacity_bps,
                    flows: Vec::new(),
                    active: 0,
                    virtual_n: 0,
                    v_now: 0.0,
                    level: 0.0,
                    last_update: sim.now(),
                    epoch: 0,
                })),
            }
        }

        pub(super) fn transfer(&self, bytes: u64, cap: Option<Bps>) -> RefTransfer {
            RefTransfer {
                link: self.clone(),
                bytes,
                cap,
                flow: None,
            }
        }

        fn on_change(&self) {
            let (wakers, next) = {
                let mut st = self.st.borrow_mut();
                let now = self.sim.now();
                st.advance_to(now);
                let mut finished: Vec<u64> = Vec::new();
                // Settle: full scan for reached completion boundaries.
                let v_now = st.v_now;
                for (i, slot) in st.flows.iter_mut().enumerate() {
                    let Some(f) = slot.as_mut() else { continue };
                    if f.done {
                        continue;
                    }
                    let hit = match f.phase {
                        Phase::Virtual { v_finish } => v_finish - v_now < DONE_EPS_BITS,
                        Phase::Capped { fin, .. } => fin <= now,
                    };
                    if hit {
                        f.done = true;
                        f.remaining_bits = 0.0;
                        finished.push(i as u64);
                    }
                }
                st.active = st
                    .flows
                    .iter()
                    .flatten()
                    .filter(|f| !f.done)
                    .count();
                // Re-level: full water-fill from scratch, then convert
                // every flow sitting on the wrong side of the level.
                if st.active == 0 {
                    st.level = 0.0;
                    st.v_now = 0.0;
                } else {
                    let mut classes: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
                    for f in st.flows.iter().flatten() {
                        if !f.done {
                            if let Some(c) = f.cap_bps {
                                classes.entry(c.to_bits()).or_insert((c, 0)).1 += 1;
                            }
                        }
                    }
                    let mut budget = st.capacity_bps;
                    let mut n_rem = st.active;
                    let mut boundary = u64::MAX;
                    for (&bits, &(cap, m)) in classes.iter() {
                        let fair = budget / n_rem as f64;
                        if cap < fair {
                            budget -= cap * m as f64;
                            n_rem -= m;
                        } else {
                            boundary = bits;
                            break;
                        }
                    }
                    st.level = if n_rem > 0 {
                        budget / n_rem as f64
                    } else {
                        f64::INFINITY
                    };
                    let v_now = st.v_now;
                    for (i, slot) in st.flows.iter_mut().enumerate() {
                        let Some(f) = slot.as_mut() else { continue };
                        if f.done {
                            continue;
                        }
                        let Some(cap) = f.cap_bps else { continue };
                        let to_sat = cap.to_bits() < boundary;
                        match (f.phase, to_sat) {
                            (Phase::Virtual { v_finish }, true) => {
                                let rem = v_finish - v_now;
                                if rem < DONE_EPS_BITS {
                                    f.done = true;
                                    f.remaining_bits = 0.0;
                                    finished.push(i as u64);
                                } else {
                                    f.remaining_bits = rem;
                                    let fin = now.saturating_add(ceil_ns(rem / cap));
                                    f.phase = Phase::Capped { since: now, fin };
                                }
                            }
                            (Phase::Capped { since, .. }, false) => {
                                let dt = now.duration_since(since).as_secs_f64();
                                let rem = f.remaining_bits - cap * dt;
                                if rem < DONE_EPS_BITS {
                                    f.done = true;
                                    f.remaining_bits = 0.0;
                                    finished.push(i as u64);
                                } else {
                                    f.remaining_bits = rem;
                                    f.phase = Phase::Virtual { v_finish: v_now + rem };
                                }
                            }
                            _ => {}
                        }
                    }
                    st.virtual_n = st
                        .flows
                        .iter()
                        .flatten()
                        .filter(|f| !f.done && matches!(f.phase, Phase::Virtual { .. }))
                        .count();
                    st.active = st
                        .flows
                        .iter()
                        .flatten()
                        .filter(|f| !f.done)
                        .count();
                }
                finished.sort_unstable();
                let wakers: Vec<Waker> = finished
                    .iter()
                    .filter_map(|&i| {
                        st.flows
                            .get_mut(i as usize)
                            .and_then(Option::as_mut)
                            .and_then(|f| f.waker.take())
                    })
                    .collect();
                st.epoch += 1;
                // Next completion: full scan.
                let mut best: Option<SimTime> = None;
                let level = st.level;
                let v_now = st.v_now;
                for f in st.flows.iter().flatten() {
                    if f.done {
                        continue;
                    }
                    let cand = match f.phase {
                        Phase::Virtual { v_finish } => {
                            if level > 0.0 && level.is_finite() {
                                now.saturating_add(ceil_ns((v_finish - v_now) / level))
                            } else {
                                continue;
                            }
                        }
                        Phase::Capped { fin, .. } => fin.max(now),
                    };
                    best = Some(best.map_or(cand, |b: SimTime| b.min(cand)));
                }
                (wakers, best.map(|t| (t, st.epoch)))
            };
            for w in wakers {
                w.wake();
            }
            if let Some((at, epoch)) = next {
                let link = self.clone();
                self.sim.call_at(at, move || link.on_timer(epoch));
            }
        }

        fn on_timer(&self, epoch: u64) {
            if self.st.borrow().epoch != epoch {
                return;
            }
            self.on_change();
        }

        fn add_flow(&self, bits: f64, cap: Option<Bps>, waker: Waker) -> u64 {
            {
                let mut st = self.st.borrow_mut();
                let now = self.sim.now();
                st.advance_to(now);
                let v_finish = st.v_now + bits;
                st.flows.push(Some(RefFlow {
                    remaining_bits: bits,
                    cap_bps: cap,
                    phase: Phase::Virtual { v_finish },
                    waker: Some(waker),
                    done: false,
                }));
                st.active += 1;
                st.virtual_n += 1;
            }
            let id = self.st.borrow().flows.len() as u64 - 1;
            self.on_change();
            id
        }

        fn poll_flow(&self, id: u64, waker: &Waker) -> bool {
            let mut st = self.st.borrow_mut();
            match st.flows.get_mut(id as usize).and_then(Option::as_mut) {
                Some(f) if f.done => {
                    st.flows[id as usize] = None;
                    true
                }
                Some(f) => {
                    f.waker = Some(waker.clone());
                    false
                }
                None => true,
            }
        }

        fn cancel_flow(&self, id: u64) {
            let removed = {
                let mut st = self.st.borrow_mut();
                match st.flows.get_mut(id as usize).and_then(Option::take) {
                    Some(flow) => {
                        if !flow.done {
                            st.active -= 1;
                            if matches!(flow.phase, Phase::Virtual { .. }) {
                                st.virtual_n -= 1;
                            }
                        }
                        true
                    }
                    None => false,
                }
            };
            if removed {
                self.on_change();
            }
        }
    }

    pub(super) struct RefTransfer {
        link: RefLink,
        bytes: u64,
        cap: Option<Bps>,
        flow: Option<u64>,
    }

    impl Future for RefTransfer {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            match this.flow {
                None => {
                    if this.bytes == 0 {
                        this.flow = Some(u64::MAX);
                        return Poll::Ready(());
                    }
                    let id = this.link.add_flow(
                        this.bytes as f64 * 8.0,
                        this.cap,
                        cx.waker().clone(),
                    );
                    if this.link.poll_flow(id, cx.waker()) {
                        this.flow = Some(u64::MAX);
                        return Poll::Ready(());
                    }
                    this.flow = Some(id);
                    Poll::Pending
                }
                Some(u64::MAX) => Poll::Ready(()),
                Some(id) => {
                    if this.link.poll_flow(id, cx.waker()) {
                        this.flow = Some(u64::MAX);
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                }
            }
        }
    }

    impl Drop for RefTransfer {
        fn drop(&mut self) {
            if let Some(id) = self.flow {
                if id != u64::MAX {
                    self.link.cancel_flow(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Recorder;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn lone_transfer_takes_bytes_over_capacity() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0)); // 1 MB/s
        let l = link.clone();
        sim.block_on(async move {
            l.transfer(1_000_000, None).await;
        });
        // 1 MB at 1 MB/s = 1 s (within rounding).
        let t = sim.now().as_secs_f64();
        assert!((t - 1.0).abs() < 1e-6, "took {t}s");
    }

    #[test]
    fn per_flow_cap_limits_lone_transfer() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(1000.0));
        let l = link.clone();
        sim.block_on(async move {
            l.transfer(1_000_000, Some(mbps(8.0))).await;
        });
        let t = sim.now().as_secs_f64();
        assert!((t - 1.0).abs() < 1e-6, "took {t}s");
    }

    #[test]
    fn two_flows_share_fairly() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0));
        for _ in 0..2 {
            let l = link.clone();
            sim.spawn(async move {
                l.transfer(1_000_000, None).await;
            });
        }
        sim.run();
        // Two 1 MB transfers over a 1 MB/s pipe, concurrent: 2 s each.
        let t = sim.now().as_secs_f64();
        assert!((t - 2.0).abs() < 1e-6, "took {t}s");
    }

    #[test]
    fn twenty_flows_get_one_twentieth() {
        // The paper's packing experiment shape: per-flow rate collapses
        // proportionally to the number of co-located functions.
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(574.0));
        let finish = Rc::new(RefCell::new(Vec::new()));
        for i in 0..20 {
            let l = link.clone();
            let s = sim.clone();
            let fin = finish.clone();
            sim.spawn(async move {
                l.transfer(10_000_000, Some(mbps(538.0))).await;
                fin.borrow_mut().push((i, s.now()));
            });
        }
        sim.run();
        // Each flow: 80 Mbit at 574/20 = 28.7 Mbps -> 2.787 s.
        let want = 80.0 / 28.7;
        for (_, t) in finish.borrow().iter() {
            assert!((t.as_secs_f64() - want).abs() < 1e-3, "{t}");
        }
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0)); // 1 MB/s
        let done_a = Rc::new(Cell::new(0.0f64));
        let da = done_a.clone();
        let la = link.clone();
        let sa = sim.clone();
        sim.spawn(async move {
            la.transfer(1_000_000, None).await;
            da.set(sa.now().as_secs_f64());
        });
        let lb = link.clone();
        let sb = sim.clone();
        let done_b = Rc::new(Cell::new(0.0f64));
        let db = done_b.clone();
        sim.spawn(async move {
            sb.sleep(secs(0.5)).await;
            lb.transfer(500_000, None).await;
            db.set(sb.now().as_secs_f64());
        });
        sim.run();
        // A alone for 0.5 s moves 500 KB; then both share 0.5 MB/s.
        // A's remaining 500 KB takes 1 s -> done at 1.5 s.
        // B's 500 KB at 0.5 MB/s while sharing... B finishes when A does
        // (both have 500 KB left at t=0.5): done at 1.5 s too.
        assert!((done_a.get() - 1.5).abs() < 1e-6, "A at {}", done_a.get());
        assert!((done_b.get() - 1.5).abs() < 1e-6, "B at {}", done_b.get());
    }

    #[test]
    fn capped_flow_gives_slack_to_uncapped() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(10.0));
        // Flow A capped at 2 Mbps, flow B uncapped -> B gets 8 Mbps.
        let done_b = Rc::new(Cell::new(0.0f64));
        let la = link.clone();
        sim.spawn(async move {
            la.transfer(10_000_000, Some(mbps(2.0))).await; // 80 Mb / 2 Mbps = 40 s
        });
        let lb = link.clone();
        let sb = sim.clone();
        let db = done_b.clone();
        sim.spawn(async move {
            lb.transfer(1_000_000, None).await; // 8 Mb / 8 Mbps = 1 s
            db.set(sb.now().as_secs_f64());
        });
        sim.run();
        assert!((done_b.get() - 1.0).abs() < 1e-6, "B at {}", done_b.get());
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(1.0));
        let l = link.clone();
        sim.block_on(async move {
            l.transfer(0, None).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn canceled_transfer_returns_bandwidth() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0)); // 1 MB/s
        let s = sim.clone();
        let la = link.clone();
        // A transfer that gets dropped via timeout at t=0.5s.
        sim.spawn(async move {
            let got = s
                .timeout(secs(0.5), la.transfer(10_000_000, None))
                .await;
            assert!(got.is_none());
        });
        let done_b = Rc::new(Cell::new(0.0f64));
        let db = done_b.clone();
        let lb = link.clone();
        let sb = sim.clone();
        sim.spawn(async move {
            lb.transfer(1_000_000, None).await;
            db.set(sb.now().as_secs_f64());
        });
        sim.run();
        // B shares until t=0.5 (moves 250 KB), then gets the full link:
        // remaining 750 KB at 1 MB/s -> done at 1.25 s.
        assert!(
            (done_b.get() - 1.25).abs() < 1e-6,
            "B at {}",
            done_b.get()
        );
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn sequential_transfers_full_rate_each() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0));
        let l = link.clone();
        sim.block_on(async move {
            for _ in 0..3 {
                l.transfer(1_000_000, None).await;
            }
        });
        let t = sim.now().as_secs_f64();
        assert!((t - 3.0).abs() < 1e-5, "took {t}s");
    }

    #[test]
    fn heavy_churn_with_mixed_caps_stays_fair() {
        // Exercises the lazy structures: staggered joins, cancels and
        // completions (stale heap/class entries), and enough turnover to
        // trigger compaction.
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(100.0));
        for i in 0..60u64 {
            let l = link.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(i * 7)).await;
                let cap = if i % 3 == 0 { Some(mbps(5.0)) } else { None };
                if i % 5 == 0 {
                    // Some transfers are abandoned mid-flight.
                    s.timeout(SimDuration::from_millis(40), l.transfer(2_000_000, cap))
                        .await;
                } else {
                    l.transfer(200_000, cap).await;
                }
            });
        }
        sim.run();
        assert_eq!(link.active_flows(), 0);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn churn_replays_byte_identically() {
        fn run() -> String {
            let sim = Sim::new(7);
            let link = FairShareLink::new(&sim, mbps(80.0));
            let log = Rc::new(RefCell::new(String::new()));
            for i in 0..25u64 {
                let l = link.clone();
                let s = sim.clone();
                let log = log.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_millis(i * 3)).await;
                    let cap = if i % 2 == 0 { Some(mbps(3.0)) } else { None };
                    l.transfer(100_000 + i * 10_000, cap).await;
                    log.borrow_mut()
                        .push_str(&format!("{i}@{}\n", s.now().as_nanos()));
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mbps(1.0), 1e6);
        assert_eq!(gbps(1.0), 1e9);
        assert_eq!(mbytes_per_sec(1.0), 8e6);
    }

    #[test]
    fn capped_class_releveled_when_water_level_crosses() {
        // Two flows capped at 3 Mbps on an 8 Mbps link run saturated
        // (fair share 4 > cap 3). Two uncapped joiners at t=1s push the
        // water level to 2 Mbps — below the cap — so the class must be
        // re-leveled onto virtual time, and back once the joiners drain.
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0));
        let capped_done = Rc::new(RefCell::new(Vec::new()));
        let open_done = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let l = link.clone();
            let s = sim.clone();
            let fin = capped_done.clone();
            sim.spawn(async move {
                l.transfer(3_000_000, Some(mbps(3.0))).await; // 24 Mb
                fin.borrow_mut().push(s.now().as_secs_f64());
            });
        }
        for _ in 0..2 {
            let l = link.clone();
            let s = sim.clone();
            let fin = open_done.clone();
            sim.spawn(async move {
                s.sleep(secs(1.0)).await;
                l.transfer(125_000, None).await; // 1 Mb
                fin.borrow_mut().push(s.now().as_secs_f64());
            });
        }
        sim.run();
        // Uncapped: 1 Mb at level 8/4 = 2 Mbps -> done at 1.5 s.
        for &t in open_done.borrow().iter() {
            assert!((t - 1.5).abs() < 1e-6, "uncapped at {t}");
        }
        // Capped: 3 Mbps for 1 s (21 Mb left), 2 Mbps for 0.5 s (20 Mb
        // left), then 3 Mbps again: done at 1.5 + 20/3 s.
        let want = 1.5 + 20.0 / 3.0;
        for &t in capped_done.borrow().iter() {
            assert!((t - want).abs() < 1e-6, "capped at {t}, want {want}");
        }
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn twenty_thousand_flow_fan_in_completes() {
        // Scale smoke for the heap path (the benches push this to 1M in
        // release mode): staggered joins, mixed caps, all must drain.
        let sim = Sim::new(3);
        let link = FairShareLink::new(&sim, gbps(10.0));
        let done = Rc::new(Cell::new(0u32));
        for i in 0..20_000u64 {
            let l = link.clone();
            let s = sim.clone();
            let d = done.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(i * 11)).await;
                let cap = if i % 4 == 0 { Some(mbps(10.0)) } else { None };
                l.transfer(100_000, cap).await;
                d.set(d.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 20_000);
        assert_eq!(link.active_flows(), 0);
        assert!((link.fair_share_estimate() - gbps(10.0)).abs() < 1.0);
    }

    /// One randomized transfer in a churn schedule.
    #[derive(Debug, Clone)]
    struct ChurnOp {
        delay_us: u64,
        bytes: u64,
        cap_sel: u8,
        cancel_after_us: Option<u64>,
    }

    const CAP_FRACS: [f64; 5] = [0.02, 0.05, 0.1, 0.3, 1.25];

    fn cap_of(sel: u8, capacity: f64) -> Option<Bps> {
        if sel == 0 {
            None
        } else {
            Some(capacity * CAP_FRACS[(sel as usize - 1) % CAP_FRACS.len()])
        }
    }

    fn churn_op() -> impl Strategy<Value = ChurnOp> {
        (
            0u64..60_000,
            prop_oneof![Just(0u64), 1u64..3_000_000],
            0u8..6,
            prop_oneof![Just(None), (1u64..50_000).prop_map(Some)],
        )
            .prop_map(|(delay_us, bytes, cap_sel, cancel_after_us)| ChurnOp {
                delay_us,
                bytes,
                cap_sel,
                cancel_after_us,
            })
    }

    /// Anything that hands out awaitable transfers — lets one driver run
    /// the production link and the O(n) reference oracle identically.
    trait AnyLink: Clone + 'static {
        type Fut: Future<Output = ()> + 'static;
        fn xfer(&self, bytes: u64, cap: Option<Bps>) -> Self::Fut;
        /// Completion timers in the wheel that will act when they fire
        /// (not tracked for the oracle).
        fn live_timers(&self) -> usize {
            0
        }
        /// Broken bookkeeping invariants (none kept by the oracle).
        fn faults(&self) -> Vec<String> {
            Vec::new()
        }
    }

    impl AnyLink for FairShareLink {
        type Fut = Transfer;
        fn xfer(&self, bytes: u64, cap: Option<Bps>) -> Transfer {
            self.transfer(bytes, cap)
        }
        fn live_timers(&self) -> usize {
            FairShareLink::live_timers(self)
        }
        fn faults(&self) -> Vec<String> {
            self.class_faults()
        }
    }

    impl AnyLink for reference::RefLink {
        type Fut = reference::RefTransfer;
        fn xfer(&self, bytes: u64, cap: Option<Bps>) -> Self::Fut {
            self.transfer(bytes, cap)
        }
    }

    /// What a churn run observed: each op's completion instant in
    /// nanoseconds (None if canceled), the order in which ops and
    /// bystanders were woken as `(instant, who)`, and the recorder digest.
    #[derive(Debug, PartialEq)]
    struct ChurnRun {
        finished: Vec<Option<u64>>,
        wake_log: Vec<(u64, String)>,
        digest: String,
    }

    /// Drive a churn schedule. Each `(register_at, wake_at)` bystander
    /// sleeps until `register_at` and then registers the sleep that wakes
    /// it at `wake_at`, so its timer's sequence number lands among the
    /// link's. Every wake-up checks the one-live-timer rule and the rate
    /// classes' bookkeeping.
    fn run_churn<L: AnyLink>(
        link: L,
        sim: Sim,
        capacity: f64,
        ops: &[ChurnOp],
        bystanders: &[(u64, u64)],
    ) -> ChurnRun {
        let rec = Recorder::new();
        let results = Rc::new(RefCell::new(vec![None; ops.len()]));
        let wake_log = Rc::new(RefCell::new(Vec::new()));
        let woke = {
            let (link, sim, log) = (link.clone(), sim.clone(), wake_log.clone());
            move |who: String| {
                assert!(link.live_timers() <= 1, "{} live link timers", link.live_timers());
                assert_eq!(link.faults(), Vec::<String>::new());
                log.borrow_mut().push((sim.now().as_nanos(), who));
            }
        };
        for (i, op) in ops.iter().cloned().enumerate() {
            let l = link.clone();
            let s = sim.clone();
            let res = results.clone();
            let rec = rec.clone();
            let woke = woke.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(op.delay_us)).await;
                let cap = cap_of(op.cap_sel, capacity);
                let fut = l.xfer(op.bytes, cap);
                let finished = match op.cancel_after_us {
                    Some(c) => s.timeout(SimDuration::from_micros(c), fut).await.is_some(),
                    None => {
                        fut.await;
                        true
                    }
                };
                woke(format!("op{i}"));
                if finished {
                    res.borrow_mut()[i] = Some(s.now().as_nanos());
                    rec.record("completion_ns", s.now().as_nanos() as f64);
                } else {
                    rec.record("canceled_at_ns", s.now().as_nanos() as f64);
                }
            });
        }
        for (k, &(register_at, wake_at)) in bystanders.iter().enumerate() {
            let s = sim.clone();
            let woke = woke.clone();
            sim.spawn(async move {
                s.sleep_until(SimTime::from_nanos(register_at)).await;
                s.sleep_until(SimTime::from_nanos(wake_at)).await;
                woke(format!("bystander{k}"));
            });
        }
        sim.run();
        let finished = results.borrow().clone();
        let wake_log = wake_log.borrow().clone();
        ChurnRun {
            finished,
            wake_log,
            digest: rec.digest(),
        }
    }

    #[test]
    fn nonsense_caps_are_rejected_loudly() {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(8.0));
        for cap in [0.0, -1e6, f64::NAN] {
            let l = link.clone();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                drop(l.transfer(1_000_000, Some(cap)));
            }))
            .expect_err("a cap that is not > 0 must panic");
            let msg = err.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("per-flow cap must be positive"), "{msg}");
        }
        assert_eq!(link.active_flows(), 0);
        // +inf is a cap that never binds: two flows share like uncapped ones.
        for _ in 0..2 {
            let l = link.clone();
            sim.spawn(async move { l.transfer(1_000_000, Some(f64::INFINITY)).await });
        }
        sim.run();
        let t = sim.now().as_secs_f64();
        assert!((t - 2.0).abs() < 1e-6, "took {t}s");
        assert_eq!(link.active_flows(), 0);
    }

    /// Script steps for the finish-queue proptest.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Push(u8),
        Peek,
        Pop,
        /// Mark every id with `id % m == r` stale.
        Stale(u64, u64),
        /// Pop until the top is not stale (the `clean_*_top` loop).
        SkipStale,
        /// Drop every stale entry (the `maybe_compact_heaps` rebuild).
        Compact,
        Clear,
    }

    fn queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            (0u8..6).prop_map(QueueOp::Push),
            (0u8..6).prop_map(QueueOp::Push),
            (0u8..6).prop_map(QueueOp::Push),
            Just(QueueOp::Peek),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
            (2u64..5, 0u64..5).prop_map(|(m, r)| QueueOp::Stale(m, r % m)),
            Just(QueueOp::SkipStale),
            Just(QueueOp::Compact),
            (0u8..40).prop_map(|n| if n == 0 { QueueOp::Clear } else { QueueOp::Peek }),
        ]
    }

    proptest! {
        /// The finish queue against the binary heap it replaced: the same
        /// entry out of every peek and pop, through merges of the young
        /// heap into the run, stale skips, compaction and clears. Only six
        /// distinct keys, so almost every comparison is decided by the id.
        #[test]
        fn finish_queue_matches_binary_heap(
            ops in prop::collection::vec(queue_op(), 1..600),
        ) {
            let mut queue: FinishQueue<VKey> = FinishQueue::new();
            let mut oracle: BinaryHeap<Reverse<(VKey, u64)>> = BinaryHeap::new();
            let mut stale = std::collections::BTreeSet::new();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    QueueOp::Push(k) => {
                        // Bursts, so the young heap outgrows the run.
                        for _ in 0..=(k as usize * 9) {
                            let key = VKey(f64::from(k) * 0.5 + (next_id % 2) as f64);
                            queue.push(key, next_id);
                            oracle.push(Reverse((key, next_id)));
                            next_id += 1;
                        }
                    }
                    QueueOp::Peek => {
                        prop_assert_eq!(queue.peek(), oracle.peek().map(|&Reverse(e)| e));
                    }
                    QueueOp::Pop => {
                        prop_assert_eq!(queue.pop(), oracle.pop().map(|Reverse(e)| e));
                    }
                    QueueOp::Stale(m, r) => {
                        stale.extend((0..next_id).filter(|id| id % m == r));
                    }
                    QueueOp::SkipStale => {
                        while queue.peek().is_some_and(|(_, id)| stale.contains(&id)) {
                            prop_assert_eq!(queue.pop(), oracle.pop().map(|Reverse(e)| e));
                        }
                        prop_assert_eq!(queue.peek(), oracle.peek().map(|&Reverse(e)| e));
                    }
                    QueueOp::Compact => {
                        queue.retain(|_, id| !stale.contains(&id));
                        oracle.retain(|&Reverse((_, id))| !stale.contains(&id));
                    }
                    QueueOp::Clear => {
                        queue.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(queue.len(), oracle.len());
            }
            while let Some(Reverse(want)) = oracle.pop() {
                prop_assert_eq!(queue.pop(), Some(want));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Differential oracle: randomized churn through the virtual-time
        /// allocator and the O(n)-rescan reference must produce identical
        /// completion nanoseconds and identical recorder digests — and,
        /// with bystander sleeps due at the very instants flows finish on,
        /// identical wake-up orders: the reference schedules a callback on
        /// every change, so this is the argument that the armed timer
        /// leaves every live callback at its `(at, seq)`.
        ///
        /// The schedule runs twice, the second wave 1 000 s after the
        /// first, long after the link has drained: rate classes that empty
        /// and re-form within a busy period come from the churn, and every
        /// class of the first wave re-forms across idle in the second.
        #[test]
        fn virtual_time_matches_rescan_reference(
            capacity in prop_oneof![Just(8e6f64), Just(1e8), Just(5.74e8)],
            wave in prop::collection::vec(churn_op(), 1..30),
            leads in prop::collection::vec(
                prop_oneof![Just(0u64), Just(1), 2u64..2_000_000, Just(u64::MAX)], 1..8),
        ) {
            let again = wave.iter().map(|op| ChurnOp {
                delay_us: op.delay_us + 1_000_000_000,
                ..op.clone()
            });
            let ops: Vec<ChurnOp> = wave.iter().cloned().chain(again).collect();
            let production = |bystanders: &[(u64, u64)]| {
                let sim = Sim::new(11);
                let link = FairShareLink::new(&sim, capacity);
                let run = run_churn(link.clone(), sim, capacity, &ops, bystanders);
                (run, link.active_flows())
            };
            let reference = |bystanders: &[(u64, u64)]| {
                let sim = Sim::new(11);
                let link = reference::RefLink::new(&sim, capacity);
                run_churn(link, sim, capacity, &ops, bystanders)
            };
            let (alone, active) = production(&[]);
            prop_assert_eq!(&alone, &reference(&[]));
            prop_assert_eq!(active, 0);

            // Two bystanders per finished op, one due on the completion's
            // nanosecond and one a nanosecond early, their timers registered
            // anywhere from the same instant to time zero.
            let bystanders: Vec<(u64, u64)> = alone
                .finished
                .iter()
                .flatten()
                .zip(leads.iter().cycle())
                .flat_map(|(&t, &lead)| {
                    [(t.saturating_sub(lead), t), (t.saturating_sub(lead), t.saturating_sub(1))]
                })
                .collect();
            let (crowded, active) = production(&bystanders);
            prop_assert_eq!(&crowded, &reference(&bystanders));
            prop_assert_eq!(&crowded.finished, &alone.finished);
            prop_assert_eq!(active, 0);
        }

        /// Water-filling invariants, sampled mid-churn on the production
        /// allocator: rates never exceed capacity or a flow's cap, and
        /// every flow below the common level is pinned at its own cap
        /// (max-min dominance).
        #[test]
        fn water_filling_invariants_hold(
            capacity in prop_oneof![Just(8e6f64), Just(1e8), Just(5.74e8)],
            ops in prop::collection::vec(churn_op(), 1..30),
        ) {
            let sim = Sim::new(13);
            let link = FairShareLink::new(&sim, capacity);
            let violations = Rc::new(RefCell::new(Vec::new()));
            for (i, op) in ops.iter().cloned().enumerate() {
                let l = link.clone();
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(op.delay_us)).await;
                    let cap = cap_of(op.cap_sel, capacity);
                    let fut = l.xfer(op.bytes, cap);
                    match op.cancel_after_us {
                        Some(c) => {
                            s.timeout(SimDuration::from_micros(c), fut).await;
                        }
                        None => fut.await,
                    }
                    let _ = i;
                });
            }
            let sampler_link = link.clone();
            let s = sim.clone();
            let viol = violations.clone();
            sim.spawn(async move {
                for _ in 0..120 {
                    s.sleep(SimDuration::from_micros(997)).await;
                    let rates = sampler_link.snapshot_rates();
                    if rates.len() != sampler_link.active_flows() {
                        viol.borrow_mut().push(format!(
                            "active_flows {} != snapshot {}",
                            sampler_link.active_flows(),
                            rates.len()
                        ));
                    }
                    let total: f64 = rates.iter().map(|r| r.1).sum();
                    if total > capacity * (1.0 + 1e-6) {
                        viol.borrow_mut()
                            .push(format!("sum {} > capacity {}", total, capacity));
                    }
                    let max_rate = rates.iter().map(|r| r.1).fold(0.0f64, f64::max);
                    for &(id, rate, cap) in &rates {
                        if let Some(cap) = cap {
                            if rate > cap * (1.0 + 1e-9) {
                                viol.borrow_mut()
                                    .push(format!("flow {id} rate {rate} > cap {cap}"));
                            }
                        }
                        // Max-min dominance: a flow below the maximum
                        // rate must be running at its own cap.
                        if rate < max_rate * (1.0 - 1e-9)
                            && cap.is_none_or(|c| rate < c * (1.0 - 1e-9))
                        {
                            viol.borrow_mut().push(format!(
                                "flow {id} at {rate} dominated (max {max_rate}, cap {cap:?})"
                            ));
                        }
                    }
                }
            });
            sim.run();
            prop_assert_eq!(violations.borrow().clone(), Vec::<String>::new());
            prop_assert_eq!(link.active_flows(), 0);
        }
    }
}
