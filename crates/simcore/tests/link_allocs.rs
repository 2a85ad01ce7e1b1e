//! What a transfer costs the heap, pinned with a counting allocator: on
//! a link that has carried a transfer before and is idle again, a capped
//! transfer allocates nothing from join to completion. Its rate class
//! reuses the id list the last class left behind, and its completion
//! timer goes into the wheel as the link's state.

use std::cell::Cell;
use std::rc::Rc;

use faasim_simcore::{mbps, FairShareLink, Sim, SimTime};

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocations_of;

/// 100 kB at a 100 Mbps cap: 8 ms on an 800 Mbps link.
const BYTES: u64 = 100_000;
const TRANSFER_NS: u64 = 8_000_000;

#[test]
fn a_capped_transfer_on_a_warm_idle_link_allocates_nothing() {
    let sim = Sim::new(1);
    let link = FairShareLink::new(&sim, mbps(800.0));
    let cap = Some(mbps(100.0));
    let done = Rc::new(Cell::new(0u32));

    // Warm the link, the executor's timer slab and the wheel's buckets:
    // back-to-back transfers whose completions sweep every slot the
    // measured one's timer can land in.
    let (l, d) = (link.clone(), done.clone());
    sim.spawn_detached(async move {
        for _ in 0..600 {
            l.transfer(BYTES, cap).await;
            d.set(d.get() + 1);
        }
    });
    sim.run();
    assert_eq!(done.get(), 600);
    assert_eq!(link.active_flows(), 0);

    // The task is spawned outside the count: its block is the executor's
    // cost, pinned by `task_allocs`.
    let (l, d) = (link.clone(), done.clone());
    sim.spawn_detached(async move {
        l.transfer(BYTES, cap).await;
        d.set(d.get() + 1);
    });
    let start = sim.now();
    let pushes = sim.profile().timer_pushes;
    let allocs = allocations_of(|| sim.run());
    assert_eq!(done.get(), 601);
    assert_eq!(sim.now(), SimTime::from_nanos(start.as_nanos() + TRANSFER_NS));
    assert_eq!(sim.profile().timer_pushes, pushes + 1, "one completion timer");
    assert_eq!(allocs, 0, "a warm capped transfer allocated");
}
