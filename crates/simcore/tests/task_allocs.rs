//! What a task costs the heap, pinned with a counting allocator: one
//! allocation per spawn, nothing left of a finished task while its
//! canceled timeout is still in the wheel, and a block that lives exactly
//! as long as the last waker pointing at it.

use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::hint::black_box;
use std::rc::Rc;
use std::task::{Poll, Waker};

use faasim_simcore::{channel, Sim, SimDuration, SimTime};

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::{allocations_of, live_bytes};

/// What each task below carries inline in its future.
const BALLAST: usize = 4096;

#[test]
fn spawning_a_detached_task_is_one_allocation() {
    let sim = Sim::new(1);
    // Warm the registry, its free list and the ready queue.
    for _ in 0..4 {
        sim.spawn_detached(async {});
    }
    sim.run();

    let counter = Rc::new(Cell::new(0u32));
    let c = counter.clone();
    let spawn = allocations_of(|| sim.spawn_detached(async move { c.set(c.get() + 1) }));
    assert_eq!(spawn, 1, "the task block and nothing else");
    let run = allocations_of(|| sim.run());
    assert_eq!(run, 0, "polling and retiring a task allocates nothing");
    assert_eq!(counter.get(), 1);
    assert_eq!(sim.stats().tasks_alive, 0);
}

/// A replay's invocations each run under a 120 s timeout that never
/// fires: its timer is canceled long before its deadline. A canceled
/// timer that still held the task's waker until the clock got there would
/// pin every finished task's block, ballast and all.
#[test]
fn a_canceled_timeout_does_not_pin_its_finished_task() {
    const TASKS: usize = 10_000;
    let before = live_bytes();
    let sim = Sim::new(1);
    // A live timer past the horizon, so the run ends with work pending,
    // as a replay's reaper keeps it.
    sim.call_at(SimTime::from_nanos(60_000_000_000), || {});
    // Like a replay's invocations, the tasks come and go a thousand at a
    // time.
    for wave in 0..TASKS / 1_000 {
        for i in 0..1_000u64 {
            let s = sim.clone();
            sim.spawn_detached(async move {
                let ballast = [i as u8; BALLAST];
                let inner = s.sleep(SimDuration::from_millis(1 + i % 7));
                let won = s.timeout(SimDuration::from_secs(120), inner).await;
                assert!(won.is_some());
                black_box(&ballast);
            });
        }
        sim.run_until(SimTime::from_nanos((wave as u64 + 1) * 10_000_000));
    }
    sim.run_until(SimTime::from_nanos(1_000_000_000));
    assert_eq!(sim.stats().tasks_alive, 0);
    let profile = sim.profile();
    assert_eq!(profile.timer_cancels, TASKS as u64);
    // The clock stopped at the horizon because the live timer remains.
    // The canceled ones left the wheel as they were canceled, so at most
    // one wave's two timers per task were ever pending beside it.
    assert_eq!(sim.now(), SimTime::from_nanos(1_000_000_000));
    assert_eq!(profile.peak_pending_timers, 1 + 2 * 1_000);

    let held = live_bytes() - before;
    assert!(
        held < (TASKS * 256) as i64,
        "{held} bytes live after {TASKS} tasks of {BALLAST}+ bytes finished"
    );
    sim.shutdown();
}

/// A waker that outlives its task — left behind in a channel, or kept by
/// hand — wakes nothing, and the block goes when the waker does.
#[test]
fn a_waker_that_outlives_its_task_pins_only_the_block() {
    let sim = Sim::new(1);
    let (tx, mut rx) = channel::<u32>();
    let rx_back = Rc::new(RefCell::new(None));
    let kept: Rc<RefCell<Option<Waker>>> = Rc::default();

    // Parks on the channel, gives up after 1 ms and finishes, handing the
    // receiver back so the channel — and the waker in it — stay alive.
    let (s, back) = (sim.clone(), rx_back.clone());
    sim.spawn_detached(async move {
        let ballast = [1u8; BALLAST];
        let got = s.timeout(SimDuration::from_millis(1), rx.recv()).await;
        assert!(got.is_none());
        black_box(&ballast);
        *back.borrow_mut() = Some(rx);
    });
    // Keeps a waker by hand and finishes on its second poll.
    let k = kept.clone();
    let ballast = [2u8; BALLAST];
    let mut polls = 0;
    sim.spawn_detached(poll_fn(move |cx| {
        black_box(&ballast);
        polls += 1;
        if polls == 2 {
            return Poll::Ready(());
        }
        *k.borrow_mut() = Some(cx.waker().clone());
        cx.waker().wake_by_ref();
        Poll::Pending
    }));
    sim.run();
    assert_eq!(sim.stats().tasks_alive, 0);
    let events = sim.stats().events_processed;

    // By reference: no event, and the block is still pinned.
    let pinned = live_bytes();
    kept.borrow().as_ref().expect("kept").wake_by_ref();
    sim.run();
    assert_eq!(sim.stats().events_processed, events);
    assert_eq!(live_bytes(), pinned);
    // Dropping the last waker frees the block.
    drop(kept.borrow_mut().take());
    assert!(
        pinned - live_bytes() >= BALLAST as i64,
        "the hand-kept waker's block was not freed"
    );

    // By value, from the channel: `send` takes the stale waker and wakes
    // it, which is no event and lets go of the block — ballast included,
    // since this task's future held it across an await.
    let pinned = live_bytes();
    tx.send(7).expect("receiver is alive");
    sim.run();
    assert_eq!(sim.stats().events_processed, events);
    assert!(
        pinned - live_bytes() >= BALLAST as i64,
        "the channel's stale waker did not free its block"
    );
    assert_eq!(
        rx_back
            .borrow_mut()
            .as_mut()
            .expect("handed back")
            .try_recv(),
        Some(7)
    );
}
