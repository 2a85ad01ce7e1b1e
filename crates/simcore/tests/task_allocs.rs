//! What a task costs the heap, pinned with a counting allocator: one
//! allocation per spawn, nothing left of a finished task while its
//! canceled timeout is still in the wheel, and a block that lives exactly
//! as long as the last waker pointing at it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::hint::black_box;
use std::rc::Rc;
use std::task::{Poll, Waker};

use faasim_simcore::{channel, Sim, SimDuration, SimTime};

thread_local! {
    /// Per-thread, so the test harness's own threads cannot disturb the counts.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialized thread-local `Cell`s with no destructor, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        LIVE_BYTES.with(|c| c.set(c.get() + layout.size() as i64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        LIVE_BYTES.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

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
/// fires: its timer is canceled and stays in the wheel as a tombstone
/// until the clock gets there. A tombstone that still held the task's
/// waker would pin every finished task's block, ballast and all.
#[test]
fn a_canceled_timeout_does_not_pin_its_finished_task() {
    const TASKS: usize = 10_000;
    let before = live_bytes();
    let sim = Sim::new(1);
    // A live timer ahead of the tombstones: canceled timers at the very
    // front of the wheel are swept as soon as the run loop looks at them.
    sim.call_at(SimTime::from_nanos(60_000_000_000), || {});
    // Like a replay's invocations, the tasks come and go a thousand at a
    // time while their tombstones pile up.
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
    // The clock stopped at the horizon because timers remain: the live one
    // and, behind it, the tombstones, whose wheel slot no cascade visits
    // before the clock is within ~17 s of them.
    assert_eq!(sim.now(), SimTime::from_nanos(1_000_000_000));

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
