//! An idle election cluster is nothing but blackboard polls — 4 a second
//! per node, each one `get` of the coordinator cell and one `scan_prefix`
//! of an empty inbox — so a poll that finds no message must not touch the
//! heap: pinned here with a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use faasim_kv::{KvProfile, KvStore};
use faasim_net::{Fabric, NetProfile, NicConfig};
use faasim_pricing::{Ledger, PriceBook};
use faasim_protocols::{BlackboardTransport, Transport};
use faasim_simcore::{mbps, Recorder, Sim, SimDuration};

thread_local! {
    /// Per-thread, so the test harness's own threads cannot disturb the counts.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialized thread-local `Cell`s with no destructor, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Poll cycles before the measured ones. The first interns the series;
/// the rest are for the timer wheel, whose 512 buckets each get a buffer
/// the first time a timer lands in them and keep it: by now the levels a
/// 250 ms sleep normally lands in have theirs.
const WARM_UP: usize = 400;
/// 22 sim-seconds of polling. A level-4 bucket is 17 s wide, so up to two
/// timers in the window are the first into theirs: the only allocations
/// that remain, and the engine's, not the poll's.
const MEASURED: usize = 64;
const WHEEL_FIRST_TOUCHES: u64 = 2;

#[test]
fn an_empty_blackboard_poll_allocates_nothing() {
    let sim = Sim::new(71);
    let recorder = Recorder::new();
    let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
    let kv = KvStore::new(
        &sim,
        KvProfile::aws_2018().exact(),
        Rc::new(PriceBook::aws_2018()),
        Ledger::new(),
        recorder.clone(),
    );
    BlackboardTransport::setup(&kv);
    let interval = SimDuration::from_millis(250);
    let host = |rack| fabric.add_host(rack, NicConfig::simple(mbps(1000.0)));
    let leader = BlackboardTransport::new(&sim, &kv, host(0), 2, &[1, 2], interval);
    let mut follower = BlackboardTransport::new(&sim, &kv, host(0), 1, &[1, 2], interval);

    let s = sim.clone();
    let (fresh, regrown) = sim.block_on(async move {
        // A cluster with a sitting leader: the coordinator cell exists.
        leader.broadcast_heartbeat().await;
        // One poll per turn: the timeout expires in the sleep before the
        // second.
        let turn = interval + SimDuration::from_millis(100);
        for _ in 0..WARM_UP {
            assert!(s.timeout(turn, follower.recv()).await.is_none());
        }
        let mut fresh = [0u64; MEASURED];
        let regrown = REALLOCS.with(Cell::get);
        for cycle in &mut fresh {
            let before = ALLOCS.with(Cell::get);
            assert!(s.timeout(turn, follower.recv()).await.is_none());
            *cycle = ALLOCS.with(Cell::get) - before;
        }
        assert_eq!(follower.last_heartbeat().map(|(id, _)| id), Some(2));
        (fresh, REALLOCS.with(Cell::get) - regrown)
    });

    assert_eq!(
        recorder.counter("kv.reads"),
        2 * (WARM_UP + MEASURED) as u64
    );
    let total: u64 = fresh.iter().sum();
    assert!(
        total <= WHEEL_FIRST_TOUCHES,
        "new heap blocks per poll cycle: {fresh:?}"
    );
    // Nothing grows either: the latency series of `get` and `scan_prefix`
    // are summaries, not sample vectors.
    assert_eq!(regrown, 0, "buffers regrown over {MEASURED} cycles");
}
