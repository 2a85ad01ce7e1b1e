//! What a recorder series costs the heap, pinned with a counting
//! allocator: once a series is interned, its samples allocate nothing —
//! a series is four numbers, not a growing vector — and a digest leaves
//! nothing behind but the `String` it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faasim_simcore::{Histogram, LazyHist, Recorder};

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

#[test]
fn a_million_samples_allocate_nothing() {
    assert_eq!(std::mem::size_of::<Histogram>(), 32, "count, sum, min, max");
    let recorder = Recorder::new();
    let series = [LazyHist::new("svc.get"), LazyHist::new("svc.put")];
    // The first sample interns each series: that is the one-off cost.
    for hist in &series {
        hist.record(&recorder, 0.5);
    }

    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    for i in 0..1_000_000 {
        series[i % 2].record(&recorder, i as f64 * 1e-6);
    }
    assert_eq!(ALLOCS.with(Cell::get) - allocs, 0, "recording allocated");
    assert_eq!(LIVE_BYTES.with(Cell::get), live);

    let digest = recorder.digest();
    assert_eq!(digest.lines().count(), series.len(), "{digest}");
    assert!(digest.contains("hist svc.get: n=500001 "), "{digest}");
    assert_eq!(
        LIVE_BYTES.with(Cell::get) - live,
        digest.capacity() as i64,
        "the digest left more than its String behind"
    );
}
