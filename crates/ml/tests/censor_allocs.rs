//! `DirtyWordModel::censor` is on the prediction-serving hot path (40 000
//! documents per paper-scale pass): pin its heap traffic with a counting
//! allocator. The budget is the output buffer plus one spare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faasim_ml::{synthetic_document, DirtyWordModel};

thread_local! {
    /// Per-thread, so the test harness's own threads cannot disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
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

#[test]
fn censoring_a_100_word_document_allocates_at_most_twice() {
    let model = DirtyWordModel::synthetic(500);
    let doc = synthetic_document(500, 100, 7);
    // The same document as prose: capitals and punctuation take every
    // token through the stack-buffer path instead of the in-place probe.
    let prose: String = doc.split(' ').map(|w| format!("D{}, ", &w[1..])).collect();

    for text in [&doc, &prose] {
        let mut out = None;
        let allocs = allocations_of(|| out = Some(model.censor(text)));
        let out = out.expect("censored");
        assert_eq!(out.word_count, 100);
        assert!(out.dirty_count > 0, "the document must exercise the rewrite path");
        assert!(allocs <= 2, "censor made {allocs} heap allocations for one document");
    }
}
