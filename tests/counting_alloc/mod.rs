//! A counting global allocator for the tests that pin heap traffic. A
//! test file includes it with `#[path]` and it becomes that test
//! binary's `#[global_allocator]`. It counts fresh blocks, regrowths
//! (`realloc`), bytes handed out and live bytes, per thread, so the test
//! harness's own threads cannot disturb the counts.

// Each test that includes this module reads only some of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static REGROWN: Cell<u64> = const { Cell::new(0) };
    static HANDED_OUT: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialized thread-local `Cell`s with no destructor, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        FRESH.with(|c| c.set(c.get() + 1));
        HANDED_OUT.with(|c| c.set(c.get() + layout.size() as u64));
        LIVE_BYTES.with(|c| c.set(c.get() + layout.size() as i64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REGROWN.with(|c| c.set(c.get() + 1));
        HANDED_OUT.with(|c| c.set(c.get() + new_size as u64));
        LIVE_BYTES.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fresh blocks this thread has allocated.
pub fn fresh_blocks() -> u64 {
    FRESH.with(Cell::get)
}

/// `realloc` calls this thread has made: blocks regrown or shrunk.
pub fn regrowths() -> u64 {
    REGROWN.with(Cell::get)
}

/// Allocations `f` makes on this thread, a `realloc` counted as one.
pub fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = fresh_blocks() + regrowths();
    f();
    fresh_blocks() + regrowths() - before
}

/// Bytes this thread has been handed: each fresh block's size and each
/// regrown block's new size.
pub fn bytes_handed_out() -> u64 {
    HANDED_OUT.with(Cell::get)
}

/// Bytes this thread holds: allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
