//! Allocation counting for the traced run.
//!
//! [`Counting`] wraps the system allocator. While counting is off (the
//! untraced run) each allocation costs one relaxed flag load more than
//! the system allocator; once [`enable`] is called every allocation also
//! bumps a counter private to the calling thread, so a span's allocation
//! count is the difference of [`thread_count`] around it and is not
//! disturbed by the other client thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates and never outlives the slot.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// System allocator that counts allocations once [`enable`]d.
pub struct Counting;

fn record() {
    // Relaxed: the flag publishes no other data; a thread that sees the
    // switch late only misses counts taken before any span it times.
    if ENABLED.load(Ordering::Relaxed) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; `record` only touches a thread-local counter and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    // SAFETY: `ptr` and `layout` obligations are exactly `System::dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
}

/// Start counting allocations (the traced run only).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocations the calling thread made since counting was enabled.
pub fn thread_count() -> u64 {
    COUNT.try_with(Cell::get).unwrap_or(0)
}
