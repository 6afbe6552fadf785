//! Counting global allocator for the traced run.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global allocator.
//! Counting is off by default, so the untraced run pays one relaxed load per
//! allocation; [`set_enabled`] switches it on for the traced re-drive. Tallies
//! are per thread, so a span reads the allocations of exactly the call it
//! wraps even while other workers allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread byte and call tallies.
#[derive(Debug)]
pub struct CountingAlloc;

fn note(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` never allocates and fails only during thread teardown,
        // when the allocation is not part of any span.
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only const-initialized thread-locals without
// destructors, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// This thread's running `(bytes, allocations)` tally.
pub fn snapshot() -> (u64, u64) {
    (
        BYTES.try_with(Cell::get).unwrap_or(0),
        COUNT.try_with(Cell::get).unwrap_or(0),
    )
}
