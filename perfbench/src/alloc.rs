//! A std-only counting allocator for the traced binary.
//!
//! Only `perfbench-traced` installs [`CountingAlloc`] as its
//! `#[global_allocator]`; the end-to-end binary keeps the system
//! allocator untouched, so counting costs it nothing. Counts are kept
//! per thread, so a layer call timed on the benchmark thread sees
//! exactly its own allocations and none of the service or pool threads'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor: safe to touch from
    // inside the allocator, even while a thread is being torn down
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls.
pub struct CountingAlloc;

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made so far on the calling thread. Always 0 in a binary
/// that does not install [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
