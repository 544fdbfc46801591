//! A heap-allocation counter for the benches' allocation gates.
//!
//! A bench installs [`CountingAlloc`] as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pdr_bench::alloc_count::CountingAlloc = pdr_bench::alloc_count::CountingAlloc;
//! ```
//!
//! and reads [`allocations`] before and after the code under test. Every
//! `alloc`, `alloc_zeroed` and `realloc` counts one; `dealloc` counts
//! nothing. In a process that does not install it, the count stays zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations.
pub struct CountingAlloc;

/// Heap allocations observed since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations made so far through [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter only adds a relaxed increment, which touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
