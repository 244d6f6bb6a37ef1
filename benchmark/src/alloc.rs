//! A counting global allocator: live and peak heap bytes of this process.
//!
//! `peak_heap_mb` is read from here, so it covers set-up and the measured
//! phase alike and needs no help from the library under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Set while the oracle runs: its allocations (a second copy of the graph,
/// on the large corpus) are not the system's and must not set the peak.
static ORACLE: AtomicBool = AtomicBool::new(false);

/// Forwards to the system allocator and keeps the two counters.
pub struct CountingAlloc;

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if !ORACLE.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// While the returned guard lives, allocations do not raise the peak.  One
/// thread allocates, so a flag is enough.
pub fn oracle_section() -> impl Drop {
    struct Section;
    impl Drop for Section {
        fn drop(&mut self) {
            ORACLE.store(false, Ordering::Relaxed);
        }
    }
    ORACLE.store(true, Ordering::Relaxed);
    Section
}

/// Peak live heap since process start, in MB (10^6 bytes).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}
