//! A counting global allocator, off unless a traced pass switches it on.
//!
//! Allocation counts explain moves in run time and peak memory that the
//! handler spans cannot: a handler that got slower because it clones a name
//! per call shows here first. When off, the cost is one relaxed load per
//! allocation, so the end-to-end numbers are taken with the same allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed` is
// enough. Exact on single-threaded workloads; on the threaded ones the
// window edges race with other threads' allocations.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested while `work` ran (reallocations count as
/// one allocation of the new size).
pub fn counted<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ENABLED.store(true, Ordering::Relaxed);
    let result = work();
    ENABLED.store(false, Ordering::Relaxed);
    (
        result,
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is installed for the test binary too (see main.rs).
    // This is the only test that switches it on, so the counters stand
    // still outside its window even with other tests allocating in parallel.
    #[test]
    fn counts_only_while_switched_on() {
        let (v, allocs, bytes) = counted(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1, "the vector's allocation is counted");
        assert!(bytes >= 4096);

        let before = ALLOCS.load(Ordering::Relaxed);
        std::hint::black_box(vec![0u8; 4096]);
        assert_eq!(ALLOCS.load(Ordering::Relaxed), before, "off again");
    }
}
