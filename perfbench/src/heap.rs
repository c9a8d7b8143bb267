//! Live-heap accounting: the system allocator behind a counter of the
//! bytes held in large allocations and their peak.
//!
//! The peak resident set (`VmHWM`) also counts memory the allocator keeps
//! cached after it was freed, which on glibc depends on which worker
//! thread's arena served each allocation; across runs of the same work
//! it varied by 11–28%. Live bytes depend only on what the program holds.
//! Only allocations of at least [`COUNTED_BYTES`] are counted: the
//! experiments make many small allocations, and counting every one on
//! shared atomics made `experiment all` half again slower. The large
//! ones — traces, columns, predictor tables, store files — are rare and
//! hold nearly all the memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest allocation counted.
pub const COUNTED_BYTES: usize = 16 << 10;

/// Bytes in counted allocations not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest value `LIVE` reached since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting live bytes of large allocations.
pub struct Counting;

fn grow(bytes: usize) {
    if bytes < COUNTED_BYTES {
        return;
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    if bytes < COUNTED_BYTES {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

/// Restart the peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The peak of live counted bytes since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_allocations() {
        reset_peak();
        let before = peak_mib();
        let block = vec![0u8; 8 << 20];
        assert!(peak_mib() >= before + 7.9);
        drop(block);
        assert!(peak_mib() >= before + 7.9, "the peak outlives the block");
    }
}
