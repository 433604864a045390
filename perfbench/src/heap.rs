//! Live heap bytes and their peak, kept by the benchmark's global
//! allocator: the provisioning footprint and the run's peak memory,
//! measured exactly. (RSS readings vary with how the C allocator reuses
//! freed pages, by 15% between runs of one seed.)
//!
//! Every `GlobalAlloc` entry point forwards to the same `System` entry
//! point, so `realloc` still grows in place and `alloc_zeroed` still gets
//! lazily zeroed pages: the program runs on the system allocator's own
//! paths, with one relaxed add per call and a peak update only when the
//! live total reaches a new high.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

pub static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus the byte counts above.
pub struct CountingAlloc;

fn grew(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(by: i64) {
    LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to the matching `System` call,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no other data, and they change only when the
// forwarded call succeeded.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract passes through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`; the caller upholds `new_size`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            let delta = new_size as i64 - layout.size() as i64;
            if delta >= 0 {
                grew(delta);
            } else {
                shrank(-delta);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The run's peak live heap, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
