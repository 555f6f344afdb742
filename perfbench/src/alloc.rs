//! A counting global allocator for the traced run.
//!
//! Only the `perfbench-trace` binary installs [`CountingAlloc`]; the
//! timed binary runs on the plain system allocator. Counting is off
//! until [`set_counting`] turns it on, so the traced run can also time
//! an uninstrumented pass and report the tracing overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Pass-through to [`System`] that counts allocation calls and tracks
/// the live-byte high-water mark while counting is on.
pub struct CountingAlloc;

// All counters are statistics that publish no other data: Relaxed.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Signed: blocks allocated while counting was off may be freed while
/// it is on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// System's layout and provenance contract holds verbatim; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's pointer and layout are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grow(new_size);
        }
        // SAFETY: the caller's arguments are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls (including reallocations) made while `f` ran.
/// Meaningful only while counting is on and no other thread allocates.
pub fn count_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// How far the live heap rose above its level at entry while `f` ran,
/// in bytes, across all threads.
pub fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, (PEAK.load(Ordering::Relaxed) - base).max(0) as u64)
}
