//! The counting global allocator behind `peak_heap_mb` and `alloc.*`.
//!
//! Accounting is off except in the one untimed "memory round" of a run:
//! while off, each allocation pays a single relaxed load, so timed
//! rounds measure the program on the system allocator as users run it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since accounting was switched on.
/// Signed: blocks allocated before the switch may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// All four counters are statistics that publish no other data, so
// `Relaxed` is enough; `fetch_max` keeps the peak exact under races.
fn grew(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch
// the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as our caller's.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one accounted interval saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapReport {
    pub peak_bytes: u64,
    pub allocations: u64,
    pub allocated_bytes: u64,
}

/// Zero the counters and switch accounting on.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
}

/// Allocation count and bytes so far in the running interval.
pub fn so_far() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Switch accounting off and report the interval.
pub fn stop() -> HeapReport {
    ON.store(false, Ordering::SeqCst);
    HeapReport {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        allocations: COUNT.load(Ordering::Relaxed),
        allocated_bytes: BYTES.load(Ordering::Relaxed),
    }
}
