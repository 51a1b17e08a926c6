//! The benchmark's own counting allocator.
//!
//! Backs `heap_peak_bytes` (peak live bytes during one rep) and the
//! `engine.allocs_per_kinst` / `engine.alloc_bytes_per_kinst` deltas
//! across `run()`. The counters publish no other data, so every access
//! is `Relaxed`; the benchmark runs one simulation at a time on one
//! thread, so a snapshot taken between two calls is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, with live/peak/count/bytes counters around it.
pub struct Counting;

fn note_alloc(size: usize) {
    let size = size as u64;
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters never feed
// back into a pointer or a size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// The four counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Bytes allocated and not yet freed.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (and growing/shrinking reallocations) so far.
    pub count: u64,
    /// Bytes requested by those allocations so far.
    pub bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size and returns that
/// size, so `snapshot().peak - returned` is the growth since this call.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_follow_a_known_allocation_pattern() {
        // Other tests allocate concurrently on their own threads, so
        // the exact-delta checks use sizes far above their noise and
        // assert lower bounds only.
        const BIG: usize = 64 << 20;
        let base = reset_peak();
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(BIG);
        let during = snapshot();
        assert!(during.live >= base + BIG as u64 / 2);
        assert!(during.peak >= during.live.min(base + BIG as u64));
        assert!(during.count > before.count);
        assert!(during.bytes >= before.bytes + BIG as u64);
        drop(v);
        let after = snapshot();
        assert!(
            after.live + BIG as u64 / 2 <= during.live,
            "free is counted"
        );
        assert!(after.peak >= base + BIG as u64, "peak survives the free");
        assert!(
            reset_peak() < base + BIG as u64,
            "reset drops the peak to live"
        );
    }
}
