//! d2 fixture: wall-clock and host-threading tokens below `record*`
//! roots — an instrumented probe must never time-stamp simulated
//! events with host time, nor share state across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct Probe {
    pub last: u64,
}

impl Probe {
    pub fn record_event(&mut self) {
        self.last = stamp();
    }

    pub fn record_shared(&mut self) {
        self.last = bump_shared() + allowed_bump();
    }
}

// SEEDED VIOLATION (d2): `Instant` below Probe::record_event.
fn stamp() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

// SEEDED VIOLATION (d2): host threading below Probe::record_shared —
// the simulation crates are single-threaded.
fn bump_shared() -> u64 {
    static HITS: AtomicU64 = AtomicU64::new(0);
    HITS.fetch_add(1, Ordering::Relaxed)
}

// Allowed twin: same shape, suppressed at the site — must NOT fire.
fn allowed_bump() -> u64 {
    // ds-lint: allow(d2) fixture: host-side counter, never simulated state
    static HITS: AtomicU64 = AtomicU64::new(0);
    HITS.fetch_add(1, Ordering::Relaxed)
}
