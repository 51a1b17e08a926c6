//! The pre-allocated event ring and the instrumented [`Probe`].
//!
//! This file is a ds-lint hot module: `record*` functions here run
//! inside the simulator's cycle loop when the `obs` feature is on, so
//! rule a1 (no allocation) applies to them exactly as it does to
//! `OooCore::step`. All storage is allocated once at construction;
//! recording is a slot write plus two index updates.

use crate::{Cycle, Event, EventKind, Probe, DEFAULT_RING_CAPACITY};

/// A fixed-capacity ring of [`Event`]s. When full, the oldest event is
/// overwritten and [`EventRing::dropped`] counts the loss — recording
/// never fails, never blocks and never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRing {
    /// Backing storage, allocated once; `buf.capacity() == capacity`.
    buf: Vec<Event>,
    /// Index of the oldest retained event (only meaningful once the
    /// ring has wrapped).
    head: usize,
    /// Events overwritten after wraparound.
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "an event ring needs at least one slot");
        EventRing { buf: Vec::with_capacity(capacity), head: 0, dropped: 0 }
    }

    /// Appends `ev`, overwriting the oldest event when full.
    pub fn record(&mut self, ev: Event) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events the ring retains.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events overwritten after the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest to newest. Cycle stamps are
    /// non-decreasing because recording happens in simulation order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

/// The instrumented event probe: an owned [`EventRing`] and nothing
/// else. This is what consumer crates alias their event `Probe` types
/// to when their `obs` feature is on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recorder {
    ring: EventRing,
}

impl Recorder {
    /// A recorder whose ring retains `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder { ring: EventRing::with_capacity(capacity) }
    }

    /// The recorded events.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }
}

impl Probe for Recorder {
    #[inline]
    fn record(&mut self, cycle: Cycle, kind: EventKind) {
        self.ring.record(Event { cycle, kind });
    }

    #[inline]
    fn enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event { cycle, kind: EventKind::Commit { n: 1 } }
    }

    #[test]
    fn ring_retains_in_order_below_capacity() {
        let mut r = EventRing::with_capacity(8);
        for c in 0..5 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_wraparound_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::with_capacity(4);
        for c in 0..11 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 7);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "oldest events were overwritten");
    }

    #[test]
    fn ring_iteration_is_monotonic_across_many_wraps() {
        let mut r = EventRing::with_capacity(7);
        for c in 0..1000 {
            r.record(ev(c));
        }
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.dropped() + r.len() as u64, 1000);
    }

    #[test]
    fn recording_never_grows_the_buffer() {
        let mut r = EventRing::with_capacity(16);
        let cap = r.capacity();
        let ptr = r.buf.as_ptr();
        for c in 0..100 {
            r.record(ev(c));
        }
        assert_eq!(r.capacity(), cap, "capacity must never change");
        assert_eq!(r.buf.as_ptr(), ptr, "storage must never reallocate");
    }

    #[test]
    fn recorder_is_an_enabled_probe() {
        let mut p = Recorder::with_capacity(4);
        assert!(p.enabled());
        p.record(3, EventKind::BroadcastSend { line: 0x40 });
        assert_eq!(p.ring().len(), 1);
        assert_eq!(p.ring().iter().next().unwrap().cycle, 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = EventRing::with_capacity(0);
    }
}
