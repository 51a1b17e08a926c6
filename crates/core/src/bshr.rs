//! Broadcast Status Holding Registers.
//!
//! The BSHR (§4.2, Figure 5) is the structure through which a node
//! receives broadcasts. It holds, per line address:
//!
//! * an outstanding **wait** — local loads that missed on a remote,
//!   communicated line and are blocked until the owner's broadcast
//!   arrives;
//! * **buffered arrivals** — broadcasts that landed before any local
//!   load asked for them (the owner ran ahead; when the local load
//!   finally issues it "effectively sees an on-chip hit");
//! * **pending squashes** — posted by the correspondence protocol when
//!   a commit-time false hit means the owner's reparative broadcast
//!   must be consumed and dropped.
//!
//! # ds-chaos hardening
//!
//! The paper's protocol assumes a lossless interconnect: "broadcasts/
//! waits would not pair up and the machine deadlocks" otherwise (§1).
//! When BSHR timeouts are enabled (`DsConfig::bshr_timeout_cycles`),
//! each outstanding wait carries a deadline; an expired wait escalates
//! to an explicit retransmit request ([`Bshr::take_expired`], answered
//! by the owner with a reparative re-broadcast), and a line that blows
//! through its retry budget degrades to the traditional
//! request–response protocol for the rest of the run — injected loss
//! costs latency, never correctness. All of it is inert (no deadlines
//! armed, no scans) when the timeout is `None`, which is the default.

use crate::linemap::LineMap;
use crate::Cycle;
use ds_cpu::RuuTag;
use std::collections::VecDeque;

/// What [`Bshr::on_arrival`] did with a broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrival {
    /// Consumed by a pending squash (reparative broadcast for a line
    /// this node falsely hit on).
    Squashed,
    /// Satisfied an outstanding wait; the listed loads may complete at
    /// the given cycle. These completions become the critical-path
    /// analyzer's `remote-fill` (communication) edges: the node pairs
    /// each one with the broadcast's send cycle so the edge spans the
    /// owner's queue, the fabric grant, and the flight end-to-end.
    Completed(Vec<(RuuTag, Cycle)>),
    /// No local load wanted it yet; buffered. A later load that finds
    /// the data here sees an on-chip hit — a `local-fill` (compute)
    /// edge on the critical path, which is datathreading doing its job.
    Buffered,
}

/// BSHR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BshrStats {
    /// Remote loads that found their data already buffered (the
    /// paper's "data found in BSHR" — evidence of datathreading).
    pub found_buffered: u64,
    /// Waits allocated (remote loads that had to block).
    pub waits_allocated: u64,
    /// Arrivals consumed by squashes.
    pub squashed_arrivals: u64,
    /// Squashes posted (by the correspondence protocol at commit).
    pub squashes_posted: u64,
    /// Broadcasts received, total.
    pub arrivals: u64,
    /// Arrivals accepted while at capacity (modelling flow-control
    /// retries; counted, not dropped).
    pub overflows: u64,
    /// High-water mark of occupied entries.
    pub max_occupancy: usize,
    /// Wait deadlines that expired (each one escalates to a retransmit
    /// request or, once degraded, a fresh direct request).
    pub timeouts: u64,
    /// Lines that exhausted the retry budget and degraded to the
    /// request–response protocol.
    pub lines_degraded: u64,
}

/// One expired wait, as surfaced by [`Bshr::take_expired`]. The wait
/// itself stays allocated — only its deadline was consumed and re-armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpiredWait {
    /// Line whose wait timed out.
    pub line: u64,
    /// Timeouts this wait has now suffered (1 = first).
    pub retries: u32,
    /// True when the line is (now) degraded to request–response.
    pub degraded: bool,
    /// True when *this* expiry crossed the retry budget.
    pub newly_degraded: bool,
}

/// Per-wait hardening state (armed only when timeouts are enabled).
#[derive(Debug, Clone, Copy)]
struct WaitMeta {
    deadline: Cycle,
    retries: u32,
}

/// One node's broadcast-receiving structure.
#[derive(Debug, Clone)]
pub struct Bshr {
    entries: usize,
    access_cycles: u64,
    /// line -> loads waiting for that line.
    waits: LineMap<Vec<RuuTag>>,
    /// line -> arrival cycles of unconsumed broadcasts.
    buffered: LineMap<VecDeque<Cycle>>,
    /// line -> number of arrivals to squash on sight.
    pending_squashes: LineMap<u32>,
    buffered_count: usize,
    stats: BshrStats,
    /// Wait timeout in cycles; `None` disables the hardening entirely.
    timeout: Option<u64>,
    /// Timeouts a line may suffer before degrading.
    retry_budget: u32,
    /// line -> deadline/retry state, populated only while `timeout` is
    /// `Some` and a wait is outstanding.
    meta: LineMap<WaitMeta>,
    /// Lines degraded to request–response for the rest of the run.
    degraded: LineMap<()>,
}

impl Bshr {
    /// An empty BSHR with `entries` capacity and the given access
    /// latency.
    pub fn new(entries: usize, access_cycles: u64) -> Self {
        Bshr {
            entries,
            access_cycles,
            waits: LineMap::new(),
            buffered: LineMap::new(),
            pending_squashes: LineMap::new(),
            buffered_count: 0,
            stats: BshrStats::default(),
            timeout: None,
            retry_budget: 0,
            meta: LineMap::new(),
            degraded: LineMap::new(),
        }
    }

    /// Enables (or disables) wait timeouts. With `Some(t)`, every fresh
    /// wait is armed with a deadline `t` cycles out and may retry up to
    /// `budget` times before its line degrades to request–response.
    pub fn configure_timeout(&mut self, timeout: Option<u64>, budget: u32) {
        self.timeout = timeout;
        self.retry_budget = budget;
    }

    /// Access latency in cycles.
    pub fn access_cycles(&self) -> u64 {
        self.access_cycles
    }

    /// Statistics so far.
    pub fn stats(&self) -> &BshrStats {
        &self.stats
    }

    /// Entries currently occupied (waits + buffered arrivals).
    pub fn occupancy(&self) -> usize {
        self.waits.len() + self.buffered_count
    }

    /// True when no state survives: no waiting loads, no buffered
    /// broadcasts, no pending squashes. At the end of a complete run
    /// every broadcast has been consumed exactly once per non-owner, so
    /// a quiescent BSHR is part of the correspondence invariant the
    /// `audit` feature asserts.
    pub fn is_quiescent(&self) -> bool {
        self.waits.is_empty() && self.buffered_count == 0 && self.pending_squashes.is_empty()
    }

    /// True while any arrival is still due to be squashed on sight — a
    /// false-hit repair is in flight (used by cycle accounting to
    /// charge remote waits to commit-repair instead of plain BSHR
    /// latency).
    pub fn has_pending_squashes(&self) -> bool {
        !self.pending_squashes.is_empty()
    }

    fn note_occupancy(&mut self) {
        let occ = self.occupancy();
        if occ > self.stats.max_occupancy {
            self.stats.max_occupancy = occ;
        }
        if occ > self.entries {
            self.stats.overflows += 1;
        }
    }

    /// A remote load missed at issue. If the broadcast already arrived,
    /// consumes it and returns the cycle the data is available;
    /// otherwise allocates (or joins) a wait and returns `None`.
    pub fn request(&mut self, line: u64, tag: RuuTag, now: Cycle) -> Option<Cycle> {
        if let Some(q) = self.buffered.get_mut(line) {
            q.pop_front();
            if q.is_empty() {
                self.buffered.remove(line);
            }
            self.buffered_count -= 1;
            self.stats.found_buffered += 1;
            return Some(now + self.access_cycles);
        }
        let w = self.waits.get_mut_or_default(line);
        let fresh = w.is_empty();
        if fresh {
            self.stats.waits_allocated += 1;
        }
        w.push(tag);
        if fresh {
            if let Some(t) = self.timeout {
                self.meta.insert(line, WaitMeta { deadline: now + t, retries: 0 });
            }
        }
        self.note_occupancy();
        None
    }

    /// Adds another blocked load to an existing wait.
    ///
    /// # Panics
    ///
    /// Panics if no wait is outstanding for `line` (callers join via
    /// the DCUB, which tracks pending lines).
    pub fn join_wait(&mut self, line: u64, tag: RuuTag) {
        self.waits
            .get_mut(line)
            // ds-lint: allow(p1) documented Panics contract: callers route through the DCUB, which only joins lines it has seen start_wait for
            .expect("join_wait requires an outstanding wait")
            .push(tag);
    }

    /// True if a wait is outstanding for `line`.
    pub fn has_wait(&self, line: u64) -> bool {
        self.waits.contains_key(line)
    }

    /// The correspondence protocol detected a commit-time false hit:
    /// the owner's (reparative) broadcast for `line` must be consumed
    /// and dropped.
    pub fn post_squash(&mut self, line: u64) {
        self.stats.squashes_posted += 1;
        if let Some(q) = self.buffered.get_mut(line) {
            q.pop_front();
            if q.is_empty() {
                self.buffered.remove(line);
            }
            self.buffered_count -= 1;
            self.stats.squashed_arrivals += 1;
        } else {
            *self.pending_squashes.get_mut_or_default(line) += 1;
        }
    }

    /// A broadcast for `line` arrived at `now`.
    pub fn on_arrival(&mut self, line: u64, now: Cycle) -> Arrival {
        self.stats.arrivals += 1;
        if let Some(n) = self.pending_squashes.get_mut(line) {
            *n -= 1;
            if *n == 0 {
                self.pending_squashes.remove(line);
            }
            self.stats.squashed_arrivals += 1;
            return Arrival::Squashed;
        }
        if let Some(waiters) = self.waits.remove(line) {
            self.meta.remove(line);
            let ready = now + self.access_cycles;
            // ds-lint: allow(a1) a second Vec per fill, kept on purpose: removing it (allocs/Kinst 336 -> 169 on li.ds2.bus) moved the ledger's untraced setup_s there from 1.0-1.4 ms to 2.2-2.5 ms in 4 of 4 alternating runs, and again from 0.84-0.92 ms to 1.28-1.48 ms in 5 of 5 pairs on top of the per-page broadcast tags (bound 25%), because the next rep's Workload.build page-faults again once the run's allocation pattern changes (DESIGN.md §12); a perf issue that removes it must name that interaction up front
            return Arrival::Completed(waiters.into_iter().map(|t| (t, ready)).collect());
        }
        self.buffered.get_mut_or_default(line).push_back(now);
        self.buffered_count += 1;
        self.note_occupancy();
        Arrival::Buffered
    }

    /// A direct (request–response) fill for `line` arrived at `now` —
    /// the answer to a request-mode side's or a degraded line's
    /// request. Releases the waiters and returns them with the one
    /// cycle they may complete at, or `None` when no wait is
    /// outstanding (a duplicate or stale response must not invent
    /// completions).
    pub fn fill_direct(&mut self, line: u64, now: Cycle) -> Option<(Vec<RuuTag>, Cycle)> {
        let waiters = self.waits.remove(line)?;
        self.meta.remove(line);
        Some((waiters, now + self.access_cycles))
    }

    /// The first wait (lowest line address — deterministic) whose
    /// deadline expired by `now`, if any. Consuming the expiry re-arms
    /// the deadline a full timeout out and bumps the retry count;
    /// crossing the retry budget marks the line degraded. Callers loop
    /// until `None` each cycle — the loop terminates because every
    /// re-armed deadline is in the future. Inert (`None` immediately)
    /// when timeouts are disabled.
    pub fn take_expired(&mut self, now: Cycle) -> Option<ExpiredWait> {
        let t = self.timeout?;
        let budget = self.retry_budget;
        let mut hit: Option<(u64, u32)> = None;
        for (line, m) in self.meta.entries_mut() {
            if m.deadline <= now {
                m.deadline = now + t;
                m.retries += 1;
                hit = Some((*line, m.retries));
                break;
            }
        }
        let (line, retries) = hit?;
        self.stats.timeouts += 1;
        let mut newly_degraded = false;
        if retries > budget && !self.degraded.contains_key(line) {
            self.degraded.insert(line, ());
            self.stats.lines_degraded += 1;
            newly_degraded = true;
        }
        Some(ExpiredWait {
            line,
            retries,
            degraded: self.degraded.contains_key(line),
            newly_degraded,
        })
    }

    /// Earliest armed wait deadline, if any — folded into the node's
    /// event horizon so cycle skipping never jumps past a timeout.
    pub fn next_timeout(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        for (_, m) in self.meta.entries() {
            next = Some(match next {
                Some(n) if n <= m.deadline => n,
                _ => m.deadline,
            });
        }
        next
    }

    /// True when `line` has degraded to the request–response protocol.
    pub fn is_degraded(&self, line: u64) -> bool {
        self.degraded.contains_key(line)
    }

    /// True while any wait has already timed out at least once or sits
    /// on a degraded line — the machine is paying retry latency, not
    /// plain broadcast latency (cycle accounting charges `retry-wait`).
    pub fn has_retrying_waits(&self) -> bool {
        for (line, m) in self.meta.entries() {
            if m.retries > 0 || self.degraded.contains_key(*line) {
                return true;
            }
        }
        false
    }

    /// Lines with outstanding waits (deadlock reports; cold path).
    pub fn wait_lines(&self) -> Vec<u64> {
        self.waits.entries().iter().map(|&(l, _)| l).collect()
    }

    /// Lines with buffered, unconsumed arrivals (deadlock reports).
    pub fn buffered_lines(&self) -> Vec<u64> {
        self.buffered.entries().iter().map(|&(l, _)| l).collect()
    }

    /// Lines with pending squashes (deadlock reports).
    pub fn squash_lines(&self) -> Vec<u64> {
        self.pending_squashes.entries().iter().map(|&(l, _)| l).collect()
    }

    /// Lines degraded to request–response (deadlock reports).
    pub fn degraded_lines(&self) -> Vec<u64> {
        self.degraded.entries().iter().map(|&(l, _)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_then_arrival_completes() {
        let mut b = Bshr::new(8, 2);
        assert_eq!(b.request(0x100, 7, 10), None);
        b.join_wait(0x100, 9);
        match b.on_arrival(0x100, 50) {
            Arrival::Completed(v) => assert_eq!(v, vec![(7, 52), (9, 52)]),
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.stats().waits_allocated, 1);
    }

    #[test]
    fn arrival_before_request_is_buffered() {
        let mut b = Bshr::new(8, 2);
        assert_eq!(b.on_arrival(0x200, 30), Arrival::Buffered);
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.request(0x200, 1, 100), Some(102));
        assert_eq!(b.stats().found_buffered, 1);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn squash_consumes_buffered_arrival() {
        let mut b = Bshr::new(8, 2);
        b.on_arrival(0x300, 5);
        b.post_squash(0x300);
        assert_eq!(b.stats().squashed_arrivals, 1);
        assert_eq!(b.occupancy(), 0);
        // The next request must NOT see stale data.
        assert_eq!(b.request(0x300, 1, 10), None);
    }

    #[test]
    fn squash_before_arrival_is_pending() {
        let mut b = Bshr::new(8, 2);
        b.post_squash(0x400);
        assert_eq!(b.on_arrival(0x400, 9), Arrival::Squashed);
        assert_eq!(b.stats().squashed_arrivals, 1);
        // Next arrival behaves normally.
        assert_eq!(b.on_arrival(0x400, 10), Arrival::Buffered);
    }

    #[test]
    fn per_line_fifo_of_buffered_arrivals() {
        let mut b = Bshr::new(8, 0);
        b.on_arrival(0x500, 1);
        b.on_arrival(0x500, 2);
        assert_eq!(b.request(0x500, 1, 10), Some(10));
        assert_eq!(b.request(0x500, 2, 11), Some(11));
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn overflow_is_counted_not_dropped() {
        let mut b = Bshr::new(1, 2);
        b.on_arrival(0x0, 1);
        b.on_arrival(0x40, 2);
        assert_eq!(b.stats().overflows, 1);
        assert_eq!(b.occupancy(), 2);
        assert!(b.request(0x40, 1, 5).is_some(), "data still retrievable");
    }

    #[test]
    fn max_occupancy_tracks_high_water() {
        let mut b = Bshr::new(8, 2);
        b.on_arrival(0x0, 1);
        b.on_arrival(0x40, 1);
        b.request(0x0, 1, 2);
        assert_eq!(b.stats().max_occupancy, 2);
    }

    #[test]
    #[should_panic(expected = "outstanding wait")]
    fn join_without_wait_panics() {
        let mut b = Bshr::new(8, 2);
        b.join_wait(0x1, 1);
    }

    #[test]
    fn timeouts_disabled_by_default() {
        let mut b = Bshr::new(8, 2);
        b.request(0x100, 1, 0);
        assert_eq!(b.take_expired(u64::MAX), None);
        assert_eq!(b.next_timeout(), None);
        assert!(!b.has_retrying_waits());
    }

    #[test]
    fn expired_wait_rearms_and_counts() {
        let mut b = Bshr::new(8, 2);
        b.configure_timeout(Some(100), 3);
        b.request(0x100, 1, 10);
        assert_eq!(b.next_timeout(), Some(110));
        assert_eq!(b.take_expired(50), None, "not yet due");
        let e = b.take_expired(110).expect("deadline hit");
        assert_eq!((e.line, e.retries, e.degraded, e.newly_degraded), (0x100, 1, false, false));
        assert_eq!(b.take_expired(110), None, "re-armed into the future");
        assert_eq!(b.next_timeout(), Some(210));
        assert_eq!(b.stats().timeouts, 1);
        assert!(b.has_retrying_waits());
    }

    #[test]
    fn exhausted_budget_degrades_the_line_once() {
        let mut b = Bshr::new(8, 2);
        b.configure_timeout(Some(10), 2);
        b.request(0x200, 1, 0);
        let mut now = 10;
        for expect_retries in 1..=2u32 {
            let e = b.take_expired(now).unwrap();
            assert_eq!((e.retries, e.degraded), (expect_retries, false));
            now += 10;
        }
        let e = b.take_expired(now).unwrap();
        assert!(e.degraded && e.newly_degraded, "3rd timeout crosses budget 2");
        assert!(b.is_degraded(0x200));
        assert_eq!(b.stats().lines_degraded, 1);
        // Further expiries keep retrying but never re-degrade.
        let e = b.take_expired(now + 10).unwrap();
        assert!(e.degraded && !e.newly_degraded);
        assert_eq!(b.stats().lines_degraded, 1);
    }

    #[test]
    fn arrival_disarms_the_deadline() {
        let mut b = Bshr::new(8, 2);
        b.configure_timeout(Some(100), 3);
        b.request(0x300, 1, 0);
        b.on_arrival(0x300, 50);
        assert_eq!(b.next_timeout(), None);
        assert_eq!(b.take_expired(u64::MAX), None);
    }

    #[test]
    fn fill_direct_releases_waiters_and_ignores_strays() {
        let mut b = Bshr::new(8, 2);
        b.configure_timeout(Some(100), 0);
        b.request(0x400, 7, 0);
        b.join_wait(0x400, 9);
        let got = b.fill_direct(0x400, 30).expect("wait outstanding");
        assert_eq!(got, (vec![7, 9], 32));
        assert_eq!(b.next_timeout(), None);
        assert_eq!(b.fill_direct(0x400, 40), None, "duplicate response ignored");
    }

    #[test]
    fn expiry_order_is_lowest_line_first() {
        let mut b = Bshr::new(8, 2);
        b.configure_timeout(Some(10), 9);
        b.request(0x800, 1, 0);
        b.request(0x100, 2, 0);
        assert_eq!(b.take_expired(10).unwrap().line, 0x100);
        assert_eq!(b.take_expired(10).unwrap().line, 0x800);
        assert_eq!(b.take_expired(10), None);
    }
}
