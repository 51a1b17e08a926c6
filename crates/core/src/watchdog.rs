//! Forward-progress monitoring and structured deadlock reports.
//!
//! The cache-correspondence protocol is correct only while every
//! broadcast pairs with its BSHR waiters — the paper's own warning is
//! that otherwise "broadcasts/waits would not pair up and the machine
//! deadlocks" (§1). Under ds-chaos fault injection that failure surface
//! is exercised on purpose, so a hung run must terminate with evidence,
//! not spin: [`ForwardProgress`] watches the committed-instruction
//! total and trips after a configurable quiet window, and the engine
//! (the one run loop of all three system models) responds by
//! assembling a [`DeadlockReport`] — per-node oldest RUU entry, BSHR
//! residents, in-flight interconnect messages, and the tail of the
//! observability event ring — instead of panicking or hanging.
//!
//! The check itself is hot-path code (one call per monitored cycle
//! range) and is an analyze root (`watchdog*`): allocation-free,
//! panic-free, deterministic. Report *construction* is cold and
//! allocates freely.

use crate::Cycle;
use ds_cpu::RuuSnapshot;
use ds_net::Message;
use ds_obs::Event;
use std::fmt;

/// Tracks whether the machine keeps retiring instructions. Trips when
/// no instruction commits system-wide for `limit` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardProgress {
    limit: Cycle,
    last_total: u64,
    last_progress_cycle: Cycle,
}

impl ForwardProgress {
    /// A monitor that trips after `limit` cycles without a commit.
    pub fn new(limit: Cycle) -> Self {
        ForwardProgress { limit, last_total: 0, last_progress_cycle: 0 }
    }

    /// Feeds the current committed total at `now`; returns `true` when
    /// the quiet window exceeded the limit and the run should abort
    /// with a report. Hot path: one comparison either way.
    #[inline]
    pub fn watchdog_check(&mut self, total_committed: u64, now: Cycle) -> bool {
        if total_committed != self.last_total {
            self.last_total = total_committed;
            self.last_progress_cycle = now;
            return false;
        }
        now.saturating_sub(self.last_progress_cycle) > self.limit
    }

    /// The cycle at which the monitor would trip absent further
    /// progress. Event-horizon skipping clamps to this so a skip never
    /// jumps past the trip cycle — naive and skipping engines abort at
    /// the identical cycle.
    #[inline]
    pub fn watchdog_deadline(&self) -> Cycle {
        self.last_progress_cycle.saturating_add(self.limit)
    }

    /// The cycle the committed total last moved (as observed by
    /// [`ForwardProgress::watchdog_check`]).
    #[inline]
    pub fn watchdog_last_progress(&self) -> Cycle {
        self.last_progress_cycle
    }
}

/// What one node looked like at the moment the watchdog tripped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeDeadlockState {
    /// Node id.
    pub node: usize,
    /// Instructions this node had committed.
    pub committed: u64,
    /// The instruction its commit stage was waiting on, if any.
    pub oldest: Option<RuuSnapshot>,
    /// Lines with outstanding BSHR waits.
    pub bshr_waits: Vec<u64>,
    /// Lines sitting buffered in the BSHR (arrived, unconsumed).
    pub bshr_buffered: Vec<u64>,
    /// Lines with pending reparative squashes.
    pub pending_squashes: Vec<u64>,
    /// Lines degraded to the request–response protocol.
    pub degraded_lines: Vec<u64>,
    /// For chaos-stalled nodes: the cycle the stall releases.
    pub stalled_until: Option<Cycle>,
}

/// The structured evidence a wedged run terminates with, carried on
/// `RunResult::deadlock` instead of a panic or an endless loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle the watchdog tripped.
    pub cycle: Cycle,
    /// Instructions committed system-wide at the trip.
    pub committed: u64,
    /// Per-node snapshots, indexed by node id.
    pub nodes: Vec<NodeDeadlockState>,
    /// Messages queued, in flight, or fault-deferred on the
    /// interconnect at the trip.
    pub in_flight: Vec<Message>,
    /// The last events (up to 64) from the observability rings; empty
    /// on the `Plain` flavour.
    pub recent_events: Vec<Event>,
}

/// Events retained from the obs ring tail in a report.
pub const REPORT_EVENT_TAIL: usize = 64;

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock at cycle {}: no commit for the watchdog window ({} insts retired)",
            self.cycle, self.committed
        )?;
        for n in &self.nodes {
            write!(f, "  node {}: committed {}", n.node, n.committed)?;
            if let Some(o) = &n.oldest {
                write!(
                    f,
                    ", head pc={:#x} icount={} state={}{}",
                    o.pc,
                    o.icount,
                    o.state,
                    if o.pending_remote { " (awaiting remote fill)" } else { "" }
                )?;
            }
            if let Some(until) = n.stalled_until {
                write!(f, ", chaos-stalled until {until}")?;
            }
            writeln!(f)?;
            if !n.bshr_waits.is_empty() {
                writeln!(f, "    bshr waits: {:#x?}", n.bshr_waits)?;
            }
            if !n.bshr_buffered.is_empty() {
                writeln!(f, "    bshr buffered: {:#x?}", n.bshr_buffered)?;
            }
            if !n.pending_squashes.is_empty() {
                writeln!(f, "    pending squashes: {:#x?}", n.pending_squashes)?;
            }
            if !n.degraded_lines.is_empty() {
                writeln!(f, "    degraded lines: {:#x?}", n.degraded_lines)?;
            }
        }
        writeln!(f, "  in-flight messages: {}", self.in_flight.len())?;
        for m in &self.in_flight {
            writeln!(
                f,
                "    {:?} line {:#x} src {} dest {:?} (enqueued at {})",
                m.kind, m.line_addr, m.src, m.dest, m.enqueued_at
            )?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} events:", self.recent_events.len())?;
            for e in &self.recent_events {
                writeln!(f, "    [{}] {:?}", e.cycle, e.kind)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_resets_the_window() {
        let mut fp = ForwardProgress::new(100);
        assert!(!fp.watchdog_check(0, 0));
        assert!(!fp.watchdog_check(0, 100), "at the limit, not past it");
        assert!(!fp.watchdog_check(5, 101), "progress resets");
        assert_eq!(fp.watchdog_deadline(), 201);
        assert!(!fp.watchdog_check(5, 201));
        assert!(fp.watchdog_check(5, 202), "past the limit without progress");
    }

    #[test]
    fn deadline_tracks_last_progress() {
        let mut fp = ForwardProgress::new(1000);
        assert_eq!(fp.watchdog_deadline(), 1000);
        fp.watchdog_check(7, 400);
        assert_eq!(fp.watchdog_deadline(), 1400);
        // No progress: deadline unchanged.
        fp.watchdog_check(7, 900);
        assert_eq!(fp.watchdog_deadline(), 1400);
    }

    #[test]
    fn report_renders_every_section() {
        let report = DeadlockReport {
            cycle: 5000,
            committed: 123,
            nodes: vec![NodeDeadlockState {
                node: 0,
                committed: 123,
                oldest: None,
                bshr_waits: vec![0x1000],
                bshr_buffered: vec![0x2000],
                pending_squashes: vec![],
                degraded_lines: vec![0x3000],
                stalled_until: Some(6000),
            }],
            in_flight: vec![Message {
                src: 1,
                dest: None,
                kind: ds_net::MsgKind::Broadcast,
                line_addr: 0x1000,
                payload_bytes: 32,
                seq: 4,
                enqueued_at: 4900,
            }],
            recent_events: Vec::new(),
        };
        let text = report.to_string();
        assert!(text.contains("deadlock at cycle 5000"));
        assert!(text.contains("bshr waits"));
        assert!(text.contains("degraded lines"));
        assert!(text.contains("chaos-stalled until 6000"));
        assert!(text.contains("in-flight messages: 1"));
    }
}
