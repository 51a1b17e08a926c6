//! Commit-time correspondence auditor (`--features audit`).
//!
//! The static linter (`crates/lint`) keeps nondeterminism out of the
//! source; this module is its dynamic counterpart, asserting the
//! correspondence protocol itself (docs/protocol.md §3–§4) while a
//! DataScalar system runs:
//!
//! * **Identical canonical streams.** The canonical cache is a pure
//!   function of the committed instruction prefix, so the k-th
//!   mem-commit at every node must produce the *same* event — same
//!   instruction, same line, same hit/miss outcome, same victim. Each
//!   node's events are checked positionally against a shared reference
//!   log as the run progresses; any divergence is caught at the first
//!   offending commit rather than as an end-of-run cache diff.
//! * **One miss per line-residency episode.** A per-node residency
//!   model (a mirror of the canonical tag array driven only by the
//!   event stream) asserts that hits land on resident lines, misses on
//!   non-resident ones, and evictions name a resident victim — i.e.
//!   false misses really were coalesced by the DCUB. The traditional
//!   machine's CPU chip is a node too, so its stream is checked here
//!   as well.
//! * **Every broadcast consumed exactly once per non-owner.** Checked
//!   at end of run by `DsSystem`: send/arrival ledgers balance and the
//!   BSHRs and DCUBs are empty (see `assert_audit_invariants`).
//!
//! Everything here is observational: the auditor sees copies of events
//! the engine already produced and never feeds anything back, so an
//! audit build commits the same cycles and stats as a normal one.

use std::collections::{BTreeSet, VecDeque};

/// How a commit-order access resolved against the canonical cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The line was resident.
    Hit,
    /// The line was installed (and `victim`, if any, evicted).
    MissAllocated,
    /// Write-no-allocate miss: the store bypassed the cache.
    MissBypassed,
}

/// One mem-op's canonical-cache transition, recorded at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Committing instruction's index in the dynamic stream.
    pub icount: u64,
    /// Line address accessed.
    pub line: u64,
    /// Store (true) or load (false).
    pub store: bool,
    /// Tag-array transition.
    pub outcome: CommitOutcome,
    /// Line evicted by a `MissAllocated`, if the set was full.
    pub victim: Option<u64>,
}

/// Per-node auditor: a residency mirror of the canonical tag array.
#[derive(Debug, Default)]
pub struct NodeAudit {
    resident: BTreeSet<u64>,
    /// Events awaiting absorption into the system-level reference log.
    pub(crate) pending: VecDeque<CommitEvent>,
    checks: u64,
}

impl NodeAudit {
    /// Validates one commit event against the residency model and
    /// queues it for cross-node comparison.
    ///
    /// # Panics
    ///
    /// Panics when the event stream implies a protocol violation: a
    /// second miss inside one residency episode, a hit on a
    /// non-resident line, or an eviction of a line that was never
    /// installed.
    pub(crate) fn record(&mut self, ev: CommitEvent) {
        match ev.outcome {
            CommitOutcome::Hit => {
                assert!(
                    self.resident.contains(&ev.line),
                    "audit: commit #{} hit line {:#x} which the canonical tag model \
                     says is not resident",
                    ev.icount,
                    ev.line
                );
            }
            CommitOutcome::MissAllocated => {
                assert!(
                    !self.resident.contains(&ev.line),
                    "audit: commit #{} missed line {:#x} inside an existing residency \
                     episode (false miss escaped DCUB coalescing)",
                    ev.icount,
                    ev.line
                );
                if let Some(v) = ev.victim {
                    assert!(
                        self.resident.remove(&v),
                        "audit: commit #{} evicted line {:#x} which was never installed",
                        ev.icount,
                        v
                    );
                }
                self.resident.insert(ev.line);
            }
            CommitOutcome::MissBypassed => {
                assert!(
                    !self.resident.contains(&ev.line),
                    "audit: commit #{} write-bypassed line {:#x} which is resident \
                     (should have been a write hit)",
                    ev.icount,
                    ev.line
                );
            }
        }
        self.checks += 1;
        self.pending.push_back(ev);
    }

    /// Assertions passed so far.
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }
}

/// System-level auditor: the shared reference log every node's commit
/// stream is compared against.
#[derive(Debug)]
pub struct SystemAudit {
    /// Events not yet confirmed by every node. `log[0]` is global
    /// commit index `base`.
    log: VecDeque<CommitEvent>,
    base: u64,
    /// Per-node count of absorbed events.
    pos: Vec<u64>,
    checks: u64,
}

impl SystemAudit {
    /// Auditor for an `n`-node system.
    pub(crate) fn new(n: usize) -> Self {
        SystemAudit { log: VecDeque::new(), base: 0, pos: vec![0; n], checks: 0 }
    }

    /// Checks `node`'s next commit event against the reference log
    /// (extending the log if this node is the furthest along).
    ///
    /// # Panics
    ///
    /// Panics when a node's k-th mem-commit differs from the k-th entry
    /// of the reference stream — the canonical caches have diverged.
    pub(crate) fn absorb(&mut self, node: usize, ev: CommitEvent) {
        let k = self.pos[node];
        self.pos[node] += 1;
        let idx = (k - self.base) as usize;
        if idx == self.log.len() {
            self.log.push_back(ev);
        } else {
            let reference = self.log[idx];
            assert_eq!(
                ev, reference,
                "audit: node {node} mem-commit #{k} diverged from the canonical \
                 commit stream (correspondence broken)"
            );
        }
        self.checks += 1;
        // Drop entries every node has confirmed; the log stays bounded
        // by the nodes' commit skew, not the program length.
        if let Some(&min) = self.pos.iter().min() {
            while self.base < min {
                self.log.pop_front();
                self.base += 1;
            }
        }
    }

    /// True when every node has absorbed the same number of events.
    pub(crate) fn aligned(&self) -> bool {
        self.pos.iter().all(|&p| p == self.pos[0])
    }

    /// Assertions passed so far.
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }

    /// Counts extra (end-of-run) assertions toward the total.
    pub(crate) fn add_checks(&mut self, n: u64) {
        self.checks += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(icount: u64, line: u64, outcome: CommitOutcome, victim: Option<u64>) -> CommitEvent {
        CommitEvent { icount, line, store: false, outcome, victim }
    }

    #[test]
    fn residency_model_tracks_episodes() {
        let mut a = NodeAudit::default();
        a.record(ev(0, 0x100, CommitOutcome::MissAllocated, None));
        a.record(ev(1, 0x100, CommitOutcome::Hit, None));
        a.record(ev(2, 0x200, CommitOutcome::MissAllocated, Some(0x100)));
        a.record(ev(3, 0x100, CommitOutcome::MissAllocated, None));
        assert_eq!(a.checks(), 4);
    }

    #[test]
    #[should_panic(expected = "false miss escaped DCUB coalescing")]
    fn double_miss_in_one_episode_panics() {
        let mut a = NodeAudit::default();
        a.record(ev(0, 0x100, CommitOutcome::MissAllocated, None));
        a.record(ev(1, 0x100, CommitOutcome::MissAllocated, None));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn hit_on_absent_line_panics() {
        let mut a = NodeAudit::default();
        a.record(ev(0, 0x100, CommitOutcome::Hit, None));
    }

    #[test]
    fn reference_log_matches_identical_streams_and_trims() {
        let mut s = SystemAudit::new(2);
        for i in 0..8u64 {
            let e = ev(i, 0x40 * i, CommitOutcome::MissAllocated, None);
            s.absorb(0, e);
            s.absorb(1, e);
        }
        assert!(s.aligned());
        assert_eq!(s.checks(), 16);
        assert!(s.log.is_empty(), "fully confirmed entries are trimmed");
    }

    #[test]
    #[should_panic(expected = "diverged from the canonical commit stream")]
    fn divergent_stream_panics() {
        let mut s = SystemAudit::new(2);
        s.absorb(0, ev(0, 0x100, CommitOutcome::MissAllocated, None));
        s.absorb(1, ev(0, 0x140, CommitOutcome::MissAllocated, None));
    }
}
