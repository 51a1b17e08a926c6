//! Run-level statistics shared by all three system models.

use crate::bshr::BshrStats;
use ds_cpu::OooStats;
use ds_net::BusStats;
use ds_obs::MetricsReport;

/// Per-node statistics of a DataScalar run (a subset applies to the
/// traditional and perfect systems).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Loads that reached the memory side (not forwarded in the LSQ).
    pub loads_issued: u64,
    /// Issue-time primary-cache hits among those.
    pub issue_hits: u64,
    /// Issue-time misses serviced from local memory.
    pub local_misses: u64,
    /// Issue-time misses to remote communicated lines (§4.3's "remote
    /// accesses").
    pub remote_accesses: u64,
    /// ESP broadcasts sent (early + late).
    pub broadcasts_sent: u64,
    /// Broadcasts issued late, at commit, due to false hits (Table 3).
    pub late_broadcasts: u64,
    /// Commit-time false hits detected (hit at issue, miss in commit
    /// order).
    pub false_hits: u64,
    /// Commit-time false misses detected (miss at issue, hit in commit
    /// order; normalised in the DCUB).
    pub false_misses: u64,
    /// Stores committed.
    pub stores_committed: u64,
    /// Store write-throughs completed in local memory.
    pub writethroughs_local: u64,
    /// Dirty victims written back to local memory.
    pub writebacks_local: u64,
    /// Stores and write-backs dropped because another node owns the
    /// line (ESP write elimination).
    pub writes_dropped: u64,
    /// BSHR counters.
    pub bshr: BshrStats,
    /// Core counters.
    pub core: OooStats,
    /// High-water mark of DCUB occupancy.
    pub dcub_max: usize,
    /// Retransmit requests this node sent after BSHR timeouts
    /// (ds-chaos hardening; zero in fault-free runs).
    pub retransmit_requests: u64,
    /// Reparative re-broadcasts this node sent as owner in answer to
    /// retransmit requests.
    pub retransmit_rebroadcasts: u64,
    /// Direct owner requests sent for degraded lines.
    pub degraded_requests: u64,
    /// Direct responses this node served as owner for degraded lines.
    pub degraded_responses: u64,
}

impl NodeStats {
    /// Fraction of broadcasts that were late (reparative) — Table 3
    /// column 1.
    pub fn late_broadcast_frac(&self) -> f64 {
        frac(self.late_broadcasts, self.broadcasts_sent)
    }

    /// Fraction of broadcast arrivals consumed by squashes — Table 3
    /// column 2.
    pub fn squash_frac(&self) -> f64 {
        frac(self.bshr.squashed_arrivals, self.bshr.arrivals)
    }

    /// Fraction of remote accesses that found their data already
    /// waiting in the BSHR — Table 3 column 3 (datathreading evidence).
    pub fn found_in_bshr_frac(&self) -> f64 {
        frac(self.bshr.found_buffered, self.remote_accesses)
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The result of one timing-simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Core-clock cycles simulated.
    pub cycles: u64,
    /// Instructions committed (per node; all nodes commit the same
    /// stream).
    pub committed: u64,
    /// Per-node statistics.
    pub nodes: Vec<NodeStats>,
    /// Global interconnect statistics.
    pub bus: BusStats,
    /// High-water mark of the shared trace window (worst-case node
    /// skew plus in-flight instructions) — bounds simulator memory.
    pub trace_window_high_water: usize,
    /// Derived event-stream metrics (broadcast latency, BSHR/DCUB
    /// occupancy, datathread run lengths, per-node cycle accounts and
    /// hot-PC tables). `Some` on the `Obs` flavour — DataScalar runs
    /// carry the full event stream, traditional/perfect runs commit
    /// events plus cycle accounting — and `None` on `Plain`.
    /// Deliberately excluded from the golden fingerprints —
    /// observation must not perturb the pinned counters.
    pub metrics: Option<MetricsReport>,
    /// `Some` when the forward-progress watchdog aborted the run: the
    /// structured evidence of where every node was wedged. Boxed — the
    /// report is large and almost every run carries `None`.
    pub deadlock: Option<Box<crate::watchdog::DeadlockReport>>,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Arithmetic mean over nodes of a per-node metric (the paper's
    /// Table 3 reports "the arithmetic mean at all nodes").
    pub fn node_mean(&self, f: impl Fn(&NodeStats) -> f64) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(f).sum::<f64>() / self.nodes.len() as f64
    }

    /// The per-node stall buckets merged into one machine-wide ledger
    /// (its total is `cycles * nodes`). `None` without cycle-accounting
    /// metrics (a `Plain` run).
    pub fn stall_totals(&self) -> Option<ds_obs::CycleAccount> {
        let m = self.metrics.as_ref()?;
        if m.node_accounts.is_empty() {
            return None;
        }
        let mut total = ds_obs::CycleAccount::default();
        for a in &m.node_accounts {
            total.merge(a);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_zero_denominators() {
        let s = NodeStats::default();
        assert_eq!(s.late_broadcast_frac(), 0.0);
        assert_eq!(s.squash_frac(), 0.0);
        assert_eq!(s.found_in_bshr_frac(), 0.0);
    }

    #[test]
    fn ipc_computation() {
        let r = RunResult { cycles: 100, committed: 250, ..Default::default() };
        assert_eq!(r.ipc(), 2.5);
        let empty = RunResult::default();
        assert_eq!(empty.ipc(), 0.0);
    }

    #[test]
    fn node_mean_averages() {
        let a = NodeStats { broadcasts_sent: 10, late_broadcasts: 5, ..Default::default() };
        let b = NodeStats { broadcasts_sent: 10, late_broadcasts: 0, ..Default::default() };
        let r = RunResult { cycles: 1, committed: 1, nodes: vec![a, b], ..Default::default() };
        assert!((r.node_mean(|n| n.late_broadcast_frac()) - 0.25).abs() < 1e-12);
    }
}
