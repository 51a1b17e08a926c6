//! The timeline sampler's reconciliation contract: the per-interval
//! counter deltas are a *partition* of the whole-run ledgers, not an
//! approximation of them. Every interval bucket delta sums exactly to
//! the node's whole-run `CycleAccount`, interval lengths tile the run
//! with no gap or overlap, committed deltas sum to the run's committed
//! count (so length-weighted interval IPC equals run IPC by
//! construction), and the segmented phases partition the intervals the
//! same way. Cross-engine equality of the full `TimelineReport`
//! (naive vs. horizon-skipping) is pinned separately by
//! `tests/skip_equivalence.rs` through `RunResult` equality.

#![cfg(feature = "obs")]

use datascalar::core_model::{DsConfig, DsSystem, RunResult};
use datascalar::workloads::by_name;
use ds_bench::Budget;
use ds_obs::{StallBucket, SAMPLE_INTERVAL};

fn run(nodes: usize, workload: &str) -> RunResult {
    let budget = Budget::quick();
    let w = by_name(workload).expect("known workload");
    let prog = (w.build)(budget.scale);
    let mut config = DsConfig::with_nodes(nodes);
    config.max_insts = Some(budget.max_insts);
    let mut sys = DsSystem::new(config, &prog);
    sys.run().expect("workload executes")
}

#[test]
fn interval_deltas_sum_exactly_to_the_whole_run_ledgers() {
    let r = run(2, "compress");
    let m = r.metrics.as_ref().expect("obs builds carry metrics");
    let t = &m.timeline;
    assert_eq!(t.interval_cycles, SAMPLE_INTERVAL);
    assert_eq!(t.nodes.len(), m.node_accounts.len(), "one timeline per node");
    for (ni, node) in t.nodes.iter().enumerate() {
        assert_eq!(node.dropped, 0, "the quick budget must fit the default ring");
        assert!(!node.intervals.is_empty());

        // Intervals tile the run: contiguous from cycle 0 to the end.
        let mut expected_start = 0;
        for s in &node.intervals {
            assert_eq!(s.start, expected_start, "node {ni}: gap or overlap in intervals");
            assert!(s.len > 0, "node {ni}: zero-length interval recorded");
            expected_start = s.start + s.len;
        }
        assert_eq!(expected_start, r.cycles, "node {ni}: intervals must cover the run");

        // Committed deltas sum to the node's own run total —
        // equivalently, interval IPC weighted by interval length is the
        // node's run IPC, exactly, in integers. (Nodes commit the same
        // stream but the run ends when the first core hits the budget,
        // so the others can trail by a few instructions.)
        let committed: u64 = node.intervals.iter().map(|s| s.committed).sum();
        assert_eq!(
            committed, r.nodes[ni].core.committed,
            "node {ni}: committed deltas must sum to the node's run total"
        );

        // Each stall bucket's deltas sum to the node's whole-run ledger.
        let account = &m.node_accounts[ni];
        for b in StallBucket::ALL {
            let from_intervals: u64 =
                node.intervals.iter().map(|s| s.buckets[b as usize]).sum();
            assert_eq!(
                from_intervals,
                account.get(b),
                "node {ni}: interval deltas for `{}` must sum to the CycleAccount",
                b.label()
            );
        }
        // And per interval, the buckets fill the interval exactly.
        for s in &node.intervals {
            assert_eq!(s.buckets.iter().sum::<u64>(), s.len);
        }
    }
}

#[test]
fn phases_partition_the_intervals() {
    let r = run(4, "go");
    let t = &r.metrics.as_ref().expect("obs builds carry metrics").timeline;
    for (ni, node) in t.nodes.iter().enumerate() {
        let phases = &node.phases;
        assert!(!phases.is_empty(), "node {ni}: a non-empty run must have phases");
        let covered: u64 = phases.iter().map(|p| u64::from(p.intervals)).sum();
        assert_eq!(covered, node.intervals.len() as u64, "node {ni}");
        let phase_cycles: u64 = phases.iter().map(|p| p.cycles).sum();
        let interval_cycles: u64 = node.intervals.iter().map(|s| s.len).sum();
        assert_eq!(phase_cycles, interval_cycles, "node {ni}");
        let phase_committed: u64 = phases.iter().map(|p| p.committed).sum();
        assert_eq!(phase_committed, r.nodes[ni].core.committed, "node {ni}");
        // Phases are contiguous and start where the intervals start.
        let mut expected = node.intervals[0].start;
        for p in phases {
            assert_eq!(p.start, expected, "node {ni}: phases must be contiguous");
            expected = p.start + p.cycles;
        }
    }
}

#[test]
fn merged_timeline_aggregates_all_nodes() {
    let r = run(2, "compress");
    let t = &r.metrics.as_ref().expect("obs builds carry metrics").timeline;
    let merged = t.merged();
    // Every node records the same interval grid (all charge every
    // cycle), so the merged view keeps the grid and sums the counters
    // across nodes.
    assert_eq!(merged.intervals.len(), t.nodes[0].intervals.len());
    let merged_committed: u64 = merged.intervals.iter().map(|s| s.committed).sum();
    let per_node_committed: u64 = r.nodes.iter().map(|n| n.core.committed).sum();
    assert_eq!(merged_committed, per_node_committed);
    let machine_cycles: u64 = merged.intervals.iter().map(|s| s.buckets.iter().sum::<u64>()).sum();
    assert_eq!(machine_cycles, 2 * r.cycles);
}

#[test]
fn timeline_is_deterministic_across_identical_runs() {
    let a = run(2, "go");
    let b = run(2, "go");
    let ta = &a.metrics.as_ref().expect("metrics").timeline;
    let tb = &b.metrics.as_ref().expect("metrics").timeline;
    assert_eq!(ta, tb, "identical configs must produce identical timelines");
}
