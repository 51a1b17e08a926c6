//! The event-horizon engine's behavior-invariance contract: skipping
//! quiescent cycle ranges must produce *exactly* the `RunResult` of
//! the naive cycle-by-cycle loop — cycles, every node counter, bus
//! statistics, trace high-water mark,
//! and (under `--features obs`) the derived metrics report with its
//! per-node cycle ledgers and critical-path attribution (`RunResult`
//! equality covers `CritPathReport` field-by-field: identical edge
//! timestamps, class/kind cycles, window drop counts and top-PC
//! residency — skipped quiescent ranges retire nothing, so they add no
//! graph edges on either engine; window wraparound itself is pinned by
//! `crates/obs/src/critpath.rs` unit tests).
//!
//! The grid covers both tiny workloads across the Figure 7 node counts
//! and both interconnect topologies, the horizon-skipping engine
//! compared against the retained `no_skip` reference path. A second
//! pass narrows the machine (tiny RUU/LSQ, a real D-TLB) so the
//! window-full and translation stall classes appear in the skipped
//! ranges too.

use datascalar::core_model::{DsConfig, DsSystem, RunResult};
use datascalar::workloads::by_name;
use ds_bench::Budget;

/// Runs one workload under `config` and returns its full result.
fn run_with(config: DsConfig, workload: &str, budget: Budget) -> RunResult {
    let w = by_name(workload).expect("known workload");
    let prog = (w.build)(budget.scale);
    let mut sys = DsSystem::new(config, &prog);
    sys.run().expect("workload executes")
}

/// Asserts the two engines agree exactly on `base`.
fn assert_engines_agree(base: DsConfig, workload: &str, budget: Budget, label: &str) {
    let mut reference = base.clone();
    reference.no_skip = true;
    let naive = run_with(reference, workload, budget);

    let mut skipping = base;
    skipping.no_skip = false;
    let skipped = run_with(skipping, workload, budget);
    assert_eq!(skipped, naive, "horizon skipping diverged from the naive loop on {label}");
}

#[test]
fn engines_agree_across_the_figure7_grid() {
    let budget = Budget::quick();
    for workload in ["compress", "go"] {
        for nodes in [1usize, 2, 4] {
            for fabric in [ds_net::FabricKind::Bus, ds_net::FabricKind::Ring] {
                let mut config = DsConfig::with_nodes(nodes);
                config.max_insts = Some(budget.max_insts);
                config.interconnect = fabric;
                let label = format!("{workload}/{nodes} nodes/{fabric:?}");
                assert_engines_agree(config, workload, budget, &label);
            }
        }
    }
}

#[test]
fn engines_agree_on_a_narrow_machine() {
    // A tiny window and a real D-TLB push the run through the stall
    // classes the wide default machine rarely shows (RUU/LSQ full,
    // translation walks), so the batch charge path sees them too.
    let budget = Budget::quick();
    for workload in ["compress", "go"] {
        for fabric in [ds_net::FabricKind::Bus, ds_net::FabricKind::Ring] {
            let mut config = DsConfig::with_nodes(2);
            config.max_insts = Some(budget.max_insts);
            config.interconnect = fabric;
            config.core.fetch_width = 2;
            config.core.issue_width = 2;
            config.core.commit_width = 2;
            config.core.ruu_entries = 16;
            config.core.lsq_entries = 8;
            config.tlb = Some(ds_mem::TlbConfig { entries: 8, assoc: 2, page_bytes: 4096 });
            let label = format!("narrow {workload}/{fabric:?}");
            assert_engines_agree(config, workload, budget, &label);
        }
    }
}

#[test]
fn skipping_actually_skips() {
    // Guard against the engine silently degenerating into the naive
    // loop: on a remote-wait-heavy run a substantial share of the
    // cycles must be covered by horizon jumps, and the reference path
    // must report none.
    let budget = Budget::quick();
    let w = by_name("compress").expect("known workload");
    let prog = (w.build)(budget.scale);
    let mut config = DsConfig::with_nodes(4);
    config.max_insts = Some(budget.max_insts);

    let mut sys = DsSystem::new(config.clone(), &prog);
    let r = sys.run().expect("workload executes");
    assert!(
        sys.cycles_skipped() > r.cycles / 10,
        "expected a material share of {} cycles skipped, got {}",
        r.cycles,
        sys.cycles_skipped()
    );

    config.no_skip = true;
    let mut reference = DsSystem::new(config, &prog);
    reference.run().expect("workload executes");
    assert_eq!(reference.cycles_skipped(), 0, "the reference path must never skip");
}
