//! The event-horizon engine's behavior-invariance contract: skipping
//! quiescent cycle ranges must produce *exactly* the `RunResult` of
//! the naive cycle-by-cycle loop — cycles, every node counter, bus
//! statistics, trace high-water mark, and (every comparison is made on
//! both flavours) on `Obs` the derived metrics report with its
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
//! ranges too. All three system models run through the one engine, so
//! the traditional and perfect comparators get the same grid, the same
//! "skipping actually skips" guard, and the same watchdog-parity check.

use datascalar::core_model::{
    DsConfig, DsSystem, PerfectSystem, RunResult, TraditionalConfig, TraditionalSystem,
};
use datascalar::obs::{Flavour, Obs, Plain};
use datascalar::workloads::by_name;
use ds_bench::Budget;

/// Which of the three system models to build from a `DsConfig`.
#[derive(Debug, Clone, Copy)]
enum Model {
    DataScalar,
    Traditional,
    Perfect,
}

/// Runs one workload on `model` of flavour `F` under `config`; returns
/// its full result and the cycles covered by horizon jumps.
fn run_on<F: Flavour>(
    model: Model,
    config: DsConfig,
    workload: &str,
    budget: Budget,
) -> (RunResult, u64) {
    let w = by_name(workload).expect("known workload");
    let prog = (w.build)(budget.scale);
    match model {
        Model::DataScalar => {
            let mut sys = DsSystem::<F>::with_flavour(config, &prog);
            (sys.run().expect("workload executes"), sys.cycles_skipped())
        }
        Model::Traditional => {
            let config = TraditionalConfig { base: config };
            let mut sys = TraditionalSystem::<F>::with_flavour(&config, &prog);
            (sys.run().expect("workload executes"), sys.cycles_skipped())
        }
        Model::Perfect => {
            let mut sys = PerfectSystem::<F>::with_flavour(&config, &prog);
            (sys.run().expect("workload executes"), sys.cycles_skipped())
        }
    }
}

/// Asserts the two engines agree exactly on `base` on flavour `F`;
/// returns the agreed result.
fn engines_agree<F: Flavour>(
    model: Model,
    base: DsConfig,
    workload: &str,
    budget: Budget,
    label: &str,
) -> RunResult {
    let mut reference = base.clone();
    reference.no_skip = true;
    let (naive, _) = run_on::<F>(model, reference, workload, budget);

    let mut skipping = base;
    skipping.no_skip = false;
    let (skipped, _) = run_on::<F>(model, skipping, workload, budget);
    let flavour = std::any::type_name::<F>();
    assert_eq!(
        skipped, naive,
        "horizon skipping diverged from the naive loop on {label} ({flavour})"
    );
    skipped
}

/// [`engines_agree`] on both flavours; returns the `Plain` result.
fn assert_engines_agree(
    model: Model,
    base: DsConfig,
    workload: &str,
    budget: Budget,
    label: &str,
) -> RunResult {
    engines_agree::<Obs>(model, base.clone(), workload, budget, label);
    engines_agree::<Plain>(model, base, workload, budget, label)
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
                assert_engines_agree(Model::DataScalar, config, workload, budget, &label);
            }
        }
    }
}

#[test]
fn engines_agree_on_a_narrow_machine() {
    // A tiny window and a real D-TLB push the run through the stall
    // classes the wide default machine rarely shows (RUU/LSQ full,
    // translation walks), so the batch charge path sees them too. The
    // traditional machine always steps a bus, so it runs once.
    let budget = Budget::quick();
    for workload in ["compress", "go"] {
        for (model, fabric) in [
            (Model::DataScalar, ds_net::FabricKind::Bus),
            (Model::DataScalar, ds_net::FabricKind::Ring),
            (Model::Traditional, ds_net::FabricKind::Bus),
        ] {
            let mut config = DsConfig::with_nodes(2);
            config.max_insts = Some(budget.max_insts);
            config.interconnect = fabric;
            config.core.fetch_width = 2;
            config.core.issue_width = 2;
            config.core.commit_width = 2;
            config.core.ruu_entries = 16;
            config.core.lsq_entries = 8;
            config.tlb = Some(ds_mem::TlbConfig { entries: 8, assoc: 2, page_bytes: 4096 });
            let label = format!("narrow {workload}/{model:?}/{fabric:?}");
            assert_engines_agree(model, config, workload, budget, &label);
        }
    }
}

#[test]
fn engines_agree_on_the_comparators() {
    // Traditional at 1/2 and 1/4 on-chip, and the perfect-cache bound
    // (which ignores the node count).
    let budget = Budget::quick();
    for workload in ["compress", "go", "li", "wave5"] {
        for (model, nodes) in
            [(Model::Traditional, 2usize), (Model::Traditional, 4), (Model::Perfect, 1)]
        {
            let mut config = DsConfig::with_nodes(nodes);
            config.max_insts = Some(budget.max_insts);
            let label = format!("{workload}/{model:?}/{nodes}");
            assert_engines_agree(model, config, workload, budget, &label);
        }
    }
}

#[test]
fn skipping_actually_skips() {
    // Guard against the engine silently degenerating into the naive
    // loop: on a remote-wait-heavy run a substantial share of the
    // cycles must be covered by horizon jumps, and the reference path
    // must report none. li on the traditional machine is one long
    // chain of request round-trips: most of its cycles are skippable.
    let budget = Budget::quick();
    for (model, workload, nodes, min_share) in
        [(Model::DataScalar, "compress", 4usize, 0.1), (Model::Traditional, "li", 2, 0.5)]
    {
        let mut config = DsConfig::with_nodes(nodes);
        config.max_insts = Some(budget.max_insts);

        let (r, skipped) = run_on::<Plain>(model, config.clone(), workload, budget);
        assert!(
            skipped as f64 > r.cycles as f64 * min_share,
            "{model:?}/{workload}: expected over {min_share} of {} cycles skipped, got {skipped}",
            r.cycles,
        );

        config.no_skip = true;
        let (_, skipped) = run_on::<Plain>(model, config, workload, budget);
        assert_eq!(skipped, 0, "{model:?}: the reference path must never skip");
    }
}

#[test]
fn watchdog_trips_identically_under_both_engines() {
    // A fuse far shorter than the first off-chip round trip (or, on
    // the perfect machine, than the first I-cache fill): the run must
    // end in a deadlock report, at the same cycle with the same
    // evidence whether the quiet cycles were stepped or skipped — the
    // horizon is clamped to the watchdog deadline.
    let budget = Budget::quick();
    for (model, fuse) in [(Model::DataScalar, 20), (Model::Traditional, 20), (Model::Perfect, 3)] {
        let mut config = DsConfig::with_nodes(2);
        config.max_insts = Some(budget.max_insts);
        config.watchdog_cycles = fuse;
        let label = format!("{model:?} with a {fuse}-cycle fuse");
        let r = assert_engines_agree(model, config, "li", budget, &label);
        let report = r.deadlock.unwrap_or_else(|| panic!("{label} must trip the watchdog"));
        assert_eq!(report.cycle, r.cycles, "{label}");
    }
}
