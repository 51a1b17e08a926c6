//! Experiment harness regenerating every table and figure of the
//! DataScalar paper.
//!
//! `ds-bench <experiment>` prints one table or figure (`--quick` for a
//! reduced instruction budget, `--json <path>` for the same tables as a
//! `ds-bench-result/v1` document; see [`experiments`] and [`report`]):
//!
//! | experiment | reproduces |
//! |---|---|
//! | `figure1_mmm` | Figure 1 — synchronous-ESP MMM timeline |
//! | `figure3_chain` | Figure 3 — serialized off-chip crossings |
//! | `table1_traffic` | Table 1 — ESP traffic reduction |
//! | `table2_datathreads` | Table 2 — datathread lengths, 4 nodes |
//! | `figure7_ipc` | Figure 7 — IPC across five systems |
//! | `figure8_sensitivity` | Figure 8 — go/compress sensitivity sweeps |
//! | `table3_broadcast` | Table 3 — broadcast/BSHR statistics |
//! | `section5_result_comm` | §5.1 — result-communication upper bound |
//! | `section5_hybrid` | §5.2 — hybrid parallel/SPSD scalability |
//! | `ablation_replication` | A1 — static replication fraction |
//! | `ablation_write_policy` | A2 — write-no-allocate vs write-allocate under ESP |
//! | `ablation_bshr` | A3 — BSHR capacity and access latency |
//! | `ablation_nodes` | A4 — node-count scaling, 1 to 8 |
//! | `ablation_tlb` | A5 — D-TLB size |
//! | `ablation_blocks` | A6 — round-robin distribution block size |
//! | `ablation_interconnect` | A7 — bus vs ring vs optical interconnect |
//! | `ablation_branch` | A8 — perfect vs bimodal vs static branch prediction |
//!
//! The shared runners live here so integration tests, the ledger in
//! `benchmark/` and the experiments measure exactly the same way.

use ds_core::{DsConfig, DsSystem, PerfectSystem, RunResult, TraditionalConfig, TraditionalSystem};
use ds_cpu::ExecError;
use ds_workloads::{figure7_set, Scale, Workload};

pub mod experiments;
pub mod report;
pub mod runner;
pub mod sweep;

/// Instruction budget for timing experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum instructions committed per run.
    pub max_insts: u64,
    /// Workload scale.
    pub scale: Scale,
}

impl Budget {
    /// The full experiment budget (the paper ran 100M instructions; our
    /// kernels reach steady state far sooner).
    pub fn full() -> Self {
        Budget { max_insts: 400_000, scale: Scale::Small }
    }

    /// A fast budget for smoke tests.
    pub fn quick() -> Self {
        Budget { max_insts: 40_000, scale: Scale::Tiny }
    }
}

/// The Figure 7 baseline configuration for an `n`-node machine.
pub fn baseline_config(nodes: usize, max_insts: u64) -> DsConfig {
    let mut c = DsConfig::with_nodes(nodes);
    c.max_insts = Some(max_insts);
    c
}

/// Unwraps a bench run, turning a functional-execution error or a
/// watchdog trip (with its full structured report) into a loud failure.
/// The IPC of a watchdog-aborted run is a perfectly plausible number,
/// so every experiment that publishes one goes through here.
pub fn expect_no_deadlock(run: Result<RunResult, ExecError>, what: &str) -> RunResult {
    let r = run.unwrap_or_else(|e| panic!("{what} failed to execute: {e:?}"));
    if let Some(report) = &r.deadlock {
        panic!("{what} tripped the forward-progress watchdog:\n{report}");
    }
    r
}

/// IPC of the DataScalar system with `nodes` nodes.
pub fn run_datascalar(w: &Workload, nodes: usize, budget: Budget) -> RunResult {
    let prog = (w.build)(budget.scale);
    let config = baseline_config(nodes, budget.max_insts);
    let mut sys = DsSystem::new(config, &prog);
    expect_no_deadlock(sys.run(), w.name)
}

/// IPC of the traditional system with a `1/nodes` on-chip share.
pub fn run_traditional(w: &Workload, nodes: usize, budget: Budget) -> RunResult {
    let prog = (w.build)(budget.scale);
    let config = TraditionalConfig { base: baseline_config(nodes, budget.max_insts) };
    let mut sys = TraditionalSystem::new(&config, &prog);
    expect_no_deadlock(sys.run(), w.name)
}

/// IPC of the perfect-data-cache upper bound.
pub fn run_perfect(w: &Workload, budget: Budget) -> RunResult {
    let prog = (w.build)(budget.scale);
    let config = baseline_config(1, budget.max_insts);
    let mut sys = PerfectSystem::new(&config, &prog);
    expect_no_deadlock(sys.run(), w.name)
}

/// One Figure 7 group: the five bars for one benchmark.
#[derive(Debug, Clone)]
pub struct Figure7Row {
    /// Benchmark name.
    pub name: String,
    /// Perfect-data-cache IPC.
    pub perfect: f64,
    /// 2-node DataScalar IPC.
    pub ds2: f64,
    /// 4-node DataScalar IPC.
    pub ds4: f64,
    /// Traditional, 1/2 memory on-chip.
    pub trad_half: f64,
    /// Traditional, 1/4 memory on-chip.
    pub trad_quarter: f64,
}

/// Runs all five systems of Figure 7 for one benchmark.
pub fn figure7_row(w: &Workload, budget: Budget) -> Figure7Row {
    Figure7Row {
        name: w.name.to_string(),
        perfect: run_perfect(w, budget).ipc(),
        ds2: run_datascalar(w, 2, budget).ipc(),
        ds4: run_datascalar(w, 4, budget).ipc(),
        trad_half: run_traditional(w, 2, budget).ipc(),
        trad_quarter: run_traditional(w, 4, budget).ipc(),
    }
}

/// All Figure 7 rows, one simulation per (benchmark × system) job —
/// fanned across threads when `--parallel` is given, with identical
/// results either way.
pub fn figure7_rows(budget: Budget) -> Vec<Figure7Row> {
    let set = figure7_set();
    let jobs: Vec<(usize, usize)> =
        (0..set.len()).flat_map(|wi| (0..5).map(move |sys| (wi, sys))).collect();
    let ipcs = runner::map(jobs, |&(wi, sys)| {
        let w = &set[wi];
        match sys {
            0 => run_perfect(w, budget).ipc(),
            1 => run_datascalar(w, 2, budget).ipc(),
            2 => run_datascalar(w, 4, budget).ipc(),
            3 => run_traditional(w, 2, budget).ipc(),
            _ => run_traditional(w, 4, budget).ipc(),
        }
    });
    set.iter()
        .enumerate()
        .map(|(wi, w)| Figure7Row {
            name: w.name.to_string(),
            perfect: ipcs[wi * 5],
            ds2: ipcs[wi * 5 + 1],
            ds4: ipcs[wi * 5 + 2],
            trad_half: ipcs[wi * 5 + 3],
            trad_quarter: ipcs[wi * 5 + 4],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_workloads::by_name;

    #[test]
    fn figure7_shape_for_compress() {
        // The paper's headline: compress on DataScalar approaches the
        // perfect cache and clearly beats the traditional system
        // (stores never go off-chip).
        let w = by_name("compress").unwrap();
        let row = figure7_row(&w, Budget::quick());
        assert!(row.perfect >= row.ds2 * 0.95, "perfect must bound DataScalar");
        assert!(
            row.ds2 > row.trad_half,
            "DataScalar x2 ({:.2}) must beat traditional 1/2 ({:.2}) on compress",
            row.ds2,
            row.trad_half
        );
        assert!(
            row.ds4 > row.trad_quarter,
            "DataScalar x4 ({:.2}) must beat traditional 1/4 ({:.2}) on compress",
            row.ds4,
            row.trad_quarter
        );
    }

    #[test]
    #[should_panic(expected = "li tripped the forward-progress watchdog")]
    fn a_watchdog_aborted_run_never_becomes_a_number() {
        // A fuse shorter than one off-chip round trip: the run returns
        // `Ok` with a plausible-looking IPC and a deadlock report.
        let w = by_name("li").unwrap();
        let b = Budget::quick();
        let mut config = baseline_config(2, b.max_insts);
        config.watchdog_cycles = 20;
        let mut sys = TraditionalSystem::new(&TraditionalConfig { base: config }, &(w.build)(b.scale));
        expect_no_deadlock(sys.run(), w.name);
    }

    #[test]
    fn traditional_degrades_with_less_onchip_memory() {
        let w = by_name("go").unwrap();
        let b = Budget::quick();
        let half = run_traditional(&w, 2, b).ipc();
        let quarter = run_traditional(&w, 4, b).ipc();
        assert!(quarter <= half * 1.05, "1/4 on-chip should not beat 1/2");
    }
}
