//! The experiments `ds-bench` can run: one row per table, figure or
//! ablation, each a function that writes its output into a [`Report`].
//!
//! Adding an experiment is adding a function and a row here, plus its
//! committed output under `results/` and its line in the crate docs'
//! table (tier-1 `tests/experiments.rs` checks all three agree).

use crate::report::Report;
use crate::Budget;

mod ablations;
mod chaos;
mod paper;
mod section5;

pub use paper::figure7_trace;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// What `ds-bench <name>` is called with; also the stem of
    /// `results/<name>.txt` and the document's `binary` member.
    pub name: &'static str,
    /// What it reproduces, in one line.
    pub about: &'static str,
    /// Runs it at `Budget`, writing everything it prints into the report.
    pub run: fn(Budget, &mut Report),
}

/// Every experiment, paper order first, then the ablations and the
/// fault-injection gate.
pub const EXPERIMENTS: &[Experiment] = &[
    row("figure1_mmm", "Figure 1 — synchronous-ESP MMM timeline", paper::figure1_mmm),
    row("figure3_chain", "Figure 3 — serialized off-chip crossings", paper::figure3_chain),
    row("table1_traffic", "Table 1 — ESP traffic reduction", paper::table1_traffic),
    row("table2_datathreads", "Table 2 — datathread lengths, 4 nodes", paper::table2_datathreads),
    row("figure7_ipc", "Figure 7 — IPC across five systems", paper::figure7_ipc),
    row(
        "figure8_sensitivity",
        "Figure 8 — go/compress sensitivity sweeps",
        paper::figure8_sensitivity,
    ),
    row("table3_broadcast", "Table 3 — broadcast/BSHR statistics", paper::table3_broadcast),
    row("section5_result_comm", "§5.1 — result-communication upper bound", section5::result_comm),
    row("section5_hybrid", "§5.2 — hybrid parallel/SPSD scalability", section5::hybrid),
    row("ablation_replication", "A1 — static replication fraction", ablations::replication),
    row(
        "ablation_write_policy",
        "A2 — write-no-allocate vs write-allocate under ESP",
        ablations::write_policy,
    ),
    row("ablation_bshr", "A3 — BSHR capacity and access latency", ablations::bshr),
    row("ablation_nodes", "A4 — node-count scaling, 1 to 8", ablations::nodes),
    row("ablation_tlb", "A5 — D-TLB size", ablations::tlb),
    row("ablation_blocks", "A6 — round-robin distribution block size", ablations::blocks),
    row(
        "ablation_interconnect",
        "A7 — bus vs ring vs optical interconnect",
        ablations::interconnect,
    ),
    row(
        "ablation_branch",
        "A8 — perfect vs bimodal vs static branch prediction",
        ablations::branch,
    ),
    row(
        "chaos_matrix",
        "Fault-injection matrix — hardened ESP recovers from every plan",
        chaos::chaos_matrix,
    ),
];

const fn row(name: &'static str, about: &'static str, run: fn(Budget, &mut Report)) -> Experiment {
    Experiment { name, about, run }
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
