//! Ablation: BSHR capacity and access latency.
//!
//! The paper assumes a fixed BSHR (its size/latency digits were lost in
//! the source text; DESIGN.md substitution 3). This harness sweeps
//! both, reporting IPC, peak occupancy and overflows so the choice can
//! be sanity-checked.

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::DsSystem;
use ds_stats::{ratio, Table};
use ds_workloads::by_name;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: BSHR geometry (DataScalar x2, compress & wave5)");
    println!();
    let names = ["compress", "wave5"];
    let progs: Vec<_> = names
        .iter()
        .map(|n| (by_name(n).expect("registered").build)(budget.scale))
        .collect();
    const GEOMS: [(usize, u64); 7] =
        [(4, 2), (16, 2), (64, 2), (128, 2), (128, 1), (128, 4), (128, 8)];
    let jobs: Vec<(usize, usize, u64)> =
        (0..names.len()).flat_map(|wi| GEOMS.map(move |(e, a)| (wi, e, a))).collect();
    let rows = runner::map(jobs, |&(wi, entries, access)| {
        let mut config = baseline_config(2, budget.max_insts);
        config.bshr_entries = entries;
        config.bshr_access_cycles = access;
        let mut sys = DsSystem::new(config, &progs[wi]);
        let r = expect_no_deadlock(sys.run(), names[wi]);
        let occ = r.nodes.iter().map(|n| n.bshr.max_occupancy).max().unwrap_or(0);
        let ovf: u64 = r.nodes.iter().map(|n| n.bshr.overflows).sum();
        [
            entries.to_string(),
            format!("{access}cy"),
            ratio(r.ipc()),
            occ.to_string(),
            ovf.to_string(),
        ]
    });
    let mut report = Report::new("ablation_bshr");
    report.budget(budget);
    for (wi, name) in names.iter().enumerate() {
        let mut t = Table::new(&["entries", "access", "IPC", "max occupancy", "overflows"]);
        for row in &rows[wi * GEOMS.len()..(wi + 1) * GEOMS.len()] {
            t.row(row);
        }
        println!("=== {name} ===\n{t}");
        report.table(name, &t);
    }
    println!("occupancy stays far below the paper-scale 128 entries; access");
    println!("latency matters only when remote loads dominate");
    report.write_if_requested();
}
