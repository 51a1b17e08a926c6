//! Ablation: round-robin distribution block size.
//!
//! §3.2 maximises the distribution block "to improve datathread length"
//! subject to keeping every segment spread over all nodes. This
//! harness sweeps the block size on the two-node timing machine and
//! reports IPC plus the BSHR's found-waiting rate (the runtime
//! signature of longer datathreads).

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::DsSystem;
use ds_stats::{percent, ratio, Table};
use ds_workloads::by_name;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: distribution block size (DataScalar x2)");
    println!();
    let names = ["li", "compress", "mgrid"];
    let progs: Vec<_> = names
        .iter()
        .map(|n| (by_name(n).expect("registered").build)(budget.scale))
        .collect();
    const BLOCKS: [u64; 5] = [1, 2, 4, 8, 16];
    let jobs: Vec<(usize, u64)> =
        (0..names.len()).flat_map(|wi| BLOCKS.map(move |b| (wi, b))).collect();
    let rows = runner::map(jobs, |&(wi, block)| {
        let mut config = baseline_config(2, budget.max_insts);
        config.dist_block_pages = block;
        let mut sys = DsSystem::new(config, &progs[wi]);
        let r = expect_no_deadlock(sys.run(), names[wi]);
        [
            block.to_string(),
            ratio(r.ipc()),
            r.bus.broadcasts.to_string(),
            percent(r.node_mean(|n| n.found_in_bshr_frac())),
        ]
    });
    let mut report = Report::new("ablation_blocks");
    report.budget(budget);
    for (wi, name) in names.iter().enumerate() {
        let mut t = Table::new(&["block pages", "IPC", "broadcasts", "found in BSHR"]);
        for row in &rows[wi * BLOCKS.len()..(wi + 1) * BLOCKS.len()] {
            t.row(row);
        }
        println!("=== {name} ===\n{t}");
        report.table(name, &t);
    }
    println!("bigger blocks lengthen datathreads (more consecutive misses at one");
    println!("owner) — up to the point where a hot structure lands entirely on");
    println!("one node and the other only ever waits");
    report.write_if_requested();
}
