//! Ablation: static replication fraction.
//!
//! The paper's §2/§3.2 lever: replicating heavily-used pages trades
//! per-node memory capacity for eliminated broadcasts. This harness
//! replicates increasing fractions of each benchmark's data pages
//! (hottest first, by profile) and reports IPC and bus traffic on the
//! two-node machine.

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::DsSystem;
use ds_stats::{ratio, Table};
use ds_trace::PageProfile;
use ds_workloads::by_name;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: static replication fraction (DataScalar x2)");
    println!();
    let names = ["compress", "mgrid", "go"];
    let config0 = baseline_config(2, budget.max_insts);
    // Profiling each workload is itself an independent job.
    let prepped = runner::map(names.to_vec(), |name| {
        let w = by_name(name).expect("registered");
        let prog = (w.build)(budget.scale);
        let profile = PageProfile::collect(&prog, config0.page_bytes, budget.max_insts * 4);
        let ranked: Vec<u64> = profile.sorted_pages().into_iter().map(|(v, _)| v).collect();
        (prog, ranked)
    });
    const FRACTIONS: [u64; 5] = [0, 25, 50, 75, 100];
    let jobs: Vec<(usize, u64)> =
        (0..names.len()).flat_map(|wi| FRACTIONS.map(move |f| (wi, f))).collect();
    let rows = runner::map(jobs, |&(wi, percent_repl)| {
        let (prog, ranked) = &prepped[wi];
        let count = (ranked.len() as u64 * percent_repl / 100) as usize;
        let mut config = config0.clone();
        config.replicated_vpns = ranked.iter().take(count).copied().collect();
        let mut sys = DsSystem::new(config, prog);
        let r = expect_no_deadlock(sys.run(), names[wi]);
        [
            format!("{percent_repl}%"),
            ratio(r.ipc()),
            r.bus.broadcasts.to_string(),
            r.bus.bytes.to_string(),
        ]
    });
    let mut report = Report::new("ablation_replication");
    report.budget(budget);
    for (wi, name) in names.iter().enumerate() {
        let mut t = Table::new(&["replicated", "IPC", "broadcasts", "bus bytes"]);
        for row in &rows[wi * FRACTIONS.len()..(wi + 1) * FRACTIONS.len()] {
            t.row(row);
        }
        println!("=== {name} ===\n{t}");
        report.table(name, &t);
    }
    println!("broadcasts fall monotonically with replication; IPC rises until");
    println!("the replicated capacity would no longer fit (which the model does");
    println!("not charge — the paper's capacity trade-off is the caveat)");
    report.write_if_requested();
}
