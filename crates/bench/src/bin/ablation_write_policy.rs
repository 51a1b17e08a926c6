//! Ablation: D-cache write policy under ESP.
//!
//! §4.2: "we believe that this write [-no-allocate] policy is superior
//! to write-allocate in an ESP-based system (with a write-allocate
//! protocol, a write miss requires sending an inter-processor message,
//! only to overwrite the received data)". This harness measures both
//! policies on the two-node DataScalar machine.

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::DsSystem;
use ds_mem::WritePolicy;
use ds_stats::{ratio, Table};
use ds_workloads::figure7_set;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: write-no-allocate vs write-allocate (DataScalar x2)");
    println!();
    let mut t = Table::new(&[
        "benchmark",
        "no-alloc IPC",
        "alloc IPC",
        "no-alloc bcasts",
        "alloc bcasts",
    ]);
    let set = figure7_set();
    let progs: Vec<_> = set.iter().map(|w| (w.build)(budget.scale)).collect();
    const POLICIES: [WritePolicy; 2] =
        [WritePolicy::WriteBackNoAllocate, WritePolicy::WriteBackAllocate];
    let jobs: Vec<(usize, usize)> =
        (0..set.len()).flat_map(|wi| (0..POLICIES.len()).map(move |pi| (wi, pi))).collect();
    let results = runner::map(jobs, |&(wi, pi)| {
        let mut config = baseline_config(2, budget.max_insts);
        config.dcache.write_policy = POLICIES[pi];
        let mut sys = DsSystem::new(config, &progs[wi]);
        expect_no_deadlock(sys.run(), set[wi].name)
    });
    for (wi, w) in set.iter().enumerate() {
        let (noalloc, alloc) = (&results[wi * 2], &results[wi * 2 + 1]);
        t.row(&[
            w.name.to_string(),
            ratio(noalloc.ipc()),
            ratio(alloc.ipc()),
            noalloc.bus.broadcasts.to_string(),
            alloc.bus.broadcasts.to_string(),
        ]);
    }
    println!("{t}");
    println!("write-allocate turns every store miss into a broadcast whose data");
    println!("is immediately overwritten — the paper's argument for no-allocate");

    let mut report = Report::new("ablation_write_policy");
    report.budget(budget).table("Ablation: write-no-allocate vs write-allocate", &t);
    report.write_if_requested();
}
