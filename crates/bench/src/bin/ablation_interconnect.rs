//! Ablation: interconnect technology (§4.4).
//!
//! The paper evaluates a bus, envisions a ring ("because of the
//! high-performance capability"), and notes that free-space optics make
//! broadcasts essentially free. This harness runs the Figure 7
//! benchmarks on all three: the evaluated bus, the slotted ring, and an
//! "optical" fabric modelled as a core-clocked 64-byte-wide bus.

use ds_bench::report::Report;
use ds_bench::{baseline_config, expect_no_deadlock, runner, Budget};
use ds_core::DsSystem;
use ds_net::FabricKind;
use ds_stats::{ratio, Table};
use ds_workloads::figure7_set;

fn main() {
    let budget = Budget::from_args();
    println!("Ablation: interconnect technology (DataScalar x4)");
    println!();
    let mut t = Table::new(&["benchmark", "bus IPC", "ring IPC", "optical IPC", "ring/bus"]);
    let set = figure7_set();
    let progs: Vec<_> = set.iter().map(|w| (w.build)(budget.scale)).collect();
    // Variants: the evaluated bus, the ring, and the "optical" bus.
    const VARIANTS: [(FabricKind, bool); 3] =
        [(FabricKind::Bus, false), (FabricKind::Ring, false), (FabricKind::Bus, true)];
    let jobs: Vec<(usize, usize)> =
        (0..set.len()).flat_map(|wi| (0..VARIANTS.len()).map(move |vi| (wi, vi))).collect();
    let ipcs = runner::map(jobs, |&(wi, vi)| {
        let (kind, optical) = VARIANTS[vi];
        let mut config = baseline_config(4, budget.max_insts);
        config.interconnect = kind;
        if optical {
            // Free-space optics: broadcasts at core speed and full
            // line width.
            config.bus.clock_divisor = 1;
            config.bus.width_bytes = 64;
        }
        let mut sys = DsSystem::new(config, &progs[wi]);
        expect_no_deadlock(sys.run(), set[wi].name).ipc()
    });
    for (wi, w) in set.iter().enumerate() {
        let (bus, ring, optical) = (ipcs[wi * 3], ipcs[wi * 3 + 1], ipcs[wi * 3 + 2]);
        t.row(&[
            w.name.to_string(),
            ratio(bus),
            ratio(ring),
            ratio(optical),
            format!("{:.2}x", ring / bus),
        ]);
    }
    println!("{t}");
    let mut report = Report::new("ablation_interconnect");
    report.budget(budget).table("Ablation: interconnect technology (DataScalar x4)", &t);
    report.write_if_requested();
    println!("at four nodes the cut-through ring roughly matches the bus: it");
    println!("pipelines broadcasts but each one occupies n-1 links and the");
    println!("farthest node waits extra hops — the ordering/latency complication");
    println!("the paper flags in its ring discussion. Optics removes the");
    println!("bottleneck entirely, which is why the paper calls free-broadcast");
    println!("media an excellent match for large DataScalar systems");
}
