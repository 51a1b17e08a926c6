//! Traffic audit for any registered workload: the Table 1 trace
//! measurement side by side with the measured timing-simulation bus
//! traffic of the DataScalar and traditional systems.
//!
//! ```sh
//! cargo run --release --example traffic_audit           # compress
//! cargo run --release --example traffic_audit -- swim   # any kernel
//! ```

use datascalar::core_model::{DsConfig, DsSystem, TraditionalConfig, TraditionalSystem};
use datascalar::stats::percent;
use datascalar::trace::{measure_traffic, TrafficConfig};
use datascalar::{by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".to_string());
    let Some(workload) = by_name(&name) else {
        eprintln!("unknown workload `{name}`; known:");
        for w in datascalar::workloads::all() {
            eprintln!("  {:10} ({})", w.name, w.description);
        }
        std::process::exit(1);
    };
    println!("workload: {} (analog of {})", workload.name, workload.analog);
    println!("  {}", workload.description);
    println!();

    // Trace view (Table 1 methodology).
    let prog = (workload.build)(Scale::Small);
    let trace =
        measure_traffic(&prog, &TrafficConfig { max_insts: 2_000_000, ..Default::default() });
    println!("trace analysis (64 KiB 2-way write-allocate L1, functional):");
    println!("  fills={}  writebacks={}", trace.fills, trace.writebacks);
    println!(
        "  ESP eliminates {} of bytes, {} of transactions",
        percent(trace.bytes_eliminated()),
        percent(trace.transactions_eliminated())
    );
    println!();

    // Timing view: what actually crossed the bus.
    let mut config = DsConfig::with_nodes(2);
    config.max_insts = Some(200_000);
    let mut ds = DsSystem::new(config.clone(), &prog);
    let ds_r = ds.run().expect("runs");
    let mut trad = TraditionalSystem::new(&TraditionalConfig { base: config }, &prog);
    let trad_r = trad.run().expect("runs");

    println!("timing simulation (16 KiB direct-mapped L1, 200k instructions):");
    println!(
        "  DataScalar x2 : {:>8} bytes in {:>6} transactions ({} broadcasts), {:.2} IPC",
        ds_r.bus.bytes,
        ds_r.bus.transactions,
        ds_r.bus.broadcasts,
        ds_r.ipc()
    );
    println!(
        "  traditional   : {:>8} bytes in {:>6} transactions ({} req / {} resp / {} writes), {:.2} IPC",
        trad_r.bus.bytes,
        trad_r.bus.transactions,
        trad_r.bus.requests,
        trad_r.bus.responses,
        trad_r.bus.writes,
        trad_r.ipc()
    );
    let mean_q_ds = ds_r.bus.mean_queue_delay();
    let mean_q_tr = trad_r.bus.mean_queue_delay();
    println!("  mean bus queue delay: DataScalar {mean_q_ds:.1} cycles, traditional {mean_q_tr:.1} cycles");
}
