//! Quickstart: assemble a program, run it on a 2-node DataScalar
//! machine, and compare against the traditional memory organisation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use datascalar::asm::assemble;
use datascalar::core_model::{DsConfig, DsSystem, TraditionalConfig, TraditionalSystem};

fn main() {
    // Read-modify-write sweeps over a 64 KiB array — four times the
    // L1, so the memory system matters, and store-heavy, which is
    // exactly where ESP shines: created values never cross the
    // interconnect (the paper's compress observation).
    let source = r#"
        .data
        arr:    .space 65536
        total:  .word 0
        .text
        main:   li   s0, 3             # store passes
        pass:   li   t0, 8192          # elements
                la   t1, arr
                mv   t3, s0
        fill:   sd   t3, 0(t1)
                addi t3, t3, 7
                addi t1, t1, 8
                addi t0, t0, -1
                bnez t0, fill
                addi s0, s0, -1
                bnez s0, pass
                # final reduction
                li   t0, 8192
                la   t1, arr
                li   t2, 0
        sum:    ld   t3, 0(t1)
                add  t2, t2, t3
                addi t1, t1, 8
                addi t0, t0, -1
                bnez t0, sum
                la   t4, total
                sd   t2, 0(t4)
                halt
    "#;
    let program = assemble(source).expect("assembles");

    // DataScalar: two processor/memory nodes, each owning half the
    // pages, broadcasting owned operands under ESP.
    let mut ds = DsSystem::new(DsConfig::with_nodes(2), &program);
    let ds_result = ds.run().expect("runs");

    // Traditional: one processor with half the memory on-chip and the
    // other half behind the same bus with request/response.
    let trad_config = TraditionalConfig::with_onchip_share(2);
    let mut trad = TraditionalSystem::new(&trad_config, &program);
    let trad_result = trad.run().expect("runs");

    let total_addr = program.symbol("total").expect("symbol exists");
    println!("program result     : {}", ds.mem().read_u64(total_addr));
    println!("expected           : {}", 234860544u64);
    println!();
    println!("DataScalar x2      : {:.2} IPC in {} cycles", ds_result.ipc(), ds_result.cycles);
    println!(
        "  broadcasts={}  requests={}  write traffic={}",
        ds_result.bus.broadcasts, ds_result.bus.requests, ds_result.bus.writes
    );
    println!("traditional (1/2)  : {:.2} IPC in {} cycles", trad_result.ipc(), trad_result.cycles);
    println!(
        "  broadcasts={}  requests={}  write traffic={}",
        trad_result.bus.broadcasts, trad_result.bus.requests, trad_result.bus.writes
    );
    println!();
    println!(
        "speedup            : {:.2}x  (ESP removes every request and write transaction)",
        ds_result.ipc() / trad_result.ipc()
    );
}
