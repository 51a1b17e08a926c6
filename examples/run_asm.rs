//! Assemble and run a DS-1 assembly file on any of the simulated
//! systems.
//!
//! ```sh
//! cargo run --release --example run_asm -- program.s            # functional
//! cargo run --release --example run_asm -- program.s ds 4       # DataScalar x4
//! cargo run --release --example run_asm -- program.s trad 2     # traditional, 1/2 on-chip
//! cargo run --release --example run_asm -- program.s perfect    # perfect cache
//! ```
//!
//! Without a file argument, runs a built-in demo program.

use datascalar::core_model::{
    DsConfig, DsSystem, PerfectSystem, TraditionalConfig, TraditionalSystem,
};
use datascalar::cpu::FuncCore;
use datascalar::mem::MemImage;
use datascalar::{assemble, Program};

const DEMO: &str = r#"
    # Demo: sum the 100 first squares.
    .data
    out:    .word 0
    .text
    main:   li   t0, 100
            li   t1, 0
    loop:   mul  t2, t0, t0
            add  t1, t1, t2
            addi t0, t0, -1
            bnez t0, loop
            la   t3, out
            sd   t1, 0(t3)
            halt
"#;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let source = match args.first() {
        Some(path) if path != "ds" && path != "trad" && path != "perfect" => {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            })
        }
        _ => DEMO.to_string(),
    };
    let program = assemble(&source).unwrap_or_else(|e| {
        eprintln!("assembly failed: {e}");
        std::process::exit(1);
    });
    println!(
        "assembled {} instructions, {} data bytes, entry {:#x}",
        program.text.len(),
        program.data.len(),
        program.entry
    );

    // Mode and node count from the tail of argv.
    let mode = args.iter().find(|a| ["ds", "trad", "perfect"].contains(&a.as_str()));
    let nodes: usize = args.iter().rev().find_map(|a| a.parse().ok()).unwrap_or(2);

    match mode.map(String::as_str) {
        Some("ds") => {
            let mut sys = DsSystem::new(DsConfig::with_nodes(nodes), &program);
            let r = sys.run().expect("runs");
            println!(
                "DataScalar x{nodes}: {} instructions in {} cycles = {:.2} IPC",
                r.committed,
                r.cycles,
                r.ipc()
            );
            println!(
                "  broadcasts={}  late={}  found-in-BSHR={}",
                r.bus.broadcasts,
                r.nodes.iter().map(|n| n.late_broadcasts).sum::<u64>(),
                r.nodes.iter().map(|n| n.bshr.found_buffered).sum::<u64>()
            );
            dump_symbols(&program, sys.mem());
        }
        Some("trad") => {
            let config = TraditionalConfig::with_onchip_share(nodes);
            let mut sys = TraditionalSystem::new(&config, &program);
            let r = sys.run().expect("runs");
            println!(
                "traditional (1/{nodes} on-chip): {} instructions in {} cycles = {:.2} IPC",
                r.committed,
                r.cycles,
                r.ipc()
            );
            println!(
                "  requests={}  responses={}  writes={}",
                r.bus.requests, r.bus.responses, r.bus.writes
            );
        }
        Some("perfect") => {
            let mut sys = PerfectSystem::new(&DsConfig::with_nodes(1), &program);
            let r = sys.run().expect("runs");
            println!(
                "perfect cache: {} instructions in {} cycles = {:.2} IPC",
                r.committed,
                r.cycles,
                r.ipc()
            );
        }
        _ => {
            let mut mem = MemImage::new();
            program.load(&mut mem);
            let mut cpu = FuncCore::with_stack(program.entry, program.stack_top);
            cpu.run(&mut mem, 100_000_000).expect("executes");
            println!("functional: {} instructions, halted = {}", cpu.icount(), cpu.halted());
            dump_symbols(&program, &mem);
        }
    }
}

/// Prints every data symbol's final 64-bit value.
fn dump_symbols(program: &Program, mem: &MemImage) {
    for (name, &addr) in &program.symbols {
        if addr >= program.data_base {
            println!("  {name} @ {addr:#x} = {}", mem.read_u64(addr));
        }
    }
}
