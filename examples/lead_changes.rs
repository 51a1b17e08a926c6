//! From the Massive Memory Machine to DataScalar: how asynchrony turns
//! lead changes into overlapped datathreads.
//!
//! Simulates the synchronous-ESP MMM (the paper's Figure 1 ancestor)
//! over reference strings with different locality, then runs the same
//! access structure on the cycle-level DataScalar machine to show that
//! out-of-order nodes hide what the lock-step machine serialises.
//!
//! ```sh
//! cargo run --release --example lead_changes
//! ```

use datascalar::core_model::mmm;
use datascalar::core_model::{DsConfig, DsSystem};
use datascalar::isa::{reg, Inst, Opcode};
use datascalar::ProgBuilder;

/// A program that chases a pointer chain whose hops land on pages with
/// exactly the given ownership pattern — the MMM reference string as a
/// real dependent-load sequence.
///
/// With two nodes and round-robin page distribution, a page's owner is
/// its index parity, so the chain picks the next unused even/odd page
/// as the pattern demands. Each visited word stores the address of the
/// next; hop k therefore cannot issue before hop k-1 completes, exactly
/// like the MMM's serial reference stream.
fn build_walk(owners: &[usize], page_bytes: u64) -> datascalar::Program {
    let mut b = ProgBuilder::new();
    // Choose distinct page indices matching the owner pattern.
    let mut next = [0usize, 1]; // next unused even / odd index
    let page_of: Vec<usize> = owners
        .iter()
        .map(|&o| {
            let idx = next[o];
            next[o] += 2;
            idx
        })
        .collect();
    let total_pages = *page_of.iter().max().unwrap_or(&0) + 1;
    // Lay the chain into the span: word at page p_i points at p_{i+1}.
    let words = (total_pages as u64 * page_bytes / 8) as usize;
    let mut span = vec![0u64; words];
    let base = ds_asm_data_base();
    for w in 0..page_of.len() {
        let this = page_of[w] as u64 * page_bytes / 8;
        let next_addr =
            if w + 1 < page_of.len() { base + page_of[w + 1] as u64 * page_bytes } else { 0 };
        span[this as usize] = next_addr;
    }
    let span_ref = b.dwords(&span);
    assert_eq!(b.addr_of(span_ref), base, "span must sit at the data base");

    b.li(reg::S4, 200); // repeat to amortise warmup
    let outer = b.here();
    b.li(reg::T1, base as i64);
    let chase = b.here();
    b.inst(Inst::load(Opcode::Ld, reg::T1, reg::T1, 0));
    b.bnez(reg::T1, chase);
    b.inst(Inst::rri(Opcode::Addi, reg::S4, reg::S4, -1));
    b.bnez(reg::S4, outer);
    b.halt();
    b.finish().expect("builds")
}

/// The default data base of [`ProgBuilder`] programs.
fn ds_asm_data_base() -> u64 {
    datascalar::asm::DEFAULT_DATA_BASE
}

fn main() {
    let strings: Vec<(&str, Vec<usize>)> = vec![
        ("figure 1 (runs of 4/3/2)", mmm::figure1_owners()),
        ("single long run", vec![0; 9]),
        ("alternating every word", vec![0, 1, 0, 1, 0, 1, 0, 1, 0]),
    ];
    println!("synchronous ESP (Massive Memory Machine), lead-change penalty 2:");
    for (name, owners) in &strings {
        let t = mmm::simulate(owners, 2);
        println!(
            "  {:26} lead changes={}  mean run={:.1}  cycles={}",
            name,
            t.lead_changes,
            t.mean_run(),
            t.total_cycles()
        );
    }
    println!();
    println!("{}", mmm::simulate(&strings[0].1, 2).render());

    // Same reference structures on the asynchronous machine: the chain
    // hops across pages whose owners follow each string exactly.
    println!("asynchronous ESP (DataScalar), same structures as dependent loads");
    println!("(200 traversals each; MMM column = lock-step prediction x 200):");
    let mut spread = Vec::new();
    for (name, owners) in &strings {
        let mmm_cycles = mmm::simulate(owners, 2).total_cycles() * 200;
        let config = DsConfig::with_nodes(2);
        let program = build_walk(owners, config.page_bytes);
        let mut sys = DsSystem::new(config, &program);
        let r = sys.run().expect("runs");
        spread.push((mmm_cycles, r.cycles));
        println!(
            "  {:26} MMM={:>5}  DataScalar={:>6} cycles  broadcasts={}",
            name, mmm_cycles, r.cycles, r.bus.broadcasts
        );
    }
    let mmm_ratio = spread.iter().map(|s| s.0).max().unwrap() as f64
        / spread.iter().map(|s| s.0).min().unwrap() as f64;
    let ds_ratio = spread.iter().map(|s| s.1).max().unwrap() as f64
        / spread.iter().map(|s| s.1).min().unwrap() as f64;
    println!();
    println!("worst/best pattern spread: MMM {mmm_ratio:.2}x vs DataScalar {ds_ratio:.2}x —");
    println!("the lock-step machine pays for every lead change; the out-of-order");
    println!("nodes overlap thread migrations with useful work, flattening the cost");
}
