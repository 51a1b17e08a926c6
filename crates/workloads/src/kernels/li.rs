//! `li` — cons-cell pointer chasing (SPEC95 130.li analog).
//!
//! xlisp's hot loops walk cons cells. The kernel builds a pool of
//! 16-byte cells `(car, cdr)` whose `cdr` pointers follow a *shuffled*
//! permutation of the pool (so consecutive chases touch unrelated
//! lines), then traverses the list repeatedly summing `car`s — the
//! serial dependent-address chain of Figure 3, and the workload whose
//! datathread length the paper finds high because most of its small
//! data set can be replicated.

use super::util::{self, addi, counted_loop, finish_with_result, load, rrr};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Opcode};
use rand::seq::SliceRandom;

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "li",
    analog: "130.li",
    class: WorkloadClass::Int,
    description: "shuffled cons-cell list traversal (pointer chasing)",
    build,
};

fn params(scale: Scale) -> (usize, i64) {
    // (cells, traversals)
    match scale {
        Scale::Tiny => (2000, 6),
        Scale::Small => (8000, 12),
        Scale::Full => (32000, 25),
    }
}

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (cells, traversals) = params(scale);
    let mut b = ProgBuilder::new();

    // Lay the pool out in memory, then link it in shuffled order.
    let pool = b.space((cells * 16) as u64);
    let pool_base = b.addr_of(pool);
    let mut order: Vec<u64> = (0..cells as u64).collect();
    order.shuffle(&mut util::rng(0x11_59));
    let mut cell_words = vec![0u64; cells * 2];
    for w in 0..cells {
        let this = order[w] as usize;
        let next = if w + 1 < cells { pool_base + order[w + 1] * 16 } else { 0 };
        cell_words[this * 2] = (this as u64).wrapping_mul(2654435761) & 0xffff; // car
        cell_words[this * 2 + 1] = next; // cdr
    }
    // Overwrite the pool with initialised cells (space() reserved the
    // room; rewrite it as data by emitting the words afterwards is not
    // possible, so the program initialises from a side table instead).
    let init = b.dwords(&cell_words);
    let head = pool_base + order[0] * 16;

    // Copy the side table into the pool (realistic: lisp heaps are
    // built by the program, not the loader).
    b.la(reg::S0, init);
    b.la(reg::S1, pool);
    counted_loop(&mut b, reg::T0, (cells * 2) as i64, |b| {
        load(b, Opcode::Ld, reg::T1, reg::S0, 0);
        b.inst(ds_isa::Inst::store(Opcode::Sd, reg::T1, reg::S1, 0));
        addi(b, reg::S0, reg::S0, 8);
        addi(b, reg::S1, reg::S1, 8);
    });

    // Traverse.
    b.li(reg::S6, 0); // checksum
    counted_loop(&mut b, reg::S4, traversals, |b| {
        b.li(reg::S2, head as i64);
        let chase = b.here();
        load(b, Opcode::Ld, reg::T2, reg::S2, 0); // car
        rrr(b, Opcode::Add, reg::S6, reg::S6, reg::T2);
        load(b, Opcode::Ld, reg::S2, reg::S2, 8); // cdr
        b.bnez(reg::S2, chase);
    });

    finish_with_result(&mut b, reg::S6);
    b.finish().expect("li assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::run;

    #[test]
    fn halts_with_expected_checksum() {
        let prog = build(Scale::Tiny);
        let (checksum, icount, _) = run(&prog, 3_000_000);
        // Independently compute the expected sum of cars.
        let per_pass: u64 = (0..2000u64).map(|i| i.wrapping_mul(2654435761) & 0xffff).sum();
        assert_eq!(checksum, per_pass * 6);
        assert!(icount > 30_000);
    }

    #[test]
    fn chain_visits_every_cell() {
        let prog = build(Scale::Tiny);
        let (_, _, mem) = run(&prog, 3_000_000);
        // Walk the chain in the final memory image and count cells.
        let mut order = (0..2000u64).collect::<Vec<_>>();
        order.shuffle(&mut util::rng(0x11_59));
        let mut p = prog.data_base + order[0] * 16;
        let mut seen = 0;
        while p != 0 {
            seen += 1;
            p = mem.read_u64(p + 8);
            assert!(seen <= 2000, "cycle in the list");
        }
        assert_eq!(seen, 2000);
    }
}
