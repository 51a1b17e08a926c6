//! `gcc` — branchy graph walk (SPEC95 126.gcc analog).
//!
//! gcc's RTL passes walk pointer-rich IR graphs with data-dependent
//! control flow. The kernel builds a random directed graph of 40-byte
//! nodes (a tag plus four edge pointers) and runs depth-first searches
//! from several roots with an explicit stack, a visited table, and a
//! tag-dependent switch in the visit — heavy on hard-to-predict
//! branches and dependent loads.

use super::util::{self, addi, counted_loop, finish_with_result, load, rrr, store};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};
use rand::Rng;

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "gcc",
    analog: "126.gcc",
    class: WorkloadClass::Int,
    description: "DFS over a pointer-rich graph with a tag switch",
    build,
};

fn params(scale: Scale) -> (usize, usize) {
    // (nodes, dfs roots)
    match scale {
        Scale::Tiny => (1500, 8),
        Scale::Small => (8000, 16),
        Scale::Full => (40000, 24),
    }
}

const NODE_BYTES: u64 = 40; // tag + 4 edges

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (nodes, roots) = params(scale);
    let mut b = ProgBuilder::new();

    // Graph in a side table the program copies into its "heap".
    let pool = b.space(nodes as u64 * NODE_BYTES);
    let pool_base = b.addr_of(pool);
    let mut r = util::rng(0x6cc);
    let mut words = vec![0u64; nodes * 5];
    for i in 0..nodes {
        words[i * 5] = r.gen_range(0..4); // tag
        for e in 0..4 {
            // ~1/5 null edges keep the DFS from visiting everything at
            // once; forward+backward edges make it cyclic.
            words[i * 5 + 1 + e] = if r.gen_range(0..5) == 0 {
                0
            } else {
                pool_base + r.gen_range(0..nodes as u64) * NODE_BYTES
            };
        }
    }
    let init = b.dwords(&words);
    let visited = b.space(nodes as u64 + 8); // byte flags (rounded up)
                                             // Worst case every edge of every node is pushed before any pop.
    let stack = b.space(8 * (4 * nodes as u64 + 64));

    // Copy the side table into the pool.
    b.la(reg::S0, init);
    b.la(reg::S1, pool);
    counted_loop(&mut b, reg::T0, (nodes * 5) as i64, |b| {
        load(b, Opcode::Ld, reg::T1, reg::S0, 0);
        store(b, Opcode::Sd, reg::T1, reg::S1, 0);
        addi(b, reg::S0, reg::S0, 8);
        addi(b, reg::S1, reg::S1, 8);
    });

    b.li(reg::S6, 0); // checksum
    b.la(reg::S5, visited);
    b.li(reg::S7, pool_base as i64);

    // For each root: clear visited, DFS.
    let mut root_ids: Vec<u64> =
        (0..roots as u64).map(|k| k * (nodes as u64 / roots as u64)).collect();
    root_ids.dedup();
    for &root in &root_ids {
        // Clear the visited table.
        b.la(reg::T1, visited);
        counted_loop(&mut b, reg::T0, (nodes as i64 + 7) / 8 + 1, |b| {
            store(b, Opcode::Sd, reg::ZERO, reg::T1, 0);
            addi(b, reg::T1, reg::T1, 8);
        });
        // Push the root.
        b.la(reg::S2, stack); // stack pointer (grows up)
        b.li(reg::T2, (pool_base + root * NODE_BYTES) as i64);
        store(&mut b, Opcode::Sd, reg::T2, reg::S2, 0);
        addi(&mut b, reg::S2, reg::S2, 8);

        let loop_top = b.here();
        let done = b.label();
        let skip = b.label();
        // Pop.
        addi(&mut b, reg::S2, reg::S2, -8);
        load(&mut b, Opcode::Ld, reg::T2, reg::S2, 0); // node ptr
                                                       // visited? index = (ptr - pool)/40
        rrr(&mut b, Opcode::Sub, reg::T3, reg::T2, reg::S7);
        b.li(reg::T4, NODE_BYTES as i64);
        rrr(&mut b, Opcode::Div, reg::T3, reg::T3, reg::T4);
        rrr(&mut b, Opcode::Add, reg::T3, reg::T3, reg::S5);
        load(&mut b, Opcode::Lbu, reg::T5, reg::T3, 0);
        b.bnez(reg::T5, skip);
        b.li(reg::T5, 1);
        store(&mut b, Opcode::Sb, reg::T5, reg::T3, 0);
        // Visit: tag switch.
        load(&mut b, Opcode::Ld, reg::T6, reg::T2, 0); // tag
        let c1 = b.label();
        let c2 = b.label();
        let visit_done = b.label();
        b.li(reg::T7, 1);
        b.br(Opcode::Beq, reg::T6, reg::T7, c1);
        b.li(reg::T7, 2);
        b.br(Opcode::Beq, reg::T6, reg::T7, c2);
        addi(&mut b, reg::S6, reg::S6, 1); // tags 0, 3
        b.j(visit_done);
        b.bind(c1);
        b.inst(Inst::rri(Opcode::Slli, reg::T7, reg::S6, 1));
        rrr(&mut b, Opcode::Xor, reg::S6, reg::S6, reg::T7);
        b.j(visit_done);
        b.bind(c2);
        addi(&mut b, reg::S6, reg::S6, 5);
        b.bind(visit_done);
        // Push non-null edges.
        for e in 0..4 {
            let no_edge = b.label();
            load(&mut b, Opcode::Ld, reg::T6, reg::T2, 8 * (e + 1));
            b.beqz(reg::T6, no_edge);
            store(&mut b, Opcode::Sd, reg::T6, reg::S2, 0);
            addi(&mut b, reg::S2, reg::S2, 8);
            b.bind(no_edge);
        }
        b.bind(skip);
        // Stack empty?
        b.la(reg::T6, stack);
        b.br(Opcode::Beq, reg::S2, reg::T6, done);
        b.j(loop_top);
        b.bind(done);
    }

    finish_with_result(&mut b, reg::S6);
    b.finish().expect("gcc assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::run;

    #[test]
    fn halts_with_nonzero_checksum() {
        let prog = build(Scale::Tiny);
        let (checksum, icount, _) = run(&prog, 10_000_000);
        assert_ne!(checksum, 0);
        assert!(icount > 30_000);
    }

    #[test]
    fn visited_table_is_fully_marked_after_last_root() {
        // At least the last root itself must be marked.
        let prog = build(Scale::Tiny);
        let (_, _, mem) = run(&prog, 10_000_000);
        let visited = prog.data_base + 1500 * NODE_BYTES + (1500 * 5 * 8);
        let marked: u64 = (0..1500).map(|i| mem.read_u8(visited + i) as u64).sum();
        assert!(marked > 0, "DFS marked nothing");
    }
}
