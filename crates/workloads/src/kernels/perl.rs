//! `perl` — chained hash table (SPEC95 134.perl analog).
//!
//! Perl scripts live in hash tables. The kernel inserts a key set into
//! a bucket-chained table (writing node fields and bucket heads), then
//! performs repeated lookups that walk the chains — a mix of hashing
//! arithmetic, dependent pointer loads, and branchy compare loops.

use super::util::{self, addi, counted_loop, finish_with_result, load, rrr, store};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "perl",
    analog: "134.perl",
    class: WorkloadClass::Int,
    description: "bucket-chained hash table, insert then lookup",
    build,
};

fn params(scale: Scale) -> (usize, usize, i64) {
    // (keys, buckets (pow2), lookup passes)
    match scale {
        Scale::Tiny => (1200, 1 << 8, 4),
        Scale::Small => (6000, 1 << 10, 6),
        Scale::Full => (30000, 1 << 12, 8),
    }
}

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (nkeys, buckets, passes) = params(scale);
    let mut b = ProgBuilder::new();

    let keys = b.dwords(&util::random_u64s(0x9e71, nkeys, u64::MAX));
    let table = b.space((buckets * 8) as u64); // bucket heads
    let pool = b.space((nkeys * 24) as u64); // nodes: key, val, next

    b.la(reg::S0, keys);
    b.la(reg::S1, table);
    b.la(reg::S2, pool);
    b.li(reg::S3, (buckets - 1) as i64);

    // Insert phase.
    b.li(reg::S5, 0); // node index
    counted_loop(&mut b, reg::S4, nkeys as i64, |b| {
        load(b, Opcode::Ld, reg::T0, reg::S0, 0); // key
                                                  // h = (key ^ (key >> 17)) & mask
        b.inst(Inst::rri(Opcode::Srli, reg::T1, reg::T0, 17));
        rrr(b, Opcode::Xor, reg::T1, reg::T0, reg::T1);
        rrr(b, Opcode::And, reg::T1, reg::T1, reg::S3);
        b.inst(Inst::rri(Opcode::Slli, reg::T1, reg::T1, 3));
        rrr(b, Opcode::Add, reg::T1, reg::T1, reg::S1); // &bucket
                                                        // node init
        store(b, Opcode::Sd, reg::T0, reg::S2, 0); // key
        store(b, Opcode::Sd, reg::S5, reg::S2, 8); // val = index
        load(b, Opcode::Ld, reg::T2, reg::T1, 0); // old head
        store(b, Opcode::Sd, reg::T2, reg::S2, 16); // next
        store(b, Opcode::Sd, reg::S2, reg::T1, 0); // head = node
        addi(b, reg::S5, reg::S5, 1);
        addi(b, reg::S0, reg::S0, 8);
        addi(b, reg::S2, reg::S2, 24);
    });

    // Lookup phase.
    b.li(reg::S6, 0); // checksum
    counted_loop(&mut b, reg::S7, passes, |b| {
        b.la(reg::S0, keys);
        counted_loop(b, reg::S4, nkeys as i64, |b| {
            load(b, Opcode::Ld, reg::T0, reg::S0, 0);
            b.inst(Inst::rri(Opcode::Srli, reg::T1, reg::T0, 17));
            rrr(b, Opcode::Xor, reg::T1, reg::T0, reg::T1);
            rrr(b, Opcode::And, reg::T1, reg::T1, reg::S3);
            b.inst(Inst::rri(Opcode::Slli, reg::T1, reg::T1, 3));
            rrr(b, Opcode::Add, reg::T1, reg::T1, reg::S1);
            load(b, Opcode::Ld, reg::T2, reg::T1, 0); // p = head
            let walk = b.here();
            let found = b.label();
            load(b, Opcode::Ld, reg::T3, reg::T2, 0); // p->key
            b.br(Opcode::Beq, reg::T3, reg::T0, found);
            load(b, Opcode::Ld, reg::T2, reg::T2, 16); // p = p->next
            b.bnez(reg::T2, walk);
            b.bind(found);
            // On hit: add val; a fallen-through miss adds the last
            // node's val (keys are all present, so this is always a
            // hit in practice — but the walk code is branchy either
            // way).
            load(b, Opcode::Ld, reg::T4, reg::T2, 8);
            rrr(b, Opcode::Add, reg::S6, reg::S6, reg::T4);
            addi(b, reg::S0, reg::S0, 8);
        });
    });

    finish_with_result(&mut b, reg::S6);
    b.finish().expect("perl assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::run;

    #[test]
    fn halts_with_expected_checksum() {
        let prog = build(Scale::Tiny);
        let (checksum, icount, _) = run(&prog, 5_000_000);
        // Every key is found, so each pass sums 0..nkeys (assuming the
        // random keys are distinct, which the seed guarantees here).
        let per_pass: u64 = (0..1200u64).sum();
        assert_eq!(checksum, per_pass * 4);
        assert!(icount > 50_000);
    }

    #[test]
    fn keys_are_distinct() {
        let mut ks = util::random_u64s(0x9e71, 1200, u64::MAX);
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks.len(), 1200, "seed produced duplicate keys");
    }
}
