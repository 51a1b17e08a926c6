//! `vortex` — object-database transactions (SPEC95 147.vortex analog).
//!
//! Vortex is an OO database. The kernel keeps a table of 64-byte
//! records and a sorted `(key, record-pointer)` index; each transaction
//! binary-searches the index, follows the pointer, reads several
//! fields, computes, and writes one field back — dependent loads
//! through an index plus record updates.

use super::util::{self, addi, counted_loop, finish_with_result, load, rrr, store};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};
use rand::Rng;

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "vortex",
    analog: "147.vortex",
    class: WorkloadClass::Int,
    description: "indexed record store: binary search, read, update",
    build,
};

fn params(scale: Scale) -> (usize, usize) {
    // (records, transactions)
    match scale {
        Scale::Tiny => (2000, 3000),
        Scale::Small => (8000, 15000),
        Scale::Full => (32000, 80000),
    }
}

const REC_BYTES: u64 = 64;

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (nrec, ntx) = params(scale);
    let mut b = ProgBuilder::new();
    let mut r = util::rng(0x0507e);

    // Records: key in word 0, payload words 1..7.
    let mut keys: Vec<u64> = (0..nrec as u64).map(|i| i * 7 + 3).collect();
    let mut rec_words = Vec::with_capacity(nrec * 8);
    for &k in &keys {
        rec_words.push(k);
        for w in 0..7 {
            rec_words.push(k.wrapping_mul(w + 2) & 0xffff);
        }
    }
    let records = b.dwords(&rec_words);
    let rec_base = b.addr_of(records);
    // Sorted index: (key, ptr) pairs.
    let mut idx_words = Vec::with_capacity(nrec * 2);
    for (i, &k) in keys.iter().enumerate() {
        idx_words.push(k);
        idx_words.push(rec_base + i as u64 * REC_BYTES);
    }
    let index = b.dwords(&idx_words);
    // Transaction stream: random existing keys.
    keys.sort_unstable();
    let tx: Vec<u64> = (0..ntx).map(|_| keys[r.gen_range(0..nrec)]).collect();
    let txs = b.dwords(&tx);

    b.la(reg::S0, txs);
    b.li(reg::S1, b.addr_of(index) as i64);
    b.li(reg::S6, 0); // checksum

    counted_loop(&mut b, reg::S4, ntx as i64, |b| {
        load(b, Opcode::Ld, reg::T0, reg::S0, 0); // target key
                                                  // Binary search: lo = 0, hi = nrec.
        b.li(reg::T1, 0);
        b.li(reg::T2, nrec as i64);
        let search = b.here();
        let found = b.label();
        let go_right = b.label();
        // mid = (lo + hi) / 2
        rrr(b, Opcode::Add, reg::T3, reg::T1, reg::T2);
        b.inst(Inst::rri(Opcode::Srli, reg::T3, reg::T3, 1));
        // entry = index + mid*16
        b.inst(Inst::rri(Opcode::Slli, reg::T4, reg::T3, 4));
        rrr(b, Opcode::Add, reg::T4, reg::T4, reg::S1);
        load(b, Opcode::Ld, reg::T5, reg::T4, 0); // key at mid
        b.br(Opcode::Beq, reg::T5, reg::T0, found);
        b.br(Opcode::Blt, reg::T5, reg::T0, go_right);
        b.mv(reg::T2, reg::T3); // hi = mid
        b.j(search);
        b.bind(go_right);
        addi(b, reg::T3, reg::T3, 1);
        b.mv(reg::T1, reg::T3); // lo = mid + 1
        b.j(search);
        b.bind(found);
        // Load the record, combine fields, update field 7.
        load(b, Opcode::Ld, reg::T6, reg::T4, 8); // record ptr
        load(b, Opcode::Ld, reg::T1, reg::T6, 8);
        load(b, Opcode::Ld, reg::T2, reg::T6, 16);
        load(b, Opcode::Ld, reg::T3, reg::T6, 24);
        rrr(b, Opcode::Add, reg::T1, reg::T1, reg::T2);
        rrr(b, Opcode::Xor, reg::T1, reg::T1, reg::T3);
        store(b, Opcode::Sd, reg::T1, reg::T6, 56);
        rrr(b, Opcode::Add, reg::S6, reg::S6, reg::T1);
        addi(b, reg::S0, reg::S0, 8);
    });

    finish_with_result(&mut b, reg::S6);
    b.finish().expect("vortex assembles")
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
        assert!(icount > 50_000);
    }

    #[test]
    fn updates_land_in_field_seven() {
        let prog = build(Scale::Tiny);
        let (_, _, mem) = run(&prog, 10_000_000);
        // Some record's last field must differ from its generated value.
        let mut changed = 0;
        for i in 0..2000u64 {
            let key = i * 7 + 3;
            let gen = key.wrapping_mul(8) & 0xffff;
            let now = mem.read_u64(prog.data_base + i * REC_BYTES + 56);
            if now != gen {
                changed += 1;
            }
        }
        assert!(changed > 100, "only {changed} records updated");
    }
}
