//! `compress` — LZW-style hash compression loop (SPEC95 129.compress
//! analog).
//!
//! compress is the paper's star benchmark: it "issues almost as many
//! stores as loads, which never have to go off-chip in a DataScalar
//! system", nearly doubling IPC over the traditional machine. The
//! kernel consumes a byte stream, maintains a rolling code, probes an
//! open hash table of (key, code) pairs, inserts on miss, and writes an
//! output byte per input byte — keeping the store:load ratio close to
//! compress's.

use super::util::{self, addi, finish_with_result, load, rrr, store};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};
use rand::Rng;

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "compress",
    analog: "129.compress",
    class: WorkloadClass::Int,
    description: "LZW hash loop, ~1 store per load",
    build,
};

fn params(scale: Scale) -> (usize, usize) {
    // (input bytes, hash-table slots (pow2))
    match scale {
        Scale::Tiny => (3000, 1 << 10),
        Scale::Small => (24000, 1 << 13),
        Scale::Full => (120_000, 1 << 14),
    }
}

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (len, slots) = params(scale);
    let mut b = ProgBuilder::new();

    // Skewed input: long runs plus noise, like text being compressed.
    let mut r = util::rng(0xc0405);
    let mut input = Vec::with_capacity(len);
    let mut current = b'a';
    for _ in 0..len {
        if r.gen_range(0..8) == 0 {
            current = r.gen_range(b'a'..=b'z');
        }
        input.push(current);
    }
    let input = b.bytes(&input);
    let table = b.space((slots * 16) as u64); // (key, code) pairs
    let output = b.space(len as u64);
    let output_addr = b.addr_of(output);
    b.symbol("output", output_addr);

    b.la(reg::S0, input);
    b.la(reg::S1, table);
    b.la(reg::S2, output);
    b.li(reg::S3, len as i64); // remaining
    b.li(reg::S4, (slots - 1) as i64); // hash mask
    b.li(reg::S5, 0); // rolling state
    b.li(reg::S6, 0); // checksum accumulator
    b.li(reg::S7, 0); // next code

    let top = b.here();
    let miss = b.label();
    let next = b.label();
    {
        load(&mut b, Opcode::Lbu, reg::T0, reg::S0, 0); // c = *in
                                                        // state = ((state << 5) ^ c)
        b.inst(Inst::rri(Opcode::Slli, reg::T1, reg::S5, 5));
        rrr(&mut b, Opcode::Xor, reg::S5, reg::T1, reg::T0);
        // h = state & mask; entry = table + h*16
        rrr(&mut b, Opcode::And, reg::T2, reg::S5, reg::S4);
        b.inst(Inst::rri(Opcode::Slli, reg::T2, reg::T2, 4));
        rrr(&mut b, Opcode::Add, reg::T2, reg::T2, reg::S1);
        load(&mut b, Opcode::Ld, reg::T3, reg::T2, 0); // key
        b.br(Opcode::Bne, reg::T3, reg::S5, miss);
        // Hit: emit the stored code's low byte.
        load(&mut b, Opcode::Ld, reg::T4, reg::T2, 8);
        b.j(next);
        b.bind(miss);
        // Miss: install (state, next_code), emit the literal.
        store(&mut b, Opcode::Sd, reg::S5, reg::T2, 0);
        store(&mut b, Opcode::Sd, reg::S7, reg::T2, 8);
        addi(&mut b, reg::S7, reg::S7, 1);
        b.mv(reg::T4, reg::T0);
        b.bind(next);
        store(&mut b, Opcode::Sb, reg::T4, reg::S2, 0);
        rrr(&mut b, Opcode::Add, reg::S6, reg::S6, reg::T4);
        addi(&mut b, reg::S0, reg::S0, 1);
        addi(&mut b, reg::S2, reg::S2, 1);
        addi(&mut b, reg::S3, reg::S3, -1);
    }
    b.bnez(reg::S3, top);

    finish_with_result(&mut b, reg::S6);
    b.finish().expect("compress assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::run;
    use ds_cpu::{FuncCore, TraceSource};
    use ds_mem::MemImage;

    #[test]
    fn halts_with_nonzero_checksum() {
        let prog = build(Scale::Tiny);
        let (checksum, icount, _) = run(&prog, 3_000_000);
        assert_ne!(checksum, 0);
        assert!(icount > 30_000);
    }

    #[test]
    fn store_to_load_ratio_is_high() {
        // The paper's compress observation needs stores ~= loads.
        let prog = build(Scale::Tiny);
        let mut mem = MemImage::new();
        prog.load(&mut mem);
        let mut trace = TraceSource::new(FuncCore::with_stack(prog.entry, prog.stack_top), mem);
        let (mut loads, mut stores) = (0u64, 0u64);
        let mut i = 0;
        while let Some(rec) = trace.get(i).unwrap() {
            if rec.is_load() {
                loads += 1;
            } else if rec.is_store() {
                stores += 1;
            }
            i += 1;
            trace.trim(i);
        }
        let ratio = stores as f64 / loads as f64;
        assert!(ratio > 0.5, "stores/loads = {ratio:.2}, want compress-like (> 0.5)");
    }

    #[test]
    fn output_is_produced() {
        let prog = build(Scale::Tiny);
        let (_, _, mem) = run(&prog, 3_000_000);
        let out_base = prog.symbol("output").unwrap();
        let some: u64 = (0..100).map(|i| mem.read_u8(out_base + i) as u64).sum();
        assert!(some > 0, "no output written at {out_base:#x}");
    }
}
