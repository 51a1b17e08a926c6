//! `m88ksim` — bytecode-interpreter loop (SPEC95 124.m88ksim analog).
//!
//! m88ksim simulates a Motorola 88100: its hot loop fetches an
//! instruction word, dispatches through a handler table, and mutates
//! simulated register/memory state. The kernel embeds exactly that: a
//! generated bytecode program, a handler jump table dispatched with
//! `jalr`, sixteen virtual registers in memory, and a small virtual
//! memory — interpreter-style indirect branches and table loads.

use super::util::{self, addi, counted_loop, finish_with_result, load, rrr, store};
use crate::{Scale, Workload, WorkloadClass};
use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};
use rand::Rng;

/// Registration.
pub const WORKLOAD: Workload = Workload {
    name: "m88ksim",
    analog: "124.m88ksim",
    class: WorkloadClass::Int,
    description: "bytecode interpreter with jalr handler dispatch",
    build,
};

fn params(scale: Scale) -> (usize, i64) {
    // (bytecode instructions, interpreter passes)
    match scale {
        Scale::Tiny => (600, 12),
        Scale::Small => (2000, 40),
        Scale::Full => (6000, 150),
    }
}

const NUM_OPS: usize = 6;
const VMEM_WORDS: u64 = 1 << 13;

/// Builds the kernel at `scale`.
pub fn build(scale: Scale) -> Program {
    let (proglen, passes) = params(scale);
    let mut b = ProgBuilder::new();
    let mut r = util::rng(0x88000);

    // Virtual program: 4 bytes per instruction (op, a, b, c).
    let mut code = Vec::with_capacity(proglen * 4);
    for _ in 0..proglen {
        code.push(r.gen_range(0..NUM_OPS as u8));
        code.push(r.gen_range(0..16u8));
        code.push(r.gen_range(0..16u8));
        code.push(r.gen_range(0..16u8));
    }
    let vcode = b.bytes(&code);
    let vregs = b.dwords(&util::random_u64s(0x88001, 16, 1 << 20));
    let vmem = b.space(VMEM_WORDS * 8);

    // Handler table (filled with label addresses after layout — the
    // builder resolves jumps, so handlers dispatch through `jalr` on
    // addresses computed from a table the program writes at startup
    // using `la`-style constants patched per handler).
    let jumptab = b.space(NUM_OPS as u64 * 8);

    b.la(reg::S0, vcode);
    b.la(reg::S1, vregs);
    b.la(reg::S2, vmem);
    b.la(reg::S3, jumptab);
    b.li(reg::S6, 0); // checksum
    b.li(reg::K1, (VMEM_WORDS as i64 - 1) * 8); // vmem mask (word-aligned)

    // Emit handlers after the main loop; first lay out the dispatch.
    let handlers: Vec<_> = (0..NUM_OPS).map(|_| b.label()).collect();
    let fill = b.label();
    let start = b.label();
    b.j(fill);

    b.bind(start);
    counted_loop(&mut b, reg::S5, passes, |b| {
        b.mv(reg::S4, reg::S0); // vpc
        b.li(reg::T9, proglen as i64);
        let dispatch = b.here();
        load(b, Opcode::Lbu, reg::T0, reg::S4, 0); // op
        load(b, Opcode::Lbu, reg::T1, reg::S4, 1); // a
        load(b, Opcode::Lbu, reg::T2, reg::S4, 2); // b
        load(b, Opcode::Lbu, reg::T3, reg::S4, 3); // c
                                                   // handler = jumptab[op]
        b.inst(Inst::rri(Opcode::Slli, reg::T4, reg::T0, 3));
        rrr(b, Opcode::Add, reg::T4, reg::T4, reg::S3);
        load(b, Opcode::Ld, reg::T4, reg::T4, 0);
        b.inst(Inst::jalr(reg::RA, reg::T4));
        addi(b, reg::S4, reg::S4, 4);
        addi(b, reg::T9, reg::T9, -1);
        b.bnez(reg::T9, dispatch);
    });
    // Checksum the virtual registers.
    b.mv(reg::T1, reg::S1);
    util::emit_sum_words(&mut b, reg::T1, 16, reg::T5, reg::T6, reg::T0);
    rrr(&mut b, Opcode::Add, reg::S6, reg::S6, reg::T5);
    finish_with_result(&mut b, reg::S6);

    // ---- handlers (leaf functions; args in T1..T3 as vreg numbers) --
    let vreg_addr = |b: &mut ProgBuilder, dst: u8, num: u8| {
        b.inst(Inst::rri(Opcode::Slli, dst, num, 3));
        b.inst(Inst::rrr(Opcode::Add, dst, dst, reg::S1));
    };
    // op 0: vr[a] = vr[b] + vr[c]
    b.bind(handlers[0]);
    vreg_addr(&mut b, reg::T5, reg::T2);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    vreg_addr(&mut b, reg::T5, reg::T3);
    load(&mut b, Opcode::Ld, reg::T7, reg::T5, 0);
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::T7);
    vreg_addr(&mut b, reg::T5, reg::T1);
    store(&mut b, Opcode::Sd, reg::T6, reg::T5, 0);
    b.ret();
    // op 1: vr[a] = vr[b] ^ vr[c]
    b.bind(handlers[1]);
    vreg_addr(&mut b, reg::T5, reg::T2);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    vreg_addr(&mut b, reg::T5, reg::T3);
    load(&mut b, Opcode::Ld, reg::T7, reg::T5, 0);
    rrr(&mut b, Opcode::Xor, reg::T6, reg::T6, reg::T7);
    vreg_addr(&mut b, reg::T5, reg::T1);
    store(&mut b, Opcode::Sd, reg::T6, reg::T5, 0);
    b.ret();
    // op 2: vr[a] = vmem[vr[b] & mask]
    b.bind(handlers[2]);
    vreg_addr(&mut b, reg::T5, reg::T2);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    rrr(&mut b, Opcode::And, reg::T6, reg::T6, reg::K1);
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::S2);
    load(&mut b, Opcode::Ld, reg::T6, reg::T6, 0);
    vreg_addr(&mut b, reg::T5, reg::T1);
    store(&mut b, Opcode::Sd, reg::T6, reg::T5, 0);
    b.ret();
    // op 3: vmem[vr[a] & mask] = vr[b]
    b.bind(handlers[3]);
    vreg_addr(&mut b, reg::T5, reg::T1);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    rrr(&mut b, Opcode::And, reg::T6, reg::T6, reg::K1);
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::S2);
    vreg_addr(&mut b, reg::T5, reg::T2);
    load(&mut b, Opcode::Ld, reg::T7, reg::T5, 0);
    store(&mut b, Opcode::Sd, reg::T7, reg::T6, 0);
    b.ret();
    // op 4: vr[a] = vr[b] + c (immediate)
    b.bind(handlers[4]);
    vreg_addr(&mut b, reg::T5, reg::T2);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::T3);
    vreg_addr(&mut b, reg::T5, reg::T1);
    store(&mut b, Opcode::Sd, reg::T6, reg::T5, 0);
    b.ret();
    // op 5: conditional: if vr[a] odd, vr[a] >>= 1 else vr[a] = vr[a]*3+c
    b.bind(handlers[5]);
    vreg_addr(&mut b, reg::T5, reg::T1);
    load(&mut b, Opcode::Ld, reg::T6, reg::T5, 0);
    b.inst(Inst::rri(Opcode::Andi, reg::T7, reg::T6, 1));
    let odd = b.label();
    let out = b.label();
    b.bnez(reg::T7, odd);
    b.inst(Inst::rri(Opcode::Slli, reg::T7, reg::T6, 1));
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::T7);
    rrr(&mut b, Opcode::Add, reg::T6, reg::T6, reg::T3);
    b.j(out);
    b.bind(odd);
    b.inst(Inst::rri(Opcode::Srli, reg::T6, reg::T6, 1));
    b.bind(out);
    store(&mut b, Opcode::Sd, reg::T6, reg::T5, 0);
    b.ret();

    // ---- startup: fill the jump table with handler addresses --------
    b.bind(fill);
    for (i, h) in handlers.iter().enumerate() {
        let addr = b.addr_of_label(*h);
        b.li(reg::T0, addr as i64);
        store(&mut b, Opcode::Sd, reg::T0, reg::S3, (i * 8) as i32);
    }
    b.j(start);

    b.finish().expect("m88ksim assembles")
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
        assert!(icount > 50_000, "interpreter ran only {icount} instructions");
    }

    #[test]
    fn interpreter_is_deterministic() {
        let p1 = build(Scale::Tiny);
        let p2 = build(Scale::Tiny);
        let (c1, i1, _) = run(&p1, 10_000_000);
        let (c2, i2, _) = run(&p2, 10_000_000);
        assert_eq!(c1, c2);
        assert_eq!(i1, i2);
    }
}
