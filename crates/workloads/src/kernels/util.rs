//! Shared emission helpers for the workload kernels.

use ds_asm::{DataRef, Label, ProgBuilder};
use ds_isa::{reg, Inst, Opcode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG for input-data generation. Every kernel derives
/// its inputs from a fixed per-kernel seed so runs are reproducible.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Generates `n` pseudo-random `u64` values in `[0, bound)`.
pub fn random_u64s(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..bound)).collect()
}

/// Generates `n` doubles in `[0, 1)`.
pub fn random_f64s(seed: u64, n: usize) -> Vec<f64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0.0..1.0)).collect()
}

/// A counted loop skeleton: emits
/// `li counter, n; top: ...body...; addi counter, -1; bnez counter, top`.
///
/// The body is emitted by the callback. `counter` must not be clobbered
/// by the body.
pub fn counted_loop(b: &mut ProgBuilder, counter: u8, n: i64, body: impl FnOnce(&mut ProgBuilder)) {
    b.li(counter, n);
    let top = b.here();
    body(b);
    b.inst(Inst::rri(Opcode::Addi, counter, counter, -1));
    b.bnez(counter, top);
}

/// Emits the standard epilogue: stores `value_reg` to a fresh `result`
/// dword, publishes the `result` symbol, and halts.
pub fn finish_with_result(b: &mut ProgBuilder, value_reg: u8) {
    let result = b.dwords(&[0]);
    let addr = b.addr_of(result);
    b.symbol("result", addr);
    b.li(reg::K0, addr as i64);
    b.inst(Inst::store(Opcode::Sd, value_reg, reg::K0, 0));
    b.halt();
}

/// Emits a loop summing `count` u64 words starting at the address in
/// `base_reg` (clobbered) into `acc_reg` (initialised to zero), using
/// `tmp_reg` as scratch.
pub fn emit_sum_words(
    b: &mut ProgBuilder,
    base_reg: u8,
    count: i64,
    acc_reg: u8,
    tmp_reg: u8,
    counter_reg: u8,
) {
    b.li(acc_reg, 0);
    counted_loop(b, counter_reg, count, |b| {
        b.inst(Inst::load(Opcode::Ld, tmp_reg, base_reg, 0));
        b.inst(Inst::rrr(Opcode::Add, acc_reg, acc_reg, tmp_reg));
        b.inst(Inst::rri(Opcode::Addi, base_reg, base_reg, 8));
    });
}

/// Convenience: `la` into `rd` then returns the same builder (for data
/// allocated with a known ref).
pub fn la(b: &mut ProgBuilder, rd: u8, d: DataRef) {
    b.la(rd, d);
}

/// Emits `rd = rs + imm` (wrapper, for symmetry in kernel code).
pub fn addi(b: &mut ProgBuilder, rd: u8, rs: u8, imm: i32) {
    b.inst(Inst::rri(Opcode::Addi, rd, rs, imm));
}

/// Emits a three-register op.
pub fn rrr(b: &mut ProgBuilder, op: Opcode, rd: u8, rs: u8, rt: u8) {
    b.inst(Inst::rrr(op, rd, rs, rt));
}

/// Emits a load.
pub fn load(b: &mut ProgBuilder, op: Opcode, rd: u8, base: u8, disp: i32) {
    b.inst(Inst::load(op, rd, base, disp));
}

/// Emits a store.
pub fn store(b: &mut ProgBuilder, op: Opcode, value: u8, base: u8, disp: i32) {
    b.inst(Inst::store(op, value, base, disp));
}

/// A bound label pair for while-style loops: `(top, exit)`.
pub struct LoopLabels {
    /// Branch target at the top of the loop.
    pub top: Label,
    /// Exit label (bind after the loop).
    pub exit: Label,
}

/// Starts a while-style loop; the caller emits the guard and body and
/// finally binds `exit`.
pub fn open_loop(b: &mut ProgBuilder) -> LoopLabels {
    let top = b.here();
    let exit = b.label();
    LoopLabels { top, exit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cpu::FuncCore;
    use ds_mem::MemImage;

    fn run(b: &ProgBuilder) -> (FuncCore, MemImage, ds_asm::Program) {
        let prog = b.finish().unwrap();
        let mut mem = MemImage::new();
        prog.load(&mut mem);
        let mut cpu = FuncCore::with_stack(prog.entry, prog.stack_top);
        cpu.run(&mut mem, 1_000_000).unwrap();
        assert!(cpu.halted());
        (cpu, mem, prog)
    }

    #[test]
    fn counted_loop_iterates_n_times() {
        let mut b = ProgBuilder::new();
        b.li(reg::S0, 0);
        counted_loop(&mut b, reg::T0, 7, |b| {
            addi(b, reg::S0, reg::S0, 1);
        });
        finish_with_result(&mut b, reg::S0);
        let (_, mem, prog) = run(&b);
        assert_eq!(mem.read_u64(prog.symbol("result").unwrap()), 7);
    }

    #[test]
    fn sum_words_sums() {
        let mut b = ProgBuilder::new();
        let xs = b.dwords(&[1, 2, 3, 4, 5]);
        b.la(reg::S0, xs);
        emit_sum_words(&mut b, reg::S0, 5, reg::S1, reg::T1, reg::T0);
        finish_with_result(&mut b, reg::S1);
        let (_, mem, prog) = run(&b);
        assert_eq!(mem.read_u64(prog.symbol("result").unwrap()), 15);
    }

    #[test]
    fn random_data_is_deterministic() {
        assert_eq!(random_u64s(42, 10, 100), random_u64s(42, 10, 100));
        assert_ne!(random_u64s(42, 10, 1 << 40), random_u64s(43, 10, 1 << 40));
        let f = random_f64s(7, 5);
        assert_eq!(f, random_f64s(7, 5));
        assert!(f.iter().all(|&x| (0.0..1.0).contains(&x)));
    }
}
