//! The functional (architectural) DS-1 interpreter.

use ds_isa::{reg, Inst, Opcode, INST_BYTES};
use ds_mem::MemImage;
use std::fmt;

/// The record of one architecturally executed instruction.
///
/// This is what flows from functional execution into the timing models:
/// the decoded instruction plus everything the timing layer needs that
/// only execution can resolve (effective address, branch direction,
/// next PC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRecord {
    /// Zero-based index in the committed instruction stream.
    pub icount: u64,
    /// Byte address the instruction was fetched from.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Address of the next instruction on the architected path.
    pub next_pc: u64,
    /// For control transfers: whether the transfer was taken.
    pub taken: bool,
    /// Effective address for loads/stores (0 otherwise).
    pub mem_addr: u64,
    /// Access size in bytes for loads/stores (0 otherwise).
    pub mem_bytes: u64,
}

impl ExecRecord {
    /// True when this record is a load.
    pub fn is_load(&self) -> bool {
        self.inst.op.is_load()
    }

    /// True when this record is a store.
    pub fn is_store(&self) -> bool {
        self.inst.op.is_store()
    }
}

/// A functional execution error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The word at `pc` did not decode.
    BadInstruction {
        /// Fetch address.
        pc: u64,
        /// Underlying decode failure.
        cause: ds_isa::DecodeError,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadInstruction { pc, cause } => {
                write!(f, "bad instruction at {pc:#x}: {cause}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The architectural state of one DS-1 hardware context.
///
/// Execution semantics notes:
///
/// * integer arithmetic wraps; division by zero yields 0 and remainder
///   by zero yields the dividend (no traps — the simulator must stay
///   deterministic);
/// * shift amounts are masked to 6 bits;
/// * `addi`/`slti` sign-extend their immediate, `andi`/`ori`/`xori`
///   zero-extend it (MIPS convention);
/// * `lui` places the zero-extended immediate in bits 63..32;
/// * writes to `r0` are discarded.
///
/// # Examples
///
/// ```
/// use ds_cpu::FuncCore;
/// use ds_isa::{reg, Inst, Opcode};
/// use ds_mem::MemImage;
///
/// let mut mem = MemImage::new();
/// let prog = [
///     Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 21),
///     Inst::rrr(Opcode::Add, reg::T1, reg::T0, reg::T0),
///     Inst::halt(),
/// ];
/// for (i, inst) in prog.iter().enumerate() {
///     mem.write_u64(0x1000 + 8 * i as u64, inst.encode());
/// }
/// let mut cpu = FuncCore::new(0x1000);
/// while !cpu.halted() {
///     cpu.step(&mut mem).unwrap();
/// }
/// assert_eq!(cpu.ireg(reg::T1), 42);
/// ```
#[derive(Debug, Clone)]
pub struct FuncCore {
    pc: u64,
    iregs: [u64; 32],
    fregs: [f64; 32],
    halted: bool,
    icount: u64,
    /// Direct-mapped decode cache, PC-indexed: the fetch stream re-visits
    /// the same instructions constantly, so decoding once per line beats
    /// re-reading and re-decoding the word every retired instruction.
    /// Stores into cached text invalidate the overlapped slots.
    dcache: Vec<DecodeSlot>,
}

#[derive(Debug, Clone, Copy)]
struct DecodeSlot {
    /// Cached PC, or [`NO_PC`] when empty.
    pc: u64,
    inst: Inst,
}

/// Decode-cache empty sentinel — never a real (8-byte aligned) PC.
const NO_PC: u64 = u64::MAX;

/// Decode-cache entries; covers 32 KiB of text, power of two.
const DCACHE_ENTRIES: usize = 4096;

#[inline]
fn dcache_index(pc: u64) -> usize {
    (pc / INST_BYTES) as usize & (DCACHE_ENTRIES - 1)
}

impl FuncCore {
    /// Creates a context with `pc` at `entry` and all registers zero.
    pub fn new(entry: u64) -> Self {
        FuncCore {
            pc: entry,
            iregs: [0; 32],
            fregs: [0.0; 32],
            halted: false,
            icount: 0,
            dcache: vec![DecodeSlot { pc: NO_PC, inst: Inst::nop() }; DCACHE_ENTRIES],
        }
    }

    /// Creates a context with the stack pointer initialised.
    pub fn with_stack(entry: u64, stack_top: u64) -> Self {
        let mut c = Self::new(entry);
        c.iregs[reg::SP as usize] = stack_top;
        c
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True once a `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Reads integer register `r`.
    pub fn ireg(&self, r: u8) -> u64 {
        self.iregs[r as usize]
    }

    /// Writes integer register `r` (writes to `r0` are dropped).
    pub fn set_ireg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.iregs[r as usize] = v;
        }
    }

    /// Reads floating-point register `r`.
    pub fn freg(&self, r: u8) -> f64 {
        self.fregs[r as usize]
    }

    /// Executes one instruction, mutating architectural state and
    /// memory, and returns its [`ExecRecord`]. Returns `None` once
    /// halted.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInstruction`] if the word at the PC does not
    /// decode — the functional machine does not execute garbage.
    pub fn step(&mut self, mem: &mut MemImage) -> Result<Option<ExecRecord>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let slot = dcache_index(pc);
        let inst = if self.dcache[slot].pc == pc {
            self.dcache[slot].inst
        } else {
            let word = mem.read_u64(pc);
            let inst =
                Inst::decode(word).map_err(|cause| ExecError::BadInstruction { pc, cause })?;
            self.dcache[slot] = DecodeSlot { pc, inst };
            inst
        };
        let mut next_pc = pc + INST_BYTES;
        let mut taken = false;
        let mut mem_addr = 0u64;
        let mut mem_bytes = 0u64;
        let rs = self.iregs[inst.rs as usize];
        let rt = self.iregs[inst.rt as usize];
        let frs = self.fregs[inst.rs as usize];
        let frt = self.fregs[inst.rt as usize];
        let simm = inst.imm as i64;
        let zimm = inst.imm as u32 as u64;
        use Opcode::*;
        match inst.op {
            Add => self.set_ireg(inst.rd, rs.wrapping_add(rt)),
            Sub => self.set_ireg(inst.rd, rs.wrapping_sub(rt)),
            Mul => self.set_ireg(inst.rd, (rs as i64).wrapping_mul(rt as i64) as u64),
            Div => {
                let v = if rt == 0 { 0 } else { (rs as i64).wrapping_div(rt as i64) as u64 };
                self.set_ireg(inst.rd, v);
            }
            Rem => {
                let v = if rt == 0 { rs } else { (rs as i64).wrapping_rem(rt as i64) as u64 };
                self.set_ireg(inst.rd, v);
            }
            And => self.set_ireg(inst.rd, rs & rt),
            Or => self.set_ireg(inst.rd, rs | rt),
            Xor => self.set_ireg(inst.rd, rs ^ rt),
            Nor => self.set_ireg(inst.rd, !(rs | rt)),
            Sll => self.set_ireg(inst.rd, rs.wrapping_shl(rt as u32 & 63)),
            Srl => self.set_ireg(inst.rd, rs.wrapping_shr(rt as u32 & 63)),
            Sra => self.set_ireg(inst.rd, ((rs as i64).wrapping_shr(rt as u32 & 63)) as u64),
            Slt => self.set_ireg(inst.rd, ((rs as i64) < (rt as i64)) as u64),
            Sltu => self.set_ireg(inst.rd, (rs < rt) as u64),
            Addi => self.set_ireg(inst.rd, rs.wrapping_add_signed(simm)),
            Andi => self.set_ireg(inst.rd, rs & zimm),
            Ori => self.set_ireg(inst.rd, rs | zimm),
            Xori => self.set_ireg(inst.rd, rs ^ zimm),
            Slti => self.set_ireg(inst.rd, ((rs as i64) < simm) as u64),
            Slli => self.set_ireg(inst.rd, rs.wrapping_shl(inst.imm as u32 & 63)),
            Srli => self.set_ireg(inst.rd, rs.wrapping_shr(inst.imm as u32 & 63)),
            Srai => {
                self.set_ireg(inst.rd, ((rs as i64).wrapping_shr(inst.imm as u32 & 63)) as u64)
            }
            Lui => self.set_ireg(inst.rd, zimm << 32),
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => {
                mem_addr = rs.wrapping_add_signed(simm);
                // ds-lint: allow(p1) every opcode in this match arm defines mem_width() in the ISA table; drift is caught by ds-lint x1
                mem_bytes = inst.op.mem_width().expect("load has width").bytes();
                match inst.op {
                    Lb => self.set_ireg(inst.rd, mem.read_u8(mem_addr) as i8 as i64 as u64),
                    Lbu => self.set_ireg(inst.rd, mem.read_u8(mem_addr) as u64),
                    Lh => self.set_ireg(inst.rd, mem.read_u16(mem_addr) as i16 as i64 as u64),
                    Lhu => self.set_ireg(inst.rd, mem.read_u16(mem_addr) as u64),
                    Lw => self.set_ireg(inst.rd, mem.read_u32(mem_addr) as i32 as i64 as u64),
                    Lwu => self.set_ireg(inst.rd, mem.read_u32(mem_addr) as u64),
                    Ld => self.set_ireg(inst.rd, mem.read_u64(mem_addr)),
                    Fld => self.fregs[inst.rd as usize] = mem.read_f64(mem_addr),
                    _ => unreachable!(),
                }
            }
            Sb | Sh | Sw | Sd | Fsd => {
                mem_addr = rs.wrapping_add_signed(simm);
                // ds-lint: allow(p1) every opcode in this match arm defines mem_width() in the ISA table; drift is caught by ds-lint x1
                mem_bytes = inst.op.mem_width().expect("store has width").bytes();
                let value = self.iregs[inst.rd as usize];
                match inst.op {
                    Sb => mem.write_u8(mem_addr, value as u8),
                    Sh => mem.write_u16(mem_addr, value as u16),
                    Sw => mem.write_u32(mem_addr, value as u32),
                    Sd => mem.write_u64(mem_addr, value),
                    Fsd => mem.write_f64(mem_addr, self.fregs[inst.rd as usize]),
                    _ => unreachable!(),
                }
                // Self-modifying stores: drop any cached decode of the
                // (at most two) instruction slots this write overlaps.
                let first = mem_addr & !(INST_BYTES - 1);
                let mut a = first;
                while a < mem_addr + mem_bytes {
                    let s = dcache_index(a);
                    if self.dcache[s].pc == a {
                        self.dcache[s].pc = NO_PC;
                    }
                    a += INST_BYTES;
                }
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                taken = match inst.op {
                    Beq => rs == rt,
                    Bne => rs != rt,
                    Blt => (rs as i64) < (rt as i64),
                    Bge => (rs as i64) >= (rt as i64),
                    Bltu => rs < rt,
                    Bgeu => rs >= rt,
                    _ => unreachable!(),
                };
                if taken {
                    next_pc = inst.branch_target(pc);
                }
            }
            Jal => {
                self.set_ireg(inst.rd, pc + INST_BYTES);
                next_pc = inst.imm as u32 as u64;
                taken = true;
            }
            Jalr => {
                // Read the target before the link write in case rd == rs.
                next_pc = rs;
                self.set_ireg(inst.rd, pc + INST_BYTES);
                taken = true;
            }
            Fadd => self.fregs[inst.rd as usize] = frs + frt,
            Fsub => self.fregs[inst.rd as usize] = frs - frt,
            Fmul => self.fregs[inst.rd as usize] = frs * frt,
            Fdiv => self.fregs[inst.rd as usize] = frs / frt,
            Fsqrt => self.fregs[inst.rd as usize] = frs.sqrt(),
            Fmov => self.fregs[inst.rd as usize] = frs,
            Fneg => self.fregs[inst.rd as usize] = -frs,
            Fabs => self.fregs[inst.rd as usize] = frs.abs(),
            Feq => self.set_ireg(inst.rd, (frs == frt) as u64),
            Flt => self.set_ireg(inst.rd, (frs < frt) as u64),
            Fle => self.set_ireg(inst.rd, (frs <= frt) as u64),
            Fcvtdw => self.fregs[inst.rd as usize] = rs as i64 as f64,
            Fcvtwd => self.set_ireg(inst.rd, frs as i64 as u64),
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Nop => {}
        }
        let rec = ExecRecord {
            icount: self.icount,
            pc,
            inst,
            next_pc,
            taken,
            mem_addr,
            mem_bytes,
        };
        self.pc = next_pc;
        self.icount += 1;
        Ok(Some(rec))
    }

    /// Runs until halt or until `max_insts` more instructions execute.
    /// Returns the number of instructions executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`FuncCore::step`].
    pub fn run(&mut self, mem: &mut MemImage, max_insts: u64) -> Result<u64, ExecError> {
        let mut n = 0;
        while n < max_insts {
            if self.step(mem)?.is_none() {
                break;
            }
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_isa::reg::{RA, T0, T1, T2, ZERO};

    fn load_prog(mem: &mut MemImage, base: u64, prog: &[Inst]) {
        for (i, inst) in prog.iter().enumerate() {
            mem.write_u64(base + 8 * i as u64, inst.encode());
        }
    }

    fn run_prog(prog: &[Inst]) -> FuncCore {
        let mut mem = MemImage::new();
        load_prog(&mut mem, 0x1000, prog);
        let mut cpu = FuncCore::new(0x1000);
        cpu.run(&mut mem, 10_000).unwrap();
        assert!(cpu.halted(), "program should halt");
        cpu
    }

    #[test]
    fn arithmetic_basics() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, 7),
            Inst::rri(Opcode::Addi, T1, ZERO, -3),
            Inst::rrr(Opcode::Add, T2, T0, T1),
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T2), 4);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, 10),
            Inst::rrr(Opcode::Div, T1, T0, ZERO),
            Inst::rrr(Opcode::Rem, T2, T0, ZERO),
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T1), 0, "x/0 == 0");
        assert_eq!(cpu.ireg(T2), 10, "x%0 == x");
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, -1),
            Inst::rri(Opcode::Addi, T1, ZERO, 1),
            Inst::rrr(Opcode::Slt, T2, T0, T1),  // -1 < 1 signed
            Inst::rrr(Opcode::Sltu, reg::T3, T0, T1), // MAX < 1 unsigned? no
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T2), 1);
        assert_eq!(cpu.ireg(reg::T3), 0);
    }

    #[test]
    fn logical_immediates_zero_extend() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, -1), // all ones
            Inst::rri(Opcode::Andi, T1, T0, -1),   // imm 0xffff_ffff zero-extended
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T1), 0xffff_ffff);
    }

    #[test]
    fn lui_ori_builds_wide_constants() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Lui, T0, ZERO, 0x1234_5678u32 as i32),
            Inst::rri(Opcode::Ori, T0, T0, 0x9abc_def0u32 as i32),
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T0), 0x1234_5678_9abc_def0);
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let mut mem = MemImage::new();
        mem.write_u8(0x2000, 0x80);
        mem.write_u16(0x2002, 0x8000);
        mem.write_u32(0x2004, 0x8000_0000);
        load_prog(
            &mut mem,
            0x1000,
            &[
                Inst::rri(Opcode::Addi, T0, ZERO, 0x2000),
                Inst::load(Opcode::Lb, T1, T0, 0),
                Inst::load(Opcode::Lbu, T2, T0, 0),
                Inst::load(Opcode::Lh, reg::T3, T0, 2),
                Inst::load(Opcode::Lhu, reg::T4, T0, 2),
                Inst::load(Opcode::Lw, reg::T5, T0, 4),
                Inst::load(Opcode::Lwu, reg::T6, T0, 4),
                Inst::halt(),
            ],
        );
        let mut cpu = FuncCore::new(0x1000);
        cpu.run(&mut mem, 100).unwrap();
        assert_eq!(cpu.ireg(T1), (-128i64) as u64);
        assert_eq!(cpu.ireg(T2), 128);
        assert_eq!(cpu.ireg(reg::T3), (-32768i64) as u64);
        assert_eq!(cpu.ireg(reg::T4), 32768);
        assert_eq!(cpu.ireg(reg::T5), 0x8000_0000u32 as i32 as i64 as u64);
        assert_eq!(cpu.ireg(reg::T6), 0x8000_0000);
    }

    #[test]
    fn store_load_roundtrip_and_record() {
        let mut mem = MemImage::new();
        load_prog(
            &mut mem,
            0x1000,
            &[
                Inst::rri(Opcode::Addi, T0, ZERO, 0x3000),
                Inst::rri(Opcode::Addi, T1, ZERO, 99),
                Inst::store(Opcode::Sd, T1, T0, 8),
                Inst::load(Opcode::Ld, T2, T0, 8),
                Inst::halt(),
            ],
        );
        let mut cpu = FuncCore::new(0x1000);
        cpu.step(&mut mem).unwrap();
        cpu.step(&mut mem).unwrap();
        let st = cpu.step(&mut mem).unwrap().unwrap();
        assert!(st.is_store());
        assert_eq!(st.mem_addr, 0x3008);
        assert_eq!(st.mem_bytes, 8);
        let ld = cpu.step(&mut mem).unwrap().unwrap();
        assert!(ld.is_load());
        assert_eq!(ld.mem_addr, 0x3008);
        assert_eq!(cpu.ireg(T2), 99);
    }

    #[test]
    fn branch_loop_counts() {
        // t0 = 5; loop: t1 += t0; t0 -= 1; bne t0, zero, loop
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, 5),
            Inst::rrr(Opcode::Add, T1, T1, T0),
            Inst::rri(Opcode::Addi, T0, T0, -1),
            Inst::branch(Opcode::Bne, T0, ZERO, -2),
            Inst::halt(),
        ]);
        assert_eq!(cpu.ireg(T1), 15);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        // 0x1000: jal ra, 0x1018 ; 0x1008: halt ; 0x1010: (skipped)
        // 0x1018: addi t0, zero, 5 ; 0x1020: jalr zero, ra
        let mut mem = MemImage::new();
        load_prog(
            &mut mem,
            0x1000,
            &[
                Inst::jal(RA, 0x1018),
                Inst::halt(),
                Inst::nop(),
                Inst::rri(Opcode::Addi, T0, ZERO, 5),
                Inst::jalr(ZERO, RA),
            ],
        );
        let mut cpu = FuncCore::new(0x1000);
        cpu.run(&mut mem, 100).unwrap();
        assert!(cpu.halted());
        assert_eq!(cpu.ireg(T0), 5);
        assert_eq!(cpu.ireg(RA), 0x1008);
    }

    #[test]
    fn jalr_with_same_link_and_target_register() {
        // jalr t0, t0 must jump to the OLD t0.
        let mut mem = MemImage::new();
        load_prog(
            &mut mem,
            0x1000,
            &[
                Inst::rri(Opcode::Addi, T0, ZERO, 0x1018),
                Inst::jalr(T0, T0),
                Inst::nop(),
                Inst::halt(), // 0x1018
            ],
        );
        let mut cpu = FuncCore::new(0x1000);
        cpu.run(&mut mem, 10).unwrap();
        assert!(cpu.halted());
        assert_eq!(cpu.ireg(T0), 0x1010, "link value");
    }

    #[test]
    fn fp_pipeline() {
        let mut mem = MemImage::new();
        mem.write_f64(0x2000, 2.0);
        mem.write_f64(0x2008, 8.0);
        load_prog(
            &mut mem,
            0x1000,
            &[
                Inst::rri(Opcode::Addi, T0, ZERO, 0x2000),
                Inst::load(Opcode::Fld, 1, T0, 0),
                Inst::load(Opcode::Fld, 2, T0, 8),
                Inst::rrr(Opcode::Fadd, 3, 1, 2),   // 10
                Inst::rrr(Opcode::Fmul, 4, 1, 2),   // 16
                Inst::rrr(Opcode::Fdiv, 5, 2, 1),   // 4
                Inst::rrr(Opcode::Fsqrt, 6, 5, 0),  // 2
                Inst::rrr(Opcode::Flt, T1, 1, 2),   // 1
                Inst::store(Opcode::Fsd, 3, T0, 16),
                Inst::halt(),
            ],
        );
        let mut cpu = FuncCore::new(0x1000);
        cpu.run(&mut mem, 100).unwrap();
        assert_eq!(cpu.freg(3), 10.0);
        assert_eq!(cpu.freg(4), 16.0);
        assert_eq!(cpu.freg(5), 4.0);
        assert_eq!(cpu.freg(6), 2.0);
        assert_eq!(cpu.ireg(T1), 1);
        assert_eq!(mem.read_f64(0x2010), 10.0);
    }

    #[test]
    fn conversions() {
        let cpu = run_prog(&[
            Inst::rri(Opcode::Addi, T0, ZERO, -7),
            Inst::rri(Opcode::Fcvtdw, 1, T0, 0),
            Inst::rri(Opcode::Fcvtwd, T1, 1, 0),
            Inst::halt(),
        ]);
        assert_eq!(cpu.freg(1), -7.0);
        assert_eq!(cpu.ireg(T1), (-7i64) as u64);
    }

    #[test]
    fn r0_is_immutable() {
        let cpu = run_prog(&[Inst::rri(Opcode::Addi, ZERO, ZERO, 42), Inst::halt()]);
        assert_eq!(cpu.ireg(ZERO), 0);
    }

    #[test]
    fn halted_core_steps_to_none() {
        let mut mem = MemImage::new();
        load_prog(&mut mem, 0x1000, &[Inst::halt()]);
        let mut cpu = FuncCore::new(0x1000);
        assert!(cpu.step(&mut mem).unwrap().is_some());
        assert!(cpu.step(&mut mem).unwrap().is_none());
        assert_eq!(cpu.icount(), 1);
    }

    #[test]
    fn bad_instruction_errors() {
        let mut mem = MemImage::new();
        mem.write_u64(0x1000, u64::MAX);
        let mut cpu = FuncCore::new(0x1000);
        let err = cpu.step(&mut mem).unwrap_err();
        assert!(matches!(err, ExecError::BadInstruction { pc: 0x1000, .. }));
        assert!(err.to_string().contains("0x1000"));
    }

    #[test]
    fn records_number_the_stream() {
        let mut mem = MemImage::new();
        load_prog(&mut mem, 0x1000, &[Inst::nop(), Inst::nop(), Inst::halt()]);
        let mut cpu = FuncCore::new(0x1000);
        for want in 0..3 {
            let rec = cpu.step(&mut mem).unwrap().unwrap();
            assert_eq!(rec.icount, want);
            assert_eq!(rec.pc, 0x1000 + 8 * want);
        }
    }
}
