//! Programmatic program construction.
//!
//! [`ProgBuilder`] is how the synthetic workloads are written: it
//! provides labels with forward references, the standard
//! pseudo-instruction expansions (`li`, `la`, `call`, ...), and data
//! segment allocation, producing a linked [`Program`].

use crate::error::AsmError;
use crate::program::Program;
use ds_isa::{reg, Inst, Opcode, INST_BYTES};

/// A text label (forward references allowed until [`ProgBuilder::finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A location in the data segment (known as soon as it is allocated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataRef(u64);

#[derive(Debug, Clone, Copy)]
enum Slot {
    Fixed(Inst),
    Branch { op: Opcode, rs: u8, rt: u8, target: Label },
    Jump { link: u8, target: Label },
}

/// Builds a [`Program`] in memory.
///
/// # Examples
///
/// ```
/// use ds_asm::ProgBuilder;
/// use ds_isa::{reg, Inst, Opcode};
///
/// let mut b = ProgBuilder::new();
/// let arr = b.dwords(&[5, 6, 7]);
/// b.la(reg::T0, arr);
/// b.inst(Inst::load(Opcode::Ld, reg::T1, reg::T0, 8));
/// b.halt();
/// let prog = b.finish().unwrap();
/// assert!(prog.text.len() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct ProgBuilder {
    text_base: u64,
    data_base: u64,
    slots: Vec<Slot>,
    labels: Vec<Option<usize>>,
    data: Vec<u8>,
    bss_bytes: u64,
    heap_bytes: u64,
    stack_bytes: u64,
    symbols: Vec<(String, u64)>,
}

impl ProgBuilder {
    /// A builder with the default memory layout.
    pub fn new() -> Self {
        ProgBuilder {
            text_base: crate::program::DEFAULT_TEXT_BASE,
            data_base: crate::program::DEFAULT_DATA_BASE,
            slots: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            bss_bytes: 0,
            heap_bytes: 0,
            stack_bytes: crate::program::DEFAULT_STACK_BYTES,
            symbols: Vec::new(),
        }
    }

    // ---- labels -----------------------------------------------------

    /// Allocates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `l` to the current text position.
    ///
    /// # Panics
    ///
    /// Panics if `l` is already bound.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.slots.len());
    }

    /// Allocates a label bound at the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// The absolute address a bound label resolves to.
    ///
    /// # Panics
    ///
    /// Panics if `l` is unbound.
    pub fn addr_of_label(&self, l: Label) -> u64 {
        let idx = self.labels[l.0].expect("label not bound yet");
        self.text_base + idx as u64 * INST_BYTES
    }

    // ---- instructions -----------------------------------------------

    /// Appends a raw instruction.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.slots.push(Slot::Fixed(inst));
        self
    }

    /// Appends several raw instructions.
    pub fn insts(&mut self, insts: &[Inst]) -> &mut Self {
        for &i in insts {
            self.inst(i);
        }
        self
    }

    /// `li rd, value` — loads a 64-bit constant (1 or 2 instructions).
    pub fn li(&mut self, rd: u8, value: i64) -> &mut Self {
        for i in expand_li(rd, value) {
            self.inst(i);
        }
        self
    }

    /// `la rd, data` — loads the address of a data allocation.
    pub fn la(&mut self, rd: u8, d: DataRef) -> &mut Self {
        self.li(rd, (self.data_base + d.0) as i64)
    }

    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: u8, rs: u8) -> &mut Self {
        self.inst(Inst::rrr(Opcode::Add, rd, rs, reg::ZERO))
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Inst::nop())
    }

    /// `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Inst::halt())
    }

    /// A conditional branch to a label.
    pub fn br(&mut self, op: Opcode, rs: u8, rt: u8, target: Label) -> &mut Self {
        assert!(op.is_branch(), "br requires a branch opcode");
        self.slots.push(Slot::Branch { op, rs, rt, target });
        self
    }

    /// `beqz rs, target`.
    pub fn beqz(&mut self, rs: u8, target: Label) -> &mut Self {
        self.br(Opcode::Beq, rs, reg::ZERO, target)
    }

    /// `bnez rs, target`.
    pub fn bnez(&mut self, rs: u8, target: Label) -> &mut Self {
        self.br(Opcode::Bne, rs, reg::ZERO, target)
    }

    /// Unconditional jump to a label (`jal zero, target`).
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.slots.push(Slot::Jump { link: reg::ZERO, target });
        self
    }

    /// `call target` (`jal ra, target`).
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.slots.push(Slot::Jump { link: reg::RA, target });
        self
    }

    /// `ret` (`jalr zero, ra`).
    pub fn ret(&mut self) -> &mut Self {
        self.inst(Inst::jalr(reg::ZERO, reg::RA))
    }

    // ---- data -------------------------------------------------------

    /// Appends 64-bit words to the data segment (8-byte aligned).
    pub fn dwords(&mut self, values: &[u64]) -> DataRef {
        self.align(8);
        let r = DataRef(self.data.len() as u64);
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        r
    }

    /// Appends `f64` values (8-byte aligned).
    pub fn doubles(&mut self, values: &[f64]) -> DataRef {
        self.align(8);
        let r = DataRef(self.data.len() as u64);
        for v in values {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        r
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, values: &[u8]) -> DataRef {
        let r = DataRef(self.data.len() as u64);
        self.data.extend_from_slice(values);
        r
    }

    /// Reserves `n` zero bytes (8-byte aligned).
    pub fn space(&mut self, n: u64) -> DataRef {
        self.align(8);
        let r = DataRef(self.data.len() as u64);
        self.data.resize(self.data.len() + n as usize, 0);
        r
    }

    /// Pads the data segment to an `n`-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn align(&mut self, n: u64) -> &mut Self {
        assert!(n.is_power_of_two(), "alignment must be a power of two");
        while !(self.data.len() as u64).is_multiple_of(n) {
            self.data.push(0);
        }
        self
    }

    /// The absolute address of a data allocation.
    pub fn addr_of(&self, d: DataRef) -> u64 {
        self.data_base + d.0
    }

    /// Declares `n` bytes of zero-initialised bss after the data.
    pub fn set_bss(&mut self, n: u64) -> &mut Self {
        self.bss_bytes = n;
        self
    }

    /// Declares the heap extent for page-table construction.
    pub fn set_heap(&mut self, n: u64) -> &mut Self {
        self.heap_bytes = n;
        self
    }

    /// Declares the stack reservation.
    pub fn set_stack(&mut self, n: u64) -> &mut Self {
        self.stack_bytes = n;
        self
    }

    /// Names the current text position (or any address) in the symbol
    /// table of the finished program.
    pub fn symbol(&mut self, name: impl Into<String>, addr: u64) -> &mut Self {
        self.symbols.push((name.into(), addr));
        self
    }

    // ---- finish -----------------------------------------------------

    /// Resolves labels and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error if any referenced label was never bound.
    pub fn finish(&self) -> Result<Program, AsmError> {
        let mut prog = Program::new();
        prog.text_base = self.text_base;
        prog.data_base = self.data_base;
        prog.data = self.data.clone();
        prog.bss_bytes = self.bss_bytes;
        prog.heap_bytes = self.heap_bytes;
        prog.stack_bytes = self.stack_bytes;
        prog.entry = self.text_base;
        let resolve = |l: Label| -> Result<u64, AsmError> {
            self.labels[l.0]
                .map(|idx| self.text_base + idx as u64 * INST_BYTES)
                .ok_or_else(|| AsmError::new(0, format!("label #{} never bound", l.0)))
        };
        for (i, slot) in self.slots.iter().enumerate() {
            let pc = self.text_base + i as u64 * INST_BYTES;
            let inst = match *slot {
                Slot::Fixed(inst) => inst,
                Slot::Branch { op, rs, rt, target } => {
                    let t = resolve(target)?;
                    let off = (t as i64 - pc as i64) / INST_BYTES as i64;
                    Inst::branch(op, rs, rt, off as i32)
                }
                Slot::Jump { link, target } => {
                    let t = resolve(target)?;
                    Inst::jal(link, t as u32)
                }
            };
            prog.text.push(inst);
        }
        for (name, addr) in &self.symbols {
            prog.symbols.insert(name.clone(), *addr);
        }
        Ok(prog)
    }
}

impl Default for ProgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Expands `li rd, value` into 1–2 real instructions.
pub(crate) fn expand_li(rd: u8, value: i64) -> Vec<Inst> {
    if i32::try_from(value).is_ok() {
        vec![Inst::rri(Opcode::Addi, rd, reg::ZERO, value as i32)]
    } else if u32::try_from(value).is_ok() {
        vec![Inst::rri(Opcode::Ori, rd, reg::ZERO, value as u32 as i32)]
    } else {
        let hi = ((value as u64) >> 32) as u32;
        let lo = value as u32;
        vec![
            Inst::rri(Opcode::Lui, rd, reg::ZERO, hi as i32),
            Inst::rri(Opcode::Ori, rd, rd, lo as i32),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cpu::FuncCore;
    use ds_mem::MemImage;

    fn run(prog: &Program, max: u64) -> (FuncCore, MemImage) {
        let mut mem = MemImage::new();
        prog.load(&mut mem);
        let mut cpu = FuncCore::with_stack(prog.entry, prog.stack_top);
        cpu.run(&mut mem, max).unwrap();
        assert!(cpu.halted(), "program did not halt");
        (cpu, mem)
    }

    #[test]
    fn li_expansion_widths() {
        assert_eq!(expand_li(1, 5).len(), 1);
        assert_eq!(expand_li(1, -5).len(), 1);
        assert_eq!(expand_li(1, 0xffff_ffff).len(), 1);
        assert_eq!(expand_li(1, 0x1_0000_0000).len(), 2);
        assert_eq!(expand_li(1, i64::MIN).len(), 2);
    }

    #[test]
    fn li_values_execute_correctly() {
        for &v in &[
            0i64,
            1,
            -1,
            12345,
            -12345,
            0x7fff_ffff,
            0x8000_0000,
            0xdead_beef_cafe,
            i64::MIN,
            i64::MAX,
        ] {
            let mut b = ProgBuilder::new();
            b.li(reg::T0, v);
            b.halt();
            let (cpu, _) = run(&b.finish().unwrap(), 10);
            assert_eq!(cpu.ireg(reg::T0) as i64, v, "li {v}");
        }
    }

    #[test]
    fn forward_branch_resolves() {
        let mut b = ProgBuilder::new();
        let end = b.label();
        b.li(reg::T0, 1);
        b.bnez(reg::T0, end);
        b.li(reg::T1, 99); // skipped
        b.bind(end);
        b.halt();
        let (cpu, _) = run(&b.finish().unwrap(), 10);
        assert_eq!(cpu.ireg(reg::T1), 0);
    }

    #[test]
    fn backward_loop_sums() {
        let mut b = ProgBuilder::new();
        b.li(reg::T0, 10);
        b.li(reg::T1, 0);
        let loop_top = b.here();
        b.inst(Inst::rrr(Opcode::Add, reg::T1, reg::T1, reg::T0));
        b.inst(Inst::rri(Opcode::Addi, reg::T0, reg::T0, -1));
        b.bnez(reg::T0, loop_top);
        b.halt();
        let (cpu, _) = run(&b.finish().unwrap(), 100);
        assert_eq!(cpu.ireg(reg::T1), 55);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgBuilder::new();
        let func = b.label();
        b.call(func);
        b.halt();
        b.bind(func);
        b.li(reg::V0, 42);
        b.ret();
        let (cpu, _) = run(&b.finish().unwrap(), 20);
        assert_eq!(cpu.ireg(reg::V0), 42);
    }

    #[test]
    fn data_allocations_are_loaded() {
        let mut b = ProgBuilder::new();
        let xs = b.dwords(&[10, 20, 30]);
        let fs = b.doubles(&[2.5]);
        let buf = b.space(16);
        b.la(reg::T0, xs);
        b.inst(Inst::load(Opcode::Ld, reg::T1, reg::T0, 16));
        b.la(reg::T2, fs);
        b.inst(Inst::load(Opcode::Fld, 1, reg::T2, 0));
        b.la(reg::T3, buf);
        b.inst(Inst::store(Opcode::Sd, reg::T1, reg::T3, 0));
        b.halt();
        let prog = b.finish().unwrap();
        let (cpu, mem) = run(&prog, 30);
        assert_eq!(cpu.ireg(reg::T1), 30);
        assert_eq!(cpu.freg(1), 2.5);
        assert_eq!(mem.read_u64(b.addr_of(buf)), 30);
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgBuilder::new();
        let l = b.label();
        b.j(l);
        b.halt();
        assert!(b.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn alignment_pads_data() {
        let mut b = ProgBuilder::new();
        b.bytes(&[1, 2, 3]);
        let x = b.dwords(&[7]);
        assert_eq!(b.addr_of(x) % 8, 0);
    }

    #[test]
    fn layout_declarations_propagate() {
        let mut b = ProgBuilder::new();
        b.set_bss(4096).set_heap(8192).set_stack(1 << 16);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.bss_bytes, 4096);
        assert_eq!(p.heap_bytes, 8192);
        assert_eq!(p.stack_bytes, 1 << 16);
    }
}
