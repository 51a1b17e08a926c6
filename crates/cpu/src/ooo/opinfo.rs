//! Everything the timing core asks about an opcode, in one table.
//!
//! Every instruction is dispatched, issued and committed once per node,
//! so the per-opcode questions (which register fields are sources, what
//! is written, which unit, how long) are answered once per opcode at
//! compile time and read with one index at run time.

use ds_isa::{FuClass, Opcode};

// The source-field mask. Within each register file the bits run `rs`,
// `rt`, `rd`: dispatch walks the three fields by shifting the `*_RS` bit.

/// `rs` is an integer source.
pub(super) const SRC_INT_RS: u8 = 1 << 0;
/// `rt` is an integer source.
pub(super) const SRC_INT_RT: u8 = 1 << 1;
/// `rd` is an integer source (a store's value).
pub(super) const SRC_INT_RD: u8 = 1 << 2;
/// `rs` is a floating-point source.
pub(super) const SRC_FP_RS: u8 = 1 << 3;
/// `rt` is a floating-point source.
pub(super) const SRC_FP_RT: u8 = 1 << 4;
/// `rd` is a floating-point source (`fsd`'s value).
pub(super) const SRC_FP_RD: u8 = 1 << 5;

/// Which register file `rd` writes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Dest {
    None,
    Int,
    Fp,
}

/// The static facts of one opcode.
#[derive(Debug, Clone, Copy)]
pub(super) struct OpInfo {
    /// Register fields read, as a mask of the `SRC_*` bits.
    pub srcs: u8,
    pub dest: Dest,
    pub class: FuClass,
    /// [`Opcode::latency`]: cycles from issue to result, and how long
    /// an unpipelined unit stays occupied.
    pub latency: u8,
    pub is_mem: bool,
    pub is_load: bool,
    pub is_store: bool,
    pub is_control: bool,
}

impl OpInfo {
    /// The table row of `op`.
    #[inline]
    pub fn of(op: Opcode) -> &'static OpInfo {
        &OP_INFO[op as u8 as usize]
    }
}

/// One row per opcode byte, so the index needs no range check; bytes
/// that name no opcode hold `nop`'s row and are never read.
static OP_INFO: [OpInfo; 256] = {
    let mut table = [op_info(Opcode::Nop); 256];
    let mut i = 0;
    while i < Opcode::ALL.len() {
        let op = Opcode::ALL[i];
        table[op as u8 as usize] = op_info(op);
        i += 1;
    }
    table
};

const fn op_info(op: Opcode) -> OpInfo {
    use Opcode::*;
    let srcs = match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu => {
            SRC_INT_RS | SRC_INT_RT
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => SRC_INT_RS | SRC_INT_RT,
        Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai => SRC_INT_RS,
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => SRC_INT_RS,
        Sb | Sh | Sw | Sd => SRC_INT_RS | SRC_INT_RD,
        Fsd => SRC_INT_RS | SRC_FP_RD,
        Jalr | Fcvtdw => SRC_INT_RS,
        Fadd | Fsub | Fmul | Fdiv | Feq | Flt | Fle => SRC_FP_RS | SRC_FP_RT,
        Fsqrt | Fmov | Fneg | Fabs | Fcvtwd => SRC_FP_RS,
        Lui | Jal | Nop | Halt => 0,
    };
    let dest = if op.writes_freg() {
        Dest::Fp
    } else {
        match op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu
            | Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai | Lui | Lb | Lbu | Lh | Lhu
            | Lw | Lwu | Ld | Feq | Flt | Fle | Fcvtwd | Jal | Jalr => Dest::Int,
            _ => Dest::None,
        }
    };
    assert!(op.latency() <= u8::MAX as u64);
    OpInfo {
        srcs,
        dest,
        class: op.fu_class(),
        latency: op.latency() as u8,
        is_mem: op.is_mem(),
        is_load: op.is_load(),
        is_store: op.is_store(),
        is_control: op.is_control(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooo::window::MAX_EDGES;

    #[test]
    fn table_agrees_with_the_opcode_predicates() {
        for &op in Opcode::ALL {
            let info = OpInfo::of(op);
            assert_eq!(info.is_mem, op.is_mem(), "{op:?}");
            assert_eq!(info.is_load, op.is_load(), "{op:?}");
            assert_eq!(info.is_store, op.is_store(), "{op:?}");
            assert_eq!(info.is_control, op.is_control(), "{op:?}");
            assert_eq!(info.class, op.fu_class(), "{op:?}");
            assert_eq!(u64::from(info.latency), op.latency(), "{op:?}");
            assert_eq!(info.dest == Dest::Fp, op.writes_freg(), "{op:?}");
            let (int, fp) =
                (SRC_INT_RS | SRC_INT_RT | SRC_INT_RD, SRC_FP_RS | SRC_FP_RT | SRC_FP_RD);
            assert_eq!(info.srcs & !(int | fp), 0, "{op:?}");
            // Only a store's base register mixes the two files.
            assert_eq!(info.srcs & fp != 0, op.reads_fregs(), "{op:?}");
            assert_eq!(info.srcs & int != 0 && info.srcs & fp != 0, op == Opcode::Fsd, "{op:?}");
            // A field is read from one register file, and `rd` is a
            // source exactly when it is not a destination (stores).
            assert_eq!(info.srcs & (info.srcs >> 3), 0, "{op:?}");
            assert_eq!(info.srcs & (SRC_INT_RD | SRC_FP_RD) != 0, info.is_store, "{op:?}");
            assert!(!(info.is_store && info.dest != Dest::None), "{op:?}");
        }
    }

    #[test]
    fn no_instruction_needs_more_producer_edges_than_an_entry_has() {
        for &op in Opcode::ALL {
            let info = OpInfo::of(op);
            let edges = info.srcs.count_ones() as usize + usize::from(info.is_load);
            assert!(edges <= MAX_EDGES, "{op:?} can wait on {edges} producers");
        }
    }
}
