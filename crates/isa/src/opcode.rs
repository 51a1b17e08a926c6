//! The DS-1 opcode taxonomy and per-opcode static properties.

/// Functional-unit class an instruction executes on, with the default
/// latencies used by the out-of-order timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuClass {
    /// Single-cycle integer ALU (also branches and jumps).
    IntAlu,
    /// Integer multiply (pipelined).
    IntMul,
    /// Integer divide / remainder (unpipelined).
    IntDiv,
    /// Floating-point add/compare/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root (unpipelined).
    FpDiv,
    /// Memory port (loads and stores).
    Mem,
}

impl FuClass {
    /// Execution latency in cycles of every operation of this class
    /// (memory latency excluded for [`FuClass::Mem`]: this is the
    /// address-generation plus pipeline cost only).
    pub const fn latency(self) -> u64 {
        match self {
            FuClass::IntAlu => 1,
            FuClass::IntMul => 3,
            FuClass::IntDiv => 12,
            FuClass::FpAlu => 2,
            FuClass::FpMul => 4,
            FuClass::FpDiv => 12,
            FuClass::Mem => 1,
        }
    }

    /// True when a unit of this class accepts a new operation every
    /// cycle. An unpipelined unit (the two dividers) is occupied for
    /// the whole [`FuClass::latency`] of the operation it executes.
    pub const fn is_pipelined(self) -> bool {
        !matches!(self, FuClass::IntDiv | FuClass::FpDiv)
    }
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

macro_rules! opcodes {
    ($(($name:ident, $num:expr, $mnem:expr)),+ $(,)?) => {
        /// Every DS-1 operation.
        ///
        /// The discriminant is the binary opcode byte in the encoded
        /// instruction word.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = concat!("`", $mnem, "`")]
                $name = $num,
            )+
        }

        impl Opcode {
            /// All opcodes, in discriminant order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name),+];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$name => $mnem,)+
                }
            }

            /// Decodes an opcode byte.
            pub fn from_u8(byte: u8) -> Option<Opcode> {
                match byte {
                    $($num => Some(Opcode::$name),)+
                    _ => None,
                }
            }

            /// Looks an opcode up by its mnemonic.
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                match s {
                    $($mnem => Some(Opcode::$name),)+
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    // Integer register-register ALU.
    (Add,   0x01, "add"),
    (Sub,   0x02, "sub"),
    (Mul,   0x03, "mul"),
    (Div,   0x04, "div"),
    (Rem,   0x05, "rem"),
    (And,   0x06, "and"),
    (Or,    0x07, "or"),
    (Xor,   0x08, "xor"),
    (Nor,   0x09, "nor"),
    (Sll,   0x0a, "sll"),
    (Srl,   0x0b, "srl"),
    (Sra,   0x0c, "sra"),
    (Slt,   0x0d, "slt"),
    (Sltu,  0x0e, "sltu"),
    // Integer register-immediate ALU.
    (Addi,  0x10, "addi"),
    (Andi,  0x11, "andi"),
    (Ori,   0x12, "ori"),
    (Xori,  0x13, "xori"),
    (Slti,  0x14, "slti"),
    (Slli,  0x15, "slli"),
    (Srli,  0x16, "srli"),
    (Srai,  0x17, "srai"),
    (Lui,   0x18, "lui"),
    // Loads.
    (Lb,    0x20, "lb"),
    (Lbu,   0x21, "lbu"),
    (Lh,    0x22, "lh"),
    (Lhu,   0x23, "lhu"),
    (Lw,    0x24, "lw"),
    (Lwu,   0x25, "lwu"),
    (Ld,    0x26, "ld"),
    (Fld,   0x27, "fld"),
    // Stores.
    (Sb,    0x28, "sb"),
    (Sh,    0x29, "sh"),
    (Sw,    0x2a, "sw"),
    (Sd,    0x2b, "sd"),
    (Fsd,   0x2c, "fsd"),
    // Control transfer.
    (Beq,   0x30, "beq"),
    (Bne,   0x31, "bne"),
    (Blt,   0x32, "blt"),
    (Bge,   0x33, "bge"),
    (Bltu,  0x34, "bltu"),
    (Bgeu,  0x35, "bgeu"),
    (Jal,   0x36, "jal"),
    (Jalr,  0x37, "jalr"),
    // Floating point (double precision).
    (Fadd,  0x40, "fadd"),
    (Fsub,  0x41, "fsub"),
    (Fmul,  0x42, "fmul"),
    (Fdiv,  0x43, "fdiv"),
    (Fsqrt, 0x44, "fsqrt"),
    (Fmov,  0x45, "fmov"),
    (Fneg,  0x46, "fneg"),
    (Fabs,  0x47, "fabs"),
    // FP compares write an integer register.
    (Feq,   0x48, "feq"),
    (Flt,   0x49, "flt"),
    (Fle,   0x4a, "fle"),
    // Conversions: integer <-> double.
    (Fcvtdw, 0x4b, "fcvt.d.w"),
    (Fcvtwd, 0x4c, "fcvt.w.d"),
    // System.
    (Halt,  0x50, "halt"),
    (Nop,   0x51, "nop"),
}

impl Opcode {
    /// True for every load, integer or floating point.
    pub const fn is_load(self) -> bool {
        use Opcode::*;
        matches!(self, Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld)
    }

    /// True for every store, integer or floating point.
    pub const fn is_store(self) -> bool {
        use Opcode::*;
        matches!(self, Sb | Sh | Sw | Sd | Fsd)
    }

    /// True for loads and stores.
    pub const fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for conditional branches (not jumps).
    pub const fn is_branch(self) -> bool {
        use Opcode::*;
        matches!(self, Beq | Bne | Blt | Bge | Bltu | Bgeu)
    }

    /// True for unconditional control transfers.
    pub const fn is_jump(self) -> bool {
        matches!(self, Opcode::Jal | Opcode::Jalr)
    }

    /// True for any instruction that can change the PC non-sequentially.
    pub const fn is_control(self) -> bool {
        self.is_branch() || self.is_jump()
    }

    /// The memory access width for loads and stores, `None` otherwise.
    pub fn mem_width(self) -> Option<MemWidth> {
        use Opcode::*;
        Some(match self {
            Lb | Lbu | Sb => MemWidth::B1,
            Lh | Lhu | Sh => MemWidth::B2,
            Lw | Lwu | Sw => MemWidth::B4,
            Ld | Sd | Fld | Fsd => MemWidth::B8,
            _ => return None,
        })
    }

    /// Functional-unit class used by the timing model.
    pub const fn fu_class(self) -> FuClass {
        use Opcode::*;
        match self {
            Mul => FuClass::IntMul,
            Div | Rem => FuClass::IntDiv,
            Fadd | Fsub | Fmov | Fneg | Fabs | Feq | Flt | Fle | Fcvtdw | Fcvtwd => FuClass::FpAlu,
            Fmul => FuClass::FpMul,
            Fdiv | Fsqrt => FuClass::FpDiv,
            _ if self.is_mem() => FuClass::Mem,
            _ => FuClass::IntAlu,
        }
    }

    /// Execution latency in cycles on its functional unit (memory
    /// latency excluded for loads/stores; this is the address-generation
    /// plus pipeline cost only).
    pub const fn latency(self) -> u64 {
        self.fu_class().latency()
    }

    /// True when `rd` names a floating-point destination register.
    pub const fn writes_freg(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Fld | Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fmov | Fneg | Fabs | Fcvtdw
        )
    }

    /// True when the register sources (`rs`/`rt`) are floating-point
    /// registers.
    pub fn reads_fregs(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fmov | Fneg | Fabs | Feq | Flt | Fle | Fcvtwd
                | Fsd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_byte_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
    }

    #[test]
    fn mnemonic_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn unknown_byte_rejected() {
        assert_eq!(Opcode::from_u8(0xff), None);
        assert_eq!(Opcode::from_u8(0x00), None);
    }

    #[test]
    fn discriminants_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate discriminant for {op:?}");
        }
    }

    #[test]
    fn load_store_classification() {
        assert!(Opcode::Ld.is_load());
        assert!(Opcode::Fld.is_load());
        assert!(!Opcode::Ld.is_store());
        assert!(Opcode::Sd.is_store());
        assert!(Opcode::Fsd.is_store());
        assert!(Opcode::Sd.is_mem());
        assert!(!Opcode::Add.is_mem());
    }

    #[test]
    fn mem_width_matches_mnemonics() {
        assert_eq!(Opcode::Lb.mem_width(), Some(MemWidth::B1));
        assert_eq!(Opcode::Sh.mem_width(), Some(MemWidth::B2));
        assert_eq!(Opcode::Lwu.mem_width(), Some(MemWidth::B4));
        assert_eq!(Opcode::Fsd.mem_width(), Some(MemWidth::B8));
        assert_eq!(Opcode::Add.mem_width(), None);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Beq.is_branch());
        assert!(!Opcode::Jal.is_branch());
        assert!(Opcode::Jal.is_jump());
        assert!(Opcode::Jalr.is_control());
        assert!(!Opcode::Add.is_control());
    }

    #[test]
    fn fu_classes() {
        assert_eq!(Opcode::Add.fu_class(), FuClass::IntAlu);
        assert_eq!(Opcode::Mul.fu_class(), FuClass::IntMul);
        assert_eq!(Opcode::Div.fu_class(), FuClass::IntDiv);
        assert_eq!(Opcode::Fadd.fu_class(), FuClass::FpAlu);
        assert_eq!(Opcode::Fmul.fu_class(), FuClass::FpMul);
        assert_eq!(Opcode::Fsqrt.fu_class(), FuClass::FpDiv);
        assert_eq!(Opcode::Ld.fu_class(), FuClass::Mem);
        assert_eq!(Opcode::Beq.fu_class(), FuClass::IntAlu);
    }

    #[test]
    fn latencies_are_positive() {
        for &op in Opcode::ALL {
            assert!(op.latency() >= 1);
        }
    }

    #[test]
    fn freg_classification() {
        assert!(Opcode::Fld.writes_freg());
        assert!(!Opcode::Fld.reads_fregs());
        assert!(Opcode::Fsd.reads_fregs());
        assert!(!Opcode::Fsd.writes_freg());
        assert!(Opcode::Feq.reads_fregs());
        assert!(!Opcode::Feq.writes_freg(), "FP compares write integer regs");
        assert!(Opcode::Fcvtdw.writes_freg());
        assert!(!Opcode::Fcvtdw.reads_fregs());
        assert!(Opcode::Fcvtwd.reads_fregs());
        assert!(!Opcode::Fcvtwd.writes_freg());
    }
}
