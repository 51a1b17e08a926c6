//! Assembler/disassembler round-trips: the `Display` form of every
//! non-control instruction is valid assembler input that reassembles to
//! the same instruction. (Control transfers print raw offsets/targets
//! while the assembler consumes labels, so they are exercised through
//! label-based sources instead.)

use ds_asm::assemble;
use ds_isa::{Inst, Opcode};
use proptest::prelude::*;

fn roundtrippable_opcode() -> impl Strategy<Value = Opcode> {
    let ops: Vec<Opcode> = Opcode::ALL.iter().copied().filter(|op| !op.is_control()).collect();
    prop::sample::select(ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_reassembles_to_the_same_instruction(
        op in roundtrippable_opcode(),
        rd in 0u8..32,
        rs in 0u8..32,
        rt in 0u8..32,
        imm in -100_000i32..100_000,
    ) {
        // Normalise fields the display does not show.
        let inst = normalise(Inst { op, rd, rs, rt, imm });
        let text = format!(".text\n{inst}\n");
        let prog = assemble(&text)
            .unwrap_or_else(|e| panic!("`{inst}` failed to assemble: {e}"));
        prop_assert_eq!(prog.text.len(), 1, "`{}` expanded", inst);
        prop_assert_eq!(prog.text[0], inst, "`{}` reassembled differently", inst);
    }
}

/// Zeroes the fields a given format does not print, so the comparison
/// is against what the text can carry.
fn normalise(mut i: Inst) -> Inst {
    use Opcode::*;
    match i.op {
        // Three-register forms: imm unused.
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu
        | Fadd | Fsub | Fmul | Fdiv | Feq | Flt | Fle => i.imm = 0,
        // Two-register forms: rt and imm unused.
        Fsqrt | Fmov | Fneg | Fabs => {
            i.rt = 0;
            i.imm = 0;
        }
        Fcvtdw | Fcvtwd => {
            i.rt = 0;
            i.imm = 0;
        }
        // Immediate forms: rt unused.
        Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai => i.rt = 0,
        Lui => {
            i.rs = 0;
            i.rt = 0;
        }
        // Memory forms: rt unused.
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld | Sb | Sh | Sw | Sd | Fsd => i.rt = 0,
        Nop | Halt => {
            i.rd = 0;
            i.rs = 0;
            i.rt = 0;
            i.imm = 0;
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr => unreachable!("filtered out"),
    }
    i
}

#[test]
fn labelled_control_flow_roundtrips_through_source() {
    // Branches and jumps round-trip at the source level via labels.
    let src = r#"
        .text
        main:   li   t0, 3
        loop:   addi t0, t0, -1
                bnez t0, loop
                jal  ra, func
                halt
        func:   ret
    "#;
    let p1 = assemble(src).unwrap();
    // Reprint instruction-by-instruction cannot recreate labels, but
    // assembling the same source twice must be identical.
    let p2 = assemble(src).unwrap();
    assert_eq!(p1.text, p2.text);
    assert_eq!(p1.symbols, p2.symbols);
}
