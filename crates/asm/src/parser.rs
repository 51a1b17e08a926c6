//! The two-pass textual assembler.

use crate::builder::expand_li;
use crate::error::AsmError;
use crate::program::Program;
use ds_isa::{reg, Inst, Opcode, INST_BYTES};
use std::collections::BTreeMap;

/// Assembles DS-1 assembly source into a [`Program`].
///
/// Syntax summary:
///
/// * comments: `#` or `;` to end of line;
/// * labels: `name:` (multiple per line allowed), in either section;
/// * sections: `.text` (default) and `.data`;
/// * data directives: `.byte`, `.half`, `.word32`, `.word` (8 bytes),
///   `.double`, `.space N`, `.align N`, `.asciiz "..."`;
/// * layout directives: `.bss N`, `.heap N`, `.stack N`, `.entry label`;
///   constants: `.equ name, value`;
/// * pseudo-instructions: `li`, `la`, `mv`, `not`, `neg`, `j`, `jr`,
///   `b`, `beqz`, `bnez`, `blez`, `bgtz`, `bltz`, `bgez`, `ble`, `bgt`,
///   `call`, `ret`, `subi`;
/// * immediates: decimal, hex (`0x...`), negative, or `symbol`,
///   `symbol+N`, `symbol-N`.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for syntax errors,
/// unknown mnemonics/registers, and undefined or duplicate labels.
///
/// # Examples
///
/// ```
/// let prog = ds_asm::assemble(".text\n  li t0, 3\n  halt\n").unwrap();
/// assert_eq!(prog.text.len(), 2);
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let lines = preprocess(source);
    let symbols = pass1(&lines)?;
    pass2(&lines, &symbols)
}

#[derive(Debug, Clone)]
struct Line {
    number: usize,
    labels: Vec<String>,
    /// Mnemonic or directive (lowercased), if any.
    head: Option<String>,
    /// Comma-separated operand fields (trimmed; parenthesised memory
    /// operands kept whole).
    operands: Vec<String>,
}

fn preprocess(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let mut line = raw;
        // Strip comments; keep quoted strings intact.
        let mut cut = line.len();
        let mut in_str = false;
        for (pos, ch) in line.char_indices() {
            match ch {
                '"' => in_str = !in_str,
                '#' | ';' if !in_str => {
                    cut = pos;
                    break;
                }
                _ => {}
            }
        }
        line = &line[..cut];
        let mut rest = line.trim();
        let mut labels = Vec::new();
        // Pull off leading `name:` labels.
        while let Some(colon) = rest.find(':') {
            let candidate = rest[..colon].trim();
            if !candidate.is_empty()
                && candidate.chars().all(|c| c.isalnum_or_underscore())
                && !candidate.chars().next().unwrap().is_ascii_digit()
            {
                labels.push(candidate.to_string());
                rest = rest[colon + 1..].trim();
            } else {
                break;
            }
        }
        let (head, operands) = if rest.is_empty() {
            (None, Vec::new())
        } else {
            let (m, ops) = match rest.find(char::is_whitespace) {
                Some(sp) => (&rest[..sp], rest[sp..].trim()),
                None => (rest, ""),
            };
            let operands = if ops.is_empty() { Vec::new() } else { split_operands(ops) };
            (Some(m.to_ascii_lowercase()), operands)
        };
        if head.is_none() && labels.is_empty() {
            continue;
        }
        out.push(Line { number: i + 1, labels, head, operands });
    }
    out
}

trait CharExt {
    fn isalnum_or_underscore(self) -> bool;
}
impl CharExt for char {
    fn isalnum_or_underscore(self) -> bool {
        self.is_ascii_alphanumeric() || self == '_'
    }
}

fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '"' => {
                in_str = !in_str;
                cur.push(ch);
            }
            '(' if !in_str => {
                depth += 1;
                cur.push(ch);
            }
            ')' if !in_str => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 && !in_str => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Pass 1: assign every label an address and collect `.equ` constants.
fn pass1(lines: &[Line]) -> Result<BTreeMap<String, u64>, AsmError> {
    let mut symbols = BTreeMap::new();
    let mut section = Section::Text;
    let mut text_insts: u64 = 0;
    let mut data_off: u64 = 0;
    let text_base = crate::program::DEFAULT_TEXT_BASE;
    let data_base = crate::program::DEFAULT_DATA_BASE;
    let mut define = |name: &str, value: u64, line: usize| -> Result<(), AsmError> {
        if symbols.insert(name.to_string(), value).is_some() {
            return Err(AsmError::new(line, format!("duplicate label `{name}`")));
        }
        Ok(())
    };
    for line in lines {
        let here = match section {
            Section::Text => text_base + text_insts * INST_BYTES,
            Section::Data => {
                // Labels on a data line bind to the *aligned* position.
                let pad = match line.head.as_deref().and_then(|h| h.strip_prefix('.')) {
                    Some("half") => pad_to(data_off, 2),
                    Some("word32") => pad_to(data_off, 4),
                    Some("word") | Some("double") => pad_to(data_off, 8),
                    Some("align") => {
                        let n =
                            line.operands.first().and_then(|s| parse_number(s)).unwrap_or(8) as u64;
                        if n.is_power_of_two() {
                            pad_to(data_off, n)
                        } else {
                            0
                        }
                    }
                    _ => 0,
                };
                data_base + data_off + pad
            }
        };
        for l in &line.labels {
            define(l, here, line.number)?;
        }
        let Some(head) = &line.head else { continue };
        if let Some(directive) = head.strip_prefix('.') {
            match directive {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "equ" => {
                    if line.operands.len() != 2 {
                        return Err(AsmError::new(line.number, ".equ needs name, value"));
                    }
                    let v = parse_number(&line.operands[1])
                        .ok_or_else(|| AsmError::new(line.number, "bad .equ value"))?
                        as u64;
                    define(&line.operands[0], v, line.number)?;
                }
                _ => {
                    if section == Section::Data {
                        data_off += data_size(directive, &line.operands, data_off, line.number)?;
                    }
                    // Layout directives (.bss/.heap/.stack/.entry) and
                    // data directives in .text are sized as zero here
                    // and validated in pass 2.
                }
            }
        } else {
            if section != Section::Text {
                return Err(AsmError::new(line.number, "instruction outside .text"));
            }
            text_insts += inst_size(head, &line.operands, line.number)? as u64;
        }
    }
    Ok(symbols)
}

/// Bytes a data directive occupies.
fn data_size(directive: &str, ops: &[String], offset: u64, line: usize) -> Result<u64, AsmError> {
    Ok(match directive {
        "byte" => ops.len() as u64,
        "half" => pad_to(offset, 2) + 2 * ops.len() as u64,
        "word32" => pad_to(offset, 4) + 4 * ops.len() as u64,
        "word" | "double" => pad_to(offset, 8) + 8 * ops.len() as u64,
        "space" => {
            let n = ops
                .first()
                .and_then(|s| parse_number(s))
                .ok_or_else(|| AsmError::new(line, ".space needs a size"))?;
            n as u64
        }
        "align" => {
            let n = ops
                .first()
                .and_then(|s| parse_number(s))
                .ok_or_else(|| AsmError::new(line, ".align needs a power of two"))?
                as u64;
            if !n.is_power_of_two() {
                return Err(AsmError::new(line, ".align needs a power of two"));
            }
            pad_to(offset, n)
        }
        "asciiz" => {
            let s = parse_string(ops, line)?;
            s.len() as u64 + 1
        }
        "bss" | "heap" | "stack" | "entry" => 0,
        other => return Err(AsmError::new(line, format!("unknown directive `.{other}`"))),
    })
}

fn pad_to(offset: u64, align: u64) -> u64 {
    (align - offset % align) % align
}

fn parse_string(ops: &[String], line: usize) -> Result<String, AsmError> {
    let joined = ops.join(",");
    let s = joined.trim();
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Ok(s[1..s.len() - 1].replace("\\n", "\n").replace("\\0", "\0"))
    } else {
        Err(AsmError::new(line, "expected a quoted string"))
    }
}

/// Instructions a mnemonic expands to (needed before symbol values are
/// known, so symbol-valued `li` reserves the worst case like `la`).
fn inst_size(mnemonic: &str, ops: &[String], line: usize) -> Result<usize, AsmError> {
    Ok(match mnemonic {
        "la" => 2,
        "li" => {
            let imm = ops.get(1).ok_or_else(|| AsmError::new(line, "li needs register, value"))?;
            match parse_number(imm) {
                Some(v) => expand_li(0, v).len(),
                None => 2, // symbol: worst case, padded with nop if short
            }
        }
        _ => {
            if Opcode::from_mnemonic(mnemonic).is_none() && !is_pseudo(mnemonic) {
                return Err(AsmError::new(line, format!("unknown mnemonic `{mnemonic}`")));
            }
            1
        }
    })
}

fn is_pseudo(m: &str) -> bool {
    matches!(
        m,
        "li" | "la"
            | "mv"
            | "not"
            | "neg"
            | "j"
            | "jr"
            | "b"
            | "beqz"
            | "bnez"
            | "blez"
            | "bgtz"
            | "bltz"
            | "bgez"
            | "ble"
            | "bgt"
            | "call"
            | "ret"
            | "subi"
    )
}

fn parse_number(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()? as i64
    } else {
        body.replace('_', "").parse::<i64>().ok()?
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

/// Resolves `number`, `symbol`, `symbol+N`, `symbol-N`.
fn resolve_value(s: &str, symbols: &BTreeMap<String, u64>, line: usize) -> Result<i64, AsmError> {
    if let Some(v) = parse_number(s) {
        return Ok(v);
    }
    let (name, delta) = if let Some(plus) = s.rfind('+') {
        (&s[..plus], parse_number(&s[plus + 1..]).unwrap_or(0))
    } else if let Some(minus) = s.rfind('-') {
        if minus > 0 {
            (&s[..minus], -parse_number(&s[minus + 1..]).unwrap_or(0))
        } else {
            (s, 0)
        }
    } else {
        (s, 0)
    };
    let base = symbols
        .get(name.trim())
        .copied()
        .ok_or_else(|| AsmError::new(line, format!("undefined symbol `{}`", name.trim())))?;
    Ok(base as i64 + delta)
}

fn parse_ireg(s: &str, line: usize) -> Result<u8, AsmError> {
    reg::parse(s.trim())
        .ok_or_else(|| AsmError::new(line, format!("unknown integer register `{s}`")))
}

fn parse_freg(s: &str, line: usize) -> Result<u8, AsmError> {
    reg::parse_fp(s.trim()).ok_or_else(|| AsmError::new(line, format!("unknown fp register `{s}`")))
}

/// Parses `disp(base)` memory operands.
fn parse_mem_operand(
    s: &str,
    symbols: &BTreeMap<String, u64>,
    line: usize,
) -> Result<(i32, u8), AsmError> {
    let open =
        s.find('(').ok_or_else(|| AsmError::new(line, format!("expected disp(reg), got `{s}`")))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| AsmError::new(line, "unbalanced parentheses in memory operand"))?;
    let disp_txt = s[..open].trim();
    let disp = if disp_txt.is_empty() { 0 } else { resolve_value(disp_txt, symbols, line)? };
    let base = parse_ireg(&s[open + 1..close], line)?;
    let disp =
        i32::try_from(disp).map_err(|_| AsmError::new(line, "displacement out of 32-bit range"))?;
    Ok((disp, base))
}

/// Pass 2: emit instructions and data.
fn pass2(lines: &[Line], symbols: &BTreeMap<String, u64>) -> Result<Program, AsmError> {
    let mut prog = Program::new();
    let mut section = Section::Text;
    for line in lines {
        let Some(head) = &line.head else { continue };
        let n = line.number;
        if let Some(directive) = head.strip_prefix('.') {
            match directive {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "equ" => {}
                "bss" | "heap" | "stack" => {
                    let v = line
                        .operands
                        .first()
                        .and_then(|s| parse_number(s))
                        .ok_or_else(|| AsmError::new(n, format!(".{directive} needs a size")))?
                        as u64;
                    match directive {
                        "bss" => prog.bss_bytes = v,
                        "heap" => prog.heap_bytes = v,
                        _ => prog.stack_bytes = v,
                    }
                }
                "entry" => {
                    let target = line
                        .operands
                        .first()
                        .ok_or_else(|| AsmError::new(n, ".entry needs a label"))?;
                    prog.entry = resolve_value(target, symbols, n)? as u64;
                }
                _ => {
                    if section != Section::Data {
                        return Err(AsmError::new(n, "data directive outside .data"));
                    }
                    emit_data(&mut prog.data, directive, &line.operands, symbols, n)?;
                }
            }
            continue;
        }
        if section != Section::Text {
            return Err(AsmError::new(n, "instruction outside .text"));
        }
        let pc = prog.text_base + prog.text.len() as u64 * INST_BYTES;
        let before = prog.text.len();
        emit_inst(&mut prog.text, head, &line.operands, symbols, pc, n)?;
        // Keep pass-1 sizing honest.
        let expected = inst_size(head, &line.operands, n)?;
        let emitted = prog.text.len() - before;
        debug_assert!(emitted <= expected, "pass-1 under-sized `{head}`");
        for _ in emitted..expected {
            prog.text.push(Inst::nop());
        }
    }
    for (name, &addr) in symbols {
        prog.symbols.insert(name.clone(), addr);
    }
    Ok(prog)
}

fn emit_data(
    data: &mut Vec<u8>,
    directive: &str,
    ops: &[String],
    symbols: &BTreeMap<String, u64>,
    line: usize,
) -> Result<(), AsmError> {
    let pad = |data: &mut Vec<u8>, align: u64| {
        while !(data.len() as u64).is_multiple_of(align) {
            data.push(0);
        }
    };
    match directive {
        "byte" => {
            for op in ops {
                data.push(resolve_value(op, symbols, line)? as u8);
            }
        }
        "half" => {
            pad(data, 2);
            for op in ops {
                data.extend_from_slice(&(resolve_value(op, symbols, line)? as u16).to_le_bytes());
            }
        }
        "word32" => {
            pad(data, 4);
            for op in ops {
                data.extend_from_slice(&(resolve_value(op, symbols, line)? as u32).to_le_bytes());
            }
        }
        "word" => {
            pad(data, 8);
            for op in ops {
                data.extend_from_slice(&(resolve_value(op, symbols, line)? as u64).to_le_bytes());
            }
        }
        "double" => {
            pad(data, 8);
            for op in ops {
                let v: f64 =
                    op.parse().map_err(|_| AsmError::new(line, format!("bad double `{op}`")))?;
                data.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        "space" => {
            let count = ops
                .first()
                .and_then(|s| parse_number(s))
                .ok_or_else(|| AsmError::new(line, ".space needs a size"))?;
            data.resize(data.len() + count as usize, 0);
        }
        "align" => {
            let a = ops.first().and_then(|s| parse_number(s)).unwrap_or(8) as u64;
            pad(data, a);
        }
        "asciiz" => {
            let s = parse_string(ops, line)?;
            data.extend_from_slice(s.as_bytes());
            data.push(0);
        }
        other => return Err(AsmError::new(line, format!("unknown directive `.{other}`"))),
    }
    Ok(())
}

fn emit_inst(
    text: &mut Vec<Inst>,
    mnemonic: &str,
    ops: &[String],
    symbols: &BTreeMap<String, u64>,
    pc: u64,
    line: usize,
) -> Result<(), AsmError> {
    let need = |k: usize| -> Result<(), AsmError> {
        if ops.len() != k {
            Err(AsmError::new(
                line,
                format!("`{mnemonic}` expects {k} operands, got {}", ops.len()),
            ))
        } else {
            Ok(())
        }
    };
    let val = |s: &str| resolve_value(s, symbols, line);
    let imm32 = |s: &str| -> Result<i32, AsmError> {
        let v = resolve_value(s, symbols, line)?;
        i32::try_from(v).map_err(|_| AsmError::new(line, format!("immediate `{s}` out of range")))
    };
    let branch_off = |s: &str| -> Result<i32, AsmError> {
        let target = resolve_value(s, symbols, line)? as u64;
        let delta = target as i64 - pc as i64;
        if delta % INST_BYTES as i64 != 0 {
            return Err(AsmError::new(line, "branch target not instruction-aligned"));
        }
        i32::try_from(delta / INST_BYTES as i64)
            .map_err(|_| AsmError::new(line, "branch target out of range"))
    };

    // Pseudo-instructions first.
    match mnemonic {
        "li" => {
            need(2)?;
            let rd = parse_ireg(&ops[0], line)?;
            for i in expand_li(rd, val(&ops[1])?) {
                text.push(i);
            }
            return Ok(());
        }
        "la" => {
            need(2)?;
            let rd = parse_ireg(&ops[0], line)?;
            for i in expand_li(rd, val(&ops[1])?) {
                text.push(i);
            }
            return Ok(());
        }
        "mv" => {
            need(2)?;
            text.push(Inst::rrr(
                Opcode::Add,
                parse_ireg(&ops[0], line)?,
                parse_ireg(&ops[1], line)?,
                reg::ZERO,
            ));
            return Ok(());
        }
        "not" => {
            need(2)?;
            text.push(Inst::rrr(
                Opcode::Nor,
                parse_ireg(&ops[0], line)?,
                parse_ireg(&ops[1], line)?,
                reg::ZERO,
            ));
            return Ok(());
        }
        "neg" => {
            need(2)?;
            text.push(Inst::rrr(
                Opcode::Sub,
                parse_ireg(&ops[0], line)?,
                reg::ZERO,
                parse_ireg(&ops[1], line)?,
            ));
            return Ok(());
        }
        "subi" => {
            need(3)?;
            text.push(Inst::rri(
                Opcode::Addi,
                parse_ireg(&ops[0], line)?,
                parse_ireg(&ops[1], line)?,
                -imm32(&ops[2])?,
            ));
            return Ok(());
        }
        "j" | "b" => {
            need(1)?;
            let target = val(&ops[0])? as u64;
            text.push(Inst::jal(reg::ZERO, target as u32));
            return Ok(());
        }
        "jr" => {
            need(1)?;
            text.push(Inst::jalr(reg::ZERO, parse_ireg(&ops[0], line)?));
            return Ok(());
        }
        "call" => {
            need(1)?;
            let target = val(&ops[0])? as u64;
            text.push(Inst::jal(reg::RA, target as u32));
            return Ok(());
        }
        "ret" => {
            need(0)?;
            text.push(Inst::jalr(reg::ZERO, reg::RA));
            return Ok(());
        }
        "beqz" | "bnez" | "blez" | "bgtz" | "bltz" | "bgez" => {
            need(2)?;
            let rs = parse_ireg(&ops[0], line)?;
            let off = branch_off(&ops[1])?;
            let inst = match mnemonic {
                "beqz" => Inst::branch(Opcode::Beq, rs, reg::ZERO, off),
                "bnez" => Inst::branch(Opcode::Bne, rs, reg::ZERO, off),
                "blez" => Inst::branch(Opcode::Bge, reg::ZERO, rs, off),
                "bgtz" => Inst::branch(Opcode::Blt, reg::ZERO, rs, off),
                "bltz" => Inst::branch(Opcode::Blt, rs, reg::ZERO, off),
                _ => Inst::branch(Opcode::Bge, rs, reg::ZERO, off),
            };
            text.push(inst);
            return Ok(());
        }
        "ble" | "bgt" => {
            need(3)?;
            let rs = parse_ireg(&ops[0], line)?;
            let rt = parse_ireg(&ops[1], line)?;
            let off = branch_off(&ops[2])?;
            // ble a,b == bge b,a ; bgt a,b == blt b,a
            let inst = if mnemonic == "ble" {
                Inst::branch(Opcode::Bge, rt, rs, off)
            } else {
                Inst::branch(Opcode::Blt, rt, rs, off)
            };
            text.push(inst);
            return Ok(());
        }
        _ => {}
    }

    let op = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| AsmError::new(line, format!("unknown mnemonic `{mnemonic}`")))?;
    use Opcode::*;
    let inst = match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu => {
            need(3)?;
            Inst::rrr(
                op,
                parse_ireg(&ops[0], line)?,
                parse_ireg(&ops[1], line)?,
                parse_ireg(&ops[2], line)?,
            )
        }
        Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai => {
            need(3)?;
            Inst::rri(op, parse_ireg(&ops[0], line)?, parse_ireg(&ops[1], line)?, imm32(&ops[2])?)
        }
        Lui => {
            need(2)?;
            Inst::rri(op, parse_ireg(&ops[0], line)?, reg::ZERO, imm32(&ops[1])?)
        }
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld => {
            need(2)?;
            let rd = parse_ireg(&ops[0], line)?;
            let (disp, base) = parse_mem_operand(&ops[1], symbols, line)?;
            Inst::load(op, rd, base, disp)
        }
        Fld => {
            need(2)?;
            let rd = parse_freg(&ops[0], line)?;
            let (disp, base) = parse_mem_operand(&ops[1], symbols, line)?;
            Inst::load(op, rd, base, disp)
        }
        Sb | Sh | Sw | Sd => {
            need(2)?;
            let rv = parse_ireg(&ops[0], line)?;
            let (disp, base) = parse_mem_operand(&ops[1], symbols, line)?;
            Inst::store(op, rv, base, disp)
        }
        Fsd => {
            need(2)?;
            let rv = parse_freg(&ops[0], line)?;
            let (disp, base) = parse_mem_operand(&ops[1], symbols, line)?;
            Inst::store(op, rv, base, disp)
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            need(3)?;
            Inst::branch(
                op,
                parse_ireg(&ops[0], line)?,
                parse_ireg(&ops[1], line)?,
                branch_off(&ops[2])?,
            )
        }
        Jal => {
            // `jal target` or `jal rd, target`.
            let (rd, target) = match ops.len() {
                1 => (reg::RA, val(&ops[0])?),
                2 => (parse_ireg(&ops[0], line)?, val(&ops[1])?),
                _ => return Err(AsmError::new(line, "jal expects 1 or 2 operands")),
            };
            Inst::jal(rd, target as u32)
        }
        Jalr => {
            let (rd, rs) = match ops.len() {
                1 => (reg::RA, parse_ireg(&ops[0], line)?),
                2 => (parse_ireg(&ops[0], line)?, parse_ireg(&ops[1], line)?),
                _ => return Err(AsmError::new(line, "jalr expects 1 or 2 operands")),
            };
            Inst::jalr(rd, rs)
        }
        Fadd | Fsub | Fmul | Fdiv => {
            need(3)?;
            Inst::rrr(
                op,
                parse_freg(&ops[0], line)?,
                parse_freg(&ops[1], line)?,
                parse_freg(&ops[2], line)?,
            )
        }
        Fsqrt | Fmov | Fneg | Fabs => {
            need(2)?;
            Inst::rrr(op, parse_freg(&ops[0], line)?, parse_freg(&ops[1], line)?, 0)
        }
        Feq | Flt | Fle => {
            need(3)?;
            Inst::rrr(
                op,
                parse_ireg(&ops[0], line)?,
                parse_freg(&ops[1], line)?,
                parse_freg(&ops[2], line)?,
            )
        }
        Fcvtdw => {
            need(2)?;
            Inst::rri(op, parse_freg(&ops[0], line)?, parse_ireg(&ops[1], line)?, 0)
        }
        Fcvtwd => {
            need(2)?;
            Inst::rri(op, parse_ireg(&ops[0], line)?, parse_freg(&ops[1], line)?, 0)
        }
        Halt => {
            need(0)?;
            Inst::halt()
        }
        Nop => {
            need(0)?;
            Inst::nop()
        }
    };
    text.push(inst);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cpu::FuncCore;
    use ds_mem::MemImage;

    fn run_src(src: &str) -> (FuncCore, MemImage, Program) {
        let prog = assemble(src).expect("assembles");
        let mut mem = MemImage::new();
        prog.load(&mut mem);
        let mut cpu = FuncCore::with_stack(prog.entry, prog.stack_top);
        cpu.run(&mut mem, 1_000_000).unwrap();
        assert!(cpu.halted(), "program did not halt");
        (cpu, mem, prog)
    }

    #[test]
    fn sum_loop() {
        let (cpu, _, _) = run_src(
            r#"
            .text
            main:   li   t0, 10
                    li   t1, 0
            loop:   add  t1, t1, t0
                    addi t0, t0, -1
                    bnez t0, loop
                    halt
            "#,
        );
        assert_eq!(cpu.ireg(reg::T1), 55);
    }

    #[test]
    fn data_section_and_loads() {
        let (cpu, _, _) = run_src(
            r#"
            .data
            nums:   .word 3, 5, 7
            pi:     .double 3.25
            msg:    .asciiz "hi"
            .text
            main:   la   t0, nums
                    ld   t1, 8(t0)
                    la   t2, pi
                    fld  f1, 0(t2)
                    la   t3, msg
                    lbu  t4, 1(t3)
                    halt
            "#,
        );
        assert_eq!(cpu.ireg(reg::T1), 5);
        assert_eq!(cpu.freg(1), 3.25);
        assert_eq!(cpu.ireg(reg::T4), b'i' as u64);
    }

    #[test]
    fn call_ret_and_entry() {
        let (cpu, _, prog) = run_src(
            r#"
            .text
            helper: li   v0, 9
                    ret
            start:  call helper
                    halt
            .entry start
            "#,
        );
        assert_eq!(cpu.ireg(reg::V0), 9);
        assert_eq!(prog.entry, prog.symbol("start").unwrap());
    }

    #[test]
    fn pseudo_branches() {
        let (cpu, _, _) = run_src(
            r#"
            .text
                    li   t0, -5
                    li   t1, 0
                    bltz t0, neg_case
                    li   t1, 1
                    halt
            neg_case:
                    li   t1, 2
                    halt
            "#,
        );
        assert_eq!(cpu.ireg(reg::T1), 2);
    }

    #[test]
    fn ble_bgt_swap_operands() {
        let (cpu, _, _) = run_src(
            r#"
            .text
                    li  t0, 3
                    li  t1, 7
                    ble t0, t1, ok
                    halt
            ok:     li  t2, 1
                    bgt t1, t0, ok2
                    halt
            ok2:    li  t3, 1
                    halt
            "#,
        );
        assert_eq!(cpu.ireg(reg::T2), 1);
        assert_eq!(cpu.ireg(reg::T3), 1);
    }

    #[test]
    fn equ_and_symbol_arithmetic() {
        let (cpu, _, _) = run_src(
            r#"
            .equ SIZE, 24
            .data
            arr:    .word 1, 2, 3
            .text
                    li  t0, SIZE
                    la  t1, arr+16
                    ld  t2, 0(t1)
                    halt
            "#,
        );
        assert_eq!(cpu.ireg(reg::T0), 24);
        assert_eq!(cpu.ireg(reg::T2), 3);
    }

    #[test]
    fn layout_directives() {
        let prog = assemble(
            r#"
            .bss 4096
            .heap 65536
            .stack 8192
            .text
            halt
            "#,
        )
        .unwrap();
        assert_eq!(prog.bss_bytes, 4096);
        assert_eq!(prog.heap_bytes, 65536);
        assert_eq!(prog.stack_bytes, 8192);
    }

    #[test]
    fn comments_and_blank_lines() {
        let prog =
            assemble("# leading comment\n.text\n  nop ; trailing\n  halt # done\n\n").unwrap();
        assert_eq!(prog.text.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble(".text\n  bogus t0, t1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn undefined_symbol_errors() {
        let err = assemble(".text\n  la t0, nowhere\n  halt\n").unwrap_err();
        assert!(err.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_errors() {
        let err = assemble(".text\nx: nop\nx: halt\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn instruction_in_data_section_errors() {
        let err = assemble(".data\n  add t0, t1, t2\n").unwrap_err();
        assert!(err.message.contains("outside .text"));
    }

    #[test]
    fn li_symbol_padded_to_fixed_size() {
        // `li` of a symbol must occupy exactly 2 slots so pass-1
        // label addresses stay correct.
        let prog = assemble(
            r#"
            .data
            x: .word 42
            .text
            main:  li t0, x
            after: halt
            "#,
        )
        .unwrap();
        let after = prog.symbol("after").unwrap();
        assert_eq!(after, prog.text_base + 2 * 8);
    }

    #[test]
    fn word_alignment_in_data() {
        let prog = assemble(
            r#"
            .data
            b: .byte 1
            w: .word 7
            "#,
        )
        .unwrap();
        // .word pads to 8.
        assert_eq!(prog.symbol("w").unwrap() % 8, 0);
        assert_eq!(prog.data.len(), 16);
    }

    #[test]
    fn hex_and_underscore_literals() {
        let (cpu, _, _) = run_src(".text\n li t0, 0x1_000\n li t1, 1_000\n halt\n");
        assert_eq!(cpu.ireg(reg::T0), 0x1000);
        assert_eq!(cpu.ireg(reg::T1), 1000);
    }
}
