//! Architectural register numbers and ABI names.
//!
//! DS-1 uses a MIPS-flavoured calling convention. Register `r0`
//! ([`ZERO`]) always reads as zero and writes to it are discarded.
//!
//! | regs | name | role |
//! |---|---|---|
//! | r0 | `zero` | hard-wired zero |
//! | r1 | `ra` | return address |
//! | r2 | `sp` | stack pointer |
//! | r3 | `gp` | global pointer |
//! | r4–r7 | `a0`–`a3` | arguments |
//! | r8–r9 | `v0`–`v1` | return values |
//! | r10–r19 | `t0`–`t9` | caller-saved temporaries |
//! | r20–r27 | `s0`–`s7` | callee-saved |
//! | r28–r31 | `k0`–`k3` | scratch (workload-reserved) |

/// A register number (integer or floating point, depending on the
/// opcode field it occupies). Always `< 32`.
pub type Reg = u8;

/// Hard-wired zero register.
pub const ZERO: Reg = 0;
/// Return-address register.
pub const RA: Reg = 1;
/// Stack pointer.
pub const SP: Reg = 2;
/// Global pointer.
pub const GP: Reg = 3;
/// Argument registers `a0`–`a3`.
pub const A0: Reg = 4;
pub const A1: Reg = 5;
pub const A2: Reg = 6;
pub const A3: Reg = 7;
/// Return-value registers.
pub const V0: Reg = 8;
pub const V1: Reg = 9;
/// Caller-saved temporaries `t0`–`t9`.
pub const T0: Reg = 10;
pub const T1: Reg = 11;
pub const T2: Reg = 12;
pub const T3: Reg = 13;
pub const T4: Reg = 14;
pub const T5: Reg = 15;
pub const T6: Reg = 16;
pub const T7: Reg = 17;
pub const T8: Reg = 18;
pub const T9: Reg = 19;
/// Callee-saved registers `s0`–`s7`.
pub const S0: Reg = 20;
pub const S1: Reg = 21;
pub const S2: Reg = 22;
pub const S3: Reg = 23;
pub const S4: Reg = 24;
pub const S5: Reg = 25;
pub const S6: Reg = 26;
pub const S7: Reg = 27;
/// Scratch registers `k0`–`k3`.
pub const K0: Reg = 28;
pub const K1: Reg = 29;
pub const K2: Reg = 30;
pub const K3: Reg = 31;

const NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3", "v0", "v1", "t0", "t1", "t2", "t3", "t4",
    "t5", "t6", "t7", "t8", "t9", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "k0", "k1", "k2",
    "k3",
];

/// The ABI name of integer register `r`.
///
/// # Panics
///
/// Panics if `r >= 32`.
///
/// # Examples
///
/// ```
/// assert_eq!(ds_isa::reg::name(ds_isa::reg::T0), "t0");
/// ```
pub fn name(r: Reg) -> &'static str {
    NAMES[r as usize]
}

/// The display name of floating-point register `r` (`f0`–`f31`).
///
/// # Panics
///
/// Panics if `r >= 32`.
pub fn fname(r: Reg) -> String {
    assert!(r < 32, "fp register out of range");
    format!("f{r}")
}

/// Parses an integer-register name: an ABI name (`t0`, `sp`, ...) or a
/// raw `rN` number.
///
/// # Examples
///
/// ```
/// assert_eq!(ds_isa::reg::parse("t3"), Some(13));
/// assert_eq!(ds_isa::reg::parse("r31"), Some(31));
/// assert_eq!(ds_isa::reg::parse("bogus"), None);
/// ```
pub fn parse(s: &str) -> Option<Reg> {
    if let Some(idx) = NAMES.iter().position(|&n| n == s) {
        return Some(idx as Reg);
    }
    let num = s.strip_prefix('r')?;
    let n: u8 = num.parse().ok()?;
    (n < 32).then_some(n)
}

/// Parses a floating-point register name `f0`–`f31`.
pub fn parse_fp(s: &str) -> Option<Reg> {
    let num = s.strip_prefix('f')?;
    let n: u8 = num.parse().ok()?;
    (n < 32).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for r in 0..32u8 {
            assert_eq!(parse(name(r)), Some(r));
        }
    }

    #[test]
    fn raw_numbers_parse() {
        assert_eq!(parse("r0"), Some(0));
        assert_eq!(parse("r31"), Some(31));
        assert_eq!(parse("r32"), None);
    }

    #[test]
    fn fp_names_roundtrip() {
        for r in 0..32u8 {
            assert_eq!(parse_fp(&fname(r)), Some(r));
        }
        assert_eq!(parse_fp("f32"), None);
        assert_eq!(parse_fp("t0"), None);
    }

    #[test]
    fn abi_aliases() {
        assert_eq!(parse("zero"), Some(ZERO));
        assert_eq!(parse("sp"), Some(SP));
        assert_eq!(parse("s7"), Some(S7));
        assert_eq!(parse("k3"), Some(K3));
    }
}
