//! Differential testing of the DSC compiler: random integer expression
//! trees are evaluated by a Rust reference interpreter and by
//! compile-then-simulate; the results must agree bit for bit.

use ds_cpu::FuncCore;
use ds_mem::MemImage;
use proptest::prelude::*;

/// A random expression with matched semantics in Rust and DSC.
#[derive(Debug, Clone)]
enum E {
    Lit(i64),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    /// Division by a guaranteed-nonzero literal.
    DivLit(Box<E>, i64),
    RemLit(Box<E>, i64),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    ShlLit(Box<E>, u8),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    Neg(Box<E>),
    Not(Box<E>),
}

const NVARS: usize = 4;
const VALUES: [i64; NVARS] = [3, -17, 1_000_003, 0];

impl E {
    fn eval(&self) -> i64 {
        match self {
            E::Lit(v) => *v,
            E::Var(i) => VALUES[*i],
            E::Add(a, b) => a.eval().wrapping_add(b.eval()),
            E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            E::DivLit(a, d) => a.eval().wrapping_div(*d),
            E::RemLit(a, d) => a.eval().wrapping_rem(*d),
            E::And(a, b) => a.eval() & b.eval(),
            E::Or(a, b) => a.eval() | b.eval(),
            E::Xor(a, b) => a.eval() ^ b.eval(),
            E::ShlLit(a, s) => a.eval().wrapping_shl(u32::from(*s)),
            E::Lt(a, b) => i64::from(a.eval() < b.eval()),
            E::Eq(a, b) => i64::from(a.eval() == b.eval()),
            E::Neg(a) => a.eval().wrapping_neg(),
            E::Not(a) => i64::from(a.eval() == 0),
        }
    }

    fn to_dsc(&self) -> String {
        match self {
            E::Lit(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
            E::Lit(v) => v.to_string(),
            E::Var(i) => format!("v{i}"),
            E::Add(a, b) => format!("({} + {})", a.to_dsc(), b.to_dsc()),
            E::Sub(a, b) => format!("({} - {})", a.to_dsc(), b.to_dsc()),
            E::Mul(a, b) => format!("({} * {})", a.to_dsc(), b.to_dsc()),
            E::DivLit(a, d) => format!("({} / {d})", a.to_dsc()),
            E::RemLit(a, d) => format!("({} % {d})", a.to_dsc()),
            E::And(a, b) => format!("({} & {})", a.to_dsc(), b.to_dsc()),
            E::Or(a, b) => format!("({} | {})", a.to_dsc(), b.to_dsc()),
            E::Xor(a, b) => format!("({} ^ {})", a.to_dsc(), b.to_dsc()),
            E::ShlLit(a, s) => format!("({} << {s})", a.to_dsc()),
            E::Lt(a, b) => format!("({} < {})", a.to_dsc(), b.to_dsc()),
            E::Eq(a, b) => format!("({} == {})", a.to_dsc(), b.to_dsc()),
            E::Neg(a) => format!("(-{})", a.to_dsc()),
            E::Not(a) => format!("(!{})", a.to_dsc()),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![(-1000i64..1000).prop_map(E::Lit), (0usize..NVARS).prop_map(E::Var),];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), 1i64..100).prop_map(|(a, d)| E::DivLit(Box::new(a), d)),
            (inner.clone(), 1i64..100).prop_map(|(a, d)| E::RemLit(Box::new(a), d)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..16).prop_map(|(a, s)| E::ShlLit(Box::new(a), s)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Eq(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            inner.prop_map(|a| E::Not(Box::new(a))),
        ]
    })
}

fn run_compiled(source: &str) -> i64 {
    let program = ds_lang::compile(source).expect("compiles");
    let mut mem = MemImage::new();
    program.load(&mut mem);
    let mut cpu = FuncCore::with_stack(program.entry, program.stack_top);
    cpu.run(&mut mem, 100_000_000).expect("executes");
    assert!(cpu.halted());
    mem.read_u64(program.symbol("result").expect("result")) as i64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_expressions_match_reference(e in expr_strategy()) {
        let mut src = String::from("int main() {\n");
        for (i, v) in VALUES.iter().enumerate() {
            src.push_str(&format!("int v{i}; v{i} = (0 - {}) + {};\n",
                v.unsigned_abs().min(i64::MAX as u64), // build negatives safely
                if *v >= 0 { 2 * *v } else { 0 },
            ));
        }
        src.push_str(&format!("return {};\n}}\n", e.to_dsc()));
        prop_assert_eq!(run_compiled(&src), e.eval(), "src:\n{}", src);
    }

    #[test]
    fn expressions_also_match_through_locals_and_calls(e in expr_strategy()) {
        // Same expression routed through a helper function.
        let mut src = String::from("int id(int x) { return x; }\nint main() {\n");
        for (i, v) in VALUES.iter().enumerate() {
            src.push_str(&format!("int v{i}; v{i} = (0 - {}) + {};\n",
                v.unsigned_abs().min(i64::MAX as u64),
                if *v >= 0 { 2 * *v } else { 0 },
            ));
        }
        src.push_str(&format!("return id({});\n}}\n", e.to_dsc()));
        prop_assert_eq!(run_compiled(&src), e.eval(), "src:\n{}", src);
    }
}
