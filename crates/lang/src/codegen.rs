//! DS-1 code generation: a single-pass, type-checked stack machine.
//!
//! Every expression leaves its 64-bit value (raw bits for both `int`
//! and `float`) on the machine stack; operators pop their operands into
//! scratch registers (`t1`/`t2` or `f1`/`f2`) and push the result. The
//! frame pointer lives in `s7`; locals (including parameters) occupy
//! slots below it. Function results return in `v0` as raw bits.
//!
//! Naive by design: the output is correct, deterministic, and
//! load/store-rich — which makes compiled DSC a memory-intensive
//! workload in its own right.
#![expect(
    clippy::disallowed_types,
    reason = "symbol tables are probed by name and never iterated, so hash order cannot \
              reach the emitted program"
)]

use crate::ast::*;
use crate::error::LangError;
use crate::Ast;
use ds_asm::{Label, ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};
use std::collections::HashMap;

/// Generates a loadable program from a checked AST.
///
/// # Errors
///
/// Reports semantic errors (unknown names, type mismatches, bad arity,
/// missing `main`).
pub fn generate(ast: &Ast) -> Result<Program, LangError> {
    let mut cg = Codegen::new();
    cg.declare_items(ast)?;
    cg.emit_entry()?;
    for item in &ast.items {
        if let Item::Function(f) = item {
            cg.emit_function(f)?;
        }
    }
    cg.b.finish().map_err(|e| LangError::new(0, e.message))
}

#[derive(Debug, Clone, Copy)]
struct GlobalInfo {
    ty: Type,
    addr: u64,
    array_len: Option<usize>,
}

#[derive(Debug, Clone)]
struct FuncInfo {
    ret: Type,
    params: Vec<Type>,
    label: Label,
}

struct Codegen {
    b: ProgBuilder,
    globals: HashMap<String, GlobalInfo>,
    funcs: HashMap<String, FuncInfo>,
    /// Lexical scopes: name -> (type, frame slot).
    scopes: Vec<HashMap<String, (Type, usize)>>,
    /// Slots allocated so far in the current function.
    next_slot: usize,
    /// Current function's return type.
    ret_ty: Type,
}

const FP: u8 = reg::S7;

impl Codegen {
    fn new() -> Self {
        Codegen {
            b: ProgBuilder::new(),
            globals: HashMap::new(),
            funcs: HashMap::new(),
            scopes: Vec::new(),
            next_slot: 0,
            ret_ty: Type::Int,
        }
    }

    // ---- declarations ------------------------------------------------

    fn declare_items(&mut self, ast: &Ast) -> Result<(), LangError> {
        for item in &ast.items {
            match item {
                Item::Global(g) => {
                    let words = g.array.unwrap_or(1);
                    let dref = match (&g.init, g.ty) {
                        (Some(e), ty) => {
                            let bits = const_bits(e, ty, g.line)?;
                            self.b.dwords(&[bits])
                        }
                        (None, _) => self.b.space(words as u64 * 8),
                    };
                    let addr = self.b.addr_of(dref);
                    self.b.symbol(g.name.clone(), addr);
                    let prev = self
                        .globals
                        .insert(g.name.clone(), GlobalInfo { ty: g.ty, addr, array_len: g.array });
                    if prev.is_some() {
                        return Err(LangError::new(
                            g.line,
                            format!("duplicate global `{}`", g.name),
                        ));
                    }
                }
                Item::Function(f) => {
                    let label = self.b.label();
                    let prev = self.funcs.insert(
                        f.name.clone(),
                        FuncInfo {
                            ret: f.ret,
                            params: f.params.iter().map(|(t, _)| *t).collect(),
                            label,
                        },
                    );
                    if prev.is_some() {
                        return Err(LangError::new(
                            f.line,
                            format!("duplicate function `{}`", f.name),
                        ));
                    }
                }
            }
        }
        if !self.funcs.contains_key("main") {
            return Err(LangError::new(0, "no `main` function defined"));
        }
        Ok(())
    }

    /// The program entry: call `main`, store its result, halt.
    fn emit_entry(&mut self) -> Result<(), LangError> {
        let result = self.b.dwords(&[0]);
        let result_addr = self.b.addr_of(result);
        self.b.symbol("result", result_addr);
        let main = self.funcs["main"].label;
        self.b.call(main);
        self.b.li(reg::K0, result_addr as i64);
        self.b.inst(Inst::store(Opcode::Sd, reg::V0, reg::K0, 0));
        self.b.halt();
        Ok(())
    }

    // ---- functions -----------------------------------------------------

    fn emit_function(&mut self, f: &Function) -> Result<(), LangError> {
        let info = self.funcs[&f.name].clone();
        self.b.bind(info.label);
        self.ret_ty = f.ret;
        self.scopes.clear();
        self.scopes.push(HashMap::new());
        self.next_slot = 0;
        // Frame size: params + every local declared anywhere in the body.
        let frame_slots = f.params.len() + count_locals(&f.body);
        let frame_bytes = (frame_slots as i32 + 2) * 8; // + ra + old fp
                                                        // Prologue.
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, -frame_bytes));
        self.b.inst(Inst::store(Opcode::Sd, reg::RA, reg::SP, frame_bytes - 8));
        self.b.inst(Inst::store(Opcode::Sd, FP, reg::SP, frame_bytes - 16));
        self.b.inst(Inst::rri(Opcode::Addi, FP, reg::SP, frame_bytes - 16));
        // Bind parameters to the first slots and spill the arg registers.
        for (i, (ty, name)) in f.params.iter().enumerate() {
            let slot = self.alloc_local(name.clone(), *ty, f.line)?;
            self.b.inst(Inst::store(Opcode::Sd, reg::A0 + i as u8, FP, slot_off(slot)));
        }
        self.emit_block(&f.body)?;
        // Implicit `return 0` fall-through.
        self.b.li(reg::V0, 0);
        self.emit_epilogue(frame_bytes);
        Ok(())
    }

    fn emit_epilogue(&mut self, _frame_bytes: i32) {
        // FP points at the old-FP save slot; ra sits just above it.
        self.b.inst(Inst::load(Opcode::Ld, reg::RA, FP, 8));
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, FP, 16));
        self.b.inst(Inst::load(Opcode::Ld, FP, FP, 0));
        self.b.ret();
    }

    fn alloc_local(&mut self, name: String, ty: Type, line: usize) -> Result<usize, LangError> {
        let scope = self.scopes.last_mut().expect("scope stack non-empty");
        if scope.contains_key(&name) {
            return Err(LangError::new(line, format!("`{name}` already declared in this scope")));
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        scope.insert(name, (ty, slot));
        Ok(slot)
    }

    fn lookup_local(&self, name: &str) -> Option<(Type, usize)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    // ---- statements ----------------------------------------------------

    fn emit_block(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.emit_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn emit_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Local(ty, name, init, line) => {
                let slot = self.alloc_local(name.clone(), *ty, *line)?;
                if let Some(e) = init {
                    let ety = self.emit_expr(e)?;
                    expect_type(*ty, ety, *line)?;
                    self.pop_int(reg::T0);
                    self.b.inst(Inst::store(Opcode::Sd, reg::T0, FP, slot_off(slot)));
                } else {
                    // Zero-initialise (deterministic semantics).
                    self.b.inst(Inst::store(Opcode::Sd, reg::ZERO, FP, slot_off(slot)));
                }
                Ok(())
            }
            Stmt::Assign(name, e, line) => {
                let ety = self.emit_expr(e)?;
                if let Some((ty, slot)) = self.lookup_local(name) {
                    expect_type(ty, ety, *line)?;
                    self.pop_int(reg::T0);
                    self.b.inst(Inst::store(Opcode::Sd, reg::T0, FP, slot_off(slot)));
                    return Ok(());
                }
                if let Some(g) = self.globals.get(name).copied() {
                    if g.array_len.is_some() {
                        return Err(LangError::new(*line, format!("`{name}` is an array")));
                    }
                    expect_type(g.ty, ety, *line)?;
                    self.pop_int(reg::T0);
                    self.b.li(reg::K0, g.addr as i64);
                    self.b.inst(Inst::store(Opcode::Sd, reg::T0, reg::K0, 0));
                    return Ok(());
                }
                Err(LangError::new(*line, format!("assignment to undefined variable `{name}`")))
            }
            Stmt::AssignIndex(name, idx, e, line) => {
                let g =
                    self.globals.get(name).copied().ok_or_else(|| {
                        LangError::new(*line, format!("undefined array `{name}`"))
                    })?;
                if g.array_len.is_none() {
                    return Err(LangError::new(*line, format!("`{name}` is not an array")));
                }
                let ity = self.emit_expr(idx)?;
                expect_type(Type::Int, ity, *line)?;
                let ety = self.emit_expr(e)?;
                expect_type(g.ty, ety, *line)?;
                self.pop_int(reg::T0); // value
                self.pop_int(reg::T1); // index
                self.b.inst(Inst::rri(Opcode::Slli, reg::T1, reg::T1, 3));
                self.b.li(reg::K0, g.addr as i64);
                self.b.inst(Inst::rrr(Opcode::Add, reg::K0, reg::K0, reg::T1));
                self.b.inst(Inst::store(Opcode::Sd, reg::T0, reg::K0, 0));
                Ok(())
            }
            Stmt::Expr(e) => {
                self.emit_expr(e)?;
                // Discard the value.
                self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, 8));
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                let cty = self.emit_expr(cond)?;
                expect_type(Type::Int, cty, cond.line())?;
                self.pop_int(reg::T0);
                let else_l = self.b.label();
                let end_l = self.b.label();
                self.b.beqz(reg::T0, else_l);
                self.emit_block(then)?;
                self.b.j(end_l);
                self.b.bind(else_l);
                self.emit_block(els)?;
                self.b.bind(end_l);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let top = self.b.here();
                let exit = self.b.label();
                let cty = self.emit_expr(cond)?;
                expect_type(Type::Int, cty, cond.line())?;
                self.pop_int(reg::T0);
                self.b.beqz(reg::T0, exit);
                self.emit_block(body)?;
                self.b.j(top);
                self.b.bind(exit);
                Ok(())
            }
            Stmt::Return(e, line) => {
                match e {
                    Some(e) => {
                        let ety = self.emit_expr(e)?;
                        expect_type(self.ret_ty, ety, *line)?;
                        self.pop_int(reg::V0);
                    }
                    None => self.b.li(reg::V0, 0).drop_ref(),
                }
                self.emit_epilogue(0);
                Ok(())
            }
        }
    }

    // ---- expressions -----------------------------------------------

    /// Emits code leaving the value on the machine stack; returns its
    /// type.
    fn emit_expr(&mut self, e: &Expr) -> Result<Type, LangError> {
        match e {
            Expr::Int(v) => {
                self.b.li(reg::T0, *v);
                self.push_int(reg::T0);
                Ok(Type::Int)
            }
            Expr::Float(v) => {
                self.b.li(reg::T0, v.to_bits() as i64);
                self.push_int(reg::T0);
                Ok(Type::Float)
            }
            Expr::Var(name, line) => {
                if let Some((ty, slot)) = self.lookup_local(name) {
                    self.b.inst(Inst::load(Opcode::Ld, reg::T0, FP, slot_off(slot)));
                    self.push_int(reg::T0);
                    return Ok(ty);
                }
                if let Some(g) = self.globals.get(name).copied() {
                    if g.array_len.is_some() {
                        return Err(LangError::new(*line, format!("`{name}` is an array")));
                    }
                    self.b.li(reg::K0, g.addr as i64);
                    self.b.inst(Inst::load(Opcode::Ld, reg::T0, reg::K0, 0));
                    self.push_int(reg::T0);
                    return Ok(g.ty);
                }
                Err(LangError::new(*line, format!("undefined variable `{name}`")))
            }
            Expr::Index(name, idx, line) => {
                let g =
                    self.globals.get(name).copied().ok_or_else(|| {
                        LangError::new(*line, format!("undefined array `{name}`"))
                    })?;
                if g.array_len.is_none() {
                    return Err(LangError::new(*line, format!("`{name}` is not an array")));
                }
                let ity = self.emit_expr(idx)?;
                expect_type(Type::Int, ity, *line)?;
                self.pop_int(reg::T0);
                self.b.inst(Inst::rri(Opcode::Slli, reg::T0, reg::T0, 3));
                self.b.li(reg::K0, g.addr as i64);
                self.b.inst(Inst::rrr(Opcode::Add, reg::K0, reg::K0, reg::T0));
                self.b.inst(Inst::load(Opcode::Ld, reg::T0, reg::K0, 0));
                self.push_int(reg::T0);
                Ok(g.ty)
            }
            Expr::Call(name, args, line) => {
                let info =
                    self.funcs.get(name).cloned().ok_or_else(|| {
                        LangError::new(*line, format!("undefined function `{name}`"))
                    })?;
                if args.len() != info.params.len() {
                    return Err(LangError::new(
                        *line,
                        format!(
                            "`{name}` takes {} arguments, got {}",
                            info.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, want) in args.iter().zip(&info.params) {
                    let got = self.emit_expr(arg)?;
                    expect_type(*want, got, arg.line().max(*line))?;
                }
                // Pop arguments into a3..a0 (right to left).
                for i in (0..args.len()).rev() {
                    self.pop_int(reg::A0 + i as u8);
                }
                self.b.call(info.label);
                self.push_int(reg::V0);
                Ok(info.ret)
            }
            Expr::Cast(ty, inner, _line) => {
                let from = self.emit_expr(inner)?;
                match (from, *ty) {
                    (Type::Int, Type::Int) | (Type::Float, Type::Float) => {}
                    (Type::Int, Type::Float) => {
                        self.pop_int(reg::T0);
                        self.b.inst(Inst::rri(Opcode::Fcvtdw, 1, reg::T0, 0));
                        self.push_float(1);
                    }
                    (Type::Float, Type::Int) => {
                        self.pop_float(1);
                        self.b.inst(Inst::rri(Opcode::Fcvtwd, reg::T0, 1, 0));
                        self.push_int(reg::T0);
                    }
                }
                Ok(*ty)
            }
            Expr::Unary(op, inner, line) => {
                let ty = self.emit_expr(inner)?;
                match (op, ty) {
                    (UnOp::Neg, Type::Int) => {
                        self.pop_int(reg::T0);
                        self.b.inst(Inst::rrr(Opcode::Sub, reg::T0, reg::ZERO, reg::T0));
                        self.push_int(reg::T0);
                    }
                    (UnOp::Neg, Type::Float) => {
                        self.pop_float(1);
                        self.b.inst(Inst::rrr(Opcode::Fneg, 1, 1, 0));
                        self.push_float(1);
                    }
                    (UnOp::Not, Type::Int) => {
                        self.pop_int(reg::T0);
                        // !x = (x == 0)
                        self.b.inst(Inst::rrr(Opcode::Sltu, reg::T0, reg::ZERO, reg::T0));
                        self.b.inst(Inst::rri(Opcode::Xori, reg::T0, reg::T0, 1));
                        self.push_int(reg::T0);
                    }
                    (UnOp::BitNot, Type::Int) => {
                        self.pop_int(reg::T0);
                        self.b.inst(Inst::rrr(Opcode::Nor, reg::T0, reg::T0, reg::ZERO));
                        self.push_int(reg::T0);
                    }
                    (UnOp::Not | UnOp::BitNot, Type::Float) => {
                        return Err(LangError::new(*line, "type error: operator requires int"));
                    }
                }
                Ok(if ty == Type::Float && *op == UnOp::Neg { Type::Float } else { Type::Int })
            }
            Expr::Binary(op, lhs, rhs, line) => self.emit_binary(*op, lhs, rhs, *line),
        }
    }

    fn emit_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: usize,
    ) -> Result<Type, LangError> {
        // Short-circuit logicals first (control flow, not data flow).
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let take_rhs = self.b.label();
            let end = self.b.label();
            let lty = self.emit_expr(lhs)?;
            expect_type(Type::Int, lty, line)?;
            self.pop_int(reg::T0);
            match op {
                BinOp::LogAnd => {
                    self.b.bnez(reg::T0, take_rhs);
                    self.b.li(reg::T0, 0);
                    self.push_int(reg::T0);
                    self.b.j(end);
                }
                BinOp::LogOr => {
                    self.b.beqz(reg::T0, take_rhs);
                    self.b.li(reg::T0, 1);
                    self.push_int(reg::T0);
                    self.b.j(end);
                }
                _ => unreachable!(),
            }
            self.b.bind(take_rhs);
            let rty = self.emit_expr(rhs)?;
            expect_type(Type::Int, rty, line)?;
            self.pop_int(reg::T0);
            self.b.inst(Inst::rrr(Opcode::Sltu, reg::T0, reg::ZERO, reg::T0));
            self.push_int(reg::T0);
            self.b.bind(end);
            return Ok(Type::Int);
        }

        let lty = self.emit_expr(lhs)?;
        let rty = self.emit_expr(rhs)?;
        if lty != rty {
            return Err(LangError::new(
                line,
                format!(
                    "type error: `{}` vs `{}` (use int()/float() casts)",
                    lty.name(),
                    rty.name()
                ),
            ));
        }
        if op.int_only() && lty == Type::Float {
            return Err(LangError::new(line, "type error: operator requires int operands"));
        }
        match lty {
            Type::Int => {
                self.pop_int(reg::T2);
                self.pop_int(reg::T1);
                let t = (reg::T0, reg::T1, reg::T2);
                match op {
                    BinOp::Add => self.rrr(Opcode::Add, t),
                    BinOp::Sub => self.rrr(Opcode::Sub, t),
                    BinOp::Mul => self.rrr(Opcode::Mul, t),
                    BinOp::Div => self.rrr(Opcode::Div, t),
                    BinOp::Rem => self.rrr(Opcode::Rem, t),
                    BinOp::Shl => self.rrr(Opcode::Sll, t),
                    BinOp::Shr => self.rrr(Opcode::Sra, t),
                    BinOp::And => self.rrr(Opcode::And, t),
                    BinOp::Or => self.rrr(Opcode::Or, t),
                    BinOp::Xor => self.rrr(Opcode::Xor, t),
                    BinOp::Lt => self.rrr(Opcode::Slt, t),
                    BinOp::Gt => self.rrr(Opcode::Slt, (reg::T0, reg::T2, reg::T1)),
                    BinOp::Ge => {
                        self.rrr(Opcode::Slt, t);
                        self.b.inst(Inst::rri(Opcode::Xori, reg::T0, reg::T0, 1));
                    }
                    BinOp::Le => {
                        self.rrr(Opcode::Slt, (reg::T0, reg::T2, reg::T1));
                        self.b.inst(Inst::rri(Opcode::Xori, reg::T0, reg::T0, 1));
                    }
                    BinOp::Eq => {
                        self.rrr(Opcode::Xor, t);
                        self.b.inst(Inst::rrr(Opcode::Sltu, reg::T0, reg::ZERO, reg::T0));
                        self.b.inst(Inst::rri(Opcode::Xori, reg::T0, reg::T0, 1));
                    }
                    BinOp::Ne => {
                        self.rrr(Opcode::Xor, t);
                        self.b.inst(Inst::rrr(Opcode::Sltu, reg::T0, reg::ZERO, reg::T0));
                    }
                    BinOp::LogAnd | BinOp::LogOr => unreachable!("handled above"),
                }
                self.push_int(reg::T0);
                Ok(Type::Int)
            }
            Type::Float => {
                self.pop_float(2);
                self.pop_float(1);
                match op {
                    BinOp::Add => self.b.inst(Inst::rrr(Opcode::Fadd, 1, 1, 2)).drop_ref(),
                    BinOp::Sub => self.b.inst(Inst::rrr(Opcode::Fsub, 1, 1, 2)).drop_ref(),
                    BinOp::Mul => self.b.inst(Inst::rrr(Opcode::Fmul, 1, 1, 2)).drop_ref(),
                    BinOp::Div => self.b.inst(Inst::rrr(Opcode::Fdiv, 1, 1, 2)).drop_ref(),
                    BinOp::Lt => {
                        self.b.inst(Inst::rrr(Opcode::Flt, reg::T0, 1, 2));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    BinOp::Le => {
                        self.b.inst(Inst::rrr(Opcode::Fle, reg::T0, 1, 2));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    BinOp::Gt => {
                        self.b.inst(Inst::rrr(Opcode::Flt, reg::T0, 2, 1));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    BinOp::Ge => {
                        self.b.inst(Inst::rrr(Opcode::Fle, reg::T0, 2, 1));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    BinOp::Eq => {
                        self.b.inst(Inst::rrr(Opcode::Feq, reg::T0, 1, 2));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    BinOp::Ne => {
                        self.b.inst(Inst::rrr(Opcode::Feq, reg::T0, 1, 2));
                        self.b.inst(Inst::rri(Opcode::Xori, reg::T0, reg::T0, 1));
                        self.push_int(reg::T0);
                        return Ok(Type::Int);
                    }
                    _ => unreachable!("int-only ops rejected above"),
                }
                self.push_float(1);
                Ok(Type::Float)
            }
        }
    }

    fn rrr(&mut self, op: Opcode, (d, a, b): (u8, u8, u8)) {
        self.b.inst(Inst::rrr(op, d, a, b));
    }

    // ---- machine-stack helpers --------------------------------------

    fn push_int(&mut self, r: u8) {
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, -8));
        self.b.inst(Inst::store(Opcode::Sd, r, reg::SP, 0));
    }

    fn pop_int(&mut self, r: u8) {
        self.b.inst(Inst::load(Opcode::Ld, r, reg::SP, 0));
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, 8));
    }

    fn push_float(&mut self, f: u8) {
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, -8));
        self.b.inst(Inst::store(Opcode::Fsd, f, reg::SP, 0));
    }

    fn pop_float(&mut self, f: u8) {
        self.b.inst(Inst::load(Opcode::Fld, f, reg::SP, 0));
        self.b.inst(Inst::rri(Opcode::Addi, reg::SP, reg::SP, 8));
    }
}

/// Frame-pointer-relative byte offset of local slot `i`.
fn slot_off(slot: usize) -> i32 {
    -8 * (slot as i32 + 1)
}

/// Counts local declarations anywhere in a body (frame sizing).
fn count_locals(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Local(..) => 1,
            Stmt::If(_, a, b) => count_locals(a) + count_locals(b),
            Stmt::While(_, b) => count_locals(b),
            _ => 0,
        })
        .sum()
}

/// Evaluates a global initialiser (literals, optionally negated).
fn const_bits(e: &Expr, ty: Type, line: usize) -> Result<u64, LangError> {
    match (e, ty) {
        (Expr::Int(v), Type::Int) => Ok(*v as u64),
        (Expr::Float(v), Type::Float) => Ok(v.to_bits()),
        (Expr::Unary(UnOp::Neg, inner, _), _) => {
            let bits = const_bits(inner, ty, line)?;
            Ok(match ty {
                Type::Int => (bits as i64).wrapping_neg() as u64,
                Type::Float => (-f64::from_bits(bits)).to_bits(),
            })
        }
        _ => Err(LangError::new(line, "global initialisers must be literals of the declared type")),
    }
}

fn expect_type(want: Type, got: Type, line: usize) -> Result<(), LangError> {
    if want == got {
        Ok(())
    } else {
        Err(LangError::new(
            line,
            format!(
                "type error: expected `{}`, got `{}` (use int()/float())",
                want.name(),
                got.name()
            ),
        ))
    }
}

/// Tiny extension so builder-returning calls can appear in match arms.
trait DropRef {
    fn drop_ref(&mut self) {}
}
impl DropRef for ProgBuilder {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dsc;

    #[test]
    fn slot_offsets_descend() {
        assert_eq!(slot_off(0), -8);
        assert_eq!(slot_off(3), -32);
    }

    #[test]
    fn count_locals_recurses() {
        use crate::lexer::lex;
        use crate::parser::parse;
        let ast = parse(
            &lex("int main() { int a; if (1) { int b; } while (0) { int c; int d; } return 0; }")
                .unwrap(),
        )
        .unwrap();
        let Item::Function(f) = &ast.items[0] else { panic!() };
        assert_eq!(count_locals(&f.body), 4);
    }

    #[test]
    fn global_const_initialisers() {
        assert_eq!(run_dsc("int g = -42; int main() { return g; }"), -42);
        assert_eq!(run_dsc("float g = -2.5; int main() { return int(g * -2.0); }"), 5);
    }

    #[test]
    fn locals_are_zero_initialised() {
        assert_eq!(run_dsc("int main() { int x; return x; }"), 0);
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let v = run_dsc("int main() { int x; x = 1; if (1) { int x; x = 9; } return x; }");
        assert_eq!(v, 1, "inner x must not clobber outer x");
    }

    #[test]
    fn deep_recursion_uses_the_stack_correctly() {
        assert_eq!(
            run_dsc("int sum(int n) { if (n == 0) { return 0; } return n + sum(n - 1); } int main() { return sum(500); }"),
            500 * 501 / 2
        );
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(crate::compile("int x; int x; int main() { return 0; }").is_err());
        assert!(crate::compile(
            "int f() { return 0; } int f() { return 1; } int main() { return 0; }"
        )
        .is_err());
        assert!(crate::compile("int main() { int a; int a; return 0; }").is_err());
    }

    #[test]
    fn array_type_mismatches_rejected() {
        assert!(crate::compile("int xs[4]; int main() { xs = 3; return 0; }").is_err());
        assert!(crate::compile("int x; int main() { return x[0]; }").is_err());
        assert!(crate::compile("float fs[4]; int main() { fs[0] = 1; return 0; }").is_err());
    }
}
