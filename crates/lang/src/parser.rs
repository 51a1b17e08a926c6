//! Recursive-descent parser for DSC.

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::{Tok, Token};

/// Parses a token stream into an AST.
///
/// # Errors
///
/// Reports the first syntax error with its line.
pub fn parse(tokens: &[Token]) -> Result<Program, LangError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    while !p.at_eof() {
        items.push(p.item()?);
    }
    Ok(Program { items })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(LangError::new(self.line(), format!("expected `{p}`, found {}", self.describe())))
        }
    }

    fn describe(&self) -> String {
        match self.peek() {
            Tok::Int(v) => format!("`{v}`"),
            Tok::Float(v) => format!("`{v}`"),
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Punct(p) => format!("`{p}`"),
            Tok::Eof => "end of input".to_string(),
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            _ => Err(LangError::new(self.line(), "expected an identifier")),
        }
    }

    fn try_type(&mut self) -> Option<Type> {
        match self.peek() {
            Tok::Ident(s) if s == "int" => {
                self.bump();
                Some(Type::Int)
            }
            Tok::Ident(s) if s == "float" => {
                self.bump();
                Some(Type::Float)
            }
            _ => None,
        }
    }

    fn expect_type(&mut self) -> Result<Type, LangError> {
        self.try_type().ok_or_else(|| {
            LangError::new(self.line(), format!("expected a type, found {}", self.describe()))
        })
    }

    // ---- items ------------------------------------------------------

    fn item(&mut self) -> Result<Item, LangError> {
        let line = self.line();
        let ty = self.expect_type()?;
        let name = self.ident()?;
        if self.eat_punct("(") {
            // Function.
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    let pty = self.expect_type()?;
                    let pname = self.ident()?;
                    params.push((pty, pname));
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            if params.len() > 4 {
                return Err(LangError::new(line, "functions take at most four parameters"));
            }
            let body = self.block()?;
            return Ok(Item::Function(Function { ret: ty, name, params, body, line }));
        }
        // Global.
        let array = if self.eat_punct("[") {
            let n = match self.bump() {
                Tok::Int(v) if v > 0 => v as usize,
                _ => return Err(LangError::new(line, "array size must be a positive literal")),
            };
            self.expect_punct("]")?;
            Some(n)
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            if array.is_some() {
                return Err(LangError::new(line, "array initialisers are not supported"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Item::Global(Global { ty, name, array, init, line }))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(LangError::new(self.line(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    // ---- statements -------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        // Keywords.
        if let Tok::Ident(kw) = self.peek() {
            match kw.as_str() {
                "if" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let cond = self.expr()?;
                    self.expect_punct(")")?;
                    let then = self.block()?;
                    let els = if matches!(self.peek(), Tok::Ident(k) if k == "else") {
                        self.bump();
                        if matches!(self.peek(), Tok::Ident(k) if k == "if") {
                            vec![self.stmt()?]
                        } else {
                            self.block()?
                        }
                    } else {
                        Vec::new()
                    };
                    return Ok(Stmt::If(cond, then, els));
                }
                "while" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let cond = self.expr()?;
                    self.expect_punct(")")?;
                    let body = self.block()?;
                    return Ok(Stmt::While(cond, body));
                }
                "for" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let init = if self.eat_punct(";") { None } else { Some(self.simple_stmt()?) };
                    if init.is_some() {
                        self.expect_punct(";")?;
                    }
                    let cond = if matches!(self.peek(), Tok::Punct(";")) {
                        Expr::Int(1)
                    } else {
                        self.expr()?
                    };
                    self.expect_punct(";")?;
                    let step = if matches!(self.peek(), Tok::Punct(")")) {
                        None
                    } else {
                        Some(self.simple_stmt()?)
                    };
                    self.expect_punct(")")?;
                    let mut body = self.block()?;
                    if let Some(step) = step {
                        body.push(step);
                    }
                    let mut out = Vec::new();
                    if let Some(init) = init {
                        out.push(init);
                    }
                    out.push(Stmt::While(cond, body));
                    // Desugar into a nested block sequence.
                    return Ok(if out.len() == 1 {
                        out.pop().expect("non-empty")
                    } else {
                        // Wrap in an if(1) to keep a single Stmt.
                        Stmt::If(Expr::Int(1), out, Vec::new())
                    });
                }
                "return" => {
                    self.bump();
                    if self.eat_punct(";") {
                        return Ok(Stmt::Return(None, line));
                    }
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Return(Some(e), line));
                }
                _ => {}
            }
        }
        let s = self.simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    /// A declaration, assignment, or expression statement (no trailing
    /// semicolon — shared with `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        if let Some(ty) = self.try_type_lookahead() {
            let _ = self.try_type(); // commit the lookahead

            let name = self.ident()?;
            let init = if self.eat_punct("=") { Some(self.expr()?) } else { None };
            return Ok(Stmt::Local(ty, name, init, line));
        }
        // Assignment or expression.
        if let Tok::Ident(name) = self.peek().clone() {
            // Lookahead for `name =` / `name[expr] =`.
            let save = self.pos;
            self.bump();
            if self.eat_punct("=") {
                let e = self.expr()?;
                return Ok(Stmt::Assign(name, e, line));
            }
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                if self.eat_punct("=") {
                    let e = self.expr()?;
                    return Ok(Stmt::AssignIndex(name, idx, e, line));
                }
            }
            self.pos = save;
        }
        let e = self.expr()?;
        Ok(Stmt::Expr(e))
    }

    fn try_type_lookahead(&self) -> Option<Type> {
        match self.peek() {
            Tok::Ident(s) if s == "int" || s == "float" => {
                // Disambiguate from the cast syntax `int(...)`.
                if matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(Tok::Punct("("))) {
                    None
                } else if s == "int" {
                    Some(Type::Int)
                } else {
                    Some(Type::Float)
                }
            }
            _ => None,
        }
    }

    // ---- expressions (precedence climbing) --------------------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.logical_or()
    }

    fn logical_or(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.logical_and()?;
        while matches!(self.peek(), Tok::Punct("||")) {
            let line = self.line();
            self.bump();
            let rhs = self.logical_and()?;
            lhs = Expr::Binary(BinOp::LogOr, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.bitor()?;
        while matches!(self.peek(), Tok::Punct("&&")) {
            let line = self.line();
            self.bump();
            let rhs = self.bitor()?;
            lhs = Expr::Binary(BinOp::LogAnd, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn binary_level(
        &mut self,
        ops: &[(&str, BinOp)],
        next: fn(&mut Self) -> Result<Expr, LangError>,
    ) -> Result<Expr, LangError> {
        let mut lhs = next(self)?;
        'outer: loop {
            for (text, op) in ops {
                if matches!(self.peek(), Tok::Punct(p) if p == text) {
                    let line = self.line();
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr::Binary(*op, Box::new(lhs), Box::new(rhs), line);
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn bitor(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("|", BinOp::Or)], Self::bitxor)
    }

    fn bitxor(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("^", BinOp::Xor)], Self::bitand)
    }

    fn bitand(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("&", BinOp::And)], Self::equality)
    }

    fn equality(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("==", BinOp::Eq), ("!=", BinOp::Ne)], Self::relational)
    }

    fn relational(&mut self) -> Result<Expr, LangError> {
        self.binary_level(
            &[("<=", BinOp::Le), (">=", BinOp::Ge), ("<", BinOp::Lt), (">", BinOp::Gt)],
            Self::shift,
        )
    }

    fn shift(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("<<", BinOp::Shl), (">>", BinOp::Shr)], Self::additive)
    }

    fn additive(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("+", BinOp::Add), ("-", BinOp::Sub)], Self::multiplicative)
    }

    fn multiplicative(&mut self) -> Result<Expr, LangError> {
        self.binary_level(&[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)], Self::unary)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        if self.eat_punct("-") {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?), line));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?), line));
        }
        if self.eat_punct("~") {
            return Ok(Expr::Unary(UnOp::BitNot, Box::new(self.unary()?), line));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    // Cast or call.
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    if name == "int" || name == "float" {
                        if args.len() != 1 {
                            return Err(LangError::new(line, "casts take exactly one argument"));
                        }
                        let ty = if name == "int" { Type::Int } else { Type::Float };
                        return Ok(Expr::Cast(ty, Box::new(args.pop().expect("one arg")), line));
                    }
                    return Ok(Expr::Call(name, args, line));
                }
                if self.eat_punct("[") {
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr::Index(name, Box::new(idx), line));
                }
                Ok(Expr::Var(name, line))
            }
            other => {
                Err(LangError::new(line, format!("expected an expression, found `{other:?}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_src("int add(int a, int b) { return a + b; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert!(matches!(f.body[0], Stmt::Return(Some(_), _)));
    }

    #[test]
    fn parses_globals() {
        let p = parse_src("int x = 5; float fs[10]; int main() { return 0; }");
        assert!(matches!(&p.items[0], Item::Global(g) if g.name == "x" && g.init.is_some()));
        assert!(matches!(&p.items[1], Item::Global(g) if g.array == Some(10)));
    }

    #[test]
    fn precedence_shapes_the_tree() {
        let p = parse_src("int main() { return 1 + 2 * 3; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Return(Some(Expr::Binary(BinOp::Add, _, rhs, _)), _) = &f.body[0] else {
            panic!("expected add at root")
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn cast_vs_declaration_ambiguity() {
        // `int(x)` is a cast; `int x` is a declaration.
        let p = parse_src("int main() { int y; y = int(1.5); return y; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert!(matches!(f.body[0], Stmt::Local(Type::Int, _, None, _)));
        assert!(matches!(&f.body[1], Stmt::Assign(_, Expr::Cast(Type::Int, _, _), _)));
    }

    #[test]
    fn for_desugars_to_while() {
        let p = parse_src("int main() { for (int i = 0; i < 3; i = i + 1) { } return 0; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::If(_, body, _) = &f.body[0] else { panic!("for wrapper") };
        assert!(matches!(body[0], Stmt::Local(..)));
        assert!(matches!(body[1], Stmt::While(..)));
    }

    #[test]
    fn else_if_chains() {
        let p = parse_src(
            "int main() { if (1) { return 1; } else if (2) { return 2; } else { return 3; } }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::If(_, _, els) = &f.body[0] else { panic!() };
        assert!(matches!(els[0], Stmt::If(..)));
    }

    #[test]
    fn syntax_errors_have_lines() {
        let toks = lex("int main() {\n return 1 +; \n}").unwrap();
        let e = parse(&toks).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse(&lex("int f(int a, int b, int c, int d, int e) {}").unwrap()).is_err());
    }
}
