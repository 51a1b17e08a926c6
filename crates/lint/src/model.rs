//! The per-file model: function definitions with their impl owners,
//! allocation/panic fact sites and call sites, extracted from the
//! shared token stream.
//!
//! This is deliberately a *lexical* model, not a type-checked one: the
//! linter over-approximates call resolution by name (see `graph.rs`),
//! which is sound for the invariants it proves — a chain that cannot
//! happen at runtime can only add a finding, never hide one — and keeps
//! the whole pass dependency-free and fast enough to run on every
//! `verify.sh`.

use crate::tokens::{strip, tokenize, LineIndex, Token, TokenKind};
use crate::{parse_directives, scan, Allow, Diagnostic, FileClass};

/// One source file handed to the linter.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/core/src/node.rs`).
    pub rel_path: String,
    /// Raw source text.
    pub raw: String,
    /// Which rules apply to it.
    pub class: FileClass,
}

/// What kind of fact a [`Site`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// An allocation token (`Vec::new`, `format!`, `.collect()`, ...).
    Alloc,
    /// A panic path (`.unwrap()`, `.expect(..)`, `panic!`, `unsafe`).
    Panic,
}

/// One fact occurrence.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was found.
    pub fact: Fact,
    /// The offending token, for the diagnostic (`Vec::new`, `.unwrap()`).
    pub what: String,
    /// Byte offset in the cleaned text.
    pub offset: usize,
    /// Id of the innermost enclosing function, if any.
    pub func: Option<usize>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(...)` — a method on some receiver.
    Method,
    /// `Qualifier::name(...)`.
    Qualified(String),
    /// `name(...)` — a free function (possibly imported).
    Bare,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// How the callee is addressed.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: usize,
}

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Index into the workspace function table.
    pub id: usize,
    /// Bare name (`charge_cycle`).
    pub name: String,
    /// Enclosing `impl` type, if any (`Node`).
    pub owner: Option<String>,
    /// True if the parameter list mentions `self`.
    pub has_self: bool,
    /// File index into the workspace file table.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the body braces in the cleaned text (inclusive).
    pub body: (usize, usize),
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Owner::name` or bare `name` — the spelling used in diagnostics.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the rule checks need from one parsed file.
pub struct FileModel {
    /// Cleaned text (comments/strings blanked, offsets preserved).
    pub cleaned: String,
    /// Offset → line mapping.
    pub index: LineIndex,
    /// `#[cfg(test)]` regions (byte ranges; exempt from everything).
    pub test_regions: Vec<(usize, usize)>,
    /// Parsed `ds-lint:` suppressions.
    pub allows: Vec<Allow>,
    /// Malformed `ds-lint:` directives.
    pub directive_errors: Vec<Diagnostic>,
    /// Allocation and panic sites, in or out of a function (those
    /// inside `test_regions` included; `lint` drops them).
    pub sites: Vec<Site>,
}

/// How a [`FACT_TOKENS`] needle is matched in cleaned text.
enum Match {
    /// Plain substring (`Vec::new`, `vec![`).
    Text,
    /// A `.name(` method call.
    Method,
    /// An identifier-delimited word.
    Word,
}

/// The one allocation/panic token table: a1 reports the `Alloc` sites
/// on the cycle path; p1 the `Panic` sites there and in hot modules.
const FACT_TOKENS: [(Fact, Match, &str); 11] = [
    (Fact::Alloc, Match::Text, "Vec::new"),
    (Fact::Alloc, Match::Text, "vec!["),
    (Fact::Alloc, Match::Text, "Box::new"),
    (Fact::Alloc, Match::Text, "String::new"),
    (Fact::Alloc, Match::Text, "format!"),
    (Fact::Alloc, Match::Method, "to_vec"),
    (Fact::Alloc, Match::Method, "collect"),
    (Fact::Panic, Match::Method, "unwrap"),
    (Fact::Panic, Match::Method, "expect"),
    (Fact::Panic, Match::Word, "panic!"),
    (Fact::Panic, Match::Word, "unsafe"),
];

/// Keywords that can precede `(` without being a call.
const NON_CALL_WORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "where", "unsafe", "dyn", "impl", "use", "mod",
];

/// Parses `file`, appending its functions to `fns` (ids continue from
/// `fns.len()`); `file_idx` is the caller's index for this file.
pub fn parse_file(file: &SourceFile, file_idx: usize, fns: &mut Vec<FnDef>) -> FileModel {
    let cleaned = strip(&file.raw);
    let tokens = tokenize(&cleaned);
    let index = LineIndex::new(&cleaned);
    let test_regions = scan::test_regions(&cleaned);
    let (allows, directive_errors) = parse_directives(&file.rel_path, &file.raw, &cleaned);

    let impls = impl_regions(&cleaned, &tokens);
    let first = fns.len();
    collect_fns(&cleaned, &tokens, &impls, &test_regions, file_idx, &index, fns);
    let new_fns = &mut fns[first..];

    // Fact sites, assigned to the innermost containing function.
    let mut sites = Vec::new();
    for (fact, how, needle) in FACT_TOKENS {
        let (hits, what) = match how {
            Match::Text => (scan::occurrences(&cleaned, needle), needle.to_string()),
            Match::Method => (scan::method_calls(&cleaned, needle), format!(".{needle}()")),
            Match::Word => (scan::word_occurrences(&cleaned, needle), needle.to_string()),
        };
        for offset in hits {
            let func = innermost(new_fns, offset).map(|f| first + f);
            sites.push(Site { fact, what: what.clone(), offset, func });
        }
    }

    // Call sites.
    let calls = call_sites(&cleaned, &tokens, &test_regions, &index);
    for (at, call) in calls {
        if let Some(f) = innermost(new_fns, at) {
            new_fns[f].calls.push(call);
        }
    }

    FileModel { cleaned, index, test_regions, allows, directive_errors, sites }
}

/// `(body range, type name)` for every `impl` block.
fn impl_regions(cleaned: &str, tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_word(cleaned, "impl") {
            i += 1;
            continue;
        }
        // Walk the header up to its `{`, tracking <> nesting; the type
        // is the last angle-depth-0 identifier before `{` (or `where`),
        // which handles `impl Foo`, `impl<T> Foo<T>` and
        // `impl Trait for Foo` alike.
        let mut angle = 0i32;
        let mut ty = None;
        let mut j = i + 1;
        while j < tokens.len() {
            let t = &tokens[j];
            match t.kind {
                TokenKind::Punct(b'<') => angle += 1,
                TokenKind::Punct(b'>') => angle -= 1,
                TokenKind::Punct(b'{') if angle <= 0 => break,
                TokenKind::Punct(b';') if angle <= 0 => break,
                TokenKind::Ident if angle == 0 => {
                    let w = t.text(cleaned);
                    if w == "where" {
                        // Bound types must not shadow the impl type.
                        while j < tokens.len() && !tokens[j].is_punct(b'{') {
                            j += 1;
                        }
                        break;
                    }
                    if w != "for" && w != "dyn" {
                        ty = Some(w.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct(b'{') {
            if let (Some(ty), Some(end)) = (ty, matching_brace(tokens, j)) {
                out.push((tokens[j].start, tokens[end].end, ty));
                i = j + 1;
                continue;
            }
        }
        i = j.max(i + 1);
    }
    out
}

/// Token index of the `}` matching the `{` at token index `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct(b'{') => depth += 1,
            TokenKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Collects every `fn` definition outside `#[cfg(test)]` regions.
#[allow(clippy::too_many_arguments)]
fn collect_fns(
    cleaned: &str,
    tokens: &[Token],
    impls: &[(usize, usize, String)],
    test_regions: &[(usize, usize)],
    file_idx: usize,
    index: &LineIndex,
    fns: &mut Vec<FnDef>,
) {
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_word(cleaned, "fn") {
            i += 1;
            continue;
        }
        let at = tokens[i].start;
        let Some(name_tok) = tokens.get(i + 1) else { break };
        if name_tok.kind != TokenKind::Ident {
            // `fn(u8) -> u8` pointer type, not a definition.
            i += 1;
            continue;
        }
        if scan::in_regions(test_regions, at) {
            i += 2;
            continue;
        }
        let name = name_tok.text(cleaned).to_string();
        // Skip generics to the parameter list.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct(b'<') => angle += 1,
                TokenKind::Punct(b'>') => angle -= 1,
                TokenKind::Punct(b'(') if angle <= 0 => break,
                TokenKind::Punct(b'{') | TokenKind::Punct(b';') if angle <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct(b'(') {
            i = j.max(i + 1);
            continue;
        }
        // Parameter list: match parens, note `self`.
        let mut paren = 0i64;
        let mut has_self = false;
        let params_open = j;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct(b'(') => paren += 1,
                TokenKind::Punct(b')') => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                TokenKind::Ident if tokens[j].is_word(cleaned, "self") && paren >= 1 => {
                    has_self = true;
                }
                _ => {}
            }
            j += 1;
        }
        let _ = params_open;
        // Find the body `{` (return type and where clause may
        // intervene; `;` at bracket depth zero means a bodyless decl).
        let mut k = j + 1;
        let mut depth = 0i64;
        let mut body = None;
        while k < tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth += 1,
                TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth -= 1,
                TokenKind::Punct(b';') if depth == 0 => break,
                TokenKind::Punct(b'{') if depth == 0 => {
                    if let Some(close) = matching_brace(tokens, k) {
                        body = Some((tokens[k].start, tokens[close].end));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(body) = body else {
            i = k.max(i + 1);
            continue;
        };
        let owner = impls
            .iter()
            .filter(|(s, e, _)| at >= *s && at <= *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, ty)| ty.clone());
        fns.push(FnDef {
            id: fns.len(),
            name,
            owner,
            has_self,
            file: file_idx,
            line: index.line_of(at),
            body,
            calls: Vec::new(),
        });
        i += 2;
    }
}

/// Index of the innermost function in `fns` whose body contains
/// `offset` (functions nested in another fn body pick the inner one).
fn innermost(fns: &[FnDef], offset: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| offset >= f.body.0 && offset <= f.body.1)
        .min_by_key(|(_, f)| f.body.1 - f.body.0)
        .map(|(i, _)| i)
}

/// Extracts call sites: `ident (` sequences classified as method,
/// qualified or bare calls. Macros (`ident!`) and keywords are skipped;
/// tuple-struct constructors resolve to nothing downstream and drop out
/// naturally.
fn call_sites(
    cleaned: &str,
    tokens: &[Token],
    test_regions: &[(usize, usize)],
    index: &LineIndex,
) -> Vec<(usize, CallSite)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(cleaned);
        if NON_CALL_WORDS.contains(&name) {
            continue;
        }
        // Next non-turbofish token must open the argument list.
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct(b'!') {
            continue; // macro
        }
        // `name::<T>(...)` turbofish.
        if j + 1 < tokens.len() && tokens[j].is_punct(b':') && tokens[j + 1].is_punct(b':') {
            if j + 2 < tokens.len() && tokens[j + 2].is_punct(b'<') {
                let mut angle = 0i32;
                j += 2;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokenKind::Punct(b'<') => angle += 1,
                        TokenKind::Punct(b'>') => {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                continue; // `name::more` — the later segment will match
            }
        }
        if j >= tokens.len() || !tokens[j].is_punct(b'(') {
            continue;
        }
        if scan::in_regions(test_regions, t.start) {
            continue;
        }
        // Definition, not a call.
        if i > 0 && tokens[i - 1].is_word(cleaned, "fn") {
            continue;
        }
        let kind = if i > 0 && tokens[i - 1].is_punct(b'.') {
            CallKind::Method
        } else if i > 1 && tokens[i - 1].is_punct(b':') && tokens[i - 2].is_punct(b':') {
            match tokens.get(i.wrapping_sub(3)) {
                Some(q) if q.kind == TokenKind::Ident => {
                    CallKind::Qualified(q.text(cleaned).to_string())
                }
                _ => CallKind::Bare,
            }
        } else {
            CallKind::Bare
        };
        out.push((
            t.start,
            CallSite { name: name.to_string(), kind, line: index.line_of(t.start) },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> (Vec<FnDef>, FileModel) {
        let file = SourceFile {
            rel_path: "crates/core/src/x.rs".into(),
            raw: src.into(),
            class: FileClass { sim_crate: true, hot_module: false },
        };
        let mut fns = Vec::new();
        let fm = parse_file(&file, 0, &mut fns);
        (fns, fm)
    }

    #[test]
    fn fns_get_owners_and_self_flags() {
        let src = "impl Node { fn step(&mut self) { helper(); } }\n\
                   fn helper() { }\n\
                   impl Borrow<Node> for GuardCell<'_> { fn borrow(&self) -> &Node { &self.0 } }\n";
        let (fns, _) = model(src);
        let names: Vec<(String, bool)> =
            fns.iter().map(|f| (f.qualified(), f.has_self)).collect();
        assert_eq!(
            names,
            vec![
                ("Node::step".to_string(), true),
                ("helper".to_string(), false),
                ("GuardCell::borrow".to_string(), true),
            ]
        );
    }

    #[test]
    fn sites_attach_to_the_innermost_fn() {
        let src = "fn outer() { let v: Vec<u8> = Vec::new(); }\n\
                   fn inner_host() { fn nested() { x.unwrap(); } nested(); }\n";
        let (fns, fm) = model(src);
        let sites_of = |name: &str| -> Vec<Fact> {
            let id = fns.iter().find(|f| f.name == name).unwrap().id;
            fm.sites.iter().filter(|s| s.func == Some(id)).map(|s| s.fact).collect()
        };
        assert_eq!(sites_of("outer"), vec![Fact::Alloc]);
        assert_eq!(sites_of("nested"), vec![Fact::Panic]);
        assert!(sites_of("inner_host").is_empty(), "nested site must not double-count");
    }

    #[test]
    fn call_kinds_classified() {
        let src = "fn f(&self) { self.step(); Fabric::new(); helper(); mac!(x); Self::tick(); }\n";
        let (fns, _) = model(src);
        let calls: Vec<(String, CallKind)> =
            fns[0].calls.iter().map(|c| (c.name.clone(), c.kind.clone())).collect();
        assert_eq!(
            calls,
            vec![
                ("step".to_string(), CallKind::Method),
                ("new".to_string(), CallKind::Qualified("Fabric".to_string())),
                ("helper".to_string(), CallKind::Bare),
                ("tick".to_string(), CallKind::Qualified("Self".to_string())),
            ]
        );
    }

    #[test]
    fn array_return_types_do_not_hide_bodies() {
        let src = "fn step(&self) -> [u8; 4] { let v = Vec::new(); [0; 4] }\n";
        let (fns, fm) = model(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fm.sites.len(), 1, "body after `[u8; 4]` still parsed");
        assert_eq!(fm.sites[0].func, Some(0));
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let (fns, _) = model(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }
}
