//! The per-file model: function definitions with their impl owners,
//! per-function fact sites (allocation, panic, nondeterminism) and
//! call sites, extracted from ds-lint's shared token stream.
//!
//! This is deliberately a *lexical* model, not a type-checked one: the
//! analyzer over-approximates call resolution by name (see
//! `graph.rs`), which is sound for the invariants it proves — a chain
//! that cannot happen at runtime can only add a finding, never hide
//! one — and keeps the whole pass dependency-free and fast enough to
//! run on every `verify.sh`.

use ds_lint::tokens::{strip, tokenize, LineIndex, Token, TokenKind};
use ds_lint::{parse_directives, scan, AllowSet, DirectiveError};

/// Rule codes `ds-analyze:` directives may name.
pub const ANALYZE_RULE_CODES: [&str; 3] = ["ta1", "tp1", "td2"];

/// The directive prefix for analyzer-specific suppressions.
pub const ANALYZE_DIRECTIVE: &str = "ds-analyze:";

/// One source file handed to the analyzer.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Short crate name (`core`, `cpu`, ...).
    pub crate_name: String,
    /// Workspace-relative path (`crates/core/src/node.rs`).
    pub rel_path: String,
    /// Raw source text.
    pub raw: String,
}

/// What kind of fact a [`Site`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// An allocation token (`Vec::new`, `format!`, `.collect()`, ...).
    Alloc,
    /// A panic path (`.unwrap()`, `.expect(..)`, `panic!`).
    Panic,
    /// Nondeterminism taint: wall-clock, ambient randomness, or a
    /// hash-ordered container.
    Taint,
}

/// One fact occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was found.
    pub fact: Fact,
    /// The offending token, for the diagnostic (`Vec::new`, `.unwrap()`).
    pub what: String,
    /// 1-based line in the file.
    pub line: usize,
    /// True when a line or block allow covers this site.
    pub suppressed: bool,
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
    /// Fact sites inside the body.
    pub sites: Vec<Site>,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Owner::name` or bare `name` — the spelling used in diagnostics
    /// and in the suppression baseline.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the passes need from one parsed file.
pub struct FileModel {
    /// Cleaned text (comments/strings blanked, offsets preserved).
    pub cleaned: String,
    /// Token stream over `cleaned`.
    pub tokens: Vec<Token>,
    /// Offset → line mapping.
    pub index: LineIndex,
    /// Merged `ds-lint:` + `ds-analyze:` suppressions.
    pub allows: AllowSet,
    /// Malformed `ds-analyze:` directives (ds-lint owns its own).
    pub directive_errors: Vec<DirectiveError>,
    /// `#[cfg(test)]` regions (byte ranges; exempt from everything).
    pub test_regions: Vec<(usize, usize)>,
}

/// The allocation token set — deliberately identical to ds-lint's a1
/// scan so a site reads the same in both tools' diagnostics.
const ALLOC_PATTERNS: [&str; 6] =
    ["Vec::new", "vec![", "Box::new", "String::new", "format!", "to_vec"];

/// d2 nondeterminism and host-threading tokens, same as ds-lint (a
/// trailing `*` matches as a prefix: every `Atomic*` type).
const TAINT_WORDS: [&str; 11] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "RandomState",
    "HashMap",
    "HashSet",
    "thread",
    "Mutex",
    "RwLock",
    "Atomic*",
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

    // ds-lint allows suppress the matching transitive rule at a site
    // (an annotated `allow(p1)` unwrap needs no second annotation for
    // tp1); ds-analyze allows use the analyzer's own codes. Map the
    // lint codes onto the transitive ones by parsing both grammars.
    let (lint_allows, _) = parse_directives("ds-lint:", &ds_lint::RULE_CODES, &file.raw, &cleaned);
    let (analyze_allows, directive_errors) =
        parse_directives(ANALYZE_DIRECTIVE, &ANALYZE_RULE_CODES, &file.raw, &cleaned);
    let mut allows = analyze_allows;
    allows.merge(lint_allows);

    let impls = impl_regions(&cleaned, &tokens);
    let first = fns.len();
    collect_fns(&cleaned, &tokens, &impls, &test_regions, file_idx, &index, fns);
    let new_fns = &mut fns[first..];

    // Fact sites, assigned to the innermost containing function.
    let mut facts: Vec<(usize, Fact, String)> = Vec::new();
    for pat in ALLOC_PATTERNS {
        for at in scan::occurrences(&cleaned, pat) {
            facts.push((at, Fact::Alloc, pat.to_string()));
        }
    }
    for at in scan::method_calls(&cleaned, "collect") {
        facts.push((at, Fact::Alloc, ".collect()".to_string()));
    }
    for at in scan::method_calls(&cleaned, "to_vec") {
        facts.push((at, Fact::Alloc, ".to_vec()".to_string()));
    }
    for m in ["unwrap", "expect"] {
        for at in scan::method_calls(&cleaned, m) {
            facts.push((at, Fact::Panic, format!(".{m}()")));
        }
    }
    for at in scan::occurrences(&cleaned, "panic!") {
        let boundary = at == 0 || {
            let c = cleaned.as_bytes()[at - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if boundary {
            facts.push((at, Fact::Panic, "panic!".to_string()));
        }
    }
    for w in TAINT_WORDS {
        for at in scan::word_occurrences(&cleaned, w) {
            facts.push((at, Fact::Taint, w.to_string()));
        }
    }
    for at in scan::occurrences(&cleaned, "rand::random") {
        facts.push((at, Fact::Taint, "rand::random".to_string()));
    }

    for (at, fact, what) in facts {
        if scan::in_regions(&test_regions, at) {
            continue;
        }
        if let Some(f) = innermost(new_fns, at) {
            let line = index.line_of(at);
            let lint_code = match fact {
                Fact::Alloc => "a1",
                Fact::Panic => "p1",
                Fact::Taint => "d2",
            };
            let analyze_code = match fact {
                Fact::Alloc => "ta1",
                Fact::Panic => "tp1",
                Fact::Taint => "td2",
            };
            let suppressed =
                allows.allows(line, lint_code) || allows.allows(line, analyze_code);
            new_fns[f].sites.push(Site { fact, what, line, suppressed });
        }
    }

    // Call sites.
    let calls = call_sites(&cleaned, &tokens, &test_regions, &index);
    for (at, call) in calls {
        if let Some(f) = innermost(new_fns, at) {
            new_fns[f].calls.push(call);
        }
    }

    FileModel { cleaned, tokens, index, allows, directive_errors, test_regions }
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
            sites: Vec::new(),
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
            crate_name: "core".into(),
            rel_path: "crates/core/src/x.rs".into(),
            raw: src.into(),
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
        let (fns, _) = model(src);
        assert_eq!(fns[0].sites.len(), 1);
        assert_eq!(fns[0].sites[0].fact, Fact::Alloc);
        let nested = fns.iter().find(|f| f.name == "nested").unwrap();
        assert_eq!(nested.sites.len(), 1);
        assert_eq!(nested.sites[0].fact, Fact::Panic);
        let host = fns.iter().find(|f| f.name == "inner_host").unwrap();
        assert!(host.sites.is_empty(), "nested site must not double-count");
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
        let (fns, _) = model(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].sites.len(), 1, "body after `[u8; 4]` still parsed");
    }

    #[test]
    fn lint_and_analyze_allows_suppress_sites() {
        let src = "fn f() { x.unwrap() } // ds-lint: allow(p1) invariant documented here\n\
                   fn g() { y.unwrap() } // ds-analyze: allow(tp1) checked by caller\n\
                   fn h() { z.unwrap() }\n";
        let (fns, _) = model(src);
        assert!(fns[0].sites[0].suppressed);
        assert!(fns[1].sites[0].suppressed);
        assert!(!fns[2].sites[0].suppressed);
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let (fns, _) = model(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }
}
