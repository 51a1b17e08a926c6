//! The lexical layer: comment/string stripping, offset → line
//! mapping, and a flat token stream.
//!
//! The search helpers (`scan.rs`), the directive parser and the
//! call-graph model (`model.rs`) lex source text through this one
//! module, so a site reads identically to all of them. Everything here
//! operates on a *cleaned* view of the source in which comments and
//! string/char literals are blanked out with spaces. Blanking preserves
//! byte offsets and newlines, so every position in the cleaned text
//! maps 1:1 onto the original file for diagnostics.
//!
//! The token stream is deliberately coarse: identifiers, single-byte
//! punctuation, (blanked) string literals and lifetimes. Multi-byte
//! operators (`::`, `=>`, `+=`) are left to the consumer, which sees
//! adjacent punctuation tokens and can join them — the DataScalar
//! analyses only ever need one lookahead/lookbehind for that.

/// Returns `source` with comments and string/char literals replaced by
/// spaces (newlines preserved), so token scans cannot match inside
/// either.
pub fn strip(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                out.push(b' ');
                out.push(b' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            out.push(b' ');
                            out.push(b' ');
                            i += 2;
                        }
                        b'"' => {
                            out.push(b'"');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'r' if starts_raw_string(b, i) => {
                // r"..." or r#"..."# (any number of #): blank to the
                // matching close quote.
                let hash_start = i + 1;
                let mut hashes = 0;
                while hash_start + hashes < b.len() && b[hash_start + hashes] == b'#' {
                    hashes += 1;
                }
                out.push(b' ');
                out.extend(std::iter::repeat_n(b' ', hashes));
                out.push(b'"');
                i = hash_start + hashes + 1;
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if i + 1 + k >= b.len() || b[i + 1 + k] != b'#' {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            out.push(b'"');
                            out.extend(std::iter::repeat_n(b' ', hashes));
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if b[i] == b'\n' {
                        out.push(b'\n');
                    } else {
                        out.push(b' ');
                    }
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is 'x' or an
                // escape; anything else (e.g. 'a in generics) is a
                // lifetime and only the quote is consumed.
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    // Escaped char: blank to the closing quote.
                    out.push(b' ');
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        out.push(b' ');
                        i += 1;
                    }
                    if i < b.len() {
                        out.push(b' ');
                        i += 1;
                    }
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out.extend_from_slice(b"   ");
                    i += 3;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn starts_raw_string(b: &[u8], i: usize) -> bool {
    // `r` must not be part of a longer identifier (e.g. `var"` is not
    // possible, but `for"` would need the boundary check anyway).
    if i > 0 && is_ident(b[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// True for bytes that can appear in a Rust identifier.
pub fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets of the start of every line, for offset → line mapping.
#[derive(Debug)]
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for `source`.
    pub fn new(source: &str) -> Self {
        let mut starts = vec![0];
        for (i, c) in source.bytes().enumerate() {
            if c == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident,
    /// One punctuation byte (`(`, `{`, `:`, `=`, ...).
    Punct(u8),
    /// A (blanked) string literal, quotes included.
    Str,
    /// A lifetime (`'a`), quote included.
    Lifetime,
}

/// One token of cleaned source: kind plus the byte range it spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// What the token is.
    pub kind: TokenKind,
}

impl Token {
    /// The token's text within the cleaned source it was lexed from.
    pub fn text<'a>(&self, cleaned: &'a str) -> &'a str {
        &cleaned[self.start..self.end]
    }

    /// True if this is the identifier `word`.
    pub fn is_word(&self, cleaned: &str, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(cleaned) == word
    }

    /// True if this is the punctuation byte `p`.
    pub fn is_punct(&self, p: u8) -> bool {
        self.kind == TokenKind::Punct(p)
    }
}

/// Lexes *cleaned* source (from [`strip`]) into a flat token stream.
/// Whitespace separates tokens and is not represented. Numbers lex as
/// `Ident` (they never matter to the analyses; identifier rules already
/// exclude a leading digit where it counts).
pub fn tokenize(cleaned: &str) -> Vec<Token> {
    let b = cleaned.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if is_ident(c) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            out.push(Token { start, end: i, kind: TokenKind::Ident });
        } else if c == b'"' {
            // Strings in cleaned text are blanked but keep their
            // quotes, so the close quote is the next `"`.
            let start = i;
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += 1;
            }
            i = (i + 1).min(b.len());
            out.push(Token { start, end: i, kind: TokenKind::Str });
        } else if c == b'\'' {
            // Only lifetimes survive stripping with their quote.
            let start = i;
            i += 1;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            out.push(Token { start, end: i, kind: TokenKind::Lifetime });
        } else {
            out.push(Token { start: i, end: i + 1, kind: TokenKind::Punct(c) });
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_idents_puncts_and_strings() {
        let cleaned = strip("fn step(x: u8) { v.push(\"HashMap\"); }");
        let toks = tokenize(&cleaned);
        let words: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text(&cleaned)).collect();
        assert_eq!(words, vec!["fn", "step", "x", "u8", "v", "push"]);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
        assert!(toks.iter().any(|t| t.is_punct(b'{')));
    }

    #[test]
    fn tokenize_lifetimes_and_offsets_round_trip() {
        let cleaned = strip("impl<'a> Foo<'a> { fn f(&'a self) {} }");
        let toks = tokenize(&cleaned);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Lifetime && t.text(&cleaned) == "'a"));
        for t in &toks {
            assert!(t.start < t.end && t.end <= cleaned.len());
        }
    }

    #[test]
    fn tokenize_double_colon_is_adjacent_puncts() {
        let cleaned = strip("Vec::new()");
        let toks = tokenize(&cleaned);
        assert!(toks[1].is_punct(b':') && toks[2].is_punct(b':'));
        assert_eq!(toks[1].end, toks[2].start, "adjacency is detectable");
    }
}
