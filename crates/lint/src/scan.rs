//! Search and region helpers for the linter: token search, brace-
//! matched region discovery, and `#[cfg(test)]` exemption regions.
//!
//! The lexical groundwork (comment/string stripping, line mapping and
//! the flat token stream) lives in [`crate::tokens`]; this module
//! re-exports the pieces the rule checks use. The linter is
//! deliberately dependency-free (the build environment is offline, and
//! `syn` would be a heavyweight answer anyway): rules are expressed
//! over a *cleaned* view of the source in which comments and
//! string/char literals are blanked out with spaces. Blanking preserves
//! byte offsets and newlines, so every position in the cleaned text
//! maps 1:1 onto the original file for diagnostics.

pub use crate::tokens::{is_ident, strip, strip_comments, LineIndex};

/// Byte offsets of every occurrence of `word` in `text` delimited by
/// non-identifier characters on both sides. A trailing `*` makes
/// `word` a prefix: `Atomic*` matches every identifier that starts
/// with `Atomic`.
pub fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let (word, prefix) = match word.strip_suffix('*') {
        Some(stem) => (stem, true),
        None => (word, false),
    };
    let mut out = Vec::new();
    let b = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + word.len();
        let after_ok = prefix || end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len().max(1);
    }
    out
}

/// Byte offsets of `.name(` method calls (whitespace allowed between
/// the name and the parenthesis; `.name_suffix(` does not match).
pub fn method_calls(text: &str, name: &str) -> Vec<usize> {
    let needle = format!(".{name}");
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let at = from + pos;
        let mut j = at + needle.len();
        let boundary = j >= b.len() || !is_ident(b[j]);
        if boundary {
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j < b.len() && (b[j] == b'(' || (b[j] == b':' && j + 1 < b.len() && b[j + 1] == b':'))
            {
                out.push(at);
            }
        }
        from = at + needle.len();
    }
    out
}

/// Finds the byte range `(open, close]` of the brace block starting at
/// the first `{` at or after `from`, or `None` if unbalanced. Stops (and
/// returns `None`) if a `;` appears at depth zero first — a bodyless
/// declaration.
pub fn brace_block(text: &str, from: usize) -> Option<(usize, usize)> {
    let b = text.as_bytes();
    let mut i = from;
    while i < b.len() && b[i] != b'{' {
        if b[i] == b';' {
            return None;
        }
        i += 1;
    }
    if i >= b.len() {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Byte ranges of `#[cfg(test)]`-gated item bodies (test modules and
/// test-only items): tokens inside them are exempt from every rule. A
/// file that declares itself test-only with the inner attribute
/// `#![cfg(test)]` (an out-of-line `mod tests;`) is one region.
pub fn test_regions(cleaned: &str) -> Vec<(usize, usize)> {
    if cleaned.contains("#![cfg(test)]") {
        return vec![(0, cleaned.len())];
    }
    let mut out = Vec::new();
    for at in occurrences(cleaned, "#[cfg(test)]") {
        if let Some((open, close)) = brace_block(cleaned, at) {
            out.push((open, close));
        }
    }
    out
}

/// Plain substring occurrences (no boundary requirement).
pub fn occurrences(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(needle) {
        out.push(from + pos);
        from = from + pos + needle.len().max(1);
    }
    out
}

/// True if `offset` lies inside any of `regions`.
pub fn in_regions(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset <= e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap\n/* HashMap */ let y = 1;";
        let c = strip(src);
        assert_eq!(c.len(), src.len());
        assert!(!c.contains("HashMap"));
        assert!(c.contains("let y = 1;"));
    }

    #[test]
    fn strip_handles_raw_strings_chars_and_lifetimes() {
        let src = "let s = r#\"panic!\"#; let c = 'p'; fn f<'a>(x: &'a str) {}";
        let c = strip(src);
        assert!(!c.contains("panic!"));
        assert!(c.contains("fn f<'a>(x: &'a str) {}"));
        let esc = strip("let c = '\\n'; let d = \"a\\\"b\";");
        assert!(!esc.contains('n'), "escaped char blanked: {esc}");
    }

    #[test]
    fn strip_preserves_line_structure() {
        let src = "a\n/* x\ny */\nb";
        let c = strip(src);
        assert_eq!(c.matches('\n').count(), src.matches('\n').count());
        let idx = LineIndex::new(&c);
        assert_eq!(idx.line_of(c.find('b').unwrap()), 4);
    }

    #[test]
    fn word_occurrences_respect_boundaries() {
        let text = "HashMap HashMapX XHashMap x.HashMap<u64>";
        let hits = word_occurrences(text, "HashMap");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn method_calls_skip_suffixed_names() {
        let text = "a.unwrap() b.unwrap_or(0) c.unwrap () d.collect::<Vec<_>>()";
        assert_eq!(method_calls(text, "unwrap").len(), 2);
        assert_eq!(method_calls(text, "collect").len(), 1);
    }

    #[test]
    fn a_cfg_test_file_is_one_region() {
        let src = "//! whole-file tests\n#![cfg(test)]\nfn b() { x.unwrap(); }\n";
        assert_eq!(test_regions(src), [(0, src.len())]);
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}";
        let regions = test_regions(src);
        assert_eq!(regions.len(), 1);
        let unwrap_at = src.find(".unwrap").unwrap();
        assert!(in_regions(&regions, unwrap_at));
        assert!(!in_regions(&regions, src.find("fn c").unwrap()));
    }
}
