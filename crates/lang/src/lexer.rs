//! The DSC lexer.

use crate::error::LangError;

/// A lexical token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: Tok,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Identifier or keyword.
    Ident(String),
    /// Punctuation / operator (longest-match, e.g. `<=`, `&&`, `<<`).
    Punct(&'static str),
    /// End of input.
    Eof,
}

const PUNCTS: &[&str] = &[
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "(", ")", "{", "}", "[", "]", ";", ",", "+",
    "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
];

/// Tokenises DSC source.
///
/// # Errors
///
/// Reports unknown characters and malformed numeric literals with
/// their line numbers.
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments: // to end of line, /* ... */.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(LangError::new(line, "unterminated block comment"));
                }
                i += 2;
                continue;
            }
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'.'
                    || bytes[i] == b'_')
            {
                if bytes[i] == b'.' {
                    is_float = true;
                }
                i += 1;
            }
            let text = source[start..i].replace('_', "");
            let kind = if is_float {
                Tok::Float(
                    text.parse::<f64>()
                        .map_err(|_| LangError::new(line, format!("bad float literal `{text}`")))?,
                )
            } else if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                Tok::Int(
                    i64::from_str_radix(hex, 16)
                        .map_err(|_| LangError::new(line, format!("bad hex literal `{text}`")))?,
                )
            } else {
                Tok::Int(
                    text.parse::<i64>()
                        .map_err(|_| LangError::new(line, format!("bad int literal `{text}`")))?,
                )
            };
            out.push(Token { kind, line });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token { kind: Tok::Ident(source[start..i].to_string()), line });
            continue;
        }
        // Longest-match punctuation.
        let rest = &source[i..];
        let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) else {
            return Err(LangError::new(line, format!("unexpected character `{c}`")));
        };
        out.push(Token { kind: Tok::Punct(p), line });
        i += p.len();
    }
    out.push(Token { kind: Tok::Eof, line });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers_idents_and_puncts() {
        assert_eq!(
            kinds("x = 42 + 3.5;"),
            vec![
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Int(42),
                Tok::Punct("+"),
                Tok::Float(3.5),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn longest_match_operators() {
        assert_eq!(
            kinds("a <= b << c == d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<="),
                Tok::Ident("b".into()),
                Tok::Punct("<<"),
                Tok::Ident("c".into()),
                Tok::Punct("=="),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("// line one\n/* two\nthree */ x").unwrap();
        assert_eq!(toks[0].kind, Tok::Ident("x".into()));
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn hex_and_underscores() {
        assert_eq!(kinds("0xff 1_000")[..2], [Tok::Int(255), Tok::Int(1000)]);
    }

    #[test]
    fn errors() {
        assert!(lex("@").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("1.2.3").is_err());
        let e = lex("\n\n@").unwrap_err();
        assert_eq!(e.line, 3);
    }
}
