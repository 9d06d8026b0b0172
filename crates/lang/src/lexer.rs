//! Tokenizer with source positions.

use crate::CompileError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Int(i64),
    Float(f64),
    Ident(String),
    Kw(Kw),
    Punct(&'static str),
    Eof,
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kw {
    Shared,
    Local,
    Lock,
    Barrier,
    Fn,
    IntTy,
    FloatTy,
    If,
    Else,
    While,
    For,
    Tid,
    Nthreads,
    Faa,
    Sqrt,
    Min,
    Max,
    Acquire,
    Release,
    Spin,
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    pub tok: Tok,
    pub line: usize,
    pub col: usize,
}

fn keyword(s: &str) -> Option<Kw> {
    Some(match s {
        "shared" => Kw::Shared,
        "local" => Kw::Local,
        "lock" => Kw::Lock,
        "barrier" => Kw::Barrier,
        "fn" => Kw::Fn,
        "int" => Kw::IntTy,
        "float" => Kw::FloatTy,
        "if" => Kw::If,
        "else" => Kw::Else,
        "while" => Kw::While,
        "for" => Kw::For,
        "tid" => Kw::Tid,
        "nthreads" => Kw::Nthreads,
        "faa" => Kw::Faa,
        "sqrt" => Kw::Sqrt,
        "min" => Kw::Min,
        "max" => Kw::Max,
        "acquire" => Kw::Acquire,
        "release" => Kw::Release,
        "spin" => Kw::Spin,
        _ => return None,
    })
}

const PUNCTS: [&str; 25] = [
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "(", ")", "{", "}", "[", "]", ";", ",", "=",
    "<", ">", "+", "-", "*", "/", "%", "&",
];

/// Tokenizes `source`.
pub(crate) fn lex(source: &str) -> Result<Vec<Spanned>, CompileError> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    // Columns count characters: a UTF-8 continuation byte adds none.
    let advance = |i: &mut usize, line: &mut usize, col: &mut usize, n: usize, bytes: &[u8]| {
        for _ in 0..n {
            if bytes[*i] == b'\n' {
                *line += 1;
                *col = 1;
            } else if bytes[*i] & 0xC0 != 0x80 {
                *col += 1;
            }
            *i += 1;
        }
    };

    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            advance(&mut i, &mut line, &mut col, 1, bytes);
            continue;
        }
        // comments
        if bytes[i..].starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                advance(&mut i, &mut line, &mut col, 1, bytes);
            }
            continue;
        }
        if bytes[i..].starts_with(b"/*") {
            let (sl, sc) = (line, col);
            advance(&mut i, &mut line, &mut col, 2, bytes);
            while i < bytes.len() {
                // Bytes, not `source[i..]`: `i` walks the comment byte by byte
                // and may sit inside a multi-byte character.
                if bytes[i..].starts_with(b"*/") {
                    advance(&mut i, &mut line, &mut col, 2, bytes);
                    continue 'outer;
                }
                advance(&mut i, &mut line, &mut col, 1, bytes);
            }
            return Err(CompileError {
                line: sl,
                col: sc,
                message: "unterminated block comment".to_string(),
            });
        }

        let (tl, tc) = (line, col);

        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || bytes[i] == b'.'
                    || bytes[i] == b'e'
                    || bytes[i] == b'E'
                    || ((bytes[i] == b'+' || bytes[i] == b'-')
                        && i > start
                        && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
            {
                if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                    is_float = true;
                }
                advance(&mut i, &mut line, &mut col, 1, bytes);
            }
            let text = &source[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| CompileError {
                    line: tl,
                    col: tc,
                    message: format!("bad float literal '{text}'"),
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| CompileError {
                    line: tl,
                    col: tc,
                    message: format!("bad integer literal '{text}'"),
                })?)
            };
            out.push(Spanned { tok, line: tl, col: tc });
            continue;
        }

        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                advance(&mut i, &mut line, &mut col, 1, bytes);
            }
            let text = &source[start..i];
            let tok = match keyword(text) {
                Some(k) => Tok::Kw(k),
                None => Tok::Ident(text.to_string()),
            };
            out.push(Spanned { tok, line: tl, col: tc });
            continue;
        }

        for p in PUNCTS {
            if bytes[i..].starts_with(p.as_bytes()) {
                advance(&mut i, &mut line, &mut col, p.len(), bytes);
                out.push(Spanned { tok: Tok::Punct(p), line: tl, col: tc });
                continue 'outer;
            }
        }
        // `i` is a character boundary here: every token and comment
        // before it ends on one.
        let c = source[i..].chars().next().unwrap_or(c);
        return Err(CompileError {
            line: tl,
            col: tc,
            message: format!("unexpected character '{c}'"),
        });
    }
    out.push(Spanned { tok: Tok::Eof, line, col });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_program_fragments() {
        let toks = lex("int x = 42; // comment\nx = x + 1.5e2;").unwrap();
        assert!(toks.iter().any(|t| t.tok == Tok::Int(42)));
        assert!(toks.iter().any(|t| t.tok == Tok::Float(150.0)));
        assert!(toks.iter().any(|t| t.tok == Tok::Kw(Kw::IntTy)));
        assert_eq!(toks.last().unwrap().tok, Tok::Eof);
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("x\n  y").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn two_char_puncts_win() {
        let toks = lex("a <= b == c").unwrap();
        let puncts: Vec<_> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["<=", "=="]);
    }

    #[test]
    fn rejects_garbage() {
        let err = lex("int x = @;").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn block_comments_span_lines() {
        let toks = lex("a /* b\n c */ d").unwrap();
        assert_eq!(toks.len(), 3); // a, d, eof
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn non_ascii_in_a_block_comment_is_skipped_not_a_panic() {
        let unit = crate::compile("cafe", "/* caf\u{e9} */\nfn main() { int x = 1; }", 1);
        assert!(unit.is_ok(), "{:?}", unit.err());
        let err = crate::compile("cafe", "int a;\n  /* \u{e9}", 1).unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        assert_eq!(err.message, "unterminated block comment");
    }

    #[test]
    fn a_non_ascii_character_is_reported_whole_at_its_column() {
        let err = lex("int x = \u{e9};").unwrap_err();
        assert_eq!(err.message, "unexpected character '\u{e9}'");
        assert_eq!((err.line, err.col), (1, 9));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let toks = lex("/* \u{e9} */ x").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident("x".to_string()));
        assert_eq!((toks[0].line, toks[0].col), (1, 9));
    }
}
