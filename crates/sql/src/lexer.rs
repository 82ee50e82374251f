//! SQL tokenizer.

use sstore_common::{Error, Result};

/// One lexical token. Keywords are folded into `Ident` and recognized
/// case-insensitively by the parser (SQL identifiers are case-insensitive
/// throughout the engine).
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original spelling preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Positional parameter `?`.
    Param,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '?' => {
                out.push(Token::Param);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Neq);
                    i += 2;
                } else {
                    return Err(Error::Parse("stray `!`".into()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Neq);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Copy the full UTF-8 character.
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(
                            std::str::from_utf8(&bytes[i..i + ch_len])
                                .map_err(|_| Error::Parse("invalid UTF-8 in string".into()))?,
                        );
                        i += ch_len;
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // exponent
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let f: f64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad float literal `{text}`")))?;
                    out.push(Token::Float(f));
                } else {
                    let n: i64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad int literal `{text}`")))?;
                    out.push(Token::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(Error::Parse(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = tokenize("SELECT a, b FROM t WHERE x = 1;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks[0].is_kw("select"));
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::Int(1)));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn operators() {
        let toks = tokenize("<= >= <> != < > = + - * / %").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Le,
                Token::Ge,
                Token::Neq,
                Token::Neq,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 3e2 10.25").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(300.0),
                Token::Float(10.25),
            ]
        );
    }

    #[test]
    fn dot_is_separate_from_int() {
        // t.c must lex as ident dot ident, and `1.` must not eat the dot
        // when not followed by a digit (qualified column after a number is
        // nonsense, but the lexer stays predictable).
        let toks = tokenize("t.c").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("c".into())
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn params_and_unicode() {
        let toks = tokenize("? 'héllo'").unwrap();
        assert_eq!(toks, vec![Token::Param, Token::Str("héllo".into())]);
    }

    #[test]
    fn stray_bang_rejected() {
        assert!(tokenize("!").is_err());
        assert!(tokenize("#").is_err());
    }
}
