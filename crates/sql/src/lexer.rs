//! The hand-rolled, dependency-free SQL lexer.
//!
//! Produces a flat token stream with a [`Span`] per token. Keywords are
//! matched case-insensitively; identifiers keep their case (attribute and
//! table names in the catalog are case-sensitive). `--` starts a comment
//! running to end of line. Strings are single-quoted with `''` escaping;
//! `"double-quoted"` identifiers (with `""` escaping) allow names that
//! collide with keywords or contain non-identifier characters.

use crate::error::{Span, SqlError, SqlErrorKind};
use std::fmt;

/// Reserved words of the supported fragment. Aggregate names (`SUM`,
/// `COUNT`, `MIN`, `MAX`, `AVG`) and `RANGE` are deliberately *not*
/// keywords — they are recognized contextually (identifier followed by
/// `(`), so columns may use those names without quoting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kw {
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `WHERE`
    Where,
    /// `ORDER`
    Order,
    /// `BY`
    By,
    /// `LIMIT`
    Limit,
    /// `AS`
    As,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `OVER`
    Over,
    /// `PARTITION`
    Partition,
    /// `ROWS`
    Rows,
    /// `BETWEEN`
    Between,
    /// `PRECEDING`
    Preceding,
    /// `FOLLOWING`
    Following,
    /// `CURRENT`
    Current,
    /// `ROW`
    Row,
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// `NULL`
    Null,
}

impl Kw {
    fn from_ident(s: &str) -> Option<Kw> {
        Some(match s.to_ascii_uppercase().as_str() {
            "SELECT" => Kw::Select,
            "FROM" => Kw::From,
            "WHERE" => Kw::Where,
            "ORDER" => Kw::Order,
            "BY" => Kw::By,
            "LIMIT" => Kw::Limit,
            "AS" => Kw::As,
            "AND" => Kw::And,
            "OR" => Kw::Or,
            "NOT" => Kw::Not,
            "OVER" => Kw::Over,
            "PARTITION" => Kw::Partition,
            "ROWS" => Kw::Rows,
            "BETWEEN" => Kw::Between,
            "PRECEDING" => Kw::Preceding,
            "FOLLOWING" => Kw::Following,
            "CURRENT" => Kw::Current,
            "ROW" => Kw::Row,
            "TRUE" => Kw::True,
            "FALSE" => Kw::False,
            "NULL" => Kw::Null,
            _ => return None,
        })
    }
}

/// True iff `s` (case-insensitively) is a reserved word — used by the plan
/// pretty-printer to decide whether an identifier needs double quotes.
pub fn is_keyword(s: &str) -> bool {
    Kw::from_ident(s).is_some()
}

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Unquoted identifier (case preserved).
    Ident(String),
    /// `"double-quoted"` identifier.
    QuotedIdent(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `'single-quoted'` string literal.
    Str(String),
    /// Reserved word.
    Kw(Kw),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `*` — select-star, `count(*)`, or multiplication, by context.
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::QuotedIdent(s) => write!(f, "identifier {s:?}"),
            Tok::Int(i) => write!(f, "integer {i}"),
            Tok::Float(v) => write!(f, "float {v}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Kw(k) => write!(f, "{}", format!("{k:?}").to_ascii_uppercase()),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Comma => write!(f, "','"),
            Tok::Semi => write!(f, "';'"),
            Tok::Star => write!(f, "'*'"),
            Tok::Plus => write!(f, "'+'"),
            Tok::Minus => write!(f, "'-'"),
            Tok::Lt => write!(f, "'<'"),
            Tok::Le => write!(f, "'<='"),
            Tok::Gt => write!(f, "'>'"),
            Tok::Ge => write!(f, "'>='"),
            Tok::Eq => write!(f, "'='"),
            Tok::Ne => write!(f, "'<>'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus where it starts in the source.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Its start position.
    pub span: Span,
}

struct Cursor<'a> {
    rest: std::iter::Peekable<std::str::CharIndices<'a>>,
    len: usize,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    fn span_at(&mut self) -> Span {
        let offset = self.rest.peek().map_or(self.len, |&(o, _)| o);
        Span {
            line: self.line,
            col: self.col,
            offset,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let (_, c) = self.rest.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.rest.peek().map(|&(_, c)| c)
    }
}

/// Tokenize a query. The returned stream always ends with [`Tok::Eof`].
pub fn lex(src: &str) -> Result<Vec<Spanned>, SqlError> {
    let mut cur = Cursor {
        rest: src.char_indices().peekable(),
        len: src.len(),
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        // Skip whitespace and `--` comments.
        loop {
            match cur.peek() {
                Some(c) if c.is_whitespace() => {
                    cur.bump();
                }
                Some('-') => {
                    // Lookahead for a second '-' without consuming on miss.
                    let mut probe = cur.rest.clone();
                    probe.next();
                    if probe.peek().map(|&(_, c)| c) == Some('-') {
                        while let Some(c) = cur.peek() {
                            if c == '\n' {
                                break;
                            }
                            cur.bump();
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let span = cur.span_at();
        let Some(c) = cur.peek() else {
            out.push(Spanned {
                tok: Tok::Eof,
                span,
            });
            return Ok(out);
        };
        let tok = match c {
            '(' => {
                cur.bump();
                Tok::LParen
            }
            ')' => {
                cur.bump();
                Tok::RParen
            }
            ',' => {
                cur.bump();
                Tok::Comma
            }
            ';' => {
                cur.bump();
                Tok::Semi
            }
            '*' => {
                cur.bump();
                Tok::Star
            }
            '+' => {
                cur.bump();
                Tok::Plus
            }
            '-' => {
                cur.bump();
                Tok::Minus
            }
            '=' => {
                cur.bump();
                Tok::Eq
            }
            '<' => {
                cur.bump();
                match cur.peek() {
                    Some('=') => {
                        cur.bump();
                        Tok::Le
                    }
                    Some('>') => {
                        cur.bump();
                        Tok::Ne
                    }
                    _ => Tok::Lt,
                }
            }
            '>' => {
                cur.bump();
                if cur.peek() == Some('=') {
                    cur.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            '!' => {
                cur.bump();
                if cur.peek() == Some('=') {
                    cur.bump();
                    Tok::Ne
                } else {
                    return Err(SqlError::new(SqlErrorKind::UnexpectedChar('!'), span));
                }
            }
            '\'' => {
                cur.bump();
                let mut s = String::new();
                loop {
                    match cur.bump() {
                        Some('\'') => {
                            if cur.peek() == Some('\'') {
                                cur.bump();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(SqlError::new(SqlErrorKind::UnterminatedString, span)),
                    }
                }
                Tok::Str(s)
            }
            '"' => {
                cur.bump();
                let mut s = String::new();
                loop {
                    match cur.bump() {
                        Some('"') => {
                            if cur.peek() == Some('"') {
                                cur.bump();
                                s.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(SqlError::new(SqlErrorKind::UnterminatedString, span)),
                    }
                }
                Tok::QuotedIdent(s)
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut s = String::new();
                let mut is_float = false;
                while let Some(c) = cur.peek() {
                    match c {
                        '0'..='9' => s.push(cur.bump().unwrap()),
                        '.' => {
                            is_float = true;
                            s.push(cur.bump().unwrap());
                        }
                        'e' | 'E' => {
                            is_float = true;
                            s.push(cur.bump().unwrap());
                            if matches!(cur.peek(), Some('+') | Some('-')) {
                                s.push(cur.bump().unwrap());
                            }
                        }
                        _ => break,
                    }
                }
                if is_float {
                    // A literal past the largest finite `f64` is refused,
                    // not read as infinity (which prints as no literal).
                    match s.parse::<f64>() {
                        Ok(v) if v.is_finite() => Tok::Float(v),
                        _ => return Err(SqlError::new(SqlErrorKind::BadNumber(s), span)),
                    }
                } else {
                    match s.parse::<i64>() {
                        Ok(v) => Tok::Int(v),
                        Err(_) => return Err(SqlError::new(SqlErrorKind::BadNumber(s), span)),
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(c) = cur.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(cur.bump().unwrap());
                    } else {
                        break;
                    }
                }
                match Kw::from_ident(&s) {
                    Some(kw) => Tok::Kw(kw),
                    None => Tok::Ident(s),
                }
            }
            other => return Err(SqlError::new(SqlErrorKind::UnexpectedChar(other), span)),
        };
        out.push(Spanned { tok, span });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_case_insensitive_identifiers_not() {
        assert_eq!(
            toks("select Price FROM t"),
            vec![
                Tok::Kw(Kw::Select),
                Tok::Ident("Price".into()),
                Tok::Kw(Kw::From),
                Tok::Ident("t".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_and_numbers() {
        assert_eq!(
            toks("a <= 1.5 and b <> -3"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Float(1.5),
                Tok::Kw(Kw::And),
                Tok::Ident("b".into()),
                Tok::Ne,
                Tok::Minus,
                Tok::Int(3),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_quoted_idents_comments() {
        assert_eq!(
            toks("'it''s' \"the \"\"col\"\"\" -- trailing comment\n;"),
            vec![
                Tok::Str("it's".into()),
                Tok::QuotedIdent("the \"col\"".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let ts = lex("select\n  x").unwrap();
        assert_eq!(ts[1].span.line, 2);
        assert_eq!(ts[1].span.col, 3);
        assert_eq!(ts[1].span.offset, 9);
    }

    #[test]
    fn lex_errors_carry_position() {
        let e = lex("a ? b").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::UnexpectedChar('?'));
        assert_eq!(e.span.col, 3);
        let e = lex("'open").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::UnterminatedString);
    }
}
