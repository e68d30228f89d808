//! Structured SQL-frontend errors with source positions.
//!
//! Every lexer and parser failure carries the [`Span`] (1-based line and
//! column, plus the byte offset) where it was detected, so callers can
//! point at the offending character of the original query text. Like
//! `audb_engine::PlanError`, [`SqlError`] implements `std::error::Error` +
//! `Display` and is a plain comparable value.

use std::error::Error;
use std::fmt;

/// A source position: 1-based line and column, plus the byte offset into
/// the query text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub col: u32,
    /// Byte offset into the source text.
    pub offset: usize,
}

impl Span {
    /// The position of the first character.
    pub fn start() -> Span {
        Span {
            line: 1,
            col: 1,
            offset: 0,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// What went wrong while lexing or parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlErrorKind {
    /// A character the lexer has no token for.
    UnexpectedChar(char),
    /// A `'...'` string or `"..."` identifier missing its closing quote.
    UnterminatedString,
    /// A numeric literal that does not parse as `i64` / `f64`.
    BadNumber(String),
    /// The parser found one token where it needed another.
    UnexpectedToken {
        /// Display form of the found token.
        found: String,
        /// What the grammar expected at this point.
        expected: String,
    },
    /// Extra input after a complete statement (single-statement parse).
    TrailingInput,
    /// An empty script where a statement was required.
    EmptyStatement,
    /// Nesting past [`crate::MAX_DEPTH`] levels.
    TooDeep,
}

/// A lexing or parsing error, pinned to its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlError {
    /// What went wrong.
    pub kind: SqlErrorKind,
    /// Where in the query text.
    pub span: Span,
}

impl SqlError {
    /// Build an error at a position.
    pub fn new(kind: SqlErrorKind, span: Span) -> Self {
        SqlError { kind, span }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at {}: ", self.span)?;
        match &self.kind {
            SqlErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            SqlErrorKind::UnterminatedString => write!(f, "unterminated quoted literal"),
            SqlErrorKind::BadNumber(s) => write!(f, "malformed number {s:?}"),
            SqlErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "expected {expected}, found {found}")
            }
            SqlErrorKind::TrailingInput => write!(f, "trailing input after statement"),
            SqlErrorKind::EmptyStatement => write!(f, "empty statement"),
            SqlErrorKind::TooDeep => {
                write!(f, "nested deeper than {} levels", crate::MAX_DEPTH)
            }
        }
    }
}

impl Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_position() {
        let e = SqlError::new(
            SqlErrorKind::UnexpectedToken {
                found: "LIMIT".into(),
                expected: "an expression".into(),
            },
            Span {
                line: 2,
                col: 7,
                offset: 30,
            },
        );
        assert_eq!(
            e.to_string(),
            "SQL error at line 2, column 7: expected an expression, found LIMIT"
        );
        // It is a std error.
        let _: &dyn Error = &e;
    }
}
