//! # audb-sql — a textual frontend for AU-DB queries
//!
//! A hand-rolled, dependency-free lexer + recursive-descent parser for the
//! SQL fragment the engine's plan language supports:
//!
//! ```sql
//! SELECT sku, price FROM products
//! WHERE price < RANGE(9, 9, 16)
//! ORDER BY price AS rank LIMIT 2;
//!
//! SELECT *, SUM(temp) OVER (PARTITION BY site ORDER BY t
//!     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll
//! FROM readings;
//! ```
//!
//! This crate stops at the (unresolved) [`ast`]: column references are
//! names, tables are names or sub-selects. `audb_engine` owns the other
//! half — a `Catalog` of named AU-relations, a `Session` that binds
//! statements onto the validating `Query` builder (so every `PlanError`
//! check applies to SQL too), and a pretty-printer whose output reparses to
//! the identical plan (`parse ∘ print = id`, property-tested).
//!
//! Every lexer/parser failure is a [`SqlError`] with a 1-based line/column
//! [`Span`]; like the engine's `PlanError` it implements
//! `std::error::Error` and `Display` uniformly.

pub mod ast;
mod error;
mod lexer;
mod parser;

pub use error::{Span, SqlError, SqlErrorKind};
pub use lexer::is_keyword;
pub use parser::{parse, parse_script, MAX_DEPTH};
