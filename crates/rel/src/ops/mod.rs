//! Relational algebra operators over ℕ-relations.
//!
//! Each operator is a standalone function following the K-relation semantics
//! of paper Fig. 2 (selection, projection, union), plus aggregation, the
//! sort-to-position operator of Def. 1 and the row-based windowed
//! aggregation operator of Fig. 3.

pub mod aggregate;
pub mod project;
pub mod select;
pub mod sort;
pub mod union;
pub mod window;
