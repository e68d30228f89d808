//! AU-DB operators: the bound-preserving selection, projection and
//! aggregation of \[23, 24\] plus this paper's sort (Def. 2) and row-based
//! windowed aggregation (Def. 3).
//!
//! The sort and window implementations here are *reference* implementations
//! that follow the formal definitions literally (quadratic or worse). They
//! define correctness; the efficient equivalents live in `audb-native`
//! (one-pass algorithms) and `audb-rewrite` (SQL-style rewrites) and are
//! property-tested against these.

pub mod aggregate;
pub mod project;
pub mod select;
pub mod sort;
pub mod window;
