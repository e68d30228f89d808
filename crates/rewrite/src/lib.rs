//! # audb-rewrite — the SQL-rewrite implementation of uncertain ranking
//!
//! The paper's Sec. 7 shows that AU-DB sorting and windowed aggregation can
//! be compiled to relational algebra over the standard *relational encoding*
//! of AU-DBs (three columns per attribute + three multiplicity columns),
//! and evaluated by any deterministic DBMS. This crate implements those
//! rewrites against the `audb-rel` engine:
//!
//! * [`sort::rewr_sort`] — Fig. 7: endpoint union + running sums +
//!   group-merge.
//! * [`window::rewr_window`] — Fig. 8: range-overlap self-join + per-tuple
//!   window classification; [`window::JoinStrategy::IntervalIndex`] is the
//!   paper's `Rewr(index)` variant backed by [`index::IntervalIndex`].
//!
//! All rewrites produce bounds identical to the `audb-core` reference
//! semantics (property-tested); they are the paper's `Rewr` baseline —
//! asymptotically fine for sorting, quadratic for windows, which is exactly
//! the performance gap the native algorithms (`audb-native`) close.

pub mod index;
pub mod sort;
pub mod window;

pub use index::IntervalIndex;
pub use sort::{endpoint_union, rewr_sort};
pub use window::{rewr_window, JoinStrategy};
