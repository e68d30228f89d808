//! # audb-native — one-pass algorithms for uncertain ranking and windows
//!
//! The paper's Sec. 8: efficient physical operators for AU-DB sorting,
//! top-k and row-based windowed aggregation (the `Imp` method of the
//! evaluation). Both operators run in `O(n log n)` (windowed aggregation in
//! `O(N · n log n)` for window size `N`) and produce **exactly** the bounds
//! of the quadratic reference semantics in `audb-core` — a property
//! enforced by the cross-crate test-suite.
//!
//! * [`sort::sort_columns_native`] — Algorithm 1 + `split` (Algorithm 2),
//!   with a limit top-k: a single sweep over the relation sorted by the
//!   lower-bound corner, with a `todo` min-heap on upper-bound corners. It
//!   reads typed column lanes and writes typed column lanes — no tuple;
//!   [`sort::sort_native_staged`] is the same run reporting where its
//!   stages end, for the `sort/stages` bench.
//! * [`window::window_columns_native`] — Algorithm 3 (+`compBounds`,
//!   Algorithms 4–6): a sweep over uncertain positions with a `cert`
//!   position index and a three-way [`audb_conheap::ConnectedHeap`] over
//!   the possible window members.
//! * [`maintain::MaintainedWindow`] — the window sweep kept alive between
//!   column batches: in-order appends update the bounds in `O(log n)` per
//!   row instead of recomputing the full `O(n log n)` pass, with
//!   already-closed windows provably final. [`maintain::TopKMaintain`]
//!   keeps only the top-k's candidate band between batches, in any order.
//!
//! Every kernel reads and returns [`audb_core::AuColumns`].
//! [`sort::sort_native`], [`sort::topk_native`] and
//! [`window::window_native`] are doors for callers that hold an
//! [`audb_core::AuRelation`] and want one back: they transpose around the
//! columnar entry. [`sort::output_rows_bound`] says, before anything is
//! allocated, how many rows a breaker would emit.

pub mod maintain;
pub mod sort;
pub mod window;

pub use maintain::{MaintainedWindow, TopKMaintain, WindowMaintain, WindowRow};
pub use sort::{
    output_rows_bound, sort_columns_native, sort_native, sort_native_staged, topk_native,
    MAX_OUTPUT_ROWS, MAX_RANKED_ROWS,
};
pub use window::{window_columns_native, window_native, window_native_staged};
