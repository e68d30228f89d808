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
//!   reads typed column lanes and writes typed column lanes — no tuple.
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
//! allocated, how many rows a breaker would emit. The columnar entries
//! report their stages to a [`Stages`] sink and read no clock.

pub mod maintain;
pub mod sort;
pub mod window;

pub use maintain::{MaintainedWindow, TopKMaintain, WindowMaintain, WindowRow};
pub use sort::{
    output_rows_bound, sort_columns_native, sort_native, topk_native, MAX_OUTPUT_ROWS,
    MAX_RANKED_ROWS,
};
pub use window::{window_columns_native, window_native};

/// Where a kernel reports its stages: it takes a mark where it starts — a
/// window group its own, on the worker that sweeps it — and
/// [`Stages::stage`] ends the stage begun at a mark, returning the next
/// mark. The engine's executor also reports each operator (`label` is
/// called only by a sink that keeps it) and a fused stage's batches.
/// Generic, never `dyn`: `()` hears nothing and every call compiles away.
pub trait Stages: Sync {
    type Mark: Copy;
    fn mark(&self) -> Self::Mark;
    fn stage(&self, since: Self::Mark, name: &'static str) -> Self::Mark;
    fn op(&self, _: Self::Mark, _label: impl FnOnce() -> String, _batches: usize, _rows: usize) {}
    fn batches(&self, _skipped: usize, _scanned: usize) {}
}

impl Stages for () {
    type Mark = ();
    fn mark(&self) {}
    fn stage(&self, _: (), _: &'static str) {}
}

/// A sink that reads no clock: the stage names it heard, in order.
#[cfg(test)]
impl Stages for std::sync::Mutex<Vec<&'static str>> {
    type Mark = ();
    fn mark(&self) {}
    fn stage(&self, _: (), name: &'static str) {
        self.lock().expect("no test panicked holding it").push(name);
    }
}
