//! # audb-core — the AU-DB data model and bound-preserving query semantics
//!
//! This crate implements **attribute-annotated uncertain databases**
//! (AU-DBs, \[23, 24\]) and the paper's extensions for order-based operators:
//!
//! * [`RangeValue`] — values `[c↓ / c_sg / c↑]` bounding an unknown value
//!   and carrying a selected guess; bound-preserving expression evaluation
//!   ([`expr::RangeExpr`]).
//! * [`Mult3`] — the `ℕ³` multiplicity semiring annotating tuples.
//! * [`AuRelation`] — bags of hypercube tuples; each AU-DB *bounds* a set of
//!   possible worlds (an incomplete database) between an under-approximation
//!   of certain answers and an over-approximation of possible answers.
//! * The selection, projection and aggregation of \[23, 24\] ([`ops`])
//!   plus this paper's contributions: uncertain comparison ([`cmp`]),
//!   position bounds ([`pos`]), the **sort operator** (Def. 2,
//!   [`ops::sort`]), **top-k**, and **row-based windowed aggregation**
//!   (Def. 3, [`ops::window`]).
//!
//! The operators in this crate are *reference implementations*: they follow
//! the formal definitions literally and quadratically. The production
//! implementations live in `audb-native` (one-pass sweeps over ranked
//! positions) and `audb-rewrite` (SQL-style rewrites); both are
//! property-tested against this crate.
//!
//! ## Quick example
//!
//! ```
//! use audb_core::{AuRelation, AuTuple, Mult3, RangeValue, CmpSemantics};
//! use audb_core::ops::sort::topk_ref;
//! use audb_rel::Schema;
//!
//! // A sales relation with an uncertain Sales attribute.
//! let rel = AuRelation::from_rows(
//!     Schema::new(["term", "sales"]),
//!     [
//!         (AuTuple::from([RangeValue::certain(1i64), RangeValue::new(2, 2, 3)]), Mult3::ONE),
//!         (AuTuple::from([RangeValue::certain(2i64), RangeValue::new(2, 3, 3)]), Mult3::ONE),
//!     ],
//! );
//! // Top-1 by sales: positions carry uncertainty; multiplicities tell you
//! // which answers are certain vs merely possible.
//! let top = topk_ref(&rel, &[1], 1, CmpSemantics::IntervalLex);
//! assert!(!top.is_empty());
//! ```

pub mod batch;
pub mod cmp;
pub mod columns;
pub mod encode;
pub mod expr;
pub mod mult;
pub mod ops;
pub mod physical;
pub mod pos;
pub mod range_value;
pub mod relation;
pub mod sortkey;
pub mod stats;
pub mod tuple;

pub use batch::{AuBatch, Batches, Kept};
pub use cmp::{tuple_lt, CmpSemantics};
pub use columns::{AuColumn, AuColumns, Lanes};
pub use expr::{RangeExpr, TruthMasks};
pub use mult::{Mult3, MultOverflow};
pub use ops::aggregate::aggregate as au_aggregate;
pub use ops::project::project as au_project;
pub use ops::select::select as au_select;
pub use ops::sort::{sort_ref, topk_ref};
pub use ops::window::{
    guaranteed_extra_slots, sg_ordered_inputs, sg_window_values, window_ref, window_value,
    AuWindowSpec, WinAgg,
};
pub use physical::{CertBitmap, PhysSlice, PhysType, PhysVec, StrPool};
pub use pos::{all_pos_bounds, pos_bounds, PosBounds};
pub use range_value::{RangeValue, TruthRange};
pub use relation::{canonical_order, AuRelation, AuRow};
pub use sortkey::{prefix_of, sort_prefixes, Corner, KeyArena, PrefixReader, SortKey};
pub use stats::{
    estimate_selectivity, range_verdict, zone_truth, ColumnStats, TableStats, ZoneMap, ZoneVerdict,
    ZONE_ROWS,
};
pub use tuple::AuTuple;
