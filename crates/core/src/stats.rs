//! Zone maps: the bound-aware summaries behind the executor's batch
//! pruning.
//!
//! AU-DB columns already carry `[lb, ub]` bounds per cell, so min/max
//! statistics fall out of the columnar layout for free: a column's
//! *bound box* is the minimum of its lb lane and the maximum of its ub
//! lane, and every deterministic world's value lies inside it. A column's
//! statistics ([`ColumnStats`]) are one bound box per [`ZONE_ROWS`]-row
//! block ([`ZoneMap`]), aligned with the executor's batch chunking so a
//! fused select stage can skip whole batches.
//!
//! ## The zone pruning rule
//!
//! [`zone_truth`] evaluates a predicate over a zone's bound boxes instead
//! of its rows, returning a sound three-valued verdict:
//!
//! * [`ZoneVerdict::AllFalse`] — for **every** row in the zone the truth
//!   triple's upper bound is `false` (the predicate is not even possibly
//!   true), so a selection drops every row: the batch can be skipped.
//! * [`ZoneVerdict::AllTrue`] — for every row the triple is certainly
//!   `TRUE`, so the selection's multiplicity filter is the identity: the
//!   predicate evaluation can be short-circuited (the certainty bitmap is
//!   untouched — no value is rewritten).
//! * [`ZoneVerdict::Mixed`] — no conclusion; evaluate normally.
//!
//! There is no second interval analysis: a zone's bound box is itself a
//! range value `[min lb / min lb / max ub]`, and the verdict is the row
//! semantics ([`crate::RangeExpr::truth`]) with every column's cell read as
//! its box — `TRUE` on the lower bound is `AllTrue`, `FALSE` on the upper
//! is `AllFalse`. That is sound because every row's cell lies inside its
//! box and, on the admitted fragment, the truth triple's lower bound only
//! falls and its upper bound only rises as operand ranges widen. The
//! fragment is comparisons whose operands are columns or literals,
//! combined by `AND` / `OR` / `NOT`, which combine the bounds
//! componentwise. Everything else reads as unknown, because it is not
//! monotone in the `Value` order: arithmetic (`NULL` absorbs, so `10 −
//! NULL` is `NULL`, below `10 − 5`; `i64` overflow promotes to float)
//! and a bare column used as a predicate (only `Bool(true)` is true, so a
//! box `[false, 5]` reads false while a `true` row lies inside it). No
//! workload, figure, example or `repro bench` cell prunes on arithmetic;
//! an unknown node degrades the verdict to `Mixed`, never to a wrong
//! one — property-pinned against per-row [`crate::RangeExpr::truth`] in
//! `tests/zone_verdicts.rs` and end to end in
//! `tests/pipeline_equivalence.rs`.

use crate::columns::AuColumns;
use crate::expr::RangeExpr;
use crate::range_value::{RangeValue, TruthRange};
use crate::relation::AuRelation;
use crate::sortkey::Corner;
use audb_rel::Value;

/// Rows per statistics zone. Matches the executor's default batch size so
/// batch `i` at the default size is exactly zone `i`; other batch sizes
/// consult every overlapping zone.
pub const ZONE_ROWS: usize = 1024;

/// Per-zone summary of one column: the bound box of one contiguous
/// [`ZONE_ROWS`]-row block (only the last zone may be short).
#[derive(Clone, Debug, PartialEq)]
pub struct ZoneMap {
    /// Minimum of the lb lane over the zone.
    pub min_lb: Value,
    /// Maximum of the ub lane over the zone.
    pub max_ub: Value,
}

/// One column's statistics block: its per-zone maps.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// One [`ZoneMap`] per [`ZONE_ROWS`]-row block, in row order.
    pub zones: Vec<ZoneMap>,
}

/// A table's statistics: one [`ColumnStats`] block per attribute, all
/// sharing the same zone partition.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Stored row count (pre-normalization, like the relation itself).
    pub rows: usize,
    /// Per-attribute statistics, in schema order.
    pub cols: Vec<ColumnStats>,
}

/// Streaming builder for one column: every zone in one sweep.
struct ColBuilder {
    zones: Vec<ZoneMap>,
    zone_rows: usize,
    zone_min: Option<Value>,
    zone_max: Option<Value>,
}

impl ColBuilder {
    fn new() -> ColBuilder {
        ColBuilder {
            zones: Vec::new(),
            zone_rows: 0,
            zone_min: None,
            zone_max: None,
        }
    }

    fn push(&mut self, lb: &Value, ub: &Value) {
        min_into(&mut self.zone_min, lb);
        max_into(&mut self.zone_max, ub);
        self.zone_rows += 1;
        if self.zone_rows == ZONE_ROWS {
            self.close_zone();
        }
    }

    fn close_zone(&mut self) {
        if self.zone_rows == 0 {
            return;
        }
        self.zones.push(ZoneMap {
            min_lb: self.zone_min.take().unwrap_or(Value::Null),
            max_ub: self.zone_max.take().unwrap_or(Value::Null),
        });
        self.zone_rows = 0;
    }

    fn finish(mut self) -> ColumnStats {
        self.close_zone();
        ColumnStats { zones: self.zones }
    }
}

fn min_into(slot: &mut Option<Value>, v: &Value) {
    match slot {
        Some(cur) if &*cur <= v => {}
        _ => *slot = Some(v.clone()),
    }
}

fn max_into(slot: &mut Option<Value>, v: &Value) {
    match slot {
        Some(cur) if &*cur >= v => {}
        _ => *slot = Some(v.clone()),
    }
}

impl TableStats {
    /// Compute statistics from a columnar relation: one contiguous sweep
    /// per bound lane (certain columns read one lane for both corners).
    pub fn of_columns(cols: &AuColumns) -> TableStats {
        let n = cols.len();
        let mut out = Vec::with_capacity(cols.arity());
        for c in 0..cols.arity() {
            let col = cols.col(c);
            let lb = col.corner(Corner::Lb);
            let ub = col.corner(Corner::Ub);
            let mut b = ColBuilder::new();
            for i in 0..n {
                b.push(&lb.value(i), &ub.value(i));
            }
            out.push(b.finish());
        }
        TableStats { rows: n, cols: out }
    }

    /// Compute statistics from a row relation in one row sweep — no
    /// transposition. Produces exactly what [`TableStats::of_columns`]
    /// produces for the columnarized relation (property-pinned below).
    pub fn of_relation(rel: &AuRelation) -> TableStats {
        let rows = rel.rows();
        let mut builders: Vec<ColBuilder> =
            (0..rel.schema.arity()).map(|_| ColBuilder::new()).collect();
        for row in rows {
            for (b, rv) in builders.iter_mut().zip(&row.tuple.0) {
                b.push(&rv.lb, &rv.ub);
            }
        }
        TableStats {
            rows: rows.len(),
            cols: builders.into_iter().map(ColBuilder::finish).collect(),
        }
    }

    /// Number of zones ([`ZONE_ROWS`]-row blocks) the table spans.
    pub fn zone_count(&self) -> usize {
        self.rows.div_ceil(ZONE_ROWS)
    }
}

/// Sound three-valued zone-level verdict of a predicate (see the module
/// docs for the pruning rule each variant licenses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// Every row's truth triple is `FALSE` — a selection drops the zone.
    AllFalse,
    /// No conclusion; evaluate per row.
    Mixed,
    /// Every row's truth triple is `TRUE` — a selection keeps the zone
    /// with unchanged multiplicities.
    AllTrue,
}

/// Evaluate a predicate over zone `z`'s bound boxes: the row semantics
/// ([`RangeExpr::truth`]) with every column's cell read as the zone's box
/// `[min lb, max ub]`. Sound for every row of the zone (see the module
/// docs); what lies outside the monotone fragment is `Mixed`.
pub fn zone_truth(pred: &RangeExpr, stats: &TableStats, z: usize) -> ZoneVerdict {
    let t = box_truth(pred, stats, z);
    if t.lb {
        ZoneVerdict::AllTrue
    } else if !t.ub {
        ZoneVerdict::AllFalse
    } else {
        ZoneVerdict::Mixed
    }
}

/// The truth triple of `e` over zone `z`'s boxes. A comparison of columns
/// and literals is the row semantics over the boxes; connectives combine
/// like the row semantics' own; anything else is unknown (`false`/`true`).
fn box_truth(e: &RangeExpr, stats: &TableStats, z: usize) -> TruthRange {
    let operand = |e: &RangeExpr| match e {
        RangeExpr::Col(c) => stats.cols.get(*c).is_some_and(|col| z < col.zones.len()),
        RangeExpr::Lit(_) => true,
        _ => false,
    };
    let zone_box = |c: usize| {
        let zone = &stats.cols[c].zones[z];
        RangeValue {
            lb: zone.min_lb.clone(),
            sg: zone.min_lb.clone(),
            ub: zone.max_ub.clone(),
        }
    };
    match e {
        RangeExpr::Cmp(_, a, b) if operand(a) && operand(b) => e.truth_with(&zone_box),
        RangeExpr::And(a, b) => box_truth(a, stats, z).and(box_truth(b, stats, z)),
        RangeExpr::Or(a, b) => box_truth(a, stats, z).or(box_truth(b, stats, z)),
        RangeExpr::Not(a) => box_truth(a, stats, z).not(),
        _ => TruthRange {
            lb: false,
            sg: false,
            ub: true,
        },
    }
}

/// Verdict for a contiguous row range `[start, start + len)` (an executor
/// batch): the combination of every overlapping zone — definite only when
/// every zone agrees.
pub fn range_verdict(
    pred: &RangeExpr,
    stats: &TableStats,
    start: usize,
    len: usize,
) -> ZoneVerdict {
    if len == 0 || stats.rows == 0 {
        return ZoneVerdict::Mixed;
    }
    let z0 = start / ZONE_ROWS;
    let z1 = (start + len - 1) / ZONE_ROWS;
    let mut verdict = zone_truth(pred, stats, z0);
    for z in (z0 + 1)..=z1 {
        if verdict == ZoneVerdict::Mixed {
            return verdict;
        }
        let next = zone_truth(pred, stats, z);
        if next != verdict {
            return ZoneVerdict::Mixed;
        }
        verdict = next;
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::range_value::RangeValue;
    use crate::tuple::AuTuple;
    use audb_rel::{CmpOp, Schema};

    fn rel(rows: &[(i64, i64, i64)]) -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            rows.iter().map(|&(lb, sg, ub)| {
                (
                    AuTuple::new([RangeValue::new(lb, sg, ub), RangeValue::certain(sg)]),
                    Mult3::ONE,
                )
            }),
        )
    }

    #[test]
    fn of_relation_matches_of_columns() {
        let r = rel(&[(1, 2, 3), (4, 4, 4), (0, 1, 9), (7, 7, 7)]);
        let a = TableStats::of_relation(&r);
        let b = TableStats::of_columns(&r.to_columns());
        assert_eq!(a, b);
        assert_eq!(a.rows, 4);
        assert_eq!(a.cols[0].zones.len(), 1);
        assert_eq!(a.cols[0].zones[0].min_lb, Value::Int(0));
        assert_eq!(a.cols[0].zones[0].max_ub, Value::Int(9));
    }

    #[test]
    fn zones_partition_at_zone_rows() {
        let rows: Vec<(i64, i64, i64)> = (0..(ZONE_ROWS as i64 + 5)).map(|i| (i, i, i)).collect();
        let s = TableStats::of_relation(&rel(&rows));
        assert_eq!(s.zone_count(), 2);
        assert_eq!(s.cols[0].zones.len(), 2);
        let last = ZONE_ROWS as i64 - 1;
        assert_eq!(s.cols[0].zones[0].max_ub, Value::Int(last));
        assert_eq!(s.cols[0].zones[1].min_lb, Value::Int(last + 1));
        assert_eq!(s.cols[0].zones[1].max_ub, Value::Int(last + 5));
    }

    /// The soundness property: a definite zone verdict must agree with
    /// the per-row truth of every row in the zone.
    #[test]
    fn zone_verdicts_are_sound_against_per_row_truth() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let rows: Vec<(i64, i64, i64)> = (0..60)
            .map(|_| {
                let sg = (step() % 40) as i64;
                let d1 = (step() % 4) as i64;
                let d2 = (step() % 4) as i64;
                (sg - d1, sg, sg + d2)
            })
            .collect();
        let r = rel(&rows);
        let s = TableStats::of_relation(&r);
        let preds = [
            RangeExpr::col(0).lt(RangeExpr::lit(-5)),
            RangeExpr::col(0).le(RangeExpr::lit(20)),
            RangeExpr::col(0).lt(RangeExpr::lit(1000)),
            RangeExpr::col(0).eq(RangeExpr::lit(7)),
            RangeExpr::col(0).cmp(CmpOp::Ge, RangeExpr::lit(0)),
            RangeExpr::col(0)
                .le(RangeExpr::lit(10))
                .and(RangeExpr::col(1).lt(RangeExpr::lit(50))),
            RangeExpr::Not(Box::new(RangeExpr::col(0).lt(RangeExpr::lit(-1)))),
            RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::lit(5)))
                .le(RangeExpr::lit(3)),
        ];
        for pred in &preds {
            let verdict = zone_truth(pred, &s, 0);
            for row in r.rows() {
                let t = pred.truth(&row.tuple);
                match verdict {
                    ZoneVerdict::AllFalse => assert!(!t.ub, "{pred:?} claimed AllFalse"),
                    ZoneVerdict::AllTrue => assert!(t.lb, "{pred:?} claimed AllTrue"),
                    ZoneVerdict::Mixed => {}
                }
            }
        }
    }

    #[test]
    fn definite_verdicts_fire_on_clustered_data() {
        // Clustered (sorted) key: faraway zones prune.
        let rows: Vec<(i64, i64, i64)> = (0..(2 * ZONE_ROWS as i64)).map(|i| (i, i, i)).collect();
        let s = TableStats::of_relation(&rel(&rows));
        let pred = RangeExpr::col(0).lt(RangeExpr::lit(10));
        assert_eq!(zone_truth(&pred, &s, 1), ZoneVerdict::AllFalse);
        assert_eq!(zone_truth(&pred, &s, 0), ZoneVerdict::Mixed);
        let all = RangeExpr::col(0).lt(RangeExpr::lit(3 * ZONE_ROWS as i64));
        assert_eq!(zone_truth(&all, &s, 0), ZoneVerdict::AllTrue);
        assert_eq!(zone_truth(&all, &s, 1), ZoneVerdict::AllTrue);
        // A batch spanning both zones is definite only when they agree.
        assert_eq!(
            range_verdict(&pred, &s, ZONE_ROWS - 2, 4),
            ZoneVerdict::Mixed
        );
        assert_eq!(
            range_verdict(&all, &s, ZONE_ROWS - 2, 4),
            ZoneVerdict::AllTrue
        );
    }

    #[test]
    fn uncertain_cells_widen_the_box_and_block_false_positives() {
        let r = rel(&[(0, 5, 9), (2, 3, 4)]);
        let s = TableStats::of_relation(&r);
        // Possibly-true for row 0 (lb 0 < 2): must not claim AllFalse.
        let pred = RangeExpr::col(0).lt(RangeExpr::lit(2));
        assert_eq!(zone_truth(&pred, &s, 0), ZoneVerdict::Mixed);
        // Not even possibly below -1.
        let never = RangeExpr::col(0).lt(RangeExpr::lit(-1));
        assert_eq!(zone_truth(&never, &s, 0), ZoneVerdict::AllFalse);
    }

    #[test]
    fn a_null_cell_is_the_zone_minimum() {
        let r = AuRelation::from_rows(
            Schema::new(["v"]),
            [
                (AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE),
                (AuTuple::new([RangeValue::certain(Value::Null)]), Mult3::ONE),
            ],
        );
        // Null sorts before everything, so it is the lb min.
        let s = TableStats::of_relation(&r);
        assert_eq!(s.cols[0].zones[0].min_lb, Value::Null);
        assert_eq!(s.cols[0].zones[0].max_ub, Value::Int(1));
    }
}
