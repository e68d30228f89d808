//! Reference implementation of the AU-DB sort operator (paper Def. 2,
//! Fig. 4) and top-k queries.
//!
//! For every input row and every possible duplicate `i ∈ [0, k↑)`, the
//! operator emits the row extended with the position range
//! `pos(R, O, t, i) = pos(R, O, t, 0) + i` (Equations (1)–(3)) and annotates
//! the duplicate `(1,1,1)` if it certainly exists (`i < k↓`), `(0,1,1)` if
//! it exists in the selected-guess world (`i < k_sg`) and `(0,0,1)`
//! otherwise. This is the quadratic *semantic* definition — `audb-native`
//! computes the identical output in `O(n log n)` and is property-tested
//! against this module.

use crate::cmp::CmpSemantics;
use crate::expr::RangeExpr;
use crate::ops::select::select;
use crate::pos::all_pos_bounds;
use crate::range_value::RangeValue;
use crate::relation::AuRelation;
use audb_rel::ops::sort::total_order;

/// `sort_{O→τ}(R)` per Def. 2. Output schema `Sch(R) ∘ (pos_name)`; every
/// output row has possible multiplicity 1.
pub fn sort_ref(
    rel: &AuRelation,
    order: &[usize],
    pos_name: &str,
    sem: CmpSemantics,
) -> AuRelation {
    // Identical hypercubes stored as separate rows must be merged first:
    // Def. 2 accounts for duplicate interleaving through the duplicate
    // index `i`, which presupposes one row per distinct hypercube.
    // Borrow-or-owned: normalized inputs skip the pass entirely.
    let rel = rel.normalized();
    let rel: &AuRelation = &rel;
    let total_idxs = total_order(rel.schema.arity(), order);
    let bounds = all_pos_bounds(rel, &total_idxs, sem);
    let schema = rel.schema.with(pos_name);
    let mut out = AuRelation::empty(schema);
    for (row, base) in rel.rows().iter().zip(bounds) {
        for i in 0..row.mult.ub {
            let p = base.shift(i);
            let pos = RangeValue::from_i64s(p.lb as i64, p.sg as i64, p.ub as i64);
            out.push(row.tuple.with(pos), row.mult.copy(i));
        }
    }
    out
}

/// Top-k per paper Sec. 5: a selection `σ_{τ < k}` over the sort result
/// (using the AU-DB selection semantics of \[24\]); rows that are certainly
/// out of the top-k (`(0,0,0)` after filtering) are dropped. The position
/// attribute is retained, as in the paper's Fig. 1f.
pub fn topk_ref(rel: &AuRelation, order: &[usize], k: u64, sem: CmpSemantics) -> AuRelation {
    let sorted = sort_ref(rel, order, "pos", sem);
    let pos_col = sorted.schema.arity() - 1;
    select(
        &sorted,
        &RangeExpr::col(pos_col).lt(RangeExpr::lit(k as i64)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::tuple::AuTuple;
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn example6() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3)]),
                    Mult3::new(1, 1, 2),
                ),
                (
                    AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64)]),
                    Mult3::new(0, 1, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64)]),
                    Mult3::new(1, 1, 1),
                ),
            ],
        )
    }

    /// Paper Example 6, exactly as printed (4 result rows).
    #[test]
    fn example_6_sorting() {
        let out = sort_ref(&example6(), &[0, 1], "pos", CmpSemantics::IntervalLex).normalize();
        let expected = AuRelation::from_rows(
            Schema::new(["a", "b", "pos"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3), rv(0, 0, 1)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3), rv(1, 1, 2)]),
                    Mult3::new(0, 0, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64), rv(0, 1, 2)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64), rv(2, 2, 3)]),
                    Mult3::new(0, 1, 1),
                ),
            ],
        );
        assert!(out.bag_eq(&expected), "got:\n{out}\nexpected:\n{expected}");
    }

    #[test]
    fn topk_filters_certainly_out_rows() {
        // Top-1 on Example 6: only tuples possibly at position 0 survive.
        let out = topk_ref(&example6(), &[0, 1], 1, CmpSemantics::IntervalLex);
        // t1 dup0 (pos [0/0/1]) survives with (0,1,1): certain only if pos
        // certainly < 1, i.e. ub < 1 — here ub = 1, so lb drops to 0.
        // t3 (pos [0/1/2]) survives possibly: sg position 1 ≥ 1 → sg drops.
        // t1 dup1 (pos [1/1/2]) and t2 (pos [2/2/3]) are possible at... dup1
        // lb = 1 ≥ 1 → filtered out entirely; t2 lb = 2 → out.
        let n = out.clone().normalize();
        assert_eq!(n.rows().len(), 2, "{n}");
        for row in n.rows() {
            assert!(row.mult.lb == 0);
        }
    }

    #[test]
    fn certain_input_reduces_to_deterministic_sort() {
        use audb_rel::{Relation, Schema as S};
        let det = Relation::from_values(S::new(["a"]), [[3i64], [1], [2]]);
        let au = AuRelation::certain(&det);
        let out = sort_ref(&au, &[0], "pos", CmpSemantics::IntervalLex);
        let det_sorted = audb_rel::sort_to_pos(&det, &[0], "pos");
        // Every position must be certain and equal to the deterministic one.
        assert_eq!(out.rows().len(), 3);
        for row in out.rows() {
            assert!(row.tuple.get(1).is_certain());
            assert_eq!(row.mult, Mult3::ONE);
        }
        assert!(out.sg_world().bag_eq(&det_sorted));
    }

    #[test]
    fn empty_relation_sorts_to_empty() {
        let rel = AuRelation::empty(Schema::new(["a"]));
        let out = sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(out.is_empty());
    }
}
