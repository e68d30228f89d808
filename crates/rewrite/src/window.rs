//! SQL-rewrite implementation of AU-DB windowed aggregation (paper Fig. 8).
//!
//! The rewrite's skeleton:
//!
//! 1. `Q_part` — a **range-overlap self-join** pairs every partition-defining
//!    tuple with every tuple possibly in its partition
//!    (`Q1.G↓ ≤ Q2.G↑ ∧ Q1.G↑ ≥ Q2.G↓`);
//! 2. `Q_pos` / `Q_bnds` — per defining tuple, position bounds within its
//!    partition via the endpoint running sums of Fig. 7;
//! 3. `Q_winposs` / `Q_markcert` — filter to tuples possibly in the window
//!    and mark those certainly in it (the Fig. 6 interval tests);
//! 4. `Q_aggbnds` — fold certain members and the min-k/max-k selection of
//!    possible members into the aggregate bounds.
//!
//! Without `PARTITION BY`, step 1 degenerates to a self-join on *position*
//! overlap; `Rewr` executes it as a nested-loop scan (quadratic — this is
//! precisely why the paper's `Rewr` is orders of magnitude slower than the
//! native algorithm for windows), while `Rewr(index)` probes a
//! [`crate::index::IntervalIndex`] over the position ranges, reproducing
//! the paper's indexed variant (Fig. 15). The member classification and
//! bounds math are shared with the reference implementation
//! ([`audb_core::window_value`]), so outputs are identical to
//! [`audb_core::window_ref`] — property-tested.

use crate::index::IntervalIndex;
use crate::sort::positions_by_endpoints;
use audb_core::{
    assert_au_frame, attr_range, sg_window_values, window_value, AuRelation, AuWindowSpec, Mult3,
    WinAgg,
};
use audb_rel::ops::sort::total_order;
use audb_rel::Tuple;

/// How the rewrite evaluates its range-overlap self-join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Nested-loop scan — the plain `Rewr` of the paper.
    NestedLoop,
    /// Interval-index probe — the paper's `Rewr(index)` (default: it is
    /// asymptotically no worse and usually far faster).
    #[default]
    IntervalIndex,
}

/// `rewr(ω[l,u]_{f(A)→X; G; O}(R))`: Fig. 8, uncertain partition
/// attributes included. Output equals [`audb_core::window_ref`] under
/// interval-lex comparison.
pub fn rewr_window(
    rel: &AuRelation,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
    strategy: JoinStrategy,
) -> AuRelation {
    assert_au_frame(spec);
    let exp = rel.normalized().expand();
    let n = exp.rows().len();
    let total_idxs = total_order(exp.schema.arity(), &spec.order);
    let mut out = AuRelation::empty(exp.schema.with(out_name));
    if n == 0 {
        return out;
    }

    let keys_lb: Vec<Tuple> = exp
        .rows()
        .iter()
        .map(|r| r.tuple.lb_tuple().project(&total_idxs))
        .collect();
    let keys_sg: Vec<Tuple> = exp
        .rows()
        .iter()
        .map(|r| r.tuple.sg_tuple().project(&total_idxs))
        .collect();
    let keys_ub: Vec<Tuple> = exp
        .rows()
        .iter()
        .map(|r| r.tuple.ub_tuple().project(&total_idxs))
        .collect();

    let sg_vals = sg_window_values(&exp, spec, agg);
    let (l, u) = (spec.lower, spec.upper);
    let attr_of = |j: usize| attr_range(agg, &exp.rows()[j].tuple);

    if spec.partition.is_empty() {
        // Positions are global; the self-join is on position-range overlap.
        let mults: Vec<Mult3> = exp.rows().iter().map(|r| r.mult).collect();
        let pos = positions_by_endpoints(&keys_lb, &keys_sg, &keys_ub, &mults);
        let intervals: Vec<(i64, i64)> = (0..n)
            .map(|j| (pos.lb[j] as i64, pos.ub[j] as i64))
            .collect();
        let index = match strategy {
            JoinStrategy::IntervalIndex => Some(IntervalIndex::build(&intervals)),
            JoinStrategy::NestedLoop => None,
        };

        let total_lb: u64 = mults.iter().map(|m| m.lb).sum();
        let mut scratch: Vec<u32> = Vec::new();
        for ti in 0..n {
            // The rows whose positions possibly meet the window's.
            let (tlo, thi) = intervals[ti];
            scratch.clear();
            match &index {
                Some(idx) => idx.query_overlap(tlo + l, thi + u, &mut scratch),
                None => scratch.extend(0..n as u32),
            }
            let others = (scratch.iter().map(|&j| j as usize))
                .filter(|&j| j != ti)
                .map(|j| (intervals[j], exp.rows()[j].mult, attr_of(j)));
            let n_cert = total_lb - exp.rows()[ti].mult.lb + 1;
            let (own, sg) = (attr_of(ti), sg_vals[ti].clone());
            let x = window_value(spec, agg, intervals[ti], own, sg, n_cert, others);
            out.push(exp.rows()[ti].tuple.with(x), exp.rows()[ti].mult);
        }
        return out.normalize();
    }

    // PARTITION BY: pair each defining tuple with the tuples possibly in
    // its partition (the Q_part range-overlap join), then compute positions
    // *within* that partition and classify members.
    let part_candidates = partition_join(&exp, &spec.partition, strategy);
    for ti in 0..n {
        let cand = &part_candidates[ti];
        // Filter candidate multiplicities by partition-membership truth.
        let fms: Vec<Mult3> = cand
            .iter()
            .map(|&j| {
                let truth = (exp.rows()[j].tuple).eq_on(&exp.rows()[ti].tuple, &spec.partition);
                exp.rows()[j].mult.filter(truth)
            })
            .collect();
        // Positions of the candidates within this partition.
        let klb: Vec<Tuple> = cand.iter().map(|&j| keys_lb[j].clone()).collect();
        let ksg: Vec<Tuple> = cand.iter().map(|&j| keys_sg[j].clone()).collect();
        let kub: Vec<Tuple> = cand.iter().map(|&j| keys_ub[j].clone()).collect();
        let pos = positions_by_endpoints(&klb, &ksg, &kub, &fms);

        let self_at = cand
            .iter()
            .position(|&j| j == ti)
            .expect("target is a candidate of its own partition");
        let at = |ci: usize| (pos.lb[ci] as i64, pos.ub[ci] as i64);
        let others = (0..cand.len()).filter(|&ci| ci != self_at);
        let n_cert = others.clone().map(|ci| fms[ci].lb).sum::<u64>() + 1;
        let others = others.map(|ci| (at(ci), fms[ci], attr_of(cand[ci])));
        let (own, sg) = (attr_of(ti), sg_vals[ti].clone());
        let x = window_value(spec, agg, at(self_at), own, sg, n_cert, others);
        out.push(exp.rows()[ti].tuple.with(x), exp.rows()[ti].mult);
    }
    out.normalize()
}

/// The `Q_part` overlap join: per target, the rows whose partition-attribute
/// ranges all overlap the target's. Indexed on the first partition attribute
/// when it is integer-valued and the strategy asks for it.
fn partition_join(
    exp: &AuRelation,
    partition: &[usize],
    strategy: JoinStrategy,
) -> Vec<Vec<usize>> {
    let n = exp.rows().len();
    let g0 = partition[0];
    let overlap_all = |i: usize, j: usize| -> bool {
        partition.iter().all(|&g| {
            let a = exp.rows()[i].tuple.get(g);
            let b = exp.rows()[j].tuple.get(g);
            a.lb <= b.ub && b.lb <= a.ub
        })
    };

    let int_intervals: Option<Vec<(i64, i64)>> = exp
        .rows()
        .iter()
        .map(|r| {
            let v = r.tuple.get(g0);
            Some((v.lb.as_i64()?, v.ub.as_i64()?))
        })
        .collect();

    match (strategy, int_intervals) {
        (JoinStrategy::IntervalIndex, Some(intervals)) => {
            let idx = IntervalIndex::build(&intervals);
            let mut scratch = Vec::new();
            (0..n)
                .map(|ti| {
                    scratch.clear();
                    idx.query_overlap(intervals[ti].0, intervals[ti].1, &mut scratch);
                    let mut cand: Vec<usize> = scratch
                        .iter()
                        .map(|&j| j as usize)
                        .filter(|&j| overlap_all(ti, j))
                        .collect();
                    cand.sort_unstable();
                    cand
                })
                .collect()
        }
        _ => (0..n)
            .map(|ti| (0..n).filter(|&j| overlap_all(ti, j)).collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{window_ref, AuTuple, CmpSemantics, RangeValue};
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// Paper Example 7 input (partitioned, uncertain partition attributes).
    fn example7() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b", "c"]),
            [
                (
                    AuTuple::new([
                        RangeValue::certain(1i64),
                        rv(1, 1, 3),
                        RangeValue::certain(7i64),
                    ]),
                    Mult3::new(1, 1, 2),
                ),
                (
                    AuTuple::new([
                        rv(2, 3, 3),
                        RangeValue::certain(15i64),
                        RangeValue::certain(4i64),
                    ]),
                    Mult3::new(0, 1, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64), rv(2, 4, 5)]),
                    Mult3::ONE,
                ),
            ],
        )
    }

    #[test]
    fn partitioned_rewrite_matches_reference_example_7() {
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        for strategy in [JoinStrategy::NestedLoop, JoinStrategy::IntervalIndex] {
            let got = rewr_window(&example7(), &spec, WinAgg::Sum(2), "s", strategy);
            let want = window_ref(
                &example7(),
                &spec,
                WinAgg::Sum(2),
                "s",
                CmpSemantics::IntervalLex,
            );
            assert!(
                got.bag_eq(&want),
                "{strategy:?}\ngot:\n{got}\nwant:\n{want}"
            );
        }
    }

    #[test]
    fn partitionless_rewrite_matches_reference() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::new([rv(1, 1, 3), rv(5, 7, 7)]), Mult3::ONE),
                (AuTuple::new([rv(2, 2, 2), rv(-3, -3, -3)]), Mult3::ONE),
                (
                    AuTuple::new([rv(4, 5, 6), rv(10, 10, 12)]),
                    Mult3::new(0, 1, 1),
                ),
                (AuTuple::new([rv(8, 8, 8), rv(1, 2, 3)]), Mult3::ONE),
            ],
        );
        for agg in [
            WinAgg::Sum(1),
            WinAgg::Count,
            WinAgg::Min(1),
            WinAgg::Max(1),
        ] {
            for (l, u) in [(0i64, 0i64), (-2, 0), (-1, 1)] {
                let spec = AuWindowSpec::rows(vec![0], l, u);
                for strategy in [JoinStrategy::NestedLoop, JoinStrategy::IntervalIndex] {
                    let got = rewr_window(&rel, &spec, agg, "x", strategy);
                    let want = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
                    assert!(
                        got.bag_eq(&want),
                        "agg={agg:?} l={l} u={u} {strategy:?}\ngot:\n{got}\nwant:\n{want}"
                    );
                }
            }
        }
    }

    #[test]
    fn string_partition_attributes_fall_back_to_nested_loop() {
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                (
                    AuTuple::new([
                        RangeValue::certain("x"),
                        rv(1, 1, 2),
                        RangeValue::certain(5i64),
                    ]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([
                        RangeValue::certain("y"),
                        rv(1, 2, 2),
                        RangeValue::certain(9i64),
                    ]),
                    Mult3::ONE,
                ),
            ],
        );
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let got = rewr_window(
            &rel,
            &spec,
            WinAgg::Sum(2),
            "s",
            JoinStrategy::IntervalIndex,
        );
        let want = window_ref(&rel, &spec, WinAgg::Sum(2), "s", CmpSemantics::IntervalLex);
        assert!(got.bag_eq(&want), "got:\n{got}\nwant:\n{want}");
    }

    #[test]
    #[should_panic(expected = "current row")]
    fn window_must_contain_current_row() {
        let spec = AuWindowSpec::rows(vec![1], -2, -1).partition_by(vec![0]);
        let strategy = JoinStrategy::IntervalIndex;
        rewr_window(&example7(), &spec, WinAgg::Sum(2), "s", strategy);
    }
}
