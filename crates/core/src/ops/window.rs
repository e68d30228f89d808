//! Reference implementation of row-based windowed aggregation over AU-DBs
//! (paper Def. 3 with the certain/possible window membership of Fig. 6).
//!
//! The computation follows the paper's four steps:
//!
//! 1. **expand** — split every row into rows of possible multiplicity 1
//!    (the aggregate may differ between duplicates). Copies of one
//!    hypercube have no order between them: each counts toward every other
//!    copy's possible position and never toward its certain one
//!    ([`crate::pos`]);
//! 2. **partition** — per target tuple `t`, filter every row's multiplicity
//!    triple by the truth of `G = t.G` (\[24\] selection semantics);
//! 3. **window membership** — a tuple is *certainly* in `t`'s window if all
//!    its possible positions lie within the positions certainly covered
//!    (`[pos↑(t)+l, pos↓(t)+u]`), and *possibly* in the window if its
//!    position range intersects the possibly covered span
//!    (`[pos↓(t)+l, pos↑(t)+u]`);
//! 4. **aggregate bounds** — tuples certainly in the window always
//!    contribute; because a `[l,u]` window holds at most `size = u−l+1`
//!    rows, only the `possn = size − |certain|` best/worst possible members
//!    may additionally contribute (`min-k` / `max-k` of Sec. 6.1).
//!
//! One refinement is applied consistently here and in the native algorithm
//! (and matches the paper's own Algorithms 5/6, which seed the bounds with
//! `t.A`): the defining tuple is a **certain member of its own window** —
//! in every world in which `t` exists, `t` lies inside `[l, u]` of itself
//! (windows must satisfy `l ≤ 0 ≤ u`). The output row for `t` only
//! describes worlds containing `t`, so this is bound-preserving and
//! strictly tighter than running `t` through the Fig. 6 interval test.
//!
//! The operator takes the deterministic operator's own parameters, one
//! type each for Fig. 3 and Def. 3: the frame [`AuWindowSpec`]
//! (`audb_rel::WindowSpec`) and the aggregate [`WinAgg`]
//! (`audb_rel::AggFunc`). Only the precondition `l ≤ 0 ≤ u` is the AU-DB
//! operators' own, checked where each starts ([`assert_au_frame`]).
//!
//! This module is the *semantic reference*: `O(n²)`–`O(n³)`. The one-pass
//! equivalent lives in `audb_native::window`.

use crate::cmp::CmpSemantics;
use crate::mult::Mult3;
use crate::pos::all_pos_bounds;
use crate::range_value::RangeValue;
use crate::relation::AuRelation;
use crate::tuple::AuTuple;
use audb_rel::ops::sort::total_order;
use audb_rel::ops::window::sliding_aggregate;
use audb_rel::{AggFunc, Value};

/// The window aggregate: Fig. 3's deterministic `f(A)` and Def. 3's
/// lifting are one type, [`AggFunc`]. Over AU-DBs `sum` gets tight bounds
/// via min-k/max-k possible-member selection, `count(*)` is the sum over
/// the constant 1, `min`/`max` are idempotent (certain members cap one
/// bound), and `avg` is the sound `[min A↓, max A↑]` envelope over possible
/// members (the paper does not define a tight avg; see DESIGN.md §3.4).
pub type WinAgg = AggFunc;

/// The resolved window frame, the deterministic operator's own: the AU-DB
/// operators ([`window_ref`], the rewrite, the native sweep) take it as
/// is, and each checks the AU precondition `l ≤ 0 ≤ u` where it starts
/// ([`assert_au_frame`]).
pub use audb_rel::WindowSpec as AuWindowSpec;

/// The range of `agg`'s attribute for a tuple (`[1,1,1]` for `count(*)`).
pub fn attr_range(agg: WinAgg, t: &AuTuple) -> RangeValue {
    match agg.input_col() {
        Some(c) => t.get(c).clone(),
        None => RangeValue::certain(1i64),
    }
}

/// Panics unless `spec`'s frame contains the current row (`l ≤ 0 ≤ u`):
/// every AU-DB window operator's precondition (module docs). The engine
/// refuses such a frame as `PlanError::InvalidWindowFrame` before it runs.
pub fn assert_au_frame(spec: &AuWindowSpec) {
    assert!(
        spec.lower <= 0 && spec.upper >= 0,
        "AU-DB windows must contain the current row (l ≤ 0 ≤ u)"
    );
}

/// Per-window member data from which aggregate bounds are computed
/// ([`window_value`]).
struct WindowMembers {
    /// Attribute ranges of tuples certainly in the window (incl. self).
    cert: Vec<RangeValue>,
    /// Attribute ranges of tuples possibly (but not certainly) in the window.
    poss: Vec<RangeValue>,
    /// Selected-guess aggregate for this row (computed deterministically
    /// over the SG world; see [`sg_window_values`]).
    sg: Value,
    /// Remaining window capacity for possible members.
    possn: usize,
    /// Slots of the window that are *guaranteed occupied* beyond the
    /// certain members: in every world the window of `t` holds
    /// `min(−l, pos↓(t))` preceding and `min(u, N_cert − 1 − pos↑(t))`
    /// following rows (`N_cert` = rows certainly in the partition), so at
    /// least this many *possible* members are present even though no
    /// individual one is certain. The paper's Fig. 1g derives its term-2
    /// lower bound of 6 from exactly this slot argument (its Sec. 6.1
    /// formulas alone yield 2); see DESIGN.md §3.4.
    guaranteed_extra: usize,
}

/// Compute `WindowMembers::guaranteed_extra` from a window's geometry.
pub fn guaranteed_extra_slots(
    l: i64,
    u: i64,
    pos_lb: u64,
    pos_ub: u64,
    n_cert_partition: u64,
    cert_members: usize,
    possn: usize,
) -> usize {
    let preceding = (-l).min(pos_lb as i64).max(0);
    let following = u.min((n_cert_partition as i64 - 1 - pos_ub as i64).max(0));
    let filled = (preceding + following + 1).max(0) as usize;
    filled.saturating_sub(cert_members).min(possn)
}

/// Sort `(id, tuple)` entries of one partition of the selected-guess world
/// into the **selected-guess order** — defined here and nowhere else — and
/// return, in that order, the selected guess of the aggregated attribute
/// (`1` for `count(*)`): the value slice [`sliding_aggregate`] turns into
/// the deterministic window operator's output (paper Fig. 3).
///
/// Rows are ordered by their selected guesses under `<total_O`
/// ([`total_order`] of the ORDER BY attributes), ties broken by *content* —
/// the lower-bound corner, then the upper-bound corner, both in column
/// order — and only then by the caller's id. Rows with equal selected
/// guesses are thus ordered by their hypercube, which makes the
/// selected-guess component independent of the caller's row order: the
/// native sweep and the reference feed rows in different orders but must
/// agree (see tests/method_agreement). Shared by [`sg_window_values`] and
/// the native sweep's incremental tail.
pub fn sg_ordered_inputs(
    entries: &mut [(usize, &AuTuple)],
    order: &[usize],
    agg: WinAgg,
) -> Vec<Value> {
    let Some((_, first)) = entries.first() else {
        return Vec::new();
    };
    let total = total_order(first.arity(), order);
    let columns: Vec<usize> = (0..first.arity()).collect();
    entries.sort_unstable_by(|(i, a), (j, b)| {
        a.cmp_sg_on(b, &total)
            .then_with(|| a.cmp_lb_on(b, &columns))
            .then_with(|| a.cmp_ub_on(b, &columns))
            .then(i.cmp(j))
    });
    entries.iter().map(|(_, t)| attr_range(agg, t).sg).collect()
}

/// Compute the selected-guess window aggregate for every expanded row by
/// running the *deterministic* window operator (paper Fig. 3) over the
/// selected-guess world in the order of [`sg_ordered_inputs`], so each duplicate receives its
/// own value. Rows absent from the SG world (sg multiplicity 0) fall back
/// to the value of their row's last SG duplicate, or to their own sg
/// attribute value — the sg component of a tuple that does not exist in the
/// SG world never surfaces in the SG projection, so any in-bounds value is
/// sound (DESIGN.md §3.4); this choice reproduces the paper's Example 7.
///
/// `exp` must contain only rows of possible multiplicity ≤ 1 (the output of
/// [`AuRelation::expand`]), with duplicates of the same hypercube adjacent.
pub fn sg_window_values(exp: &AuRelation, spec: &AuWindowSpec, agg: WinAgg) -> Vec<Value> {
    let n = exp.rows().len();
    let mut vals: Vec<Option<Value>> = vec![None; n];
    // The SG world, grouped by the selected guess of the PARTITION BY
    // attributes (all rows form one group when there are none).
    let mut entries: Vec<(usize, &AuTuple)> = exp
        .rows()
        .iter()
        .enumerate()
        .filter(|(_, row)| row.mult.sg > 0)
        .map(|(i, row)| (i, &row.tuple))
        .collect();
    entries.sort_by(|a, b| a.1.cmp_sg_on(b.1, &spec.partition));
    for part in entries.chunk_by_mut(|a, b| a.1.cmp_sg_on(b.1, &spec.partition).is_eq()) {
        let inputs = sg_ordered_inputs(part, &spec.order, agg);
        let aggs = sliding_aggregate(&inputs, spec.lower, spec.upper, agg);
        for (&(id, _), v) in part.iter().zip(aggs) {
            vals[id] = Some(v);
        }
    }
    // Fallbacks for rows outside the SG world: inherit from the previous
    // duplicate of the same hypercube (expand emits duplicates adjacently,
    // SG duplicates first), else use the row's own sg attribute.
    let mut out: Vec<Value> = Vec::with_capacity(n);
    for (i, v) in vals.into_iter().enumerate() {
        let v = match v {
            Some(v) => v,
            None if i > 0 && exp.rows()[i - 1].tuple == exp.rows()[i].tuple => out[i - 1].clone(),
            None => attr_range(agg, &exp.rows()[i].tuple).sg,
        };
        out.push(v);
    }
    out
}

/// Compute bounds + sg for one window from its member sets (Sec. 6.1:
/// certain members always contribute; at most `possn` possible members
/// contribute via min-k/max-k selection).
fn aggregate_window(m: &WindowMembers, agg: WinAgg) -> RangeValue {
    // Guaranteed-occupied slots never exceed the pool (every occupant is a
    // possible member by soundness of the possible set).
    let q = m.guaranteed_extra.min(m.poss.len());
    // The least lower bound over the certain members and, where the frame
    // has room, the possible ones — MIN's and AVG's lower bound — and its
    // mirror, MAX's and AVG's upper bound.
    let room = m.possn > 0;
    let least_lb = || {
        let lo = m.cert.iter().map(|r| &r.lb).min().cloned().unwrap();
        match m.poss.iter().map(|r| &r.lb).min().filter(|_| room) {
            Some(p) => lo.min(p.clone()),
            None => lo,
        }
    };
    let greatest_ub = || {
        let hi = m.cert.iter().map(|r| &r.ub).max().cloned().unwrap();
        match m.poss.iter().map(|r| &r.ub).max().filter(|_| room) {
            Some(p) => hi.max(p.clone()),
            None => hi,
        }
    };
    let (lb, ub) = match agg {
        WinAgg::Sum(_) | WinAgg::Count => {
            let mut lo = Value::Int(0);
            let mut hi = Value::Int(0);
            for r in &m.cert {
                lo = lo.add(&r.lb);
                hi = hi.add(&r.ub);
            }
            // min-k with a guaranteed floor: at least q and at most possn
            // possible members are present; any j of them sum to at least
            // the j smallest lower bounds, so the bound is the minimum of
            // those prefix sums over j ∈ [q, possn] — attained at
            // j = clamp(#negatives, q, possn).
            let mut lbs: Vec<&Value> = m.poss.iter().map(|r| &r.lb).collect();
            lbs.sort();
            let negs = lbs.iter().take_while(|v| ***v < Value::Int(0)).count();
            let j = negs.clamp(q, m.possn.min(lbs.len()));
            for v in &lbs[..j.min(lbs.len())] {
                lo = lo.add(v);
            }
            // max-k mirrored: j = clamp(#positives, q, possn) largest ubs.
            let mut ubs: Vec<&Value> = m.poss.iter().map(|r| &r.ub).collect();
            ubs.sort_by(|a, b| b.cmp(a));
            let poss_cnt = ubs.iter().take_while(|v| ***v > Value::Int(0)).count();
            let j = poss_cnt.clamp(q, m.possn.min(ubs.len()));
            for v in &ubs[..j.min(ubs.len())] {
                hi = hi.add(v);
            }
            (lo, hi)
        }
        WinAgg::Min(_) => {
            let mut hi = m.cert.iter().map(|r| &r.ub).min().cloned().unwrap();
            if q >= 1 {
                // Any q pool members include one with value ≤ the q-th
                // largest pool upper bound (pigeonhole).
                let mut ubs: Vec<&Value> = m.poss.iter().map(|r| &r.ub).collect();
                ubs.sort_by(|a, b| b.cmp(a));
                hi = hi.min(ubs[q - 1].clone());
            }
            (least_lb(), hi)
        }
        WinAgg::Max(_) => {
            let mut lo = m.cert.iter().map(|r| &r.lb).max().cloned().unwrap();
            if q >= 1 {
                let mut lbs: Vec<&Value> = m.poss.iter().map(|r| &r.lb).collect();
                lbs.sort();
                lo = lo.max(lbs[q - 1].clone());
            }
            (lo, greatest_ub())
        }
        WinAgg::Avg(_) => (least_lb(), greatest_ub()),
    };

    // The selected-guess component was computed deterministically over the
    // SG world; clamp it into [lb, ub] to uphold the range invariant for
    // rows that do not exist in the SG world (DESIGN.md §3.4).
    let sg = clamp(m.sg.clone(), &lb, &ub);
    RangeValue { lb, sg, ub }
}

/// The aggregate over the window of a row at positions `(lo, hi)` of its
/// partition, its aggregated attribute `own` and selected-guess value `sg`:
/// Fig. 6's interval tests sort the partition's other rows — `(positions,
/// annotation within the partition, attribute)` — into certain and
/// possible members, and Sec. 6.1 bounds the aggregate over them, with
/// `n_cert` rows (this one included) certainly in the partition. The
/// reference and the rewrite (`audb-rewrite`) share it.
pub fn window_value(
    spec: &AuWindowSpec,
    agg: WinAgg,
    (lo, hi): (i64, i64),
    own: RangeValue,
    sg: Value,
    n_cert: u64,
    others: impl IntoIterator<Item = ((i64, i64), Mult3, RangeValue)>,
) -> RangeValue {
    let (l, u) = (spec.lower, spec.upper);
    // Sort positions certainly / possibly covered by the window (Fig. 5).
    let (cert_span, poss_span) = ((hi + l, lo + u), (lo + l, hi + u));
    let mut members = WindowMembers {
        cert: vec![own],
        poss: Vec::new(),
        sg,
        possn: 0,
        guaranteed_extra: 0,
    };
    for ((plo, phi), m, attr) in others {
        if m.is_zero() || phi < poss_span.0 || plo > poss_span.1 {
            continue;
        }
        match m.lb >= 1 && plo >= cert_span.0 && phi <= cert_span.1 {
            true => members.cert.push(attr),
            false => members.poss.push(attr),
        }
    }
    let (cert, possn) = (members.cert.len(), spec.size() as usize);
    members.possn = possn.saturating_sub(cert);
    members.guaranteed_extra =
        guaranteed_extra_slots(l, u, lo as u64, hi as u64, n_cert, cert, members.possn);
    aggregate_window(&members, agg)
}

fn clamp(v: Value, lo: &Value, hi: &Value) -> Value {
    if v.is_null() || &v < lo {
        lo.clone()
    } else if &v > hi {
        hi.clone()
    } else {
        v
    }
}

/// `ω[l,u]_{f(A)→X; G; O}(R)` — reference semantics. Output schema
/// `Sch(R) ∘ (out_name)`; result is normalized.
pub fn window_ref(
    rel: &AuRelation,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
    sem: CmpSemantics,
) -> AuRelation {
    assert_au_frame(spec);
    // Merge identical hypercubes first (see sort_ref), then split into
    // unit-multiplicity rows.
    let exp = rel.normalized().expand();
    let n = exp.rows().len();
    let total_idxs = total_order(exp.schema.arity(), &spec.order);
    let schema = exp.schema.with(out_name);
    let mut out = AuRelation::empty(schema);

    // Partition truth of row j relative to target row ti.
    let part_truth =
        |j: usize, ti: usize| (exp.rows()[j].tuple).eq_on(&exp.rows()[ti].tuple, &spec.partition);

    // Fast path: with no PARTITION BY the filtered multiplicities and hence
    // all position bounds are target-independent.
    let global_pos = if spec.partition.is_empty() {
        Some(all_pos_bounds(&exp, &total_idxs, sem))
    } else {
        None
    };

    // Selected-guess aggregates via the deterministic semantics on the SGW.
    let sg_vals = sg_window_values(&exp, spec, agg);

    for ti in 0..n {
        // Filtered multiplicities within the target's partition.
        let fm: Vec<Mult3> = (0..n)
            .map(|j| exp.rows()[j].mult.filter(part_truth(j, ti)))
            .collect();

        // Position bounds of every row within the partition.
        let pos: Vec<crate::pos::PosBounds> = match &global_pos {
            Some(p) => p.clone(),
            None => {
                let mut part = exp.clone();
                (part.rows_mut().iter_mut().zip(&fm)).for_each(|(row, m)| row.mult = *m);
                all_pos_bounds(&part, &total_idxs, sem)
            }
        };

        // Rows certainly in this partition (incl. the conditional self).
        let n_cert: u64 = (0..n).filter(|&j| j != ti).map(|j| fm[j].lb).sum::<u64>() + 1;
        let at = |j: usize| (pos[j].lb as i64, pos[j].ub as i64);
        let attr = |j: usize| attr_range(agg, &exp.rows()[j].tuple);
        let others = (0..n).filter(|&j| j != ti).map(|j| (at(j), fm[j], attr(j)));
        let x = window_value(
            spec,
            agg,
            at(ti),
            attr(ti),
            sg_vals[ti].clone(),
            n_cert,
            others,
        );
        out.push(exp.rows()[ti].tuple.with(x), exp.rows()[ti].mult);
    }
    out.normalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// Paper Example 7: ω[-1,0] sum(C), partition by A, order by B.
    #[test]
    fn example_7_windowed_aggregation() {
        let rel = AuRelation::from_rows(
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
        );
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let out = window_ref(
            &rel,
            &spec,
            WinAgg::Sum(2),
            "sum_c",
            CmpSemantics::IntervalLex,
        );

        let expected = AuRelation::from_rows(
            Schema::new(["a", "b", "c", "sum_c"]),
            [
                (
                    AuTuple::new([
                        RangeValue::certain(1i64),
                        rv(1, 1, 3),
                        RangeValue::certain(7i64),
                        rv(7, 7, 14),
                    ]),
                    Mult3::new(1, 1, 2), // r1 (×1) and r2 (×(0,0,1)) merge
                ),
                (
                    AuTuple::new([
                        rv(1, 1, 2),
                        RangeValue::certain(2i64),
                        rv(2, 4, 5),
                        rv(2, 11, 12),
                    ]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([
                        rv(2, 3, 3),
                        RangeValue::certain(15i64),
                        RangeValue::certain(4i64),
                        rv(4, 4, 9),
                    ]),
                    Mult3::new(0, 1, 1),
                ),
            ],
        );
        assert!(out.bag_eq(&expected), "got:\n{out}\nexpected:\n{expected}");
    }

    /// On certain input the window bounds collapse to the deterministic
    /// result for every aggregate.
    #[test]
    fn certain_input_matches_deterministic_window() {
        use audb_rel::{window_rows, AggFunc, Relation, Schema as S, WindowSpec};
        let det = Relation::from_values(S::new(["o", "v"]), [[1i64, 5], [2, -3], [3, 8], [4, 1]]);
        let au = AuRelation::certain(&det);
        let cases = [
            (WinAgg::Sum(1), AggFunc::Sum(1)),
            (WinAgg::Count, AggFunc::Count),
            (WinAgg::Min(1), AggFunc::Min(1)),
            (WinAgg::Max(1), AggFunc::Max(1)),
        ];
        for (wa, da) in cases {
            let spec = AuWindowSpec::rows(vec![0], -1, 0);
            let out = window_ref(&au, &spec, wa, "x", CmpSemantics::IntervalLex);
            let dspec = WindowSpec::rows(vec![0], -1, 0);
            let dout = window_rows(&det, &dspec, da, "x");
            for row in out.rows() {
                assert!(row.tuple.get(2).is_certain(), "{wa:?}: {}", row.tuple);
            }
            assert!(out.sg_world().bag_eq(&dout), "{wa:?}:\n{out}\nvs\n{dout}");
        }
    }

    #[test]
    fn possn_caps_possible_contributions() {
        // Window size 1 ([0,0]): self fills the window; possible members
        // must not contribute even when their positions overlap.
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (
                    AuTuple::new([rv(1, 1, 10), RangeValue::certain(100i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(1, 2, 10), RangeValue::certain(50i64)]),
                    Mult3::ONE,
                ),
            ],
        );
        let spec = AuWindowSpec::rows(vec![0], 0, 0);
        let out = window_ref(&rel, &spec, WinAgg::Sum(1), "s", CmpSemantics::IntervalLex);
        for row in out.rows() {
            let x = row.tuple.get(2);
            assert!(x.is_certain(), "window of size 1 is just the tuple: {x}");
        }
    }

    #[test]
    #[should_panic(expected = "current row")]
    fn window_must_contain_current_row() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [(AuTuple::new([rv(1, 1, 1), rv(2, 2, 2)]), Mult3::ONE)],
        );
        let spec = AuWindowSpec::rows(vec![0], 1, 2);
        window_ref(&rel, &spec, WinAgg::Sum(1), "s", CmpSemantics::IntervalLex);
    }
}
