//! SQL-rewrite implementation of the AU-DB sort operator (paper Fig. 7).
//!
//! The rewrite materializes, per input tuple, three *endpoint* rows over the
//! relational encoding — the lower-bound corner (`isend = 0`, a *start*
//! tuple), the selected-guess point (`isend = −1`) and the upper-bound
//! corner (`isend = 1`, an *end* tuple) — unions them (`Q_lower ∪ Q_sg ∪
//! Q_upper`), and obtains position bounds with running sums over the
//! endpoint order (`Q_bounds`): a start tuple's running total of end-tuple
//! certain multiplicities strictly before it is Equation (1); an end
//! tuple's running total of start-tuple possible multiplicities strictly
//! before it is Equation (3) (minus the tuple's own multiplicity when its
//! own start lies strictly earlier). A final group-by merges the endpoint
//! rows back per tuple (`e_pos`).
//!
//! The endpoint union is built with `audb-rel` operators exactly as Fig. 7
//! writes it; the running sums are evaluated by a sort + merge scan (what a
//! DBMS would do for the `ω[−∞,0]` window), with *strict* predecessor
//! semantics at key ties so the result is identical to the Def. 2
//! reference and to the native algorithm (property-tested).

use audb_core::encode::{encode, lb_col, mult_cols, sg_col, ub_col};
use audb_core::{AuRelation, Mult3, RangeValue};
use audb_rel::ops::project::project;
use audb_rel::ops::sort::total_order;
use audb_rel::{union, Expr, Relation, Tuple};

/// Position bounds per input row, as computed by the endpoint scan.
pub(crate) struct EndpointPositions {
    pub lb: Vec<u64>,
    pub sg: Vec<u64>,
    pub ub: Vec<u64>,
}

/// Compute Equations (1)–(3) for every row by merging sorted endpoint
/// streams. `keys_*[i]` are the corner keys projected on the total order;
/// `mults[i]` the (possibly partition-filtered) multiplicity triples.
pub(crate) fn positions_by_endpoints(
    keys_lb: &[Tuple],
    keys_sg: &[Tuple],
    keys_ub: &[Tuple],
    mults: &[Mult3],
) -> EndpointPositions {
    let n = mults.len();
    let mut pos = EndpointPositions {
        lb: vec![0; n],
        sg: vec![0; n],
        ub: vec![0; n],
    };

    // τ_sg: strict prefix sums over groups of equal sg keys.
    let mut by_sg: Vec<usize> = (0..n).collect();
    by_sg.sort_by(|&a, &b| keys_sg[a].cmp(&keys_sg[b]));
    let mut cum = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        let mut group = 0u64;
        while j < n && keys_sg[by_sg[j]] == keys_sg[by_sg[i]] {
            pos.sg[by_sg[j]] = cum;
            group += mults[by_sg[j]].sg;
            j += 1;
        }
        cum += group;
        i = j;
    }

    // τ↓ and τ↑: merge the start (lb-corner) and end (ub-corner) streams.
    // Endpoint = (key index into keys, is_end, row): sorted by key with all
    // endpoints at an equal key processed as one group so that ties never
    // count as strict predecessors.
    let mut endpoints: Vec<(bool, usize)> = Vec::with_capacity(2 * n);
    endpoints.extend((0..n).map(|r| (false, r)));
    endpoints.extend((0..n).map(|r| (true, r)));
    let key_of = |e: &(bool, usize)| -> &Tuple {
        if e.0 {
            &keys_ub[e.1]
        } else {
            &keys_lb[e.1]
        }
    };
    endpoints.sort_by(|a, b| key_of(a).cmp(key_of(b)));

    let mut cum_end_lb = 0u64; // Σ k↓ over end tuples strictly before
    let mut cum_start_ub = 0u64; // Σ k↑ over start tuples strictly before
    let mut i = 0;
    while i < endpoints.len() {
        let mut j = i;
        while j < endpoints.len() && key_of(&endpoints[j]) == key_of(&endpoints[i]) {
            j += 1;
        }
        let group = &endpoints[i..j];
        // Rows with no range on the total order start and end here, and
        // those are the copies of one hypercube (an expanded relation's):
        // with no order between them, each possibly precedes every other.
        let points: u64 = (group.iter())
            .filter(|&&(is_end, r)| !is_end && keys_lb[r] == keys_ub[r])
            .map(|&(_, r)| mults[r].ub)
            .sum();
        let (mut group_end_lb, mut group_start_ub) = (0u64, 0u64);
        for &(is_end, r) in group {
            if is_end {
                // Equation (3): possible predecessors are start corners
                // strictly before this end corner, and a point row's
                // copies; the row's own start is excluded (Def. 2 sums
                // over t' ≠ t).
                let before = cum_start_ub + if keys_lb[r] == keys_ub[r] { points } else { 0 };
                pos.ub[r] = before - mults[r].ub;
                group_end_lb += mults[r].lb;
            } else {
                // Equation (1): certain predecessors are end corners
                // strictly before this start corner.
                pos.lb[r] = cum_end_lb;
                group_start_ub += mults[r].ub;
            }
        }
        cum_end_lb += group_end_lb;
        cum_start_ub += group_start_ub;
        i = j;
    }
    pos
}

/// Build the Fig. 7 endpoint union `Q_lower ∪ Q_sg ∪ Q_upper` over the
/// relational encoding, with a provenance `__id` column standing in for
/// `ROW_NUMBER()`. Returned for fidelity/testing; [`rewr_sort`] evaluates
/// its running sums with the merge scan above.
pub fn endpoint_union(rel: &AuRelation, order: &[usize]) -> Relation {
    let total_idxs = total_order(rel.schema.arity(), order);
    let flat = encode(rel);
    // Append __id.
    let mut with_id = Relation::empty(flat.schema.with("__id"));
    for (i, row) in flat.rows.iter().enumerate() {
        with_id.push(row.tuple.with(audb_rel::Value::Int(i as i64)), row.mult);
    }
    let id_col = with_id.schema.arity() - 1;
    let (ml, ms, mu) = mult_cols(rel.schema.arity());

    let mk = |isend: i64, col_of: &dyn Fn(usize) -> usize| -> Relation {
        let mut exprs: Vec<(Expr, &str)> =
            vec![(Expr::col(id_col), "__id"), (Expr::lit(isend), "isend")];
        let names: Vec<String> = (0..total_idxs.len()).map(|i| format!("k{i}")).collect();
        for (i, &c) in total_idxs.iter().enumerate() {
            exprs.push((Expr::col(col_of(c)), &names[i]));
        }
        exprs.push((Expr::col(ml), "m_lb"));
        exprs.push((Expr::col(ms), "m_sg"));
        exprs.push((Expr::col(mu), "m_ub"));
        project(&with_id, &exprs)
    };
    let q_lower = mk(0, &lb_col);
    let q_sg = mk(-1, &sg_col);
    let q_upper = mk(1, &ub_col);
    union(&union(&q_lower, &q_sg), &q_upper)
}

/// `rewr(sort_{O→τ}(R))`: the Fig. 7 rewrite. Produces the same output as
/// [`audb_core::sort_ref`] / `audb_native::sort_native`.
///
/// The dataflow is executed as a DBMS would: the endpoint union is
/// *materialized* through the relational engine (`encode` + three
/// projections + two unions), and the running sums are evaluated by a
/// sort-and-merge scan over that materialized relation — this is where `Rewr`'s
/// constant-factor overhead over the native algorithm comes from (Fig. 11).
pub fn rewr_sort(rel: &AuRelation, order: &[usize], pos_name: &str) -> AuRelation {
    let rel = rel.normalized();
    let rel: &AuRelation = &rel;
    let total_idxs = total_order(rel.schema.arity(), order);
    let n = rel.rows().len();
    let m = total_idxs.len();

    // Q_lower ∪ Q_sg ∪ Q_upper, materialized (schema:
    // [__id, isend, k0..k{m-1}, m_lb, m_sg, m_ub]).
    let endpoints_rel = endpoint_union(rel, order);

    // Parse the three endpoint streams back out of the materialized union
    // (the engine's rows are the source of truth from here on).
    let mut keys_lb: Vec<Tuple> = vec![Tuple(Vec::new()); n];
    let mut keys_sg: Vec<Tuple> = vec![Tuple(Vec::new()); n];
    let mut keys_ub: Vec<Tuple> = vec![Tuple(Vec::new()); n];
    let mut mults: Vec<Mult3> = vec![Mult3::ZERO; n];
    let key_cols: Vec<usize> = (2..2 + m).collect();
    for row in &endpoints_rel.rows {
        let id = row.tuple.get(0).as_i64().expect("__id") as usize;
        let isend = row.tuple.get(1).as_i64().expect("isend");
        let key = row.tuple.project(&key_cols);
        match isend {
            0 => keys_lb[id] = key,
            -1 => keys_sg[id] = key,
            _ => keys_ub[id] = key,
        }
        mults[id] = Mult3::new(
            row.tuple.get(2 + m).as_i64().unwrap() as u64,
            row.tuple.get(3 + m).as_i64().unwrap() as u64,
            row.tuple.get(4 + m).as_i64().unwrap() as u64,
        );
    }

    let pos = positions_by_endpoints(&keys_lb, &keys_sg, &keys_ub, &mults);

    // Merge the bounds back per tuple and split duplicates (Def. 2).
    let mut out = AuRelation::empty(rel.schema.with(pos_name));
    for r in 0..n {
        let row = &rel.rows()[r];
        for i in 0..row.mult.ub {
            let p = RangeValue::from_i64s(
                (pos.lb[r] + i) as i64,
                (pos.sg[r] + i) as i64,
                (pos.ub[r] + i) as i64,
            );
            let mult = if i < row.mult.lb {
                Mult3::ONE
            } else if i < row.mult.sg {
                Mult3::new(0, 1, 1)
            } else {
                Mult3::new(0, 0, 1)
            };
            out.push(row.tuple.with(p), mult);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{sort_ref, AuTuple, CmpSemantics};
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
                    Mult3::ONE,
                ),
            ],
        )
    }

    #[test]
    fn rewrite_sort_matches_reference() {
        let got = rewr_sort(&example6(), &[0, 1], "pos");
        let want = sort_ref(&example6(), &[0, 1], "pos", CmpSemantics::IntervalLex);
        assert!(got.bag_eq(&want), "got:\n{got}\nwant:\n{want}");
    }

    #[test]
    fn endpoint_union_shape() {
        let q = endpoint_union(&example6(), &[0, 1]);
        // 3 rows × 3 endpoint kinds.
        assert_eq!(q.rows.len(), 9);
        assert_eq!(q.schema.cols()[0], "__id");
        assert_eq!(q.schema.cols()[1], "isend");
    }

    #[test]
    fn certain_input_reduces_to_deterministic() {
        use audb_rel::Relation;
        let det = Relation::from_values(Schema::new(["a"]), [[4i64], [2], [9], [2]]);
        let au = AuRelation::certain(&det);
        let got = rewr_sort(&au, &[0], "pos");
        let want = sort_ref(&au, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(got.bag_eq(&want));
    }
}
