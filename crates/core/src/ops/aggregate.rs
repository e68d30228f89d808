//! Grouping aggregation over AU-DBs on point selected-guess keys: a row
//! whose group attributes are points is a member of its own group, one
//! with a ranged attribute a possible member of every key its ranges
//! contain. DESIGN.md §3.6 has the semantics, how the bounds fold and
//! what point keys leave out.

use crate::mult::Mult3;
use crate::ops::window::{attr_range, WinAgg};
use crate::range_value::RangeValue;
use crate::relation::AuRelation;
use crate::tuple::AuTuple;
use audb_rel::{Schema, Tuple, Value};
use std::collections::HashMap;

/// `γ_{group; aggs}(rel)`: group on the sg-keys of `group`, computing each
/// aggregate with bounds as described in the module docs.
pub fn aggregate(rel: &AuRelation, group: &[usize], aggs: &[(WinAgg, &str)]) -> AuRelation {
    let mut schema_cols: Vec<String> = group
        .iter()
        .map(|&i| rel.schema.cols()[i].clone())
        .collect();
    schema_cols.extend(aggs.iter().map(|(_, n)| n.to_string()));
    let schema = Schema::new(schema_cols);

    // Distinct sg group keys, in first-seen order, and each live row's own.
    let mut order: Vec<Tuple> = Vec::new();
    let mut index: HashMap<Tuple, usize> = HashMap::new();
    let live: Vec<(&AuTuple, Mult3, usize)> = (rel.rows().iter())
        .filter(|row| !row.mult.is_zero())
        .map(|row| {
            let key = row.tuple.sg_tuple().project(group);
            let own = *index.entry(key).or_insert_with_key(|key| {
                order.push(key.clone());
                order.len() - 1
            });
            (&row.tuple, row.mult, own)
        })
        .collect();

    // Route every row to its groups in one pass, so each group keeps its
    // members in row order. A row whose group attributes are all points
    // can only match its own key (`Value`'s `Eq` is its order's); a row
    // with a ranged one is possibly a member of every key inside its
    // ranges, and certainly a member of none.
    let mut groups: Vec<Members> = order.iter().map(|_| Members::default()).collect();
    for &(t, mult, own) in &live {
        let mut join = |i: usize, certainly: bool| {
            let g = &mut groups[i];
            if certainly && mult.lb > 0 {
                g.cert.push((t, mult));
            } else {
                g.poss.push((t, mult));
            }
            if mult.sg > 0 && i == own {
                g.sg.push((t, mult.sg));
            }
        };
        if group.iter().all(|&g| t.get(g).is_certain()) {
            join(own, true);
            continue;
        }
        for (i, key) in order.iter().enumerate() {
            if group.iter().zip(&key.0).all(|(&g, k)| t.get(g).bounds(k)) {
                join(i, false);
            }
        }
    }

    let mut out = AuRelation::empty(schema);
    for (key, g) in order.into_iter().zip(groups) {
        let mult = Mult3 {
            lb: u64::from(!g.cert.is_empty()),
            sg: u64::from(!g.sg.is_empty()),
            ub: 1,
        };
        let mut vals: Vec<RangeValue> = key.0.into_iter().map(RangeValue::certain).collect();
        for (agg, _) in aggs {
            vals.push(agg_bounds(*agg, &g.cert, &g.poss, &g.sg));
        }
        out.push(AuTuple::new(vals), mult);
    }
    out
}

/// One group's members, in row order: certain ones, possible ones, and
/// those of the selected-guess world with their sg multiplicity.
#[derive(Default)]
struct Members<'a> {
    cert: Vec<(&'a AuTuple, Mult3)>,
    poss: Vec<(&'a AuTuple, Mult3)>,
    sg: Vec<(&'a AuTuple, u64)>,
}

fn corner_range(attr: &RangeValue, m: Mult3) -> (Value, Value) {
    let corners = [
        attr.lb.scale(m.lb),
        attr.lb.scale(m.ub),
        attr.ub.scale(m.lb),
        attr.ub.scale(m.ub),
    ];
    (
        corners.iter().min().unwrap().clone(),
        corners.iter().max().unwrap().clone(),
    )
}

fn agg_bounds(
    agg: WinAgg,
    cert: &[(&AuTuple, Mult3)],
    poss: &[(&AuTuple, Mult3)],
    sg: &[(&AuTuple, u64)],
) -> RangeValue {
    let attr_of = |t: &AuTuple| attr_range(agg, t);
    // The extremes over every member, certain or possible.
    let members = || cert.iter().chain(poss);
    let least_lb = || {
        members()
            .map(|(t, _)| attr_of(t).lb)
            .min()
            .unwrap_or(Value::Null)
    };
    let greatest_ub = || {
        members()
            .map(|(t, _)| attr_of(t).ub)
            .max()
            .unwrap_or(Value::Null)
    };
    let (lb, ub) = match agg {
        WinAgg::Count => {
            let lo: u64 = cert.iter().map(|(_, m)| m.lb).sum();
            let hi: u64 = members().map(|(_, m)| m.ub).sum();
            (Value::Int(lo as i64), Value::Int(hi as i64))
        }
        WinAgg::Sum(_) => {
            let mut lo = Value::Int(0);
            let mut hi = Value::Int(0);
            for (t, m) in cert {
                let (clo, chi) = corner_range(&attr_of(t), *m);
                lo = lo.add(&clo);
                hi = hi.add(&chi);
            }
            for (t, m) in poss {
                // A possible member may be absent entirely.
                let absent = Mult3::new(0, 0, m.ub);
                let (clo, chi) = corner_range(&attr_of(t), absent);
                lo = lo.add(&clo.min(Value::Int(0)));
                hi = hi.add(&chi.max(Value::Int(0)));
            }
            (lo, hi)
        }
        // With no certain member the min can be as large as the largest
        // possible member (a world where only it is present), and the
        // max as small as the smallest.
        WinAgg::Min(_) => {
            let cert_ub = cert.iter().map(|(t, _)| attr_of(t).ub).min();
            (least_lb(), cert_ub.unwrap_or_else(greatest_ub))
        }
        WinAgg::Max(_) => {
            let cert_lb = cert.iter().map(|(t, _)| attr_of(t).lb).max();
            (cert_lb.unwrap_or_else(least_lb), greatest_ub())
        }
        WinAgg::Avg(_) => (least_lb(), greatest_ub()),
    };

    // Selected-guess value from the SG world members.
    let sg_raw = match agg {
        WinAgg::Count => Value::Int(sg.iter().map(|(_, m)| *m as i64).sum()),
        WinAgg::Sum(_) => sg.iter().fold(Value::Int(0), |acc, (t, m)| {
            acc.add(&attr_of(t).sg.scale(*m))
        }),
        WinAgg::Min(_) => sg
            .iter()
            .map(|(t, _)| attr_of(t).sg)
            .min()
            .unwrap_or(Value::Null),
        WinAgg::Max(_) => sg
            .iter()
            .map(|(t, _)| attr_of(t).sg)
            .max()
            .unwrap_or(Value::Null),
        WinAgg::Avg(_) => {
            let n: u64 = sg.iter().map(|(_, m)| *m).sum();
            if n == 0 {
                Value::Null
            } else {
                sg.iter()
                    .fold(Value::Int(0), |acc, (t, m)| {
                        acc.add(&attr_of(t).sg.scale(*m))
                    })
                    .div(&Value::Int(n as i64))
            }
        }
    };
    let sg_val = if sg_raw.is_null() || sg_raw < lb {
        lb.clone()
    } else if sg_raw > ub {
        ub.clone()
    } else {
        sg_raw
    };
    RangeValue { lb, sg: sg_val, ub }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// The grouping as it was first written, one scan of every row per
    /// distinct key: the oracle [`aggregate`]'s one routing pass must equal
    /// bit for bit.
    fn aggregate_by_key_scan(
        rel: &AuRelation,
        group: &[usize],
        aggs: &[(WinAgg, &str)],
    ) -> AuRelation {
        let mut schema_cols: Vec<String> = group
            .iter()
            .map(|&i| rel.schema.cols()[i].clone())
            .collect();
        schema_cols.extend(aggs.iter().map(|(_, n)| n.to_string()));
        let mut order: Vec<Tuple> = Vec::new();
        for row in rel.rows() {
            let key = row.tuple.sg_tuple().project(group);
            if !row.mult.is_zero() && !order.contains(&key) {
                order.push(key);
            }
        }
        let mut out = AuRelation::empty(Schema::new(schema_cols));
        for key in order {
            let mut cert: Vec<(&AuTuple, Mult3)> = Vec::new();
            let mut poss: Vec<(&AuTuple, Mult3)> = Vec::new();
            let mut sg: Vec<(&AuTuple, u64)> = Vec::new();
            for row in rel.rows() {
                if row.mult.is_zero() {
                    continue;
                }
                let mut certainly = true;
                let mut possibly = true;
                for (gi, &g) in group.iter().enumerate() {
                    let r = row.tuple.get(g);
                    let k = &key.0[gi];
                    certainly &= r.is_certain() && &r.sg == k;
                    possibly &= &r.lb <= k && k <= &r.ub;
                }
                if !possibly {
                    continue;
                }
                if certainly && row.mult.lb > 0 {
                    cert.push((&row.tuple, row.mult));
                } else {
                    poss.push((&row.tuple, row.mult));
                }
                if row.mult.sg > 0 && row.tuple.sg_tuple().project(group) == key {
                    sg.push((&row.tuple, row.mult.sg));
                }
            }
            let mult = Mult3 {
                lb: u64::from(!cert.is_empty()),
                sg: u64::from(!sg.is_empty()),
                ub: 1,
            };
            let mut vals: Vec<RangeValue> =
                key.0.iter().cloned().map(RangeValue::certain).collect();
            for (agg, _) in aggs {
                vals.push(agg_bounds(*agg, &cert, &poss, &sg));
            }
            out.push(AuTuple::new(vals), mult);
        }
        out
    }

    /// The one-pass grouping equals the per-key scan, row for row and bit
    /// for bit (float sums fold their members in the same order), on
    /// random tables with certain and ranged keys of one and two
    /// attributes, `Int` keys beside equal `Float` ones, duplicate rows,
    /// rows that exist only possibly (`mult.lb = 0`), only outside the
    /// selected guess (`mult.sg = 0`) or not at all (zero multiplicity).
    #[test]
    fn one_pass_grouping_equals_the_per_key_scan() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let aggs = [
            (WinAgg::Count, "c"),
            (WinAgg::Sum(2), "s"),
            (WinAgg::Min(2), "lo"),
            (WinAgg::Max(2), "hi"),
            (WinAgg::Avg(2), "avg"),
        ];
        for case in 0..300 {
            let n = next(24) as usize;
            let mut rows: Vec<(AuTuple, Mult3)> = Vec::with_capacity(n + 2);
            for _ in 0..n {
                let key = |next: &mut dyn FnMut(u64) -> u64| {
                    let sg = next(6) as i64;
                    if next(3) == 0 {
                        let (d, u) = (next(3) as i64, next(3) as i64);
                        RangeValue::new(sg - d, sg, sg + u)
                    } else if next(4) == 0 {
                        RangeValue::certain(Value::Float(sg as f64))
                    } else {
                        RangeValue::certain(sg)
                    }
                };
                let g0 = key(&mut next);
                let g1 = key(&mut next);
                let v = match next(3) {
                    0 => RangeValue::certain(next(9) as i64 - 4),
                    1 => {
                        let sg = next(9) as f64 / 3.0 - 1.1;
                        RangeValue::new(sg - 0.7, sg, sg + 0.1)
                    }
                    _ => rv(-3, next(3) as i64 - 1, 2),
                };
                let mult = match next(6) {
                    0 => Mult3::new(0, 0, 0),
                    1 => Mult3::new(0, 1, 1),
                    2 => Mult3::new(0, 0, 2),
                    3 => Mult3::new(1, 2, 3),
                    _ => Mult3::ONE,
                };
                rows.push((AuTuple::new([g0, g1, v]), mult));
            }
            if n > 1 {
                let dup = rows[next(n as u64) as usize].clone();
                rows.push(dup);
            }
            let rel = AuRelation::from_rows(Schema::new(["g0", "g1", "v"]), rows);
            for group in [&[0][..], &[1, 0]] {
                let got = aggregate(&rel, group, &aggs);
                let want = aggregate_by_key_scan(&rel, group, &aggs);
                assert_eq!(
                    format!("{:?}", got.rows()),
                    format!("{:?}", want.rows()),
                    "case {case}, group {group:?}:\n{rel}"
                );
            }
        }
    }

    #[test]
    fn certain_input_matches_deterministic_aggregate() {
        use audb_rel::{aggregate as det_agg, AggFunc, Relation, Schema as S};
        let det = Relation::from_values(S::new(["g", "v"]), [[1i64, 10], [1, 5], [2, 7]]);
        let au = AuRelation::certain(&det);
        let out = aggregate(&au, &[0], &[(WinAgg::Sum(1), "s"), (WinAgg::Count, "c")]);
        let dout = det_agg(&det, &[0], &[(AggFunc::Sum(1), "s"), (AggFunc::Count, "c")]);
        assert!(out.sg_world().bag_eq(&dout), "{out}\nvs\n{dout}");
        for row in out.rows() {
            assert!(row.tuple.is_certain());
            assert_eq!(row.mult, Mult3::ONE);
        }
    }

    #[test]
    fn uncertain_group_membership_widens_bounds() {
        // Row with group range [1..2] possibly joins both groups.
        let rel = AuRelation::from_rows(
            Schema::new(["g", "v"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), RangeValue::certain(10i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([RangeValue::certain(2i64), RangeValue::certain(20i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(5i64)]),
                    Mult3::ONE,
                ),
            ],
        );
        let out = aggregate(&rel, &[0], &[(WinAgg::Sum(1), "s")]).normalize();
        assert_eq!(out.rows().len(), 2);
        // Group 1: certain 10, possible +5 → sum ∈ [10, 15], sg = 15.
        let g1 = out
            .rows()
            .iter()
            .find(|r| r.tuple.get(0).sg == Value::Int(1))
            .unwrap();
        assert_eq!(g1.tuple.get(1), &rv(10, 15, 15));
        // Group 2: certain 20, possible +5 → [20, 25], sg = 20.
        let g2 = out
            .rows()
            .iter()
            .find(|r| r.tuple.get(0).sg == Value::Int(2))
            .unwrap();
        assert_eq!(g2.tuple.get(1), &rv(20, 20, 25));
    }

    #[test]
    fn count_bounds_respect_tuple_multiplicity_ranges() {
        let rel = AuRelation::from_rows(
            Schema::new(["g"]),
            [(
                AuTuple::new([RangeValue::certain(1i64)]),
                Mult3::new(1, 2, 4),
            )],
        );
        let out = aggregate(&rel, &[0], &[(WinAgg::Count, "c")]);
        assert_eq!(out.rows()[0].tuple.get(1), &rv(1, 2, 4));
    }

    #[test]
    fn min_with_only_possible_members() {
        let rel = AuRelation::from_rows(
            Schema::new(["g", "v"]),
            [(
                AuTuple::new([rv(1, 1, 2), RangeValue::certain(5i64)]),
                Mult3::ONE,
            )],
        );
        let out = aggregate(&rel, &[0], &[(WinAgg::Min(1), "m")]);
        // Group key 1 exists in sg world; the single member is uncertain in
        // membership (range [1,2]) but the sg world has it → [5,5,5].
        assert_eq!(out.rows()[0].tuple.get(1), &rv(5, 5, 5));
        assert_eq!(out.rows()[0].mult, Mult3::new(0, 1, 1));
    }
}
