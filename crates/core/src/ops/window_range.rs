//! Range-based windowed aggregation over AU-DBs.
//!
//! The paper restricts its exposition to row-based windows, noting that
//! "range-based windows are strictly simpler" (Sec. 4.1). They are: window
//! membership depends on *value distance*, not on sort positions, so there
//! is no `possn` cap (any number of tuples may fall within a value range)
//! and no position machinery at all. For a tuple `t` with order value `o`:
//!
//! * `t'` is **certainly** in `t`'s window iff it certainly exists, is
//!   certainly in the partition, and its entire order range lies within
//!   `[o↑ + l, o↓ + u]` (covered for every realization of both tuples);
//! * `t'` is **possibly** in the window iff its order range intersects
//!   `[o↓ + l, o↑ + u]`.
//!
//! Certain members always contribute; possible members contribute to the
//! lower bound only when they can lower it (negative lower bounds for
//! `sum`) and to the upper bound only when they can raise it. The
//! selected-guess component reuses the deterministic range operator via a
//! provenance pass, like the row-based implementation.

use crate::ops::window::WinAgg;
use crate::range_value::{RangeValue, TruthRange};
use crate::relation::AuRelation;
use audb_rel::ops::window_range::{window_range as det_window_range, RangeWindowSpec};
use audb_rel::{Relation, Schema, Tuple, Value};

/// A range window over AU-DBs: single integer order attribute, value
/// offsets `[l, u]` with `l ≤ 0 ≤ u` (self-containing, as for row windows).
#[derive(Clone, Debug)]
pub struct AuRangeWindowSpec {
    /// Partition-by attribute indices.
    pub partition: Vec<usize>,
    /// The numeric order attribute.
    pub order: usize,
    /// Window start value offset (`≤ 0`).
    pub lower: i64,
    /// Window end value offset (`≥ 0`).
    pub upper: i64,
}

impl AuRangeWindowSpec {
    /// `RANGE BETWEEN -l PRECEDING AND u FOLLOWING`.
    pub fn new(order: usize, lower: i64, upper: i64) -> Self {
        assert!(
            lower <= 0 && upper >= 0,
            "AU-DB range windows must contain the current row"
        );
        AuRangeWindowSpec {
            partition: Vec::new(),
            order,
            lower,
            upper,
        }
    }

    /// Add a PARTITION BY clause.
    pub fn partition_by(mut self, partition: Vec<usize>) -> Self {
        self.partition = partition;
        self
    }
}

/// `ω^range[l,u]_{f(A)→X; G; o}(R)` with bound-preserving semantics.
pub fn window_range_ref(
    rel: &AuRelation,
    spec: &AuRangeWindowSpec,
    agg: WinAgg,
    out_name: &str,
) -> AuRelation {
    let exp = rel.normalized().expand();
    let n = exp.rows().len();
    let mut out = AuRelation::empty(exp.schema.with(out_name));
    if n == 0 {
        return out;
    }
    let sg_vals = sg_range_values(&exp, spec, agg);

    let attr_of = |j: usize| -> RangeValue {
        match agg.input_col() {
            Some(c) => exp.rows()[j].tuple.get(c).clone(),
            None => RangeValue::certain(1i64),
        }
    };
    let order_bounds = |j: usize| -> (i64, i64) {
        let r = exp.rows()[j].tuple.get(spec.order);
        (
            r.lb.as_i64().expect("integer order attribute"),
            r.ub.as_i64().expect("integer order attribute"),
        )
    };

    for ti in 0..n {
        let (olo, ohi) = order_bounds(ti);
        let cert_span = (ohi + spec.lower, olo + spec.upper);
        let poss_span = (olo + spec.lower, ohi + spec.upper);
        let mut lo_acc = Vec::new(); // certain members' attr ranges (incl. self)
        let mut poss = Vec::new();
        lo_acc.push(attr_of(ti));
        for j in 0..n {
            if j == ti {
                continue;
            }
            let part = spec.partition.iter().fold(TruthRange::TRUE, |acc, &g| {
                acc.and(
                    exp.rows()[j]
                        .tuple
                        .get(g)
                        .eq_range(exp.rows()[ti].tuple.get(g)),
                )
            });
            let fm = exp.rows()[j].mult.filter(part);
            if fm.is_zero() {
                continue;
            }
            let (jlo, jhi) = order_bounds(j);
            if fm.lb >= 1 && jlo >= cert_span.0 && jhi <= cert_span.1 {
                lo_acc.push(attr_of(j));
            } else if jhi >= poss_span.0 && jlo <= poss_span.1 {
                poss.push(attr_of(j));
            }
        }

        let (xlo, xhi) = match agg {
            WinAgg::Sum(_) | WinAgg::Count => {
                let mut lo = Value::Int(0);
                let mut hi = Value::Int(0);
                for r in &lo_acc {
                    lo = lo.add(&r.lb);
                    hi = hi.add(&r.ub);
                }
                // No window-size cap: every harmful / helpful possible
                // member may be present simultaneously.
                for r in &poss {
                    if r.lb < Value::Int(0) {
                        lo = lo.add(&r.lb);
                    }
                    if r.ub > Value::Int(0) {
                        hi = hi.add(&r.ub);
                    }
                }
                (lo, hi)
            }
            WinAgg::Min(_) => {
                let hi = lo_acc.iter().map(|r| &r.ub).min().unwrap().clone();
                let lo = lo_acc
                    .iter()
                    .chain(poss.iter())
                    .map(|r| &r.lb)
                    .min()
                    .unwrap()
                    .clone();
                (lo, hi)
            }
            WinAgg::Max(_) => {
                let lo = lo_acc.iter().map(|r| &r.lb).max().unwrap().clone();
                let hi = lo_acc
                    .iter()
                    .chain(poss.iter())
                    .map(|r| &r.ub)
                    .max()
                    .unwrap()
                    .clone();
                (lo, hi)
            }
            WinAgg::Avg(_) => {
                let lo = lo_acc
                    .iter()
                    .chain(poss.iter())
                    .map(|r| &r.lb)
                    .min()
                    .unwrap()
                    .clone();
                let hi = lo_acc
                    .iter()
                    .chain(poss.iter())
                    .map(|r| &r.ub)
                    .max()
                    .unwrap()
                    .clone();
                (lo, hi)
            }
        };
        let sg = {
            let raw = sg_vals[ti].clone();
            if raw.is_null() || raw < xlo {
                xlo.clone()
            } else if raw > xhi {
                xhi.clone()
            } else {
                raw
            }
        };
        out.push(
            exp.rows()[ti].tuple.with(RangeValue {
                lb: xlo,
                sg,
                ub: xhi,
            }),
            exp.rows()[ti].mult,
        );
    }
    out.normalize()
}

/// Selected-guess values via the deterministic range-window operator with
/// content tie-breaking (range windows have no order ties to break — equal
/// order values share the window — so a plain id column suffices).
fn sg_range_values(exp: &AuRelation, spec: &AuRangeWindowSpec, agg: WinAgg) -> Vec<Value> {
    let n = exp.rows().len();
    let mut det_rows: Vec<(Tuple, u64)> = Vec::new();
    for (i, row) in exp.rows().iter().enumerate() {
        if row.mult.sg > 0 {
            det_rows.push((row.tuple.sg_tuple().with(Value::Int(i as i64)), 1));
        }
    }
    let mut cols: Vec<String> = exp.schema.cols().to_vec();
    cols.push("__id".into());
    let det = Relation::from_rows(Schema::new(cols), det_rows);
    let dspec = RangeWindowSpec {
        partition: spec.partition.clone(),
        order: spec.order,
        lower: spec.lower,
        upper: spec.upper,
    };
    let dagg = agg.det();
    let dout = det_window_range(&det, &dspec, dagg, "__x");
    let id_col = exp.schema.arity();
    let xcol = dout.schema.arity() - 1;
    let mut vals: Vec<Option<Value>> = vec![None; n];
    for row in &dout.rows {
        let id = row.tuple.get(id_col).as_i64().expect("id") as usize;
        vals[id] = Some(row.tuple.get(xcol).clone());
    }
    (0..n)
        .map(|i| match &vals[i] {
            Some(v) => v.clone(),
            None => match agg.input_col() {
                Some(c) => exp.rows()[i].tuple.get(c).sg.clone(),
                None => Value::Int(1),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::tuple::AuTuple;
    use audb_rel::AggFunc;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    #[test]
    fn certain_input_matches_deterministic() {
        use audb_rel::Relation as R;
        let det = R::from_values(Schema::new(["o", "v"]), [[1i64, 10], [3, 30], [4, 40]]);
        let au = AuRelation::certain(&det);
        let spec = AuRangeWindowSpec::new(0, -1, 1);
        let out = window_range_ref(&au, &spec, WinAgg::Sum(1), "s");
        let dout = det_window_range(&det, &RangeWindowSpec::new(0, -1, 1), AggFunc::Sum(1), "s");
        assert!(out.sg_world().bag_eq(&dout), "{out}\nvs\n{dout}");
        for row in out.rows() {
            assert!(row.tuple.get(2).is_certain());
        }
    }

    #[test]
    fn uncertain_order_values_widen_membership() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::from([rv(0, 0, 0), rv(5, 5, 5)]), Mult3::ONE),
                // Possibly within distance 1 of o=0, possibly far away.
                (AuTuple::from([rv(1, 4, 9), rv(7, 7, 7)]), Mult3::ONE),
            ],
        );
        let spec = AuRangeWindowSpec::new(0, -1, 1);
        let out = window_range_ref(&rel, &spec, WinAgg::Sum(1), "s");
        let first = out
            .rows()
            .iter()
            .find(|r| r.tuple.get(0) == &rv(0, 0, 0))
            .unwrap();
        // Lower bound: just self (the neighbour may be far); upper: both.
        assert_eq!(first.tuple.get(2), &rv(5, 5, 12), "{out}");
    }

    #[test]
    fn no_window_size_cap() {
        // Five tuples all possibly within reach: unlike a row window of
        // size 2, ALL of them can contribute to the upper bound at once.
        let rows: Vec<_> = (0..5)
            .map(|i| (AuTuple::from([rv(0, i, 10), rv(1, 1, 1)]), Mult3::ONE))
            .collect();
        let rel = AuRelation::from_rows(Schema::new(["o", "v"]), rows);
        let spec = AuRangeWindowSpec::new(0, 0, 0);
        let out = window_range_ref(&rel, &spec, WinAgg::Sum(1), "s");
        for row in out.rows() {
            assert_eq!(row.tuple.get(2).ub, Value::Int(5), "{out}");
        }
    }

    /// Bound preservation against exhaustive worlds.
    #[test]
    fn bound_preservation_smoke() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::from([rv(0, 1, 2), rv(3, 3, 3)]), Mult3::ONE),
                (
                    AuTuple::from([rv(2, 2, 2), rv(-1, -1, 4)]),
                    Mult3::new(0, 1, 1),
                ),
                (AuTuple::from([rv(4, 4, 5), rv(2, 2, 2)]), Mult3::ONE),
            ],
        );
        let spec = AuRangeWindowSpec::new(0, -2, 0);
        let out = window_range_ref(&rel, &spec, WinAgg::Sum(1), "s");
        // Enumerate a grid of worlds within the ranges.
        for o0 in 0..=2i64 {
            for v1 in [-1i64, 4] {
                for o2 in 4..=5i64 {
                    for present1 in [true, false] {
                        let mut rows = vec![(Tuple::from([o0, 3i64]), 1)];
                        if present1 {
                            rows.push((Tuple::from([2i64, v1]), 1));
                        }
                        rows.push((Tuple::from([o2, 2i64]), 1));
                        let world = audb_rel::Relation::from_rows(Schema::new(["o", "v"]), rows);
                        let det = det_window_range(
                            &world,
                            &RangeWindowSpec::new(0, -2, 0),
                            AggFunc::Sum(1),
                            "s",
                        );
                        assert!(
                            audb_worlds_check(&out, &det),
                            "world not bounded: {det}\nby {out}"
                        );
                    }
                }
            }
        }
    }

    /// Local containment check (avoids a dev-dependency cycle with
    /// audb-worlds): every world tuple fits some output hypercube.
    fn audb_worlds_check(au: &AuRelation, world: &audb_rel::Relation) -> bool {
        world.rows.iter().all(|r| {
            au.rows()
                .iter()
                .any(|a| a.tuple.bounds(&r.tuple) && a.mult.ub >= r.mult)
        })
    }
}
