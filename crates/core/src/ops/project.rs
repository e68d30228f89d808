//! AU-DB projection: maps hypercubes through range expressions; equal
//! hypercubes merge by adding their `ℕ³` annotations (\[23\]).

use crate::expr::RangeExpr;
use crate::relation::AuRelation;
use crate::tuple::AuTuple;
use audb_rel::Schema;

/// Generalized projection with named output columns.
pub fn project(rel: &AuRelation, exprs: &[(RangeExpr, &str)]) -> AuRelation {
    let schema = Schema::new(exprs.iter().map(|(_, n)| n.to_string()));
    let rows = rel
        .rows()
        .iter()
        .filter(|r| !r.mult.is_zero())
        .map(|r| {
            let vals = exprs.iter().map(|(e, _)| e.eval(&r.tuple));
            (AuTuple::new(vals), r.mult)
        })
        .collect::<Vec<_>>();
    AuRelation::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::range_value::RangeValue;

    #[test]
    fn projection_merges_on_normalize() {
        let rel = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::new(1, 2, 3), RangeValue::certain(1i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([RangeValue::new(1, 2, 3), RangeValue::certain(2i64)]),
                    Mult3::new(0, 1, 1),
                ),
            ],
        );
        let p = project(&rel, &[(RangeExpr::col(0), "a")]).normalize();
        assert_eq!(p.rows().len(), 1);
        assert_eq!(p.rows()[0].mult, Mult3::new(1, 2, 2));
    }

    #[test]
    fn computed_projection_over_ranges() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([RangeValue::new(1, 2, 3)]), Mult3::ONE)],
        );
        let e = RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::lit(10)));
        let p = project(&rel, &[(e, "a10")]);
        assert_eq!(p.rows()[0].tuple.get(0), &RangeValue::new(11, 12, 13));
        assert_eq!(p.schema.cols(), &["a10"]);
    }
}
