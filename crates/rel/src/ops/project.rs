//! Generalized projection `π_A(R)`: maps each tuple through a list of
//! expressions; equal results accumulate multiplicity (paper Fig. 2).

use crate::expr::Expr;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// `π_{exprs}(rel)` with named output columns. The result is *not*
/// normalized; call [`Relation::normalize`] if a canonical bag is needed
/// (semantically equivalent either way).
pub fn project(rel: &Relation, exprs: &[(Expr, &str)]) -> Relation {
    let schema = Schema::new(exprs.iter().map(|(_, n)| n.to_string()));
    let rows = rel
        .rows
        .iter()
        .filter(|r| r.mult > 0)
        .map(|r| {
            let vals = exprs.iter().map(|(e, _)| e.eval(&r.tuple));
            (Tuple::new(vals), r.mult)
        })
        .collect::<Vec<_>>();
    Relation::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn projection_accumulates_multiplicity() {
        let r = Relation::from_values(Schema::new(["a", "b"]), [[1i64, 10], [1, 20], [2, 30]]);
        let p = project(&r, &[(Expr::col(0), "a")]).normalize();
        assert_eq!(p.mult_of(&Tuple::from([1i64])), 2);
        assert_eq!(p.mult_of(&Tuple::from([2i64])), 1);
    }

    #[test]
    fn computed_projection() {
        let r = Relation::from_values(Schema::new(["a"]), [[3i64]]);
        let p = project(&r, &[(Expr::col(0).mul(Expr::lit(2)), "twice")]);
        assert_eq!(p.rows[0].tuple, Tuple::from([6i64]));
        assert_eq!(p.schema.cols(), &["twice"]);
    }
}
