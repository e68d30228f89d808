//! Bag union `R ∪ S` (annotations add).

use crate::relation::Relation;
use crate::tuple::Tuple;

/// `R ∪ S`: `⟦R ∪ S⟧(t) = R(t) + S(t)` (paper Fig. 2). Keeps the left
/// schema; arities must match.
pub fn union(left: &Relation, right: &Relation) -> Relation {
    assert_eq!(
        left.schema.arity(),
        right.schema.arity(),
        "union arity mismatch"
    );
    let mut rows: Vec<(Tuple, u64)> = Vec::with_capacity(left.rows.len() + right.rows.len());
    rows.extend(left.rows.iter().map(|r| (r.tuple.clone(), r.mult)));
    rows.extend(right.rows.iter().map(|r| (r.tuple.clone(), r.mult)));
    Relation::from_rows(left.schema.clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel(rows: &[(i64, u64)]) -> Relation {
        Relation::from_rows(
            Schema::new(["a"]),
            rows.iter().map(|&(a, m)| (Tuple::from([a]), m)),
        )
    }

    #[test]
    fn union_adds_multiplicities() {
        let u = union(&rel(&[(1, 2)]), &rel(&[(1, 3), (2, 1)])).normalize();
        assert_eq!(u.mult_of(&Tuple::from([1i64])), 5);
        assert_eq!(u.mult_of(&Tuple::from([2i64])), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn union_rejects_mismatched_arity() {
        let two = Relation::from_values(Schema::new(["a", "b"]), [[1i64, 2]]);
        union(&rel(&[(1, 1)]), &two);
    }
}
