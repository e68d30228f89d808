//! The sort operator `sort_{O→τ}(R)` of paper Def. 1 and top-k queries.
//!
//! Sorting *materializes positions as data*: each duplicate of each input
//! tuple is extended with a 0-based position attribute `τ` reflecting the
//! total order `<total_O` (order-by attributes, tie-broken by the remaining
//! schema attributes; duplicates of the same tuple occupy consecutive
//! positions). A top-k query is then just `σ_{τ < k}` over the sorted
//! relation (paper Sec. 4.2).

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparator index list realizing `<total_O`: the order-by attributes
/// extended by every remaining attribute of the schema.
pub fn total_order(arity: usize, order: &[usize]) -> Vec<usize> {
    let mut idxs = order.to_vec();
    idxs.extend((0..arity).filter(|i| !order.contains(i)));
    idxs
}

/// `sort_{O→τ}(R)`: extend each duplicate of each row with its 0-based sort
/// position under `<total_O`. The output has one multiplicity-1 row per
/// duplicate and schema `Sch(R) ∘ (pos_name)`.
pub fn sort_to_pos(rel: &Relation, order: &[usize], pos_name: &str) -> Relation {
    let cmp_idxs = total_order(rel.schema.arity(), order);
    let mut expanded: Vec<(&Tuple, u64)> = Vec::with_capacity(rel.total_mult() as usize);
    for row in &rel.rows {
        for _ in 0..row.mult {
            expanded.push((&row.tuple, 1));
        }
    }
    expanded.sort_by(|a, b| a.0.cmp_on(b.0, &cmp_idxs));

    let schema = rel.schema.with(pos_name);
    let rows = expanded
        .into_iter()
        .enumerate()
        .map(|(pos, (t, m))| (t.with(Value::Int(pos as i64)), m))
        .collect::<Vec<_>>();
    Relation::from_rows(schema, rows)
}

/// Top-k retaining the position attribute `τ` (named `"pos"`).
pub fn topk_with_pos(rel: &Relation, order: &[usize], k: u64) -> Relation {
    let mut sorted = sort_to_pos(rel, order, "pos");
    sorted.rows.truncate(k as usize);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// Paper Example 4: sorting on A; (1,1) has multiplicity 2 and its two
    /// duplicates take positions 0 and 1; (3,15) takes position 2.
    #[test]
    fn example_4_sorting() {
        let r = Relation::from_rows(
            Schema::new(["a", "b"]),
            [(Tuple::from([3i64, 15]), 1), (Tuple::from([1i64, 1]), 2)],
        );
        let s = sort_to_pos(&r, &[0], "pos");
        assert_eq!(s.schema.cols(), &["a", "b", "pos"]);
        let n = s.normalize();
        assert_eq!(n.mult_of(&Tuple::from([1i64, 1, 0])), 1);
        assert_eq!(n.mult_of(&Tuple::from([1i64, 1, 1])), 1);
        assert_eq!(n.mult_of(&Tuple::from([3i64, 15, 2])), 1);
    }

    /// Ties on the order-by attribute are broken by the remaining columns
    /// (`<total_O`), making positions deterministic.
    #[test]
    fn tie_break_by_remaining_attributes() {
        let r = Relation::from_values(Schema::new(["a", "b"]), [[1i64, 9], [1, 2], [0, 5]]);
        let s = sort_to_pos(&r, &[0], "pos");
        let n = s.normalize();
        assert_eq!(n.mult_of(&Tuple::from([0i64, 5, 0])), 1);
        assert_eq!(n.mult_of(&Tuple::from([1i64, 2, 1])), 1);
        assert_eq!(n.mult_of(&Tuple::from([1i64, 9, 2])), 1);
    }

    /// The rows of a top-k, in position order.
    fn rows_of(t: &Relation) -> Vec<(Tuple, u64)> {
        t.rows.iter().map(|r| (r.tuple.clone(), r.mult)).collect()
    }

    #[test]
    fn topk_returns_k_rows() {
        let r = Relation::from_values(Schema::new(["a"]), [[5i64], [3], [1], [4]]);
        let t = topk_with_pos(&r, &[0], 2);
        assert_eq!(t.schema.cols(), &["a", "pos"]);
        assert_eq!(t.total_mult(), 2);
        assert_eq!(
            rows_of(&t),
            [(Tuple::from([1i64, 0]), 1), (Tuple::from([3i64, 1]), 1)]
        );
    }

    #[test]
    fn topk_counts_duplicates_against_k() {
        let r = Relation::from_rows(
            Schema::new(["a"]),
            [(Tuple::from([1i64]), 3), (Tuple::from([2i64]), 1)],
        );
        let t = topk_with_pos(&r, &[0], 2);
        assert_eq!(
            rows_of(&t),
            [(Tuple::from([1i64, 0]), 1), (Tuple::from([1i64, 1]), 1)]
        );
    }

    #[test]
    fn topk_larger_than_relation() {
        let r = Relation::from_values(Schema::new(["a"]), [[2i64], [1]]);
        let t = topk_with_pos(&r, &[0], 10);
        assert_eq!(
            rows_of(&t),
            [(Tuple::from([1i64, 0]), 1), (Tuple::from([2i64, 1]), 1)]
        );
    }
}
