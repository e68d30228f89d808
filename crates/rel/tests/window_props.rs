//! Property tests for the deterministic engine: the optimized windowed
//! aggregation (prefix sums / monotonic deques) must agree with a
//! brute-force evaluation of the Fig. 3 semantics, and the algebraic
//! operators must satisfy the K-relation laws.

use audb_rel::{
    aggregate, select, union, window_rows, AggFunc, Expr, Relation, Schema, Tuple, Value,
    WindowSpec,
};
use proptest::prelude::*;

fn relation_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(((0i64..20, -10i64..10), 1u64..3), 0..12).prop_map(|rows| {
        Relation::from_rows(
            Schema::new(["o", "v"]),
            rows.into_iter().map(|((o, v), m)| (Tuple::from([o, v]), m)),
        )
    })
}

/// Direct quadratic implementation of Fig. 3 row windows.
fn brute_window(rel: &Relation, l: i64, u: i64, f: AggFunc) -> Relation {
    let mut expanded: Vec<&Tuple> = Vec::new();
    for row in &rel.rows {
        for _ in 0..row.mult {
            expanded.push(&row.tuple);
        }
    }
    expanded.sort();
    let n = expanded.len() as i64;
    let mut out = Relation::empty(rel.schema.with("x"));
    for (i, t) in expanded.iter().enumerate() {
        let lo = (i as i64 + l).max(0);
        let hi = (i as i64 + u).min(n - 1);
        let slice: Vec<&Value> = (lo..=hi)
            .filter(|_| lo <= hi)
            .map(|j| expanded[j as usize].get(1))
            .collect();
        let val = match f {
            AggFunc::Sum(_) => {
                if slice.is_empty() {
                    Value::Null
                } else {
                    slice.iter().fold(Value::Int(0), |a, v| a.add(v))
                }
            }
            AggFunc::Count => Value::Int(slice.len() as i64),
            AggFunc::Min(_) => slice
                .iter()
                .min()
                .map(|v| (*v).clone())
                .unwrap_or(Value::Null),
            AggFunc::Max(_) => slice
                .iter()
                .max()
                .map(|v| (*v).clone())
                .unwrap_or(Value::Null),
            AggFunc::Avg(_) => unreachable!(),
        };
        out.push(t.with(val), 1);
    }
    out.normalize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_rows_matches_bruteforce(
        rel in relation_strategy(),
        lu in prop_oneof![Just((-2i64, 0i64)), Just((0, 2)), Just((-1, 1)), Just((-4, -1)), Just((1, 3))],
        f in prop_oneof![Just(AggFunc::Sum(1)), Just(AggFunc::Count), Just(AggFunc::Min(1)), Just(AggFunc::Max(1))],
    ) {
        let (l, u) = lu;
        let spec = WindowSpec::rows(vec![0], l, u);
        let fast = window_rows(&rel, &spec, f, "x");
        let brute = brute_window(&rel, l, u, f);
        prop_assert!(fast.bag_eq(&brute), "l={l} u={u} f={f:?}\nfast:\n{fast}\nbrute:\n{brute}");
    }

    /// Semiring laws observable through the operators: union commutes,
    /// selection distributes over union.
    #[test]
    fn algebraic_laws(a in relation_strategy(), b in relation_strategy()) {
        prop_assert!(union(&a, &b).bag_eq(&union(&b, &a)));
        let p = Expr::col(1).lt(Expr::lit(0));
        let lhs = select(&union(&a, &b), &p);
        let rhs = union(&select(&a, &p), &select(&b, &p));
        prop_assert!(lhs.bag_eq(&rhs));
    }

    /// Aggregation totals: sum of group counts equals total multiplicity.
    #[test]
    fn aggregate_count_partitions(rel in relation_strategy()) {
        let out = aggregate(&rel, &[0], &[(AggFunc::Count, "n")]);
        let total: i64 = out
            .rows
            .iter()
            .map(|r| r.tuple.get(1).as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as u64, rel.total_mult());
    }
}
