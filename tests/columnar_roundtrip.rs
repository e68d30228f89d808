//! Property tests pinning the columnar storage layer ([`AuColumns`]) to
//! the row representation it mirrors:
//!
//! * `AuRelation ↔ AuColumns` round-trips are **exact**: the same row
//!   sequence (hence bag equality) and the same normalized flag, through
//!   both the bulk transposition and the incremental `push_row` path;
//! * the columnar `normalize()` (whole-row sort keys encoded straight
//!   from column slices) produces exactly the canonical row sequence
//!   `AuRelation::normalize` produces;
//! * the vectorized expression kernels (`eval_batch` / `truth_batch` /
//!   `eval_batch_at`) agree with per-row `eval` / `truth` on every row,
//!   every batch size, and every expression shape — including the
//!   predicate-in-arithmetic and comparison-of-predicates corners the
//!   typed tier declines;
//! * `to_rows` reads every cell as its column does, through the one loop
//!   over all-`i64` lanes and the per-cell reader beside other layouts.

use audb::core::{
    AuColumn, AuColumns, AuRelation, AuRow, AuTuple, Mult3, PhysType, RangeExpr, RangeValue,
    SortKey,
};
use audb::rel::{CmpOp, Schema, Value};
use proptest::prelude::*;

/// Mixed-type values (the columnar layout is type-agnostic per cell).
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-5i64..5).prop_map(Value::Int),
        (-8i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
        proptest::bool::ANY.prop_map(Value::Bool),
        (0u8..3).prop_map(|c| Value::str(["", "a", "bb"][c as usize])),
    ]
}

/// Range values biased toward certainty so certain-collapsed columns and
/// mid-column promotion both occur.
fn rv_strategy() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        value_strategy().prop_map(RangeValue::certain),
        value_strategy().prop_map(RangeValue::certain),
        (0i64..8, 0i64..4, 0i64..4)
            .prop_map(|(lb, d1, d2)| { RangeValue::new(lb, lb + d1.min(d2), lb + d1.max(d2)) }),
    ]
}

fn mult_strategy() -> impl Strategy<Value = Mult3> {
    prop_oneof![
        Just(Mult3::ONE),
        Just(Mult3::ZERO),
        Just(Mult3::new(0, 1, 1)),
        Just(Mult3::new(1, 2, 4)),
        Just(Mult3::new(0, 0, 2)),
    ]
}

fn au_relation(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        (
            (rv_strategy(), rv_strategy(), rv_strategy()),
            mult_strategy(),
        ),
        0..=max_rows,
    )
    .prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["a", "b", "c"]),
            rows.into_iter()
                .map(|((a, b, c), m)| (AuTuple::new([a, b, c]), m)),
        )
    })
}

/// `rel` and, after it, three more copies of each of its first rows: one
/// as it is (equal in everything: they merge), one with the last
/// attribute's upper bound raised (equal on every `lb`, differing in a
/// `ub`), one with its selected guess raised as well (differing from that
/// one in an `sg` only). A string bounds every value from above.
fn with_ties(rel: &AuRelation) -> AuRelation {
    let mut out = rel.clone();
    for row in rel.rows().iter().take(4) {
        let last = row.tuple.arity() - 1;
        let top = Value::str("zz");
        let mut wider = row.tuple.clone();
        wider.0[last].ub = top.clone();
        let mut guessed = wider.clone();
        guessed.0[last].sg = top;
        for tuple in [row.tuple.clone(), wider, guessed] {
            out.push(tuple, Mult3::new(0, 1, 1));
        }
    }
    out
}

/// `normalize` as it was first written: one whole-row [`SortKey`] per
/// row, a stable sort on it, adjacent equal keys merged into the first.
fn normalize_by_whole_row_keys(rel: &AuRelation) -> Vec<AuRow> {
    let mut rows: Vec<&AuRow> = rel.rows().iter().filter(|r| !r.mult.is_zero()).collect();
    rows.sort_by_key(|r| SortKey::of_row(&r.tuple));
    let mut out: Vec<AuRow> = Vec::new();
    for row in rows {
        match out.last_mut() {
            Some(last) if SortKey::of_row(&last.tuple) == SortKey::of_row(&row.tuple) => {
                last.mult = last
                    .mult
                    .checked_add(row.mult)
                    .expect("small multiplicities")
            }
            _ => out.push(row.clone()),
        }
    }
    out
}

/// A certain integer.
fn certain_int() -> impl Strategy<Value = RangeValue> {
    (-5i64..5).prop_map(RangeValue::certain)
}

/// An integer range, now and then a point.
fn ranged_int() -> impl Strategy<Value = RangeValue> {
    (0i64..9, 0i64..4, 0i64..4)
        .prop_map(|(lb, d1, d2)| RangeValue::new(lb, lb + d1.min(d2), lb + d1.max(d2)))
}

/// Numeric-only relations for expression parity (arithmetic over
/// mixed-type values has partial semantics either way; the kernels must
/// agree wherever the row path is defined).
fn numeric_au_relation(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        (
            (
                prop_oneof![certain_int(), certain_int(), ranged_int()],
                ranged_int(),
            ),
            mult_strategy(),
        ),
        0..=max_rows,
    )
    .prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            rows.into_iter()
                .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
        )
    })
}

/// `(a, b, c)` over [`numeric_au_relation`]'s integers: `a` certain, `b`
/// certain or ranged row by row, `c` ranged — every lane `i64`.
fn integer_au_relation(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    let row = (
        certain_int(),
        prop_oneof![certain_int(), ranged_int()],
        ranged_int(),
    );
    proptest::collection::vec((row, mult_strategy()), 0..=max_rows).prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["a", "b", "c"]),
            rows.into_iter()
                .map(|((a, b, c), m)| (AuTuple::new([a, b, c]), m)),
        )
    })
}

/// `(a, b)`: `a` an integer, certain or ranged, beside `b`, never an
/// integer: a `Float` (a point or a range), a `Str`, `NULL`, or a range
/// from `NULL`.
fn int_beside_other(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    let other = prop_oneof![
        (-8i64..8).prop_map(|i| RangeValue::certain(i as f64 / 2.0)),
        (-8i64..8).prop_map(|i| RangeValue::new(i as f64 / 2.0, i as f64 / 2.0 + 0.5, 4.5)),
        (0u8..3).prop_map(|c| RangeValue::certain(Value::str(["", "a", "bb"][c as usize]))),
        Just(RangeValue::certain(Value::Null)),
        (0i64..4).prop_map(|i| RangeValue::new(Value::Null, Value::Float(i as f64), i)),
    ];
    let row = (prop_oneof![certain_int(), ranged_int()], other);
    proptest::collection::vec((row, mult_strategy()), 1..=max_rows).prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            rows.into_iter()
                .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
        )
    })
}

/// `cols.to_rows()` is `(cols.tuple(i), cols.mult(i))` row by row — each
/// cell read through its column — and keeps `cols`' normalized flag.
fn rows_are_the_cells(cols: &AuColumns) {
    let rows = cols.to_rows();
    assert_eq!(rows.len(), cols.len());
    assert_eq!(rows.is_normalized(), cols.is_normalized());
    for (i, row) in rows.rows().iter().enumerate() {
        assert_eq!(row.tuple, cols.tuple(i), "row {i}");
        assert_eq!(row.mult, cols.mult(i), "row {i}");
    }
}

/// Expression shapes covering every `RangeExpr` node, including the
/// lowering corners: predicates under arithmetic and comparisons of
/// predicates.
fn exprs() -> Vec<RangeExpr> {
    let col = RangeExpr::col;
    let lit = RangeExpr::lit;
    vec![
        col(0),
        lit(3),
        RangeExpr::Add(Box::new(col(0)), Box::new(col(1))),
        RangeExpr::Sub(Box::new(col(1)), Box::new(lit(2))),
        RangeExpr::Mul(Box::new(col(0)), Box::new(col(1))),
        RangeExpr::Neg(Box::new(col(1))),
        col(0).lt(col(1)),
        col(0).le(lit(4)),
        col(0).eq(col(1)),
        col(0).cmp(CmpOp::Ne, lit(2)),
        col(0).cmp(CmpOp::Gt, col(1)),
        col(0).cmp(CmpOp::Ge, lit(1)),
        col(0).lt(col(1)).and(col(0).le(lit(5))),
        RangeExpr::Or(Box::new(col(0).eq(lit(1))), Box::new(col(1).lt(lit(3)))),
        RangeExpr::Not(Box::new(col(0).le(col(1)))),
        // Predicate under arithmetic: booleans boxed into values.
        RangeExpr::Add(Box::new(col(0).lt(col(1))), Box::new(lit(1))),
        // Comparison of predicates: both sides materialize from truths.
        col(0).lt(col(1)).eq(col(1).lt(col(0))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Round-trip exactness: same rows, same flag — for raw and
    /// normalized inputs (the satellite's bag-equality pin is implied by
    /// row equality).
    #[test]
    fn columns_roundtrip_rows_and_normalized_flag(rel in au_relation(10)) {
        let cols = rel.to_columns();
        prop_assert_eq!(cols.len(), rel.len());
        prop_assert_eq!(cols.is_normalized(), rel.is_normalized());
        let back = cols.to_rows();
        prop_assert_eq!(back.rows(), rel.rows());
        prop_assert_eq!(back.is_normalized(), rel.is_normalized());
        prop_assert!(back.bag_eq(&rel));

        // A canonicalized relation keeps its flag through the round-trip.
        let norm = rel.clone().normalize();
        let back = norm.to_columns().to_rows();
        prop_assert!(back.is_normalized());
        prop_assert_eq!(back.rows(), norm.rows());

        // The incremental builder stores the same bag.
        let mut pushed = AuColumns::empty(rel.schema.clone());
        for row in rel.rows() {
            pushed.push_row(&row.tuple, row.mult);
        }
        prop_assert_eq!(pushed.to_rows().rows(), rel.rows());
    }

    /// Where every lane is `i64` — certain columns, ranged ones, zero rows,
    /// as stored and normalized — `to_rows` reads the lanes' cells.
    #[test]
    fn integer_lanes_transpose_to_their_cells(rel in integer_au_relation(10)) {
        let int = AuColumn::from_i64_lanes(vec![], vec![], vec![]);
        let none = AuColumns::from_cols(rel.schema.clone(), vec![int; 3], &[]);
        let kept = rel.to_columns().gather(&[], &[]);
        for cols in [rel.to_columns(), rel.normalize().to_columns(), none, kept] {
            // Only a relation columnarized from no row has `Value` lanes.
            let lanes = cols.col_phys_types();
            let ints = lanes.iter().all(|&t| t == PhysType::I64);
            prop_assert!(ints || cols.is_empty(), "{:?}", lanes);
            rows_are_the_cells(&cols);
        }
    }

    /// An integer column beside a `Float`, `Str` or `NULL` one: `to_rows`
    /// reads each cell through its own column's lanes.
    #[test]
    fn integer_lanes_beside_others_transpose_to_their_cells(rel in int_beside_other(10)) {
        // Normalizing may drop every row (all annotated zero).
        let normalized = Some(rel.clone().normalize()).filter(|rel| !rel.is_empty());
        for cols in std::iter::once(&rel).chain(&normalized).map(AuRelation::to_columns) {
            prop_assert_eq!(cols.col(0).phys_type(), PhysType::I64);
            prop_assert_ne!(cols.col(1).phys_type(), PhysType::I64);
            rows_are_the_cells(&cols);
        }
    }

    /// Columnar normalize ≡ row normalize, exactly (row order included),
    /// and the result is flagged canonical on both sides.
    #[test]
    fn columnar_normalize_matches_row_normalize(rel in au_relation(10)) {
        // As generated, and with ties on the lower-bound corner — where
        // the keyed routine reads the rest of the key — crafted in.
        for rel in [with_ties(&rel), rel] {
            let want = normalize_by_whole_row_keys(&rel);
            let via_cols = rel.to_columns().normalize().expect("small multiplicities");
            prop_assert_eq!(rel.normalized().rows(), want.as_slice());
            let via_rows = rel.normalize();
            prop_assert!(via_cols.is_normalized());
            prop_assert_eq!(via_cols.to_rows().rows(), via_rows.rows());
            prop_assert_eq!(via_rows.rows(), want.as_slice());
        }
    }

    /// Vectorized ≡ per-row expression evaluation, across batch sizes and
    /// a selection-restricted sweep.
    #[test]
    fn batch_kernels_match_row_kernels(
        rel in numeric_au_relation(9),
        batch_size in prop_oneof![Just(1usize), Just(2), Just(7), Just(1024)],
    ) {
        let cols = rel.to_columns();
        for e in exprs() {
            let mut row_cursor = 0;
            for b in cols.batches(batch_size) {
                let vals = e.eval_batch(&b);
                let truths = e.truth_batch(&b);
                prop_assert_eq!(vals.len(), b.len());
                prop_assert_eq!(truths.len(), b.len());
                for i in 0..b.len() {
                    let tuple = &rel.rows()[row_cursor + i].tuple;
                    prop_assert_eq!(&vals[i], &e.eval(tuple), "expr {:?} row {}", e, i);
                    prop_assert_eq!(truths.get(i), e.truth(tuple), "expr {:?} row {}", e, i);
                }
                // The selection-restricted sweep (every other row) agrees
                // with the full sweep at the selected positions.
                let idxs: Vec<usize> = (0..b.len()).step_by(2).collect();
                let at = e.eval_batch_at(&b, &idxs);
                let t_at = e.truth_batch_at(&b, &idxs);
                for (k, &i) in idxs.iter().enumerate() {
                    prop_assert_eq!(&at[k], &vals[i]);
                    prop_assert_eq!(t_at.get(k), truths.get(i));
                }
                row_cursor += b.len();
            }
        }
    }
}
