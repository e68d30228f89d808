//! Property tests pinning the typed physical layer to the `Value`
//! semantics it accelerates. The oracle is [`AuColumns::to_generic`]:
//! demoting every column to `Generic(Vec<Value>)` lanes forces every
//! kernel off its typed path — the expression kernels onto the row
//! semantics (`RangeExpr::eval` / `truth`'s own recursion, cell by cell)
//! — so for any relation the typed and demoted columns must agree on
//!
//! * the vectorized expression kernels (`eval_batch_column` /
//!   `truth_batch` / `truth_batch_at`), and the row semantics itself — across
//!   monomorphic `i64` / `f64` / dictionary-string sweeps, the int–float
//!   cross-comparison kernels, overflow fallback, and expressions the
//!   typed tier declines;
//! * `SortKey::of_columns` (typed slices encode the same memcmp keys the
//!   per-value encoder produces — NaN, `-0.0`, and int/float alignment
//!   included);
//! * `normalize` (whole relation canonicalization);
//! * row ↔ column round-trips, dictionary-encoded string columns
//!   included.
//!
//! The value pools deliberately include the adversarial corners: NaN
//! (one equivalence class above every other number), `-0.0 ≡ 0.0`,
//! `i64::MAX` (typed add bails to the row semantics' overflow-to-float
//! promotion), and `±2⁵³`-scale floats.

use audb::core::{
    AuColumns, AuRelation, AuTuple, Mult3, PhysType, RangeExpr, RangeValue, SortKey, TruthMasks,
    TruthRange,
};
use audb::rel::{CmpOp, Schema, Value};
use proptest::prelude::*;

fn i64_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-6i64..6).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN + 1)),
    ]
}

fn f64_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-8i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(9_007_199_254_740_992.0)), // 2^53
    ]
}

fn str_val() -> impl Strategy<Value = Value> {
    (0u8..5).prop_map(|c| Value::str(["", "a", "ab", "b", "ba"][c as usize]))
}

/// Mixed-class cells — this column stays on the generic fallback.
fn mixed_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-5i64..5).prop_map(Value::Int),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 + 0.5)),
        proptest::bool::ANY.prop_map(Value::Bool),
        str_val(),
    ]
}

/// Range values over one value pool, biased toward certainty so both the
/// certain-collapsed fast path and the bitmap-carrying ranged layout
/// occur; the triple is sorted under the total `Value` order so the
/// `lb ≤ sg ≤ ub` invariant holds even for NaN-bearing samples.
fn rv_of<S: Strategy<Value = Value> + 'static>(
    vals: impl Fn() -> S,
) -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        vals().prop_map(RangeValue::certain),
        (vals(), vals(), vals()).prop_map(|(a, b, c)| {
            let mut v = [a, b, c];
            v.sort_by(|x, y| x.partial_cmp(y).expect("Value order is total"));
            let [l, s, u] = v;
            RangeValue::new(l, s, u)
        }),
    ]
}

/// Range values that are mostly points: one in twenty is drawn as
/// [`rv_of`]'s ranged arm — the ≤ 5 % uncertainty of the paper's data,
/// where a comparison evaluates `lb` and `ub` at those rows only.
fn rv_sparse<S: Strategy<Value = Value> + 'static>(
    vals: impl Fn() -> S,
) -> impl Strategy<Value = RangeValue> {
    (0u8..20, vals(), vals(), vals()).prop_map(|(p, a, b, c)| {
        let mut v = [a, b, c];
        if p != 0 {
            return RangeValue::certain(v[0].clone());
        }
        v.sort_by(|x, y| x.partial_cmp(y).expect("Value order is total"));
        let [l, s, u] = v;
        RangeValue::new(l, s, u)
    })
}

fn mult_strategy() -> impl Strategy<Value = Mult3> {
    prop_oneof![
        Just(Mult3::ONE),
        Just(Mult3::ZERO),
        Just(Mult3::new(0, 1, 1)),
        Just(Mult3::new(1, 2, 4)),
    ]
}

/// Seven-attribute relations: one column per typed layout (`i64`, `f64`,
/// dictionary string), a mixed-class generic column, then the three typed
/// layouts again with every cell certain (one lane for all three bounds).
fn typed_relation(
    rows: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        (
            (
                rv_of(i64_val),
                rv_of(f64_val),
                rv_of(str_val),
                rv_of(mixed_val),
            ),
            (i64_val(), f64_val(), str_val()),
            mult_strategy(),
        ),
        rows,
    )
    .prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["i", "f", "s", "g", "ci", "cf", "cs"]),
            rows.into_iter().map(|((a, b, c, d), (e, f, g), m)| {
                let certain = [e, f, g].map(RangeValue::certain);
                (AuTuple::new([a, b, c, d].into_iter().chain(certain)), m)
            }),
        )
    })
}

/// [`typed_relation`]'s seven attributes with the ranged layouts drawn
/// by [`rv_sparse`]: ranged columns whose rows are nearly all points.
fn sparse_relation(
    rows: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        (
            (
                rv_sparse(i64_val),
                rv_sparse(f64_val),
                rv_sparse(str_val),
                rv_of(mixed_val),
            ),
            (i64_val(), f64_val(), str_val()),
            mult_strategy(),
        ),
        rows,
    )
    .prop_map(|rows| {
        AuRelation::from_rows(
            Schema::new(["i", "f", "s", "g", "ci", "cf", "cs"]),
            rows.into_iter().map(|((a, b, c, d), (e, f, g), m)| {
                let certain = [e, f, g].map(RangeValue::certain);
                (AuTuple::new([a, b, c, d].into_iter().chain(certain)), m)
            }),
        )
    })
}

/// A relation and the batch size to sweep it at: up to nine rows at one,
/// three or all rows a batch, or one batch of 63, 64, 65 or 1000 rows —
/// masks one bit short of a word, a whole word, one bit into the next,
/// and many words — or 200 nearly-certain rows in batches of 64 or 70.
fn sized_relation() -> impl Strategy<Value = (AuRelation, usize)> {
    prop_oneof![
        (
            typed_relation(0..=9),
            prop_oneof![Just(1usize), Just(3), Just(1024)]
        ),
        typed_relation(63).prop_map(|r| (r, 1024)),
        typed_relation(64).prop_map(|r| (r, 1024)),
        typed_relation(65).prop_map(|r| (r, 1024)),
        typed_relation(1000).prop_map(|r| (r, 1000)),
        // Nearly-certain ranged columns, in batches at word-aligned and
        // unaligned offsets of their certainty bitmaps.
        sparse_relation(200).prop_map(|r| (r, 64)),
        sparse_relation(200).prop_map(|r| (r, 70)),
    ]
}

/// `masks` holds `want`, row for row, and no bit at or past its length.
fn assert_masks(masks: &TruthMasks, want: &[TruthRange], e: &RangeExpr) {
    let n = want.len();
    assert_eq!(masks.len(), n, "expr {e:?}");
    for (k, t) in want.iter().enumerate() {
        assert_eq!(masks.get(k), *t, "expr {e:?} row {k}");
    }
    for words in masks.words() {
        assert_eq!(words.len(), n.div_ceil(64), "expr {e:?}");
        if let (Some(last), 1..) = (words.last(), n % 64) {
            assert_eq!(last >> (n % 64), 0, "expr {e:?}: a bit past row {n}");
        }
    }
}

/// Expression shapes whose typed lowering covers every kernel: pure
/// monomorphic sweeps, int–float cross comparisons, string dictionary
/// comparisons, typed arithmetic (with overflow bailout), and shapes that
/// must fall back (generic column, `Mul`, cross-class comparison,
/// predicates under arithmetic).
fn exprs() -> Vec<RangeExpr> {
    let col = RangeExpr::col;
    let lit = RangeExpr::lit;
    vec![
        col(0),
        col(1),
        col(2),
        col(3),
        // Same-type comparisons: i64/i64, f64/f64, str/str.
        col(0).lt(lit(2)),
        col(1).le(RangeExpr::lit(Value::Float(0.5))),
        col(1).eq(col(1)),
        col(2).lt(RangeExpr::lit(Value::str("b"))),
        col(2).cmp(CmpOp::Ge, col(2)),
        // Cross-type numeric comparisons, both orders, all six ops.
        col(0).lt(col(1)),
        col(1).lt(col(0)),
        col(0).le(col(1)),
        col(0).eq(col(1)),
        col(1).cmp(CmpOp::Ne, col(0)),
        col(0).cmp(CmpOp::Gt, col(1)),
        col(1).cmp(CmpOp::Ge, col(0)),
        // Typed arithmetic: i64 (checked, may bail on i64::MAX), mixed
        // promotion, antitone subtraction, bound-swapping negation.
        RangeExpr::Add(Box::new(col(0)), Box::new(lit(1))),
        RangeExpr::Add(Box::new(col(0)), Box::new(col(1))),
        RangeExpr::Sub(Box::new(col(1)), Box::new(col(0))),
        RangeExpr::Sub(Box::new(col(0)), Box::new(lit(3))),
        RangeExpr::Neg(Box::new(col(0))),
        RangeExpr::Neg(Box::new(col(1))),
        RangeExpr::Add(Box::new(col(0)), Box::new(col(0))).lt(lit(4)),
        // Boolean connectives over typed comparisons.
        col(0)
            .lt(col(1))
            .and(col(2).le(RangeExpr::lit(Value::str("ab")))),
        RangeExpr::Or(
            Box::new(col(0).eq(lit(1))),
            Box::new(col(1).lt(RangeExpr::lit(Value::Float(1.0)))),
        ),
        RangeExpr::Not(Box::new(col(0).le(col(1)))),
        // NOT / OR / AND nests over ranged and certain lanes of every
        // typed layout.
        RangeExpr::Not(Box::new(col(0).lt(col(4)).and(RangeExpr::Or(
            Box::new(col(1).le(col(5))),
            Box::new(RangeExpr::Not(Box::new(col(2).lt(col(6))))),
        )))),
        RangeExpr::Or(
            Box::new(RangeExpr::Not(Box::new(col(4).eq(col(0))))),
            Box::new(
                col(6)
                    .cmp(CmpOp::Ge, col(2))
                    .and(col(5).cmp(CmpOp::Gt, col(0))),
            ),
        ),
        RangeExpr::Not(Box::new(RangeExpr::Or(
            Box::new(col(2).eq(RangeExpr::lit(Value::str("b")))),
            Box::new(col(1).cmp(CmpOp::Ne, col(5))),
        )))
        .and(RangeExpr::Not(Box::new(RangeExpr::Not(Box::new(
            col(4).le(lit(2)),
        ))))),
        // Literals: ranged ones (every row patched), and points that are
        // one bound under the total order but not bit for bit (`-0.0`
        // beside `0.0`), NaN, ranged strings; in comparisons and under
        // arithmetic.
        col(0).lt(RangeExpr::Lit(RangeValue::new(-2i64, 0i64, 3i64))),
        col(4).cmp(CmpOp::Ge, RangeExpr::Lit(RangeValue::new(1i64, 1i64, 2i64))),
        col(1).le(RangeExpr::Lit(RangeValue::new(
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(0.0),
        ))),
        col(5).eq(RangeExpr::lit(Value::Float(f64::NAN))),
        col(2).lt(RangeExpr::Lit(RangeValue::new(
            Value::str("a"),
            Value::str("ab"),
            Value::str("b"),
        ))),
        // A ranged string literal projected as a value: three lanes, every
        // row ranged.
        RangeExpr::Lit(RangeValue::new(
            Value::str("a"),
            Value::str("ab"),
            Value::str("b"),
        )),
        RangeExpr::Add(
            Box::new(col(4)),
            Box::new(RangeExpr::Lit(RangeValue::new(0i64, 1i64, 2i64))),
        )
        .lt(col(0)),
        RangeExpr::Sub(
            Box::new(RangeExpr::Lit(RangeValue::new(
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(0.5),
            ))),
            Box::new(col(5)),
        ),
        RangeExpr::Neg(Box::new(RangeExpr::Lit(RangeValue::new(
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(0.0),
        )))),
        // Certain columns against each other: one lane a side, no row
        // patched.
        col(4).lt(col(5)),
        col(6).cmp(CmpOp::Ne, col(6)),
        RangeExpr::Sub(Box::new(col(4)), Box::new(col(5))).le(col(5)),
        // Fallback shapes: generic column, Mul, cross-class comparison,
        // predicate under arithmetic.
        col(3).lt(col(0)),
        RangeExpr::Mul(Box::new(col(0)), Box::new(col(1))),
        col(0).lt(col(2)),
        RangeExpr::Add(Box::new(col(0).lt(col(1))), Box::new(lit(1))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Load-time inference picks the typed layouts, and rows survive the
    /// round-trip exactly — dictionary-encoded string columns included.
    #[test]
    fn typed_layouts_roundtrip_rows(rel in typed_relation(0..=10)) {
        let cols = rel.to_columns();
        if !rel.is_empty() {
            let t = cols.col_phys_types();
            prop_assert_eq!(t[0], PhysType::I64);
            prop_assert_eq!(t[1], PhysType::F64);
            prop_assert_eq!(t[2], PhysType::Str);
        }
        prop_assert_eq!(cols.to_rows().rows(), rel.rows());
        // Demotion is logically invisible.
        let generic = cols.to_generic();
        prop_assert!(generic.col_phys_types().iter().all(|t| *t == PhysType::Generic));
        prop_assert_eq!(generic.to_rows().rows(), rel.rows());
        for c in 0..cols.arity() {
            prop_assert_eq!(generic.col(c), cols.col(c), "col {}", c);
        }
        // The incremental builder stores the same bag under the same
        // logical equality.
        let mut pushed = AuColumns::empty(rel.schema.clone());
        for row in rel.rows() {
            pushed.push_row(&row.tuple, row.mult);
        }
        prop_assert_eq!(pushed.to_rows().rows(), rel.rows());
    }

    /// Typed kernels ≡ the row semantics over the demoted lanes, on every
    /// expression shape, batch size, and selection — every row among them.
    /// `eval_batch_column` builds the same column either way (the
    /// certain-collapse decision included), holding `RangeExpr::eval` of
    /// each selected row; truth masks hold `RangeExpr::truth` of each
    /// covered row and no bit past the last.
    #[test]
    fn typed_kernels_match_generic_kernels(sized in sized_relation()) {
        let (rel, batch_size) = sized;
        let cols = rel.to_columns();
        let generic = cols.to_generic();
        for e in exprs() {
            let batches = cols.batches(batch_size).zip(generic.batches(batch_size));
            for (bi, (tb, gb)) in batches.enumerate() {
                let rows = &rel.rows()[bi * batch_size..][..tb.len()];
                let truths = e.truth_batch(&tb);
                prop_assert_eq!(&truths, &e.truth_batch(&gb), "expr {:?}", e);
                let want: Vec<TruthRange> = rows.iter().map(|r| e.truth(&r.tuple)).collect();
                let want_vals: Vec<RangeValue> = rows.iter().map(|r| e.eval(&r.tuple)).collect();
                assert_masks(&truths, &want, &e);
                // Selections: every row, every other row, and two rows of
                // three (runs that cross words unevenly).
                let selections: [Vec<usize>; 3] = [
                    (0..tb.len()).collect(),
                    (0..tb.len()).step_by(2).collect(),
                    (0..tb.len()).filter(|i| i % 3 != 1).collect(),
                ];
                for idxs in &selections {
                    let want_at: Vec<TruthRange> = idxs.iter().map(|&i| want[i]).collect();
                    assert_masks(&e.truth_batch_at(&tb, idxs), &want_at, &e);
                    prop_assert_eq!(
                        e.truth_batch_at(&tb, idxs),
                        e.truth_batch_at(&gb, idxs),
                        "expr {:?}", e
                    );
                    let tc = e.eval_batch_column(&tb, idxs);
                    let gc = e.eval_batch_column(&gb, idxs);
                    prop_assert_eq!(tc.is_certain(), gc.is_certain(), "expr {:?}", e);
                    for (k, &i) in idxs.iter().enumerate() {
                        prop_assert_eq!(&tc.range_value(k), &want_vals[i], "expr {:?} @ {}", e, k);
                        prop_assert_eq!(&gc.range_value(k), &want_vals[i], "expr {:?} @ {}", e, k);
                    }
                }
            }
        }
    }

    /// Typed slice encoding ≡ per-value encoding: the memcmp sort keys
    /// are byte-identical, so every downstream order (sort, top-k,
    /// normalize) is unchanged by the physical layout.
    #[test]
    fn sortkey_of_columns_parity(rel in typed_relation(0..=10)) {
        let cols = rel.to_columns();
        prop_assert_eq!(
            SortKey::of_columns(&cols),
            SortKey::of_columns(&cols.to_generic())
        );
    }

    /// Columnar normalize is layout-independent and agrees with the row
    /// oracle.
    #[test]
    fn normalize_parity(rel in typed_relation(0..=10)) {
        let typed = rel.to_columns().normalize().expect("small multiplicities");
        let generic = rel.to_columns().to_generic().normalize().expect("small multiplicities");
        prop_assert_eq!(typed.to_rows().rows(), generic.to_rows().rows());
        prop_assert_eq!(typed.to_rows().rows(), rel.clone().normalize().rows());
    }

    /// Gather (the post-selection materialization) is layout-independent
    /// — the typed no-clone path picks exactly the rows the generic path
    /// picks.
    #[test]
    fn gather_parity(rel in typed_relation(0..=10)) {
        let cols = rel.to_columns();
        let idxs: Vec<usize> = (0..rel.len()).step_by(2).collect();
        let mults: Vec<Mult3> = idxs.iter().map(|_| Mult3::ONE).collect();
        let typed = cols.gather(&idxs, &mults);
        let generic = cols.to_generic().gather(&idxs, &mults);
        prop_assert_eq!(typed.to_rows().rows(), generic.to_rows().rows());
    }
}
