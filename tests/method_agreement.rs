//! Cross-implementation agreement: the one-pass native algorithms (Sec. 8)
//! and the SQL rewrites (Sec. 7) must produce **exactly** the bounds of the
//! quadratic reference semantics (Defs. 2 and 3) under interval-lex
//! comparison — on arbitrary inputs, multiplicities > 1 and uncertain
//! `PARTITION BY` values included (see DESIGN.md §3.4 and §5.2).

use audb::core::{
    au_select, sort_ref, topk_ref, window_ref, AuRelation, AuTuple, AuWindowSpec, CmpSemantics,
    Mult3, RangeExpr, RangeValue, WinAgg,
};
use audb::engine::{Agg, Backend, Engine, Plan, Query, Reference, Rewrite, WindowSpec};
use audb::native::{
    sort_columns_native, sort_native, topk_native, window_columns_native, window_native,
    MaintainedWindow, TopKMaintain,
};
use audb::rel::{Schema, Value};
use audb::rewrite::{rewr_sort, rewr_window, JoinStrategy};
use proptest::prelude::*;

/// Random range value over a small domain.
fn rv_strategy() -> impl Strategy<Value = RangeValue> {
    (0i64..10, 0i64..5, 0i64..5)
        .prop_map(|(lb, d1, d2)| RangeValue::new(lb, lb + d1.min(d2), lb + d1.max(d2)))
}

fn mult_strategy() -> impl Strategy<Value = Mult3> {
    prop_oneof![
        Just(Mult3::ONE),
        Just(Mult3::new(0, 1, 1)),
        Just(Mult3::new(0, 0, 1)),
        Just(Mult3::new(1, 1, 2)),
        Just(Mult3::new(1, 2, 3)),
        Just(Mult3::new(2, 2, 2)),
        Just(Mult3::new(2, 2, 3)),
        Just(Mult3::new(3, 3, 3)),
    ]
}

fn au_relation(max_rows: usize, unit_mults: bool) -> impl Strategy<Value = AuRelation> {
    let mult = if unit_mults {
        prop_oneof![
            Just(Mult3::ONE),
            Just(Mult3::new(0, 1, 1)),
            Just(Mult3::new(0, 0, 1))
        ]
        .boxed()
    } else {
        mult_strategy().boxed()
    };
    proptest::collection::vec(((rv_strategy(), rv_strategy()), mult), 1..=max_rows).prop_map(
        |rows| {
            AuRelation::from_rows(
                Schema::new(["a", "b"]),
                rows.into_iter()
                    .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
            )
        },
    )
}

/// [`au_relation`] over arbitrary multiplicities whose values are points
/// half the time, so a row is a point on both attributes — its copies
/// then tie on every corner — a quarter of the time.
fn au_relation_with_points(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    let value = || prop_oneof![(0i64..10).prop_map(RangeValue::certain), rv_strategy()];
    let row = ((value(), value()), mult_strategy());
    proptest::collection::vec(row, 1..=max_rows).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|((a, b), m)| (AuTuple::new([a, b]), m));
        AuRelation::from_rows(Schema::new(["a", "b"]), rows)
    })
}

/// A random logical plan over a random relation, exercised through the
/// unified engine API: sort / top-k plans (optionally behind a selection)
/// and window plans (optionally partitioned by the aggregated column,
/// whose values are mostly ranges), over arbitrary multiplicities.
fn plan_strategy() -> impl Strategy<Value = Plan> {
    let maybe_k = prop_oneof![Just(None), (0u64..6).prop_map(Some),];
    let sortish = (
        au_relation(8, false),
        0usize..2,
        maybe_k,
        proptest::bool::ANY,
    )
        .prop_map(|(rel, col, k, with_select)| {
            let q = Query::scan(rel);
            let q = if with_select {
                // σ(a ≤ 6): exercises the shared selection operator ahead
                // of the backend-specific sort.
                q.select(audb::core::RangeExpr::col(0).le(audb::core::RangeExpr::lit(6)))
            } else {
                q
            };
            let q = q.sort_by_as([col], "tau");
            match k {
                Some(k) => q.topk(k),
                None => q,
            }
            .build()
            .expect("generated sort plan is valid")
        });
    let windowish = (
        au_relation(7, false),
        proptest::bool::ANY,
        prop_oneof![
            Just((0i64, 0i64)),
            Just((-1, 0)),
            Just((-2, 0)),
            Just((-1, 1))
        ],
        prop_oneof![
            Just(WinAgg::Sum(1)),
            Just(WinAgg::Count),
            Just(WinAgg::Min(1)),
            Just(WinAgg::Max(1)),
            Just(WinAgg::Avg(1)),
        ],
    )
        .prop_map(|(rel, partitioned, (l, u), agg)| {
            let spec = WindowSpec::rows(l, u).order_by(["a"]);
            let spec = if partitioned {
                spec.partition_by(["b"])
            } else {
                spec
            };
            let spec = spec.aggregate(agg).output("x");
            Query::scan(rel)
                .window(spec)
                .build()
                .expect("generated window plan is valid")
        });
    prop_oneof![sortish, windowish]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The unified-API agreement property: for random plans built through
    /// `Query`, `run_all` executes the reference, native and rewrite
    /// backends and asserts their bounds are bag-identical — so one
    /// assertion covers the whole backend matrix.
    #[test]
    fn engine_backends_agree_on_random_plans(plan in plan_strategy()) {
        let all = Engine::native().run_all(&plan).expect("backends agree");
        // The agreed output is exactly the single-backend result.
        let native = Engine::native().execute(&plan).expect("native executes").to_rows();
        prop_assert!(all.output.to_rows().bag_eq(&native));
        prop_assert!(all.output.schema().cols().last().is_some_and(|c| c == "tau" || c == "x"));
    }

    /// Native sort ≡ reference sort ≡ rewrite sort, arbitrary multiplicities.
    #[test]
    fn sort_implementations_agree(rel in au_relation(8, false)) {
        let reference = sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex);
        let native = sort_native(&rel, &[0], "pos");
        prop_assert!(native.bag_eq(&reference), "native:\n{native}\nref:\n{reference}");
        let rewrite = rewr_sort(&rel, &[0], "pos");
        prop_assert!(rewrite.bag_eq(&reference), "rewr:\n{rewrite}\nref:\n{reference}");
    }

    /// Top-k agreement (positions capped at k on both sides, as in the
    /// paper's Algorithm 1 emit step).
    #[test]
    fn topk_implementations_agree(rel in au_relation(8, false), k in 0u64..6) {
        let mut reference = topk_ref(&rel, &[0], k, CmpSemantics::IntervalLex);
        cap_positions(&mut reference, k);
        let native = topk_native(&rel, &[0], k, "pos");
        prop_assert!(native.bag_eq(&reference), "k={k}\nnative:\n{native}\nref:\n{reference}");

        // The engine's one sort hook, limited, is that σ_{τ<k} + cap on
        // both oracle backends — and the plain sort when it is not.
        let by_reference = Reference::default().sort(&rel, &[0], "pos", Some(k));
        prop_assert_eq!(by_reference.rows(), reference.rows());
        let by_rewrite = Rewrite::default().sort(&rel, &[0], "pos", Some(k));
        prop_assert!(by_rewrite.bag_eq(&reference), "k={k}\nrewr:\n{by_rewrite}\nref:\n{reference}");
        let unlimited = Reference::default().sort(&rel, &[0], "pos", None);
        prop_assert_eq!(unlimited.rows(), sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex).rows());
    }

    /// Native window ≡ reference window ≡ both rewrite variants on
    /// unit-multiplicity inputs, across aggregates and window shapes.
    #[test]
    fn window_implementations_agree(
        rel in au_relation(7, true),
        lu in prop_oneof![Just((0i64, 0i64)), Just((-1, 0)), Just((-2, 0)), Just((-1, 1))],
        agg in prop_oneof![
            Just(WinAgg::Sum(1)),
            Just(WinAgg::Count),
            Just(WinAgg::Min(1)),
            Just(WinAgg::Max(1)),
            Just(WinAgg::Avg(1)),
        ],
    ) {
        let (l, u) = lu;
        let spec = AuWindowSpec::rows(vec![0], l, u);
        let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
        let native = window_native(&rel, &spec, agg, "x");
        prop_assert!(
            native.bag_eq(&reference),
            "agg={agg:?} l={l} u={u}\nnative:\n{native}\nref:\n{reference}"
        );
        for strategy in [JoinStrategy::NestedLoop, JoinStrategy::IntervalIndex] {
            let rewrite = rewr_window(&rel, &spec, agg, "x", strategy);
            prop_assert!(
                rewrite.bag_eq(&reference),
                "{strategy:?} agg={agg:?}\nrewr:\n{rewrite}\nref:\n{reference}"
            );
        }
    }

    /// For multiplicities > 1 — `(2,2,2)`, `(2,2,3)` and `(3,3,3)` among
    /// them — the native window, the reference and both rewrites give one
    /// bag, whose copies of a hypercube may precede each other in either
    /// order, and it bounds every world realized from the AU relation
    /// (corner/sg values × extreme multiplicities).
    #[test]
    fn native_and_reference_windows_sound_on_duplicates(
        rel in au_relation_with_points(4),
        lu in prop_oneof![Just((0i64, 0i64)), Just((-1, 0)), Just((-1, 1)), Just((-2, 0))],
        agg in prop_oneof![
            Just((WinAgg::Sum(1), audb::rel::AggFunc::Sum(1))),
            Just((WinAgg::Count, audb::rel::AggFunc::Count)),
            Just((WinAgg::Min(1), audb::rel::AggFunc::Min(1))),
            Just((WinAgg::Max(1), audb::rel::AggFunc::Max(1))),
            Just((WinAgg::Avg(1), audb::rel::AggFunc::Avg(1))),
        ],
    ) {
        let ((l, u), (agg, det_agg)) = (lu, agg);
        let spec = AuWindowSpec::rows(vec![0], l, u);
        let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
        let native = window_native(&rel, &spec, agg, "x");
        prop_assert!(native.bag_eq(&reference), "native:\n{native}\nref:\n{reference}");
        for strategy in [JoinStrategy::NestedLoop, JoinStrategy::IntervalIndex] {
            let rewrite = rewr_window(&rel, &spec, agg, "x", strategy);
            prop_assert!(rewrite.bag_eq(&reference), "{strategy:?}:\n{rewrite}\nref:\n{reference}");
        }
        // Realize worlds: per row pick a corner (lb/sg/ub tuple) and an
        // extreme multiplicity (lb or ub).
        let n = rel.rows().len();
        let mut choice = vec![0usize; n];
        loop {
            let mut world = audb::rel::Relation::empty(rel.schema.clone());
            for (row, &c) in rel.rows().iter().zip(&choice) {
                let tuple = match c % 3 {
                    0 => row.tuple.lb_tuple(),
                    1 => row.tuple.sg_tuple(),
                    _ => row.tuple.ub_tuple(),
                };
                let mult = if c < 3 { row.mult.lb } else { row.mult.ub };
                if mult > 0 {
                    world.push(tuple, mult);
                }
            }
            let det = audb::rel::window_rows(
                &world,
                &audb::rel::WindowSpec::rows(vec![0], l, u),
                det_agg,
                "x",
            );
            prop_assert!(
                audb::worlds::bounds_world(&reference, &det),
                "unsound on world {det}\nref:\n{reference}"
            );
            // Next choice vector (base-6 counter).
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                choice[i] += 1;
                if choice[i] < 6 {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
        }
    }
}

/// Two copies of one certain tuple: in the only world either may come
/// first, so the running sum over `(1, 10), (1, 10), (5, 3)` is 10, 20 and
/// 13 — and each copy's bounds take in both of the copies' answers.
#[test]
fn certain_copies_of_a_tuple_bound_both_orders() {
    let schema = Schema::new(["o", "v"]);
    let row = |o: i64, v: i64| {
        (
            AuTuple::new([RangeValue::certain(o), RangeValue::certain(v)]),
            Mult3::ONE,
        )
    };
    let session = audb::engine::Session::new(Engine::native());
    session.register(
        "t",
        AuRelation::from_rows(schema, [row(1, 10), row(1, 10), row(5, 3)]),
    );
    let sql = "SELECT *, SUM(v) OVER (ORDER BY o ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS x \
               FROM t";
    let served = session.sql(sql).unwrap();
    let with = |o: i64, v: i64, x: RangeValue| {
        (
            AuTuple::new([RangeValue::certain(o), RangeValue::certain(v), x]),
            Mult3::ONE,
        )
    };
    let want = AuRelation::from_rows(
        Schema::new(["o", "v", "x"]),
        [
            with(1, 10, RangeValue::new(10, 10, 20)),
            with(1, 10, RangeValue::new(10, 20, 20)),
            with(5, 3, RangeValue::certain(13i64)),
        ],
    );
    assert!(served.bag_eq(&want), "served:\n{served}");
    let world = audb::rel::Relation::from_values(
        Schema::new(["o", "v", "x"]),
        [[1i64, 10, 10], [1, 10, 20], [5, 3, 13]],
    );
    assert!(audb::worlds::bounds_world(&served, &world));
    let plan = session.prepare(sql).unwrap();
    Engine::native()
        .run_all(plan.plan())
        .expect("every method gives this bag");
}

/// The batches of a top-k subscription: narrow rows over a small domain —
/// mostly certain, so the band drops rows early, and often equal, so one
/// hypercube arrives again and again — beside wide rows whose `O↑` reaches
/// far past the `O↓` of rows dropped before they arrive, every kind of
/// annotation, existence-uncertain ones among them.
fn topk_batches() -> impl Strategy<Value = Vec<AuRelation>> {
    let a = prop_oneof![
        (0i64..12).prop_map(RangeValue::certain),
        (0i64..12).prop_map(RangeValue::certain),
        (0i64..12, 1i64..3).prop_map(|(lb, w)| RangeValue::new(lb, lb, lb + w)),
        (0i64..12, 15i64..40).prop_map(|(lb, w)| RangeValue::new(lb, lb + w / 2, lb + w)),
    ];
    let row = (a, 0i64..2, mult_strategy(), 1usize..4);
    let batch = proptest::collection::vec(row, 1..6).prop_map(|rows| {
        let rows = rows.into_iter().flat_map(|(a, b, mult, copies)| {
            let tuple = AuTuple::new([a, RangeValue::certain(b)]);
            std::iter::repeat_n((tuple, mult), copies)
        });
        AuRelation::from_rows(Schema::new(["a", "b"]), rows)
    });
    proptest::collection::vec(batch, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A top-k subscription keeps only the candidate band between appends,
    /// yet after every append answers exactly what the native top-k over
    /// everything appended so far answers.
    #[test]
    fn maintained_topk_equals_topk_over_the_stream(batches in topk_batches()) {
        for k in [1u64, 3, 10] {
            let mut maintained = TopKMaintain::new(Schema::new(["a", "b"]), vec![0, 1], k, "pos");
            let mut all = AuRelation::empty(Schema::new(["a", "b"]));
            for batch in &batches {
                maintained.apply(batch.to_columns());
                all.append(&mut batch.clone());
                let want = sort_columns_native(&all.to_columns(), &[0, 1], "pos", Some(k), &());
                let got = maintained.result().to_rows();
                prop_assert!(
                    got.bag_eq(&want.to_rows()),
                    "k={k} after {} rows\nmaintained:\n{got}\nover the stream:\n{want}",
                    all.len()
                );
            }
        }
    }
}

/// splitmix64 — the seeded stream behind the mid-size test below.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// What the aggregated column of a mid-size table holds.
#[derive(Clone, Copy, Debug)]
enum ValueKind {
    Int,
    /// Quarters, so every sum is exact whatever order it is taken in.
    Float,
    /// Integers, a tenth of them `NULL` (some only in the lower bound).
    IntWithNulls,
}

/// `(g, o, o2, v, id)`: `rows` rows in ascending `o` (pairs of rows tie on
/// its selected guess), `unc_pct` % of the `o`, `o2` and `v` attributes
/// each widened into a range reaching a few neighbours, 1 % of the rows
/// possibly absent, `g` a certain partition value below `parts`, `id`
/// certain and unique (no two rows are one hypercube: duplicates are where
/// native and reference bounds legitimately differ).
fn mid_size_rows(
    rng: &mut Seeded,
    rows: usize,
    unc_pct: u64,
    kind: ValueKind,
    parts: u64,
) -> Vec<(AuTuple, Mult3)> {
    let uncertain = |rng: &mut Seeded| rng.next() % 100 < unc_pct;
    (0..rows as i64)
        .map(|i| {
            let o = (i / 2) * 6;
            let o = if uncertain(rng) {
                RangeValue::new(o - rng.below(14), o, o + rng.below(14))
            } else {
                RangeValue::certain(o)
            };
            let o2 = rng.below(4);
            let o2 = if uncertain(rng) {
                RangeValue::new(o2 - 1, o2, o2 + rng.below(3))
            } else {
                RangeValue::certain(o2)
            };
            let v = rng.below(101) - 50;
            let (dl, du) = if uncertain(rng) {
                (rng.below(9), rng.below(9))
            } else {
                (0, 0)
            };
            let v = match kind {
                ValueKind::Int => RangeValue::new(v - dl, v, v + du),
                ValueKind::Float => {
                    let q = |x: i64| Value::Float(x as f64 / 4.0);
                    RangeValue::new(q(v - dl), q(v), q(v + du))
                }
                ValueKind::IntWithNulls => match rng.below(20) {
                    0 => RangeValue::certain(Value::Null),
                    1 => RangeValue::new(Value::Null, v, v + du),
                    _ => RangeValue::new(v - dl, v, v + du),
                },
            };
            let mult = match rng.below(200) {
                0 => Mult3::new(0, 1, 1),
                1 => Mult3::new(0, 0, 1),
                _ => Mult3::ONE,
            };
            let g = RangeValue::certain(rng.below(parts));
            (AuTuple::new([g, o, o2, v, RangeValue::certain(i)]), mult)
        })
        .collect()
}

/// Cut `rows` (in ascending `o`) into batches at a random subset of the
/// places where a cut leaves every later row strictly after every earlier
/// one on `(o, o2)` — the in-order condition of window maintenance.
fn in_order_batches<'a>(
    rng: &mut Seeded,
    rows: &'a [(AuTuple, Mult3)],
) -> Vec<&'a [(AuTuple, Mult3)]> {
    let order = [1usize, 2];
    let mut cuts = vec![0];
    for at in 1..rows.len() {
        let frontier = rows[..at]
            .iter()
            .map(|(t, _)| t)
            .max_by(|a, b| a.cmp_ub_on(b, &order))
            .expect("non-empty prefix");
        let in_order = rows[at..]
            .iter()
            .all(|(t, _)| frontier.cmp_ub_vs_lb_on(t, &order).is_lt());
        if in_order && rng.below(3) == 0 {
            cuts.push(at);
        }
    }
    cuts.push(rows.len());
    cuts.windows(2).map(|w| &rows[w[0]..w[1]]).collect()
}

/// Native ≡ reference and maintained ≡ one-shot at a size where the sweep's
/// eviction watermark, certain-tuple eviction and pool skipping all fire
/// (the properties above stop at 7 rows): a few hundred rows, two ORDER BY
/// columns, frames reaching forward, every aggregate over integers, floats
/// and `NULL`s, with and without `PARTITION BY`.
#[test]
fn mid_size_windows_agree_with_reference_and_maintenance() {
    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let frames = [(-3i64, 0i64), (-1, 2), (0, 3)];
    let aggs = [
        WinAgg::Sum(3),
        WinAgg::Count,
        WinAgg::Min(3),
        WinAgg::Max(3),
        WinAgg::Avg(3),
    ];
    let kinds = [ValueKind::Int, ValueKind::Float, ValueKind::IntWithNulls];
    let mut rng = Seeded(0xA0DB_2023);
    let mut table = 0usize;
    for unc_pct in [5u64, 30] {
        for kind in kinds {
            table += 1;
            // The reference is cubic under PARTITION BY: those tables stay
            // at the low end and take one aggregate and frame each.
            let rows = 256 + rng.below(257) as usize;
            let flat = mid_size_rows(&mut rng, rows, unc_pct, kind, 1);
            let parted = mid_size_rows(&mut rng, 256, unc_pct, kind, 4);
            for (a, &agg) in aggs.iter().enumerate() {
                for (f, &(l, u)) in frames.iter().enumerate() {
                    let plain = AuWindowSpec::rows(vec![1, 2], l, u);
                    let mut cases = vec![(&flat, plain.clone())];
                    if (a, f) == (table % aggs.len(), table % frames.len()) {
                        cases.push((&parted, plain.partition_by(vec![0])));
                    }
                    for (rows, spec) in cases {
                        let what = format!(
                            "{unc_pct} % uncertain {kind:?}, {agg:?} over [{l}, {u}], \
                             partition by {:?}, {} rows",
                            spec.partition,
                            rows.len()
                        );
                        let rel = AuRelation::from_rows(schema.clone(), rows.iter().cloned());
                        let native = window_native(&rel, &spec, agg, "x");
                        let reference =
                            window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
                        assert!(native.bag_eq(&reference), "native ≠ reference: {what}");

                        let mut maintained =
                            MaintainedWindow::new(schema.clone(), spec.clone(), agg, "x");
                        let batches = in_order_batches(&mut rng, rows);
                        assert!(batches.len() > 8, "{} batches: {what}", batches.len());
                        for batch in &batches {
                            let batch =
                                AuRelation::from_rows(schema.clone(), batch.iter().cloned())
                                    .to_columns();
                            assert!(maintained.apply(batch).is_none(), "batch is in order");
                        }
                        assert!(
                            maintained.result().to_rows().bag_eq(&native),
                            "maintained ≠ one-shot: {what}"
                        );
                        assert!(
                            maintained.into_result().to_rows().bag_eq(&native),
                            "maintained (consumed) ≠ one-shot: {what}"
                        );
                        if !spec.partition.is_empty() {
                            ranged_first_batch_is_maintained(rows, &batches, &spec, agg, &what);
                        }
                        if (a, f) == (table % aggs.len(), table % frames.len()) {
                            let mut mix = Seeded(0x0BA7_C4E5 + table as u64);
                            mixed_batches_rebuild_exactly(&mut mix, &batches, &spec, agg, &what);
                        }
                    }
                }
            }
        }
    }
}

/// [`mid_size_windows_agree_with_reference_and_maintenance`]'s rows cut
/// into the same in-order `batches`, the first batch's every third `g` the
/// range `[0, 1]` and every later `g` in `{2, 3}`, which it does not
/// overlap: each batch is in order, and the maintained answer is the
/// one-shot's and the reference's. A point `g` the range overlaps, past
/// every frontier, is not in order: its rows would join the range's group.
fn ranged_first_batch_is_maintained(
    rows: &[(AuTuple, Mult3)],
    batches: &[&[(AuTuple, Mult3)]],
    spec: &AuWindowSpec,
    agg: WinAgg,
    what: &str,
) {
    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let first = batches[0].len();
    let ranged: Vec<(AuTuple, Mult3)> = (rows.iter().enumerate())
        .map(|(i, (t, m))| {
            let mut t = t.clone();
            let g = t.0[0].sg.as_i64().expect("an integer g");
            if i >= first {
                t.0[0] = RangeValue::certain(2 + g % 2);
            } else if i % 3 == 0 {
                t.0[0] = RangeValue::new(0, 0, 1);
            }
            (t, *m)
        })
        .collect();
    let mut maintained = MaintainedWindow::new(schema.clone(), spec.clone(), agg, "x");
    let mut fed = 0;
    for batch in batches {
        let rows = &ranged[fed..fed + batch.len()];
        fed += batch.len();
        let batch = AuRelation::from_rows(schema.clone(), rows.iter().cloned()).to_columns();
        assert!(
            maintained.apply(batch).is_none(),
            "batch is in order: {what}"
        );
    }
    let rel = AuRelation::from_rows(schema.clone(), ranged.iter().cloned());
    let result = maintained.result().to_rows();
    let native = window_columns_native(&rel.to_columns(), spec, agg, "x", &()).to_rows();
    assert!(
        result.bag_eq(&native),
        "maintained ≠ one-shot, ranged: {what}"
    );
    let reference = window_ref(&rel, spec, agg, "x", CmpSemantics::IntervalLex);
    assert!(
        result.bag_eq(&reference),
        "maintained ≠ reference, ranged: {what}"
    );
    let (mut overlap, mult) = ranged[ranged.len() - 1].clone();
    overlap.0[0] = RangeValue::certain(1i64);
    overlap.0[1] = RangeValue::certain(1_000_000i64);
    let overlap = AuRelation::from_rows(schema, [(overlap, mult)]).to_columns();
    let before = maintained.apply(overlap);
    assert!(
        before.is_some_and(|before| before.to_rows().bag_eq(&result)),
        "a point the range overlaps rebuilds, answering what was held: {what}"
    );
}

/// Which batches a window sweep absorbs, decided from the rows fed alone:
/// none while no row is fed; afterwards not a batch holding a range `g`,
/// or a point `g` a range fed before possibly equals, nor one with a row
/// whose `(o, o2)` lower bound is not past the upper bound of every row fed
/// with its `g` — every row, without a `PARTITION BY`.
fn absorbs(fed: &[(AuTuple, Mult3)], batch: &[(AuTuple, Mult3)], spec: &AuWindowSpec) -> bool {
    fn exists(rows: &[(AuTuple, Mult3)]) -> impl Iterator<Item = &AuTuple> {
        rows.iter().filter(|(_, m)| m.ub > 0).map(|(t, _)| t)
    }
    let g = &spec.partition;
    let ranged = |t: &AuTuple| g.iter().any(|&g| !t.0[g].is_certain());
    exists(fed).next().is_none()
        || exists(batch).all(|t| {
            !ranged(t)
                && exists(fed).all(|f| {
                    let shares = t.eq_on(f, g);
                    !(ranged(f) && shares.ub)
                        && (!shares.lb || f.cmp_ub_vs_lb_on(t, &spec.order).is_lt())
                })
        })
}

/// [`mid_size_windows_agree_with_reference_and_maintenance`]'s in-order
/// `batches`, fed mixed with batches out of order — a batch fed before
/// the one ahead of it — and batches with a range `g`, beside the point
/// values (`[5, 6]`) or, in the second half, over them (`[0, 1]`, which
/// every later batch its points share then rebuilds): the sweep absorbs exactly the
/// batches [`absorbs`] names, a rebuild answers the output held before,
/// and the output is the one-shot's and the reference's over everything
/// fed.
fn mixed_batches_rebuild_exactly(
    rng: &mut Seeded,
    batches: &[&[(AuTuple, Mult3)]],
    spec: &AuWindowSpec,
    agg: WinAgg,
    what: &str,
) {
    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let mut mixed: Vec<Vec<(AuTuple, Mult3)>> = batches.iter().map(|b| b.to_vec()).collect();
    for at in 1..mixed.len() {
        match rng.below(5) {
            0 if at + 1 < mixed.len() => mixed.swap(at, at + 1),
            1 => {
                let over = at >= mixed.len() / 2 && rng.below(2) == 0;
                let (lb, ub) = if over { (0, 1) } else { (5, 6) };
                let row = rng.below(mixed[at].len() as u64) as usize;
                mixed[at][row].0 .0[0] = RangeValue::new(lb, lb, ub);
            }
            _ => {}
        }
    }
    let mut maintained = MaintainedWindow::new(schema.clone(), spec.clone(), agg, "x");
    let (mut fed, mut rebuilt) = (Vec::new(), 0);
    for (at, batch) in mixed.iter().enumerate() {
        let absorbed = absorbs(&fed, batch, spec);
        let before = maintained.result().to_rows();
        let cols = AuRelation::from_rows(schema.clone(), batch.iter().cloned()).to_columns();
        match maintained.apply(cols) {
            None => assert!(absorbed, "batch {at} absorbed out of order: {what}"),
            Some(answer) => {
                assert!(!absorbed, "batch {at} in order, yet rebuilt: {what}");
                assert!(answer.to_rows().bag_eq(&before), "batch {at}: {what}");
                rebuilt += 1;
            }
        }
        fed.extend(batch.iter().cloned());
    }
    assert!(
        rebuilt > 0 && rebuilt + 1 < mixed.len(),
        "{rebuilt} rebuilds: {what}"
    );
    let rel = AuRelation::from_rows(schema, fed);
    let result = maintained.result().to_rows();
    let native = window_columns_native(&rel.to_columns(), spec, agg, "x", &()).to_rows();
    assert!(
        result.bag_eq(&native),
        "maintained ≠ one-shot, mixed: {what}"
    );
    let reference = window_ref(&rel, spec, agg, "x", CmpSemantics::IntervalLex);
    assert!(
        result.bag_eq(&reference),
        "maintained ≠ reference, mixed: {what}"
    );
}

/// The window pool compares the prefixes of its candidates' bounds and
/// reads the values only where two prefixes tie ([`prefix_ties_agree_with_the_references`]
/// ranks on such keys; this is the pool). Over [`mid_size_rows`]' series —
/// uncertain positions, possibly absent rows, so pools hold candidates
/// that compete — the aggregated column is replaced by values the prefixes
/// cannot order: integers one double apart near 2⁶⁰; multiples of 2¹¹
/// near 2⁶², whose `SUM` leaves `i64` (exactly, in any order); `3`,
/// `3.0`, `2.5` and `NULL` in one `Generic` lane; strings sharing their
/// first eight bytes under `MIN` and `MAX`. One-shot and maintained, the
/// sweep agrees with the reference.
#[test]
fn window_pool_words_that_tie_agree_with_the_reference() {
    use audb::core::PhysType;

    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let range = |mut v: [Value; 3]| {
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue { lb, sg, ub }
    };
    let near = |base: i64, step: i64| {
        move |rng: &mut Seeded| range([0; 3].map(|_| Value::Int(base + step * rng.below(6))))
    };
    let mixed = |rng: &mut Seeded| {
        let spellings = [
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(2.5),
            Value::Null,
        ];
        range([0; 3].map(|_| spellings[rng.below(4) as usize].clone()))
    };
    let named =
        |rng: &mut Seeded| range([0; 3].map(|_| Value::str(format!("sensor-0{}", rng.below(5)))));
    let all = [
        WinAgg::Sum(3),
        WinAgg::Min(3),
        WinAgg::Max(3),
        WinAgg::Avg(3),
        WinAgg::Count,
    ];
    let families: [(
        &str,
        &dyn Fn(&mut Seeded) -> RangeValue,
        &[WinAgg],
        PhysType,
    ); 4] = [
        ("near 2⁶⁰", &near(1 << 60, 1), &all, PhysType::I64),
        (
            "past i64::MAX",
            &near(1 << 62, 1 << 11),
            &[WinAgg::Sum(3)],
            PhysType::I64,
        ),
        ("3, 3.0, 2.5, NULL", &mixed, &all[..4], PhysType::Generic),
        (
            "one prefix of strings",
            &named,
            &[WinAgg::Min(3), WinAgg::Max(3)],
            PhysType::Str,
        ),
    ];
    let mut rng = Seeded(0x9001_2026);
    for (family, value, aggs, lane) in families {
        let mut rows = mid_size_rows(&mut rng, 160, 30, ValueKind::Int, 1);
        for (tuple, _) in &mut rows {
            tuple.0[3] = value(&mut rng);
        }
        let rel = AuRelation::from_rows(schema.clone(), rows.iter().cloned());
        let cols = rel.to_columns();
        assert_eq!(cols.col(3).phys_type(), lane, "{family}");
        let mut overflowed = 0;
        for &agg in aggs {
            for (l, u) in [(-2i64, 0i64), (-1, 1), (0, 2)] {
                let what = format!("{family}: {agg:?} over [{l}, {u}]");
                let spec = AuWindowSpec::rows(vec![1, 2], l, u);
                let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
                let native = window_columns_native(&cols, &spec, agg, "x", &()).to_rows();
                assert!(native.bag_eq(&reference), "native ≠ reference: {what}");
                let mut maintained = MaintainedWindow::new(schema.clone(), spec, agg, "x");
                for batch in in_order_batches(&mut rng, &rows) {
                    let batch = AuRelation::from_rows(schema.clone(), batch.iter().cloned());
                    assert!(maintained.apply(batch.to_columns()).is_none(), "{what}");
                }
                assert!(
                    maintained.result().to_rows().bag_eq(&reference),
                    "maintained ≠ reference: {what}"
                );
                overflowed += (native.rows().iter())
                    .filter(|row| matches!(row.tuple.get(5).ub, Value::Float(_)))
                    .count();
            }
        }
        if family == "past i64::MAX" {
            assert!(overflowed > 100, "{overflowed} sums left i64");
        }
    }
}

/// Cut `rows` (in ascending `o`) into in-order batches, as
/// [`in_order_batches`] does, in one pass: each batch at least the next of
/// `sizes` long, cycling, wherever its frontier on `(o, o2)` lies below
/// every later row's lower bound.
fn uneven_in_order_batches<'a>(
    rows: &'a [(AuTuple, Mult3)],
    sizes: &[usize],
) -> Vec<&'a [(AuTuple, Mult3)]> {
    let order = [1usize, 2];
    let mut later_lb: Vec<&AuTuple> = Vec::with_capacity(rows.len());
    for (t, _) in rows.iter().rev() {
        let least = later_lb.last().filter(|m| m.cmp_lb_on(t, &order).is_lt());
        later_lb.push(least.copied().unwrap_or(t));
    }
    later_lb.reverse();
    let (mut batches, mut from, mut frontier) = (Vec::new(), 0, &rows[0].0);
    for (at, (t, _)) in rows.iter().enumerate().skip(1) {
        let prev = &rows[at - 1].0;
        if prev.cmp_ub_on(frontier, &order).is_gt() {
            frontier = prev;
        }
        let size = sizes[batches.len() % sizes.len()];
        if at - from >= size && frontier.cmp_ub_vs_lb_on(later_lb[at], &order).is_lt() {
            batches.push(&rows[from..at]);
            from = at;
            frontier = t;
        }
    }
    batches.push(&rows[from..]);
    batches
}

/// The window sweep ranks its pool in chunks — the pool's survivors and
/// the arrivals of the next chunk — and re-ranks where a chunk runs out.
/// A one-shot window over 8 200 rows crosses several such points with a
/// pool that carries over them: one row in a hundred may be absent, which
/// widens every later position range. The aggregated column straddles
/// zero, repeats its values across rows, and mixes `Int`s with `Float`s —
/// some equal to them, some halfway — in one lane. Every aggregate
/// agrees with the same rows maintained in uneven batches, and with the
/// rewrite.
#[test]
fn windows_across_rerank_points_agree_with_maintenance_and_the_rewrite() {
    use audb::core::PhysType;

    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let mut rng = Seeded(0x4096_2023);
    let mut rows = mid_size_rows(&mut rng, 8_200, 30, ValueKind::Int, 1);
    for (tuple, _) in &mut rows {
        let shift = match rng.below(3) {
            0 => continue,
            1 => 0.0,
            _ => 0.5,
        };
        let float = |v: &Value| Value::Float(v.as_f64().expect("an integer") + shift);
        let v = &tuple.0[3];
        tuple.0[3] = RangeValue {
            lb: float(&v.lb),
            sg: float(&v.sg),
            ub: float(&v.ub),
        };
    }
    let rel = AuRelation::from_rows(schema.clone(), rows.iter().cloned());
    let cols = rel.to_columns();
    assert_eq!(cols.col(3).phys_type(), PhysType::Generic);
    let absent = rows.iter().filter(|(_, m)| m.lb == 0).count();
    assert!(absent > 40, "{absent} possibly absent rows");
    let batches = uneven_in_order_batches(&rows, &[3, 1_500, 1, 700, 2_900, 64]);
    assert!(batches.len() >= 6, "{} batches", batches.len());
    let (l, u) = (-2i64, 1i64);
    let spec = AuWindowSpec::rows(vec![1, 2], l, u);
    let aggs = [
        (WinAgg::Sum(3), Agg::sum("v")),
        (WinAgg::Count, Agg::count()),
        (WinAgg::Min(3), Agg::min("v")),
        (WinAgg::Max(3), Agg::max("v")),
        (WinAgg::Avg(3), Agg::avg("v")),
    ];
    for (agg, sql_agg) in aggs {
        let native = window_columns_native(&cols, &spec, agg, "x", &()).to_rows();
        let mut maintained = MaintainedWindow::new(schema.clone(), spec.clone(), agg, "x");
        for &batch in &batches {
            let batch = AuRelation::from_rows(schema.clone(), batch.iter().cloned()).to_columns();
            assert!(maintained.apply(batch).is_none(), "{agg:?}: batch in order");
        }
        assert!(
            maintained.result().to_rows().bag_eq(&native),
            "maintained ≠ one-shot: {agg:?}"
        );
        let window = WindowSpec::rows(l, u).order_by(["o", "o2"]);
        let plan = (Query::scan(rel.clone()).window(window.aggregate(sql_agg).output("x")))
            .build()
            .expect("a window plan");
        let rewritten = Engine::Rewrite.execute(&plan).expect("the rewrite runs");
        assert!(
            rewritten.to_rows().bag_eq(&native),
            "rewrite ≠ one-shot: {agg:?}"
        );
    }
}

/// What the order columns of a rank table hold.
#[derive(Clone, Copy, Debug)]
enum KeyKind {
    /// `(Int, Int, Int)`.
    Ints,
    /// `(Int | Float, Str | NULL, Int | NULL)`: numbers of both kinds
    /// interleaving in one column, strings, and `NULL`s sorting first
    /// (some only as a lower bound).
    Mixed,
}

/// `(a, b, c)`, ranked on `(a, b)`: `rows` stored rows, `unc_pct` % of the
/// `a` and `b` attributes each a range reaching a few dozen neighbours.
/// Among them: hypercubes stored more than once and far apart (a twelfth
/// of the rows, certain and uncertain alike), rows of multiplicity zero,
/// possibly absent rows `(0, 1, 1)` / `(0, 0, 1)` all over the domain —
/// inside and outside any top-k band —, and multiplicities above one.
fn rank_rows(rng: &mut Seeded, rows: usize, unc_pct: u64, kind: KeyKind) -> Vec<(AuTuple, Mult3)> {
    let uncertain = |rng: &mut Seeded| rng.next() % 100 < unc_pct;
    let domain = rows as u64 * 4;
    let mut out: Vec<(AuTuple, Mult3)> = Vec::with_capacity(rows);
    while out.len() < rows {
        if out.len() > 8 && rng.below(12) == 0 {
            let copy = out[rng.below(out.len() as u64) as usize].clone();
            out.push(copy);
            continue;
        }
        let a = rng.below(domain);
        let (al, au) = if uncertain(rng) {
            (a - rng.below(120), a + rng.below(120))
        } else {
            (a, a)
        };
        let b = rng.below(50);
        let (bl, bu) = if uncertain(rng) {
            (b - rng.below(3), b + rng.below(3))
        } else {
            (b, b)
        };
        let c = rng.below(5);
        let tuple = match kind {
            KeyKind::Ints => AuTuple::new([
                RangeValue::new(al, a, au),
                RangeValue::new(bl, b, bu),
                RangeValue::certain(c),
            ]),
            KeyKind::Mixed => {
                // Halves and whole numbers, as `Float` or as `Int`.
                let num = |rng: &mut Seeded, x: i64| match rng.below(3) {
                    0 => Value::Int(x),
                    1 => Value::Float(x as f64),
                    _ => Value::Float(x as f64 + 0.5),
                };
                let (lo, sg) = (num(rng, al), num(rng, a));
                let hi = num(rng, au).max(sg.clone());
                let word = |x: i64| Value::str(format!("w{:03}", x + 10));
                let b = match rng.below(16) {
                    0 => RangeValue::certain(Value::Null),
                    1 => RangeValue::new(Value::Null, word(b), word(bu)),
                    _ => RangeValue::new(word(bl), word(b), word(bu)),
                };
                let c = if rng.below(10) == 0 {
                    RangeValue::certain(Value::Null)
                } else {
                    RangeValue::certain(c)
                };
                AuTuple::new([RangeValue::new(lo.min(sg.clone()), sg, hi), b, c])
            }
        };
        let mult = match rng.below(100) {
            0 | 1 => Mult3::new(0, 1, 1),
            2 => Mult3::new(0, 0, 1),
            3 => Mult3::ZERO,
            4 => Mult3::new(1, 2, 3),
            5 => Mult3::new(2, 2, 2),
            _ => Mult3::ONE,
        };
        out.push((tuple, mult));
    }
    out
}

/// The paper's `τ↑ ← min(k, ·)` cap on the trailing position attribute
/// (the reference keeps raw Def. 2 positions; native caps during `emit`).
fn cap_positions(rel: &mut AuRelation, k: u64) {
    let pos_col = rel.schema.arity() - 1;
    for row in rel.rows_mut() {
        let (lb, sg, ub) = row.tuple.0[pos_col].as_i64_triple();
        row.tuple.0[pos_col] = RangeValue::from_i64s(lb, sg.min(k as i64), ub.min(k as i64));
    }
}

/// `σ_{τ < k}` over a sorted relation — what `topk_ref` does to
/// `sort_ref`'s output — with the positions capped at `k`.
fn capped_topk_of(sorted: &AuRelation, k: u64) -> AuRelation {
    let pos_col = sorted.schema.arity() - 1;
    let mut top = au_select(
        sorted,
        &RangeExpr::col(pos_col).lt(RangeExpr::lit(k as i64)),
    );
    cap_positions(&mut top, k);
    top
}

/// Native ≡ reference for sort and top-k at a size where the rank sort,
/// the duplicate merge and the top-k candidate band all have work to do
/// (the properties above stop at 8 rows): a few thousand rows over integer
/// keys and over keys mixing `Int`, `Float`, `Str` and `NULL`. The
/// reference is quadratic, so it sorts each table once and every `k` takes
/// its `σ_{τ < k}` from that — `topk_ref` itself is held to the same
/// answer at one `k`. And the band changes nothing: top-k is the full
/// native sort filtered and capped, row for row, in the same order.
#[test]
fn mid_size_sorts_and_topks_agree_with_reference() {
    let schema = Schema::new(["a", "b", "c"]);
    let order = [0usize, 1];
    let mut rng = Seeded(0x709C_2023);
    for unc_pct in [5u64, 30] {
        for kind in [KeyKind::Ints, KeyKind::Mixed] {
            let stored = 2048 + rng.below(2049) as usize;
            let rel =
                AuRelation::from_rows(schema.clone(), rank_rows(&mut rng, stored, unc_pct, kind));
            let what = format!("{unc_pct} % uncertain {kind:?}, {stored} rows");
            let reference = sort_ref(&rel, &order, "pos", CmpSemantics::IntervalLex);
            let native = sort_native(&rel, &order, "pos");
            assert!(native.bag_eq(&reference), "sort: {what}");
            assert!(
                rel.normalized().len() + stored / 16 < stored,
                "hypercubes stored more than once: {what}"
            );

            let n = stored as u64;
            let certain: u64 = rel.rows().iter().map(|r| r.mult.lb).sum();
            assert!(certain < n, "k = n has fewer than k certain rows: {what}");
            for k in [0, 1, 10, n / 2, n, n + 5] {
                let top = topk_native(&rel, &order, k, "pos");
                assert!(
                    top.bag_eq(&capped_topk_of(&reference, k)),
                    "top-{k} ≠ reference: {what}"
                );
                assert_eq!(
                    top.rows(),
                    capped_topk_of(&native, k).rows(),
                    "top-{k} ≠ filtered native sort, row for row: {what}"
                );
            }
            if unc_pct == 30 {
                let mut by_ref = topk_ref(&rel, &order, 10, CmpSemantics::IntervalLex);
                cap_positions(&mut by_ref, 10);
                assert!(
                    by_ref.bag_eq(&capped_topk_of(&reference, 10)),
                    "topk_ref is σ over sort_ref: {what}"
                );
            }
        }
    }
}

/// `cols` with the lanes of column `c` converted `i64 → f64` — what the CSV
/// loader's admission of integers into a float column leaves behind.
fn admit_to_f64(cols: &audb::core::AuColumns, c: usize) -> audb::core::AuColumns {
    use audb::core::{AuColumn, AuColumns, PhysVec};
    let lane = |v: &PhysVec| match v {
        PhysVec::I64(ints) => PhysVec::F64(ints.iter().map(|&i| i as f64).collect()),
        other => panic!("expected an i64 lane, got {:?}", other.phys_type()),
    };
    let columns = (0..cols.arity())
        .map(|i| match cols.col(i) {
            AuColumn::Certain(v) if i == c => AuColumn::Certain(lane(v)),
            AuColumn::Ranged {
                lb,
                sg,
                ub,
                certain,
            } if i == c => AuColumn::Ranged {
                lb: lane(lb),
                sg: lane(sg),
                ub: lane(ub),
                certain: certain.clone(),
            },
            other => other.clone(),
        })
        .collect();
    let mults: Vec<Mult3> = (0..cols.len()).map(|i| cols.mult(i)).collect();
    AuColumns::from_cols(cols.schema().clone(), columns, &mults)
}

/// The columnar kernel against the row reference: over `to_columns()` of
/// mid-size rank tables — typed `i64` lanes (`Ints`), `Generic` lanes
/// (`Mixed`: every column mixes classes or holds `NULL`s), and the `Ints`
/// table with its first order column re-stored the way the csv loader
/// admits integers to an `f64` lane — `sort_columns_native` returns the
/// bag `sort_ref` returns over `cols.to_rows()`, for every `k` its capped
/// `σ_{τ < k}` — and that top-k is the full columnar sort filtered and
/// capped, row for row in the same order; as stored (duplicates apart,
/// zero annotations present: the fused merge runs) and normalized first
/// (it is skipped).
#[test]
fn columnar_sort_and_topk_equal_the_row_reference() {
    use audb::core::PhysType;

    let schema = Schema::new(["a", "b", "c"]);
    let order = [0usize, 1];
    let mut rng = Seeded(0xC01_2023);
    for (kind, f64_lane) in [
        (KeyKind::Ints, false),
        (KeyKind::Mixed, false),
        (KeyKind::Ints, true),
    ] {
        // The reference is quadratic and runs once per table and form.
        let stored = 1024 + rng.below(513) as usize;
        let rows = rank_rows(&mut rng, stored, 30, kind);
        assert!(rows.iter().any(|(_, m)| m.is_zero()));
        let rel = AuRelation::from_rows(schema.clone(), rows);
        for rel in [rel.clone(), rel.normalize()] {
            let cols = match f64_lane {
                false => rel.to_columns(),
                true => admit_to_f64(&rel.to_columns(), 0),
            };
            let want_lane = match (kind, f64_lane) {
                (KeyKind::Ints, false) => PhysType::I64,
                (KeyKind::Ints, true) => PhysType::F64,
                (KeyKind::Mixed, _) => PhysType::Generic,
            };
            assert_eq!(cols.col(0).phys_type(), want_lane);
            let what = format!(
                "{kind:?}, {want_lane} order lane, {} rows, normalized: {}",
                rel.len(),
                rel.is_normalized()
            );

            let reference = sort_ref(&cols.to_rows(), &order, "pos", CmpSemantics::IntervalLex);
            let by_cols = sort_columns_native(&cols, &order, "pos", None, &()).to_rows();
            assert_eq!(by_cols.schema, reference.schema, "{what}");
            assert!(by_cols.bag_eq(&reference), "sort: {what}");

            let n = rel.len() as u64;
            for k in [0, 1, 10, n / 2, n, n + 5] {
                let top = sort_columns_native(&cols, &order, "pos", Some(k), &()).to_rows();
                assert!(
                    top.bag_eq(&capped_topk_of(&reference, k)),
                    "top-{k} ≠ reference: {what}"
                );
                assert_eq!(
                    top.rows(),
                    capped_topk_of(&by_cols, k).rows(),
                    "top-{k} ≠ filtered columnar sort, row for row: {what}"
                );
            }
        }
    }
}

/// The same for the window: [`window_columns_native`] returns the bag
/// [`window_ref`] returns over `cols.to_rows()` — for every aggregate and
/// frame, with and without a (certain) `PARTITION BY`, over `i64`, generic
/// and Int-admitted-`f64` lanes, as stored (zero annotations present: the
/// fused merge runs) and normalized first, identical hypercubes stored
/// apart included. An uncertain partition value is answered alike. The
/// sweep reads the aggregated attribute through its `Lanes`: the `i64`
/// tables take the integer arm, the `NULL` and `f64` ones the per-cell arm,
/// and `COUNT(*)` reads no attribute.
#[test]
fn columnar_window_equals_the_row_reference() {
    use audb::core::PhysType;

    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let frames = [(-3i64, 0i64), (-1, 2), (0, 3)];
    let aggs = [
        WinAgg::Sum(3),
        WinAgg::Count,
        WinAgg::Min(3),
        WinAgg::Max(3),
        WinAgg::Avg(3),
    ];
    let mut rng = Seeded(0xC01_3023);
    let mut cases = [0usize; 2];
    for (table, (kind, f64_lanes, duplicates)) in [
        (ValueKind::Int, false, false),
        (ValueKind::Int, false, true),
        (ValueKind::IntWithNulls, false, false),
        (ValueKind::Int, true, false),
    ]
    .into_iter()
    .enumerate()
    {
        // The reference runs once per case and is cubic under PARTITION
        // BY: that takes one aggregate and frame per table.
        let stored = 160 + rng.below(41) as usize;
        let mut rows = mid_size_rows(&mut rng, stored, 30, kind, 3);
        rows.insert(0, (rows[5].0.clone(), Mult3::ZERO));
        rows.push((rows[9].0.clone(), Mult3::ZERO));
        if duplicates {
            rows.extend([rows[40].clone(), rows[41].clone(), rows[100].clone()]);
        }
        let rel = AuRelation::from_rows(schema.clone(), rows);
        for rel in [rel.clone(), rel.clone().normalize()] {
            let cols = match f64_lanes {
                false => rel.to_columns(),
                // The order column and the aggregated one.
                true => admit_to_f64(&admit_to_f64(&rel.to_columns(), 1), 3),
            };
            let want_lane = match (kind, f64_lanes) {
                (_, true) => PhysType::F64,
                (ValueKind::IntWithNulls, _) => PhysType::Generic,
                _ => PhysType::I64,
            };
            assert_eq!(cols.col(3).phys_type(), want_lane);
            let by_rows = cols.to_rows();
            for (a, &agg) in aggs.iter().enumerate() {
                for (f, &(l, u)) in frames.iter().enumerate() {
                    let mut partitions = vec![vec![]];
                    if duplicates || (a, f) == (table % aggs.len(), table % frames.len()) {
                        partitions.push(vec![0]);
                    }
                    for partition in partitions {
                        let spec = AuWindowSpec::rows(vec![1, 2], l, u).partition_by(partition);
                        let what = format!(
                            "{kind:?}, {want_lane} lanes, {} rows, normalized: {}, {agg:?} \
                             over [{l}, {u}], partition by {:?}",
                            rel.len(),
                            rel.is_normalized(),
                            spec.partition
                        );
                        let by_cols = window_columns_native(&cols, &spec, agg, "x", &());
                        // What the kernel reads off typed lanes — the
                        // aggregated attribute, the keys of its output order,
                        // the rows it builds — it reads off `Value` lanes alike.
                        let generic =
                            window_columns_native(&cols.to_generic(), &spec, agg, "x", &());
                        assert!(generic.is_normalized() && by_cols.is_normalized());
                        let (generic, by_cols) = (generic.to_rows(), by_cols.to_rows());
                        assert!(by_cols.is_normalized(), "{what}");
                        assert_eq!(generic.rows(), by_cols.rows(), "generic lanes: {what}");
                        cases[usize::from(duplicates)] += 1;
                        let reference =
                            window_ref(&by_rows, &spec, agg, "x", CmpSemantics::IntervalLex);
                        assert_eq!(by_cols.schema, reference.schema, "{what}");
                        assert!(by_cols.bag_eq(&reference), "{what}");
                    }
                }
            }
        }

        // One uncertain partition value, as stored: the kernel's answer is
        // the reference's.
        if !f64_lanes {
            let mut unsure: Vec<(AuTuple, Mult3)> = (rel.rows().iter())
                .map(|row| (row.tuple.clone(), row.mult))
                .collect();
            unsure[17].0 .0[0] = RangeValue::new(0, 1, 2);
            let rel = AuRelation::from_rows(schema.clone(), unsure);
            let spec = AuWindowSpec::rows(vec![1, 2], -1, 0).partition_by(vec![0]);
            let by_cols = window_columns_native(&rel.to_columns(), &spec, WinAgg::Sum(3), "x", &());
            let reference = window_ref(&rel, &spec, WinAgg::Sum(3), "x", CmpSemantics::IntervalLex);
            assert!(by_cols.to_rows().bag_eq(&reference), "{kind:?}, a range g");
        }
    }
    assert!(cases[0] > 0 && cases[1] > 0, "{cases:?}");
}

/// The numbers of a tie-heavy `a` column, as levels of equal value, each
/// with its spellings: `2⁵⁰` and `2⁵⁰ + 1` differ only in the byte of their
/// double the eight-byte prefix drops, `2⁶⁰` and `2⁶⁰ + 1` share a double
/// and differ only in the residual, and `Int(3)` / `Float(3.0)` and `0` /
/// `-0.0` are one key each, spelled apart.
fn tied_level(level: usize, int_only: bool, rng: &mut Seeded) -> Value {
    let ints = [0i64, 3, 1 << 50, (1 << 50) + 1, 1 << 60, (1 << 60) + 1];
    let float = match level {
        0 => Some(-0.0),
        1 => Some(3.0),
        2 => Some((1u64 << 50) as f64),
        4 => Some((1u64 << 60) as f64),
        _ => None,
    };
    match float {
        Some(f) if !int_only && rng.below(2) == 0 => Value::Float(f),
        _ => Value::Int(ints[level]),
    }
}

/// `(g, a, b, id)` where ranking ties on prefixes everywhere: `g` is a
/// certain 4-valued column (an ORDER BY led by it has four prefixes in
/// all), `a` a range over [`tied_level`]s, `b` a small integer, `id` unique.
/// With `unit`, annotations of possible multiplicity one and no hypercube
/// stored twice (what the window is held to the reference on); without,
/// copies stored apart, zero annotations and multiplicities above one.
fn tied_rows(rng: &mut Seeded, rows: usize, int_only: bool, unit: bool) -> Vec<(AuTuple, Mult3)> {
    let mut out: Vec<(AuTuple, Mult3)> = Vec::with_capacity(rows);
    for id in 0..rows as i64 {
        if !unit && id > 8 && rng.below(10) == 0 {
            out.push(out[rng.below(out.len() as u64) as usize].clone());
            continue;
        }
        let mut levels = [0; 3].map(|_| rng.below(6) as usize);
        if rng.below(3) > 0 {
            levels = [levels[1]; 3];
        }
        levels.sort_unstable();
        let [lo, sg, hi] = levels.map(|l| tied_level(l, int_only, rng));
        let b = rng.below(3);
        let b = match rng.below(4) {
            0 => RangeValue::new(b, b, b + 1),
            _ => RangeValue::certain(b),
        };
        let g = RangeValue::certain(rng.below(4));
        let mult = match (unit, rng.below(12)) {
            (_, 0) => Mult3::new(0, 1, 1),
            (_, 1) => Mult3::new(0, 0, 1),
            (false, 2) => Mult3::new(1, 2, 3),
            (false, 3) => Mult3::ZERO,
            _ => Mult3::ONE,
        };
        let tuple = AuTuple::new([
            g,
            RangeValue { lb: lo, sg, ub: hi },
            b,
            RangeValue::certain(id),
        ]);
        out.push((tuple, mult));
    }
    out
}

/// Sort, top-k and window where prefixes tie and keys do not — the rows
/// whose key bytes the ranking encodes, the band's threshold rows, the
/// partitions and the output order of the window — against their
/// references over `i64`, `f64` and `Generic` lanes: ORDER BY `g, a` (every
/// prefix one of four) and `a, b` (the [`tied_level`]s).
#[test]
fn prefix_ties_agree_with_the_references() {
    use audb::core::PhysType;

    let schema = Schema::new(["g", "a", "b", "id"]);
    let mut rng = Seeded(0x7135_2025);
    for lane in [PhysType::I64, PhysType::F64, PhysType::Generic] {
        let int_only = lane != PhysType::Generic;
        let lanes = |rows: Vec<(AuTuple, Mult3)>| {
            let cols = AuRelation::from_rows(schema.clone(), rows).to_columns();
            let cols = match lane {
                PhysType::F64 => admit_to_f64(&cols, 1),
                _ => cols,
            };
            assert_eq!(cols.col(1).phys_type(), lane);
            cols
        };
        let cols = lanes(tied_rows(&mut rng, 320, int_only, false));
        let rows = cols.to_rows();
        for order in [[0usize, 1], [1, 2]] {
            let what = format!("{lane} lane, ORDER BY {order:?}");
            let reference = sort_ref(&rows, &order, "pos", CmpSemantics::IntervalLex);
            let sorted = sort_columns_native(&cols, &order, "pos", None, &()).to_rows();
            assert!(sorted.bag_eq(&reference), "sort: {what}");
            for k in [1, 6, 40, 150] {
                let top = sort_columns_native(&cols, &order, "pos", Some(k), &()).to_rows();
                assert!(
                    top.bag_eq(&capped_topk_of(&reference, k)),
                    "top-{k}: {what}"
                );
            }
        }

        let cols = lanes(tied_rows(&mut rng, 160, int_only, true));
        let rows = cols.to_rows();
        for (order, partition) in [(vec![1, 2], vec![0]), (vec![0, 1], vec![])] {
            let spec = AuWindowSpec::rows(order, -2, 1).partition_by(partition);
            let what = format!("{lane} lane, {spec:?}");
            let native = window_columns_native(&cols, &spec, WinAgg::Sum(2), "x", &());
            let reference =
                window_ref(&rows, &spec, WinAgg::Sum(2), "x", CmpSemantics::IntervalLex);
            assert!(native.to_rows().bag_eq(&reference), "window: {what}");
        }
    }
}

/// Keys 100 KB long that agree on every byte but the last: their prefixes
/// tie, and so does everything a word-at-a-time sort would read up to the
/// final word. `normalize` of both layouts, sort, top-k and the window's
/// partitions order them by one comparison per pair and agree with the
/// references.
#[test]
fn long_keys_that_differ_in_the_last_byte() {
    let long = |last: char| Value::str(format!("{}{last}", "x".repeat(100_000)));
    let [a, b, c] = ['a', 'b', 'c'].map(long);
    let row =
        |s: RangeValue, id: i64, mult: Mult3| (AuTuple::new([s, RangeValue::certain(id)]), mult);
    let rel = AuRelation::from_rows(
        Schema::new(["s", "id"]),
        [
            row(RangeValue::certain(c.clone()), 0, Mult3::ONE),
            row(
                RangeValue {
                    lb: a.clone(),
                    sg: b.clone(),
                    ub: c,
                },
                1,
                Mult3::new(0, 1, 1),
            ),
            row(RangeValue::certain(b.clone()), 2, Mult3::ONE),
            row(RangeValue::certain(a), 3, Mult3::new(1, 1, 2)),
            row(RangeValue::certain(b), 2, Mult3::ONE),
        ],
    );
    let cols = rel.to_columns();

    // Ascending on the lower bounds `(s, id)`: ids 1, 3, 2 (both copies
    // merged), 0.
    let ids = |rel: &AuRelation| -> Vec<(Value, Mult3)> {
        (rel.rows().iter())
            .map(|r| (r.tuple.0[1].lb.clone(), r.mult))
            .collect()
    };
    let want: Vec<(Value, Mult3)> = [(1, Mult3::new(0, 1, 1)), (3, Mult3::new(1, 1, 2))]
        .into_iter()
        .chain([(2, Mult3::certain(2)), (0, Mult3::ONE)])
        .map(|(id, mult)| (Value::Int(id), mult))
        .collect();
    let normalized = cols.clone().normalize().expect("small multiplicities");
    assert_eq!(ids(&normalized.to_rows()), want);
    assert_eq!(ids(&rel.clone().normalize()), want);

    let reference = sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex);
    assert!(sort_columns_native(&cols, &[0], "pos", None, &())
        .to_rows()
        .bag_eq(&reference));
    for k in [1, 2, 3] {
        let top = sort_columns_native(&cols, &[0], "pos", Some(k), &()).to_rows();
        assert!(top.bag_eq(&capped_topk_of(&reference, k)), "top-{k}");
    }

    // The window partitions on the string, which must be certain; no
    // hypercube is stored twice.
    let certain = AuRelation::from_rows(
        rel.schema.clone(),
        (rel.rows().iter().enumerate())
            .filter(|(_, r)| r.tuple.0[0].lb == r.tuple.0[0].ub)
            .map(|(id, r)| {
                let s = r.tuple.0[0].clone();
                (
                    AuTuple::new([s, RangeValue::certain(id as i64)]),
                    Mult3::ONE,
                )
            }),
    );
    let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
    let native = window_columns_native(&certain.to_columns(), &spec, WinAgg::Count, "x", &());
    let reference = window_ref(
        &certain,
        &spec,
        WinAgg::Count,
        "x",
        CmpSemantics::IntervalLex,
    );
    assert!(native.to_rows().bag_eq(&reference));
}

/// A window ordered by keys of a megabyte that differ only in their last
/// byte — some of them ranges over such keys, every multiplicity at most
/// one — with and without a `PARTITION BY` on another column of such
/// keys: the native window's bag is the reference's.
#[test]
fn a_window_ordered_by_megabyte_keys_agrees_with_the_reference() {
    let key = |last: char| Value::str(format!("{}{last}", "x".repeat(1 << 20)));
    let [a, b, c, d, e] = ['a', 'b', 'c', 'd', 'e'].map(key);
    let range = |lb: &Value, sg: &Value, ub: &Value| RangeValue {
        lb: lb.clone(),
        sg: sg.clone(),
        ub: ub.clone(),
    };
    let point = |v: &Value| RangeValue::certain(v.clone());
    let rows = [
        (point(&c), &a, Mult3::ONE),
        (range(&a, &b, &d), &b, Mult3::new(0, 1, 1)),
        (point(&b), &a, Mult3::ONE),
        (point(&a), &b, Mult3::new(0, 0, 1)),
        (point(&e), &a, Mult3::ONE),
        (range(&b, &c, &c), &a, Mult3::ONE),
        (point(&b), &b, Mult3::ONE),
    ];
    let rel = AuRelation::from_rows(
        Schema::new(["s", "g", "id"]),
        rows.into_iter().enumerate().map(|(id, (s, g, mult))| {
            let id = RangeValue::certain(id as i64);
            (AuTuple::new([s, point(g), id]), mult)
        }),
    );
    let cols = rel.to_columns();
    for (partition, agg) in [(vec![], WinAgg::Sum(2)), (vec![1], WinAgg::Count)] {
        let spec = AuWindowSpec::rows(vec![0], -1, 1).partition_by(partition);
        let what = format!("{agg:?}, partition by {:?}", spec.partition);
        let native = window_columns_native(&cols, &spec, agg, "x", &());
        let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
        assert!(native.to_rows().bag_eq(&reference), "{what}");
    }
}

/// `SUM` over values within a frame's reach of `i64::MAX` / `i64::MIN`:
/// all three implementations add through `Value::add` (checked, widening
/// to float on overflow) and must keep agreeing — wrapping `i64` arithmetic
/// anywhere in the sweep would show here. Every value is within 512 of its
/// edge, so it and every partial sum are exact in `f64` whatever order
/// the members are added in; zeros keep the two edges out of each other's
/// windows.
#[test]
fn window_sums_at_the_i64_edges_agree_with_reference() {
    let mut rng = Seeded(0x0F10);
    let mut rows = Vec::new();
    for i in 0..44i64 {
        let edge = |rng: &mut Seeded| match i {
            0..=15 => i64::MAX - rng.below(500),
            16..=27 => 0,
            _ => i64::MIN + rng.below(500),
        };
        let mut v = [edge(&mut rng), edge(&mut rng), edge(&mut rng)];
        v.sort_unstable();
        let v = RangeValue::new(v[0], v[1], v[2]);
        let o = if i % 4 == 1 {
            RangeValue::new(10 * i - 12, 10 * i, 10 * i + 12)
        } else {
            RangeValue::certain(10 * i)
        };
        let mult = if i % 11 == 5 {
            Mult3::new(0, 1, 1)
        } else {
            Mult3::ONE
        };
        rows.push((AuTuple::new([o, v]), mult));
    }
    let rel = AuRelation::from_rows(Schema::new(["o", "v"]), rows);
    for (l, u) in [(-3i64, 0i64), (-1, 2), (0, 3)] {
        let spec = AuWindowSpec::rows(vec![0], l, u);
        let native = window_native(&rel, &spec, WinAgg::Sum(1), "x");
        let reference = window_ref(&rel, &spec, WinAgg::Sum(1), "x", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "[{l}, {u}]\nnative:\n{native}\nreference:\n{reference}"
        );
        let rewrite = rewr_window(&rel, &spec, WinAgg::Sum(1), "x", JoinStrategy::default());
        assert!(
            rewrite.bag_eq(&reference),
            "[{l}, {u}]\nrewrite:\n{rewrite}\nreference:\n{reference}"
        );
        let overflowed = native
            .rows()
            .iter()
            .filter(|row| matches!(row.tuple.get(2).ub, Value::Float(_)))
            .count();
        assert!(
            overflowed >= 8,
            "only {overflowed} sums left i64 over [{l}, {u}]"
        );
        // Those `Float` bounds sit in the kernel's aggregate column beside
        // `Int` ones: no `i64` lane holds it, and its values are the rows'.
        let kernel = window_columns_native(&rel.to_columns(), &spec, WinAgg::Sum(1), "x", &());
        assert_ne!(kernel.col(2).phys_type(), audb::core::PhysType::I64);
        assert_eq!(kernel.to_rows().rows(), native.rows(), "[{l}, {u}]");
    }
}

/// A `SUM` bound takes the `q` pool members owed to guaranteed slots, then
/// more only while they help, and its scans stop at their last pick. Over
/// values of both signs, a fifth of the rows possibly absent — so a frame
/// owes fewer slots than it may hold (`q < possn`), and the pool holds
/// negative lower and positive upper bounds past the owed ones —, every
/// method's answer, with and without `PARTITION BY`, is the reference's
/// and the rewrite's.
#[test]
fn sum_scans_that_stop_at_their_last_pick_agree_on_every_method() {
    let schema = Schema::new(["g", "o", "v"]);
    let mut rng = Seeded(0x5160_2026);
    let rows: Vec<(AuTuple, Mult3)> = (0..180i64)
        .map(|i| {
            let o = 4 * i;
            let o = match rng.below(3) {
                0 => RangeValue::new(o - rng.below(9), o, o + rng.below(9)),
                _ => RangeValue::certain(o),
            };
            let v = rng.below(41) - 20;
            let v = match rng.below(4) {
                0 => RangeValue::new(v - rng.below(6), v, v + rng.below(6)),
                _ => RangeValue::certain(v),
            };
            let mult = match rng.below(10) {
                0 => Mult3::new(0, 1, 1),
                1 => Mult3::new(0, 0, 1),
                _ => Mult3::ONE,
            };
            let g = RangeValue::certain(rng.below(3));
            (AuTuple::new([g, o, v]), mult)
        })
        .collect();
    let rel = AuRelation::from_rows(schema, rows);
    for partitioned in [false, true] {
        for (l, u) in [(-3i64, 0i64), (-2, 2), (0, 4)] {
            let what = format!("partitioned: {partitioned}, [{l}, {u}]");
            let mut spec = AuWindowSpec::rows(vec![1], l, u);
            let mut window = WindowSpec::rows(l, u).order_by(["o"]);
            if partitioned {
                spec = spec.partition_by(vec![0]);
                window = window.partition_by(["g"]);
            }
            let reference = window_ref(&rel, &spec, WinAgg::Sum(2), "x", CmpSemantics::IntervalLex);
            let rewrite = rewr_window(&rel, &spec, WinAgg::Sum(2), "x", JoinStrategy::default());
            assert!(rewrite.bag_eq(&reference), "rewrite ≠ reference: {what}");
            let native = window_columns_native(&rel.to_columns(), &spec, WinAgg::Sum(2), "x", &());
            assert!(native.to_rows().bag_eq(&reference), "kernel: {what}");
            let plan = (Query::scan(rel.clone())
                .window(window.aggregate(Agg::sum("v")).output("x")))
            .build()
            .expect("a window plan");
            for engine in [Engine::Reference, Engine::Native, Engine::Rewrite] {
                let out = engine.execute(&plan).expect("the window runs").to_rows();
                assert!(out.bag_eq(&reference), "{engine:?}: {what}");
            }
        }
    }
}

/// A window subscription runs its sweep on `i64` words while the
/// aggregated lanes are integers and every sum fits, and hands over to
/// `Value`s at the batch that brings a `Float` or a sum past `i64::MAX` —
/// in either order, with and without `PARTITION BY`. Only upper bounds
/// reach the edge: the selected guesses' sums fit, and only the bounds'
/// addition can see the overflow. The hand-over absorbs the batch: every
/// append is incremental, its deltas replay to the value, and the value is
/// the one-shot answer of all three methods over every row appended. Four
/// zero rows lead each batch, so no frame adds a `Float` or an edge value
/// to anything but zeros and its own kind.
#[test]
fn a_window_subscription_hands_its_words_over_to_values() {
    use audb::engine::{Session, Strategy};
    use std::collections::BTreeMap;

    let schema = Schema::new(["o", "g", "v"]);
    let mut rng = Seeded(0x3E11_2026);
    // Batch `k`: rows `30 k …`, in order after every earlier batch.
    let mut batch = |k: i64, v: fn(i64) -> RangeValue| -> Vec<(AuTuple, Mult3)> {
        (30 * k..30 * k + 30)
            .map(|i| {
                let o = RangeValue::new(10 * i - rng.below(4), 10 * i, 10 * i + rng.below(4));
                let v = if i < 30 * k + 4 {
                    RangeValue::certain(0)
                } else {
                    v(i)
                };
                let mult = match rng.below(6) {
                    0 => Mult3::new(0, 1, 1),
                    _ => Mult3::ONE,
                };
                let g = RangeValue::certain(i % 3);
                (AuTuple::new([o, g, v]), mult)
            })
            .collect()
    };
    let int: fn(i64) -> RangeValue = |i| RangeValue::certain(i % 50 - 25);
    let float: fn(i64) -> RangeValue = |i| RangeValue::certain((i % 50) as f64 + 0.5);
    // Within 512 of the edge, and the other terms of a frame small: a sum
    // past it is exact in `f64` however its terms are grouped.
    let edge: fn(i64) -> RangeValue = |i| RangeValue::new(0, 0, i64::MAX - (i % 7) * 50);
    let [floats_first, edges_first] = [[float, edge], [edge, float]].map(|[a, b]| {
        let kinds = [int, int, int, a, b, int];
        Vec::from_iter((0..).zip(kinds).map(|(k, v)| batch(k, v)))
    });
    let rel = |rows: &[(AuTuple, Mult3)]| AuRelation::from_rows(schema.clone(), rows.to_vec());
    for partition in ["", "PARTITION BY g "] {
        let sql = format!(
            "SELECT *, SUM(v) OVER ({partition}ORDER BY o \
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS x FROM s"
        );
        for batches in [&floats_first, &edges_first] {
            let session = Session::new(Engine::native());
            session.register("s", rel(&batches[0]));
            let mut q = session.subscribe(&sql).expect("a window subscription");
            let key = |t: &AuTuple| format!("{t:?}");
            let entries = |value: AuRelation| -> BTreeMap<String, (AuTuple, Mult3)> {
                (value.into_rows().into_iter())
                    .map(|r| (key(&r.tuple), (r.tuple, r.mult)))
                    .collect()
            };
            let mut replay = entries(q.value());
            let mut fed = batches[0].clone();
            for batch in &batches[1..] {
                let what = format!("{partition}after {} rows", fed.len() + batch.len());
                let delta = q.append(&rel(batch)).expect("the append runs");
                assert_eq!(delta.strategy, Strategy::Incremental, "{what}");
                fed.extend(batch.iter().cloned());
                for (t, m) in &delta.removed {
                    assert_eq!(replay.remove(&key(t)), Some((t.clone(), *m)), "{what}");
                }
                for (t, m) in &delta.added {
                    assert_eq!(replay.insert(key(t), (t.clone(), *m)), None, "{what}");
                }
                let value = q.value();
                assert_eq!(replay, entries(value.clone()), "deltas replay: {what}");
                for engine in [Engine::Reference, Engine::Native, Engine::Rewrite] {
                    let one_shot = Session::new(engine);
                    one_shot.register("s", rel(&fed));
                    let truth = one_shot.sql(&sql).expect("the window runs");
                    assert!(
                        value.bag_eq(&truth),
                        "{engine:?}, {what}\nmaintained:\n{value}\none-shot:\n{truth}"
                    );
                }
            }
        }
    }
}

/// `window_scan`'s shape: `(o, g, v, id)` over `n` rows, `o` anywhere in
/// `[0, 200 n)` with distinct selected guesses, one in twenty a range (the
/// hull of four draws in 1 000), one in a hundred — a fifth of those —
/// possibly absent, one `v` in twenty a range, `g` one of eight certain
/// values.
fn scan_shaped_rows(rng: &mut Seeded, n: usize) -> Vec<(AuTuple, Mult3)> {
    let domain = 200 * n as u64;
    let hull = |rng: &mut Seeded, base: i64| {
        let alts = [0; 4].map(|_| base + rng.below(1_000));
        let (lo, hi) = (alts.iter().min(), alts.iter().max());
        RangeValue::new(*lo.expect("four"), alts[0], *hi.expect("four"))
    };
    let mut seen = std::collections::HashSet::new();
    (0..n as i64)
        .map(|id| {
            let uncertain_o = rng.below(20) == 0;
            let o = loop {
                let base = rng.below(domain);
                let o = match uncertain_o {
                    true => hull(rng, base),
                    false => RangeValue::certain(base),
                };
                if seen.insert(o.sg.as_i64()) {
                    break o;
                }
            };
            let g = RangeValue::certain(rng.below(8));
            let v = rng.below(domain);
            let v = match rng.below(20) {
                0 => hull(rng, v),
                _ => RangeValue::certain(v),
            };
            let mult = match uncertain_o && rng.below(5) == 0 {
                true => Mult3::new(0, 1, 1),
                false => Mult3::ONE,
            };
            (AuTuple::new([o, g, v, RangeValue::certain(id)]), mult)
        })
        .collect()
}

/// The word form answers what the `Value` form answers, bit for bit: on
/// `window_scan`'s shape, every aggregate over `v`, partitioned and not,
/// over `i64` lanes and over the same rows in `Generic` lanes — which only
/// the `Value` form reads — gives the same rows in the same order.
#[test]
fn the_word_form_equals_the_value_form_on_window_scan_data() {
    use audb::core::PhysType;

    let mut rng = Seeded(0x5CA1_2026);
    let rows = scan_shaped_rows(&mut rng, 4_096);
    let absent = rows.iter().filter(|(_, m)| m.lb == 0).count();
    assert!(absent > 20, "{absent} possibly absent rows");
    let cols = AuRelation::from_rows(Schema::new(["o", "g", "v", "id"]), rows).to_columns();
    assert_eq!(cols.col(2).phys_type(), PhysType::I64);
    let generic = cols.to_generic();
    assert_eq!(generic.col(2).phys_type(), PhysType::Generic);
    for agg in [
        WinAgg::Sum(2),
        WinAgg::Count,
        WinAgg::Min(2),
        WinAgg::Max(2),
        WinAgg::Avg(2),
    ] {
        for partition in [vec![], vec![1]] {
            let spec = AuWindowSpec::rows(vec![0], -2, 0).partition_by(partition);
            let words = window_columns_native(&cols, &spec, agg, "x", &()).to_rows();
            let values = window_columns_native(&generic, &spec, agg, "x", &()).to_rows();
            assert_eq!(words.rows().len(), cols.len(), "{agg:?}, {spec:?}");
            assert_eq!(words.rows(), values.rows(), "{agg:?}, {spec:?}");
        }
    }
}

/// The kernel emits its rows in canonical order without sorting tuples:
/// they are, row for row, what `normalize` makes of the same sweep's rows
/// in close order ([`MaintainedWindow::into_result`] of one batch). The
/// table is built of what that order has to get right: runs of hypercubes
/// equal on every lower bound — the order falls to `X` and the other
/// corners there, and the upper bounds and the selected guesses disagree
/// about it — and multiplicities above one, stored merged or as copies
/// apart, whose split rows re-merge where their windows agree (`COUNT`
/// over the current row; paper Example 7's `k = 2` row) and stay apart
/// where they do not.
#[test]
fn native_window_rows_are_the_normalized_rows() {
    let schema = Schema::new(["g", "o", "v"]);
    let rv = |lb: i64, sg: i64, ub: i64| RangeValue::new(lb, sg, ub);
    let mut rows: Vec<(AuTuple, Mult3)> = Vec::new();
    for i in 0..40i64 {
        let g = RangeValue::certain((i / 4) % 2);
        let o = 10 * (i / 4);
        // Four rows equal on every lower bound: two identical, and two that
        // the upper bounds order one way and the selected guesses the other.
        let (o, v) = match i % 4 {
            0 | 1 => (rv(o, o, o), rv(3, 3, 3)),
            2 => (rv(o, o + 2, o + 8), rv(3, 3, 5)),
            _ => (rv(o, o + 5, o + 6), rv(3, 4, 5)),
        };
        let mult = match i % 7 {
            0 => Mult3::new(2, 2, 2),
            3 => Mult3::new(1, 2, 3),
            5 => Mult3::new(0, 1, 1),
            _ => Mult3::ONE,
        };
        rows.push((AuTuple::new([g, o, v]), mult));
    }
    // Copies stored apart: the fused normalisation merges them.
    rows.extend([rows[1].clone(), rows[18].clone(), rows[39].clone()]);
    let rel = AuRelation::from_rows(schema.clone(), rows);
    let cols = rel.to_columns();
    let mut merged_back = 0;
    for agg in [WinAgg::Count, WinAgg::Sum(2), WinAgg::Min(2)] {
        for (l, u) in [(0i64, 0i64), (-2, 0), (-1, 1)] {
            for partition in [vec![], vec![0]] {
                let spec = AuWindowSpec::rows(vec![1], l, u).partition_by(partition);
                let what = format!("{agg:?} over [{l}, {u}], partition by {:?}", spec.partition);
                let kernel = window_columns_native(&cols, &spec, agg, "x", &());
                assert!(kernel.is_normalized(), "{what}");
                let mut swept = MaintainedWindow::new(schema.clone(), spec, agg, "x");
                swept.apply(cols.clone());
                let in_close_order = swept.into_result();
                assert!(!in_close_order.is_normalized(), "{what}");
                merged_back += in_close_order.len() - kernel.len();
                assert_eq!(
                    kernel.to_rows().rows(),
                    in_close_order.to_rows().normalize().rows(),
                    "{what}"
                );
            }
        }
    }
    assert!(merged_back > 0, "no split rows merged back");
}

/// The two inputs the native window once handed to the reference —
/// identical hypercubes stored as separate rows (they merge into `k↑ > 1`)
/// and an uncertain `PARTITION BY` value — are the sweep's to answer: its
/// bounds are the reference's, through the kernel and through the engine.
#[test]
fn the_native_window_answers_duplicates_and_uncertain_partitions() {
    let schema = Schema::new(["g", "o", "o2", "v", "id"]);
    let window = |partitioned: bool| {
        let spec = WindowSpec::rows(-1, 2).order_by(["o", "o2"]);
        let spec = if partitioned {
            spec.partition_by(["g"])
        } else {
            spec
        };
        spec.aggregate(Agg::sum("v")).output("x")
    };
    let mut rng = Seeded(0xFA11);
    let rows = mid_size_rows(&mut rng, 48, 30, ValueKind::Int, 2);

    // Identical hypercubes, stored apart from each other.
    let mut split = rows.clone();
    split.extend([rows[7].clone(), rows[20].clone(), rows[33].clone()]);
    let rel = AuRelation::from_rows(schema.clone(), split);
    let spec = AuWindowSpec::rows(vec![1, 2], -1, 2);
    let swept = window_columns_native(&rel.to_columns(), &spec, WinAgg::Sum(3), "x", &());
    let reference = window_ref(&rel, &spec, WinAgg::Sum(3), "x", CmpSemantics::IntervalLex);
    assert!(swept.to_rows().bag_eq(&reference));
    let plan = Query::scan(rel).window(window(false)).build().unwrap();
    let all = Engine::native().run_all(&plan).expect("backends agree");
    assert!(all.output.to_rows().bag_eq(&reference));
    let explain = Engine::native().explain(&plan).to_string();
    assert!(!explain.contains("reference"), "{explain}");

    // One uncertain partition value among certain ones.
    let mut unsure = rows;
    unsure[11].0 .0[0] = RangeValue::new(0, 0, 1);
    let rel = AuRelation::from_rows(schema, unsure);
    let spec = spec.partition_by(vec![0]);
    let swept = window_columns_native(&rel.to_columns(), &spec, WinAgg::Sum(3), "x", &());
    let reference = window_ref(&rel, &spec, WinAgg::Sum(3), "x", CmpSemantics::IntervalLex);
    assert!(swept.to_rows().bag_eq(&reference));
    let plan = Query::scan(rel.clone())
        .window(window(true))
        .build()
        .unwrap();
    let all = Engine::native().run_all(&plan).expect("backends agree");
    assert!(all.output.to_rows().bag_eq(&reference));
}

/// `Det`'s answer as `audb-rel`'s deterministic operators give it over the
/// most likely world: the trailing column per id (the id column precedes
/// it), one slot per x-tuple of the table.
fn rel_point_bounds(out: &audb::rel::Relation, n: usize) -> Vec<Option<(f64, f64)>> {
    let (id_col, val_col) = (out.schema.arity() - 2, out.schema.arity() - 1);
    let mut bounds = vec![None; n];
    for row in &out.rows {
        let id = row.tuple.get(id_col).as_i64().expect("certain id") as usize;
        let v = row.tuple.get(val_col).as_f64().expect("numeric answer");
        bounds[id] = Some((v, v));
    }
    bounds
}

/// `Det` runs `Imp`'s plans and native kernels over the selected-guess
/// world, lifted to a certain AU-DB, and reads the `Sg` corner: its answers
/// are exactly those of the deterministic operators over that world —
/// sort, top-k and every window aggregate — also when x-tuples are absent
/// from it (their ids are then past the present rows' count).
fn det_answers_are_the_deterministic_ones(seed: u64, absent: bool, l: i64, u: i64) {
    use audb::rel::ops::sort::topk_with_pos;
    use audb::rel::{sort_to_pos, window_rows, WindowSpec as RelWindowSpec};
    use audb::workloads::runner::Method::Det;
    use audb::workloads::{gen_sort_table, gen_window_table, SyntheticConfig};
    use audb::workloads::{RankQuery, WindowQuery};

    // A small domain and a high uncertainty rate: ties on the order
    // attributes, and (with `absent`) x-tuples the world leaves out.
    let cfg = SyntheticConfig {
        uncertainty: 0.4,
        domain: 40,
        absent_prob: if absent { 0.5 } else { 0.0 },
        ..SyntheticConfig::default().rows(80).seed(seed)
    };
    let table = gen_sort_table(&cfg);
    let world = table.most_likely_world();
    let n = table.len() + 1;
    let order = vec![0usize, 1];
    let mut sorted = RankQuery {
        table,
        order,
        k: None,
    };
    let want = rel_point_bounds(&sort_to_pos(&world, &sorted.order, "pos"), n);
    assert_eq!(Det.sort(&sorted).value, want, "sort");
    let want = rel_point_bounds(&topk_with_pos(&world, &sorted.order, 10), n);
    sorted.k = Some(10);
    assert_eq!(Det.sort(&sorted).value, want, "top-10");

    let table = gen_window_table(&cfg);
    let world = table.most_likely_world();
    let n = table.len() + 1;
    let spec = RelWindowSpec::rows(vec![0], l, u);
    let (order, agg) = (vec![0], WinAgg::Count);
    let mut windowed = WindowQuery {
        table,
        order,
        agg,
        l,
        u,
    };
    for agg in [
        WinAgg::Sum(2),
        WinAgg::Count,
        WinAgg::Min(2),
        WinAgg::Max(2),
        WinAgg::Avg(2),
    ] {
        let want = rel_point_bounds(&window_rows(&world, &spec, agg, "x"), n);
        windowed.agg = agg;
        let got = Det.window(&windowed).expect("Det windows").value;
        assert_eq!(got, want, "{agg:?} over [{l}, {u}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`det_answers_are_the_deterministic_ones`] on seeded synthetic
    /// tables, with and without absent x-tuples.
    #[test]
    fn det_on_the_native_kernels_equals_the_deterministic_operators(
        seed in 0u64..1_000,
        absent in proptest::bool::ANY,
        l in -3i64..=0,
        u in 0i64..=2,
    ) {
        det_answers_are_the_deterministic_ones(seed, absent, l, u);
    }
}
