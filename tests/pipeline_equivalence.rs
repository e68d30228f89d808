//! The pipeline executor's semantic contract: for **every** plan and
//! batch size, the native method (`exec::run_pipelined` — fused
//! select/project stages, morsel-parallel, breakers materializing) and the
//! rewrite oracle are bag-equal to the reference's operator-at-a-time run
//! over the Defs. 2–3 row operators, which shares no select/project code
//! with the pipeline. The batch size is the native runner's argument; the
//! oracles' runner has none, so they run once.
//!
//! Plans here are deliberately richer than the cross-backend agreement
//! suite's: multiple streamable operators in a row (so fusion chains have
//! length > 1), streamable operators between breakers, and degenerate
//! batch sizes (1, input size, larger than input) that stress batch
//! boundaries. A second plan shape hands the breaker what the integer
//! tables never do: `select · project_exprs → sort | topk` over string,
//! `NULL` and computed-float order keys — the fused stage's columns reach
//! the native sort as dictionary, generic and `f64` lanes.

use audb::core::{AuRelation, AuTuple, AuWindowSpec, Mult3, RangeExpr, RangeValue, WinAgg};
use audb::engine::{exec, optimize, Agg, Engine, Op, Plan, PlanError, Query, WindowSpec};
use audb::rel::{Schema, Value};
use proptest::prelude::*;

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
        // Zero annotations exercise the projection drop rule.
        Just(Mult3::ZERO),
    ]
}

fn au_relation(
    rows: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(((rv_strategy(), rv_strategy()), mult_strategy()), rows).prop_map(
        |rows| {
            AuRelation::from_rows(
                Schema::new(["a", "b"]),
                rows.into_iter()
                    .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
            )
        },
    )
}

/// One streamable operator appended to the chain: a selection on the
/// first column, a reordering projection, or a computed projection that
/// keeps the arity at 2 (so later operators can still resolve columns).
#[derive(Clone, Debug)]
enum Streamable {
    Select(i64),
    Swap,
    Compute,
}

fn streamable_strategy() -> impl Strategy<Value = Streamable> {
    prop_oneof![
        (0i64..12).prop_map(Streamable::Select),
        Just(Streamable::Swap),
        Just(Streamable::Compute),
    ]
}

/// Append a streamable op. Projections rename to fresh `a`/`b` columns so
/// chains compose regardless of what ran before.
fn apply_streamable(q: Query, s: &Streamable) -> Query {
    match s {
        Streamable::Select(bound) => q.select(RangeExpr::col(0).le(RangeExpr::lit(*bound))),
        Streamable::Swap => q.project_exprs([
            (RangeExpr::col(1), "a".to_string()),
            (RangeExpr::col(0), "b".to_string()),
        ]),
        Streamable::Compute => q.project_exprs([
            (RangeExpr::col(0), "a".to_string()),
            (
                RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::lit(1))),
                "b".to_string(),
            ),
        ]),
    }
}

/// One breaker appended to the chain. Position/aggregate columns are
/// projected away right after, so plans can stack several breakers while
/// the streamable generators keep seeing a two-column `a`/`b` schema.
#[derive(Clone, Debug)]
enum Breaker {
    Sort,
    TopK(u64),
    Window { lower: i64, upper: i64 },
}

fn breaker_strategy() -> impl Strategy<Value = Breaker> {
    prop_oneof![
        Just(Breaker::Sort),
        (0u64..5).prop_map(Breaker::TopK),
        prop_oneof![Just((0i64, 0i64)), Just((-1, 0)), Just((-1, 1))]
            .prop_map(|(lower, upper)| Breaker::Window { lower, upper }),
    ]
}

fn apply_breaker(q: Query, b: &Breaker, tag: usize) -> Query {
    let out = format!("x{tag}");
    let q = match b {
        Breaker::Sort => q.sort_by_as(["a"], &out),
        Breaker::TopK(k) => q.sort_by_as(["a"], &out).topk(*k),
        Breaker::Window { lower, upper } => q.window(
            WindowSpec::rows(*lower, *upper)
                .order_by(["a"])
                .aggregate(Agg::sum("b"))
                .output(&out),
        ),
    };
    // Keep the evolving schema at ["a", "b"] for the next segment.
    q.project(["a", "b"])
}

/// `select · project_exprs → sort | topk` over `(a: Int, s: Str | NULL)`,
/// ordered on the string column and on `a + 0.5`, a float the projection
/// computes — in either order, so each leads the key in some plans.
fn keyed_plan_strategy() -> impl Strategy<Value = Plan> {
    let word = |i: i64| Value::str(format!("w{i}"));
    let row = (rv_strategy(), (0i64..6, 0i64..3, 0u8..8), mult_strategy()).prop_map(
        move |(a, (s, reach, kind), m)| {
            let s = match kind {
                0 => RangeValue::certain(Value::Null),
                1 => RangeValue::new(Value::Null, word(s), word(s + reach)),
                _ => RangeValue::new(word(s), word(s), word(s + reach)),
            };
            (AuTuple::new([a, s]), m)
        },
    );
    (
        proptest::collection::vec(row, 0..=9),
        0i64..14,
        proptest::bool::ANY,
        prop_oneof![Just(None), (0u64..5).prop_map(Some)],
    )
        .prop_map(|(rows, bound, float_first, k)| {
            let q = Query::scan(AuRelation::from_rows(Schema::new(["a", "s"]), rows))
                .select(RangeExpr::col(0).le(RangeExpr::lit(bound)))
                .project_exprs([
                    (RangeExpr::col(1), "s".to_string()),
                    (
                        RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::lit(0.5))),
                        "f".to_string(),
                    ),
                ])
                .sort_by(if float_first { ["f", "s"] } else { ["s", "f"] });
            match k {
                Some(k) => q.topk(k),
                None => q,
            }
            .build()
            .expect("generated plan is valid")
        })
}

/// `t(dead, a, b)` through one breaker on `a` alone, then projected onto
/// `[a, b, x]`: `dead` is never read and `a` ties often. `<total_O` breaks
/// those ties on `dead` before `b`, so a plan that pruned `dead` ahead of
/// the breaker would order tied rows — their positions, their frames — by
/// `b` instead.
fn dead_column_plan_strategy() -> impl Strategy<Value = Plan> {
    let a = (0i64..3, 0i64..3).prop_map(|(lb, w)| RangeValue::new(lb, lb, lb + w / 2));
    let row = (a, 0i64..6, 0i64..6, mult_strategy());
    (proptest::collection::vec(row, 0..=8), breaker_strategy()).prop_map(|(rows, breaker)| {
        let c = RangeValue::certain;
        let rows = (rows.into_iter()).map(|(a, dead, b, m)| (AuTuple::new([c(dead), a, c(b)]), m));
        let q = Query::scan(AuRelation::from_rows(Schema::new(["dead", "a", "b"]), rows));
        let q = match breaker {
            Breaker::Sort => q.sort_by_as(["a"], "x"),
            Breaker::TopK(k) => q.sort_by_as(["a"], "x").topk(k),
            Breaker::Window { lower, upper } => q.window(
                WindowSpec::rows(lower, upper)
                    .order_by(["a"])
                    .aggregate(Agg::sum("b"))
                    .output("x"),
            ),
        };
        q.project(["a", "b", "x"])
            .build()
            .expect("generated plan is valid")
    })
}

/// A random plan: [`keyed_plan_strategy`], [`dead_column_plan_strategy`]
/// or [`select_chain_plan_strategy`], or [`chained_plan_strategy`] twice
/// as often as any.
fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop_oneof![
        chained_plan_strategy(),
        chained_plan_strategy(),
        keyed_plan_strategy(),
        dead_column_plan_strategy(),
        select_chain_plan_strategy(),
    ]
}

/// Two or three selections in a row over 65–150 rows (one batch at the
/// widest batch size, its length no multiple of 64): every selection after
/// the first evaluates its masks over the survivors of the ones before.
fn select_chain_plan_strategy() -> impl Strategy<Value = Plan> {
    let bounds = proptest::collection::vec((0i64..12, 0i64..12), 2..=3);
    (au_relation(65..=150), bounds).prop_map(|(rel, bounds)| {
        let mut q = Query::scan(rel);
        for (a, b) in bounds {
            let not_below = RangeExpr::Not(Box::new(RangeExpr::col(1).lt(RangeExpr::lit(b))));
            q = q.select(RangeExpr::Or(
                Box::new(RangeExpr::col(0).le(RangeExpr::lit(a))),
                Box::new(not_below),
            ));
        }
        q.build().expect("generated plan is valid")
    })
}

/// Up to three segments of (0–2 streamable ops, breaker), closed by a
/// final run of streamable ops — covering empty fusion chains, multi-op
/// fusion chains, consecutive breakers and trailing output pipelines.
fn chained_plan_strategy() -> impl Strategy<Value = Plan> {
    (
        au_relation(0..=9),
        proptest::collection::vec(
            (
                proptest::collection::vec(streamable_strategy(), 0..=2),
                breaker_strategy(),
            ),
            0..=3,
        ),
        proptest::collection::vec(streamable_strategy(), 0..=2),
    )
        .prop_map(|(rel, segments, tail)| {
            let mut q = Query::scan(rel);
            for (tag, (streamables, breaker)) in segments.iter().enumerate() {
                for s in streamables {
                    q = apply_streamable(q, s);
                }
                q = apply_breaker(q, breaker, tag);
            }
            for s in &tail {
                q = apply_streamable(q, s);
            }
            q.build().expect("generated plan is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE executor invariant: the pipelined native method ≡ the
    /// materialized reference, bag-wise, across batch sizes including the
    /// degenerate ones — and so is the rewrite oracle.
    #[test]
    fn pipelined_equals_materialized_on_all_backends(
        plan in plan_strategy(),
        batch_size in prop_oneof![Just(1usize), Just(2), Just(7), Just(1024)],
    ) {
        let materialized = Engine::reference().execute(&plan).expect("reference run").to_rows();
        let pipelined = exec::run_pipelined(&plan, batch_size, true, &()).expect("pipelined run");
        let pipelined = pipelined.to_rows();
        prop_assert!(
            pipelined.bag_eq(&materialized),
            "native batch {batch_size}:\npipelined:\n{pipelined}\nreference:\n{materialized}"
        );
        let rewrite = Engine::rewrite().execute(&plan).expect("rewrite run").to_rows();
        prop_assert!(
            rewrite.bag_eq(&materialized),
            "rewrite:\n{rewrite}\nreference:\n{materialized}"
        );
    }

    /// The same invariant through `run_all` (native/rewrite pipelined,
    /// reference materialized): identical bounds everywhere.
    #[test]
    fn run_all_agrees_through_the_pipeline_executor(plan in plan_strategy()) {
        let all = Engine::native().run_all(&plan).expect("backends agree");
        let direct = Engine::native().execute(&plan).expect("native executes").to_rows();
        prop_assert!(all.output.to_rows().bag_eq(&direct));
        // Listening changes nothing: the recorder's run is the silent one.
        for method in Engine::ALL {
            let (traced, _) = method.execute_traced(&plan).expect("traced run");
            let silent = method.execute(&plan).expect("silent run");
            prop_assert_eq!(silent.to_rows().rows(), traced.to_rows().rows(), "{}", method);
        }
    }

    /// The optimizer's contract: every rewrite (select reordering, select
    /// pushdown below breakers, dead-column pruning) preserves AU-DB bag
    /// semantics on every backend.
    #[test]
    fn optimized_equals_unoptimized_on_all_backends(plan in plan_strategy()) {
        let optimized = optimize(&plan);
        for method in Engine::ALL {
            let plain = method.execute(&plan).expect("unoptimized run").to_rows();
            let opt = method.execute(&optimized).expect("optimized run").to_rows();
            prop_assert!(
                opt.bag_eq(&plain),
                "{method}:\noptimized:\n{opt}\nunoptimized:\n{plain}\nrewrites: {:?}",
                optimized.opt().map(|o| &o.rules)
            );
        }
    }

    /// One validation, two doors: the schemas a plan carries — built call
    /// by call through `Query`, or rebuilt whole by the optimizer — are
    /// the public `Op::output_schema` folded over its operators, and no
    /// operator reads past its input.
    #[test]
    fn plan_schemas_are_the_fold_of_output_schema(plan in plan_strategy()) {
        for plan in [optimize(&plan), plan] {
            let mut schema = plan.schemas()[0].clone();
            for (op, expected) in plan.ops().iter().zip(&plan.schemas()[1..]) {
                prop_assert!(op.reads().iter().all(|&c| c < schema.arity()), "{op}");
                schema = op.output_schema(&schema).expect("a built plan's operators validate");
                prop_assert_eq!(&schema, expected, "{}", op);
            }
        }
    }

    /// Zone-map batch skipping is invisible in the output: pruned
    /// pipelined execution is bag-equal to pruning-disabled execution at
    /// every batch size. (Only the pipeline batches, so only it prunes.)
    #[test]
    fn pruned_equals_unpruned_at_every_batch_size(
        plan in plan_strategy(),
        batch_size in prop_oneof![Just(1usize), Just(2), Just(7), Just(1024)],
    ) {
        let run = |prune| exec::run_pipelined(&plan, batch_size, prune, &()).expect("pipelined run");
        let (unpruned, pruned) = (run(false).to_rows(), run(true).to_rows());
        prop_assert!(
            pruned.bag_eq(&unpruned),
            "batch {batch_size}:\npruned:\n{pruned}\nunpruned:\n{unpruned}"
        );
    }
}

/// Pushing a select below a window is only sound when the frame is the
/// point frame `[0,0]` or the predicate is a partition-local filter on
/// certain columns. A trailing-frame window with a plain column predicate
/// must be refused — and the same shape with a point frame must fire.
#[test]
fn frame_unsafe_window_pushdown_is_refused() {
    let rel = AuRelation::from_rows(
        Schema::new(["a", "b"]),
        (0..8).map(|i| {
            (
                AuTuple::new([RangeValue::certain(i), RangeValue::certain(10 - i)]),
                Mult3::ONE,
            )
        }),
    );
    let windowed = |lower: i64| {
        Query::scan(rel.clone())
            .window(
                WindowSpec::rows(lower, 0)
                    .order_by(["a"])
                    .aggregate(Agg::sum("b"))
                    .output("w"),
            )
            .select(RangeExpr::col(0).lt(RangeExpr::lit(5)))
            .build()
            .unwrap()
    };

    // Frame [-1,0]: the select would change which neighbors the window
    // sees. Refused — the plan comes back without rewrites.
    let unsafe_plan = windowed(-1);
    let optimized = optimize(&unsafe_plan);
    assert!(
        optimized.opt().is_none(),
        "pushdown below a trailing-frame window must be refused: {:?}",
        optimized.opt().map(|o| &o.rules)
    );

    // Frame [0,0]: each row's window is itself; filtering first is sound,
    // and the rule fires.
    let safe_plan = windowed(0);
    let optimized = optimize(&safe_plan);
    let rules = &optimized.opt().expect("point-frame pushdown fires").rules;
    assert!(rules
        .iter()
        .any(|r| r.rule == "pushdown-select-below-window"));
    for method in Engine::ALL {
        let plain = method.execute(&safe_plan).unwrap().to_rows();
        let opt = method.execute(&optimized).unwrap().to_rows();
        assert!(opt.bag_eq(&plain), "{method}");
    }
}

/// The faults `Op::output_schema` names are the same `PlanError` whether
/// the operator came through the builder or was written down resolved.
#[test]
fn builder_and_output_schema_report_the_same_errors() {
    let rel = AuRelation::empty(Schema::new(["a", "b"]));
    let schema = rel.schema.clone();
    let built = |q: Query| q.build().unwrap_err();
    let sort = |order: Vec<usize>, pos_name: &str| Op::Sort {
        order,
        pos_name: pos_name.into(),
        limit: None,
    };
    let scan = || Query::scan(rel.clone());

    let out_of_range = PlanError::ColumnOutOfRange { index: 7, arity: 2 };
    assert_eq!(built(scan().sort_by([7usize])), out_of_range);
    assert_eq!(
        sort(vec![7], "pos").output_schema(&schema),
        Err(out_of_range.clone())
    );
    let pred = RangeExpr::col(1).lt(RangeExpr::col(7));
    assert_eq!(built(scan().select(pred.clone())), out_of_range);
    assert_eq!(
        Op::Select { pred }.output_schema(&schema),
        Err(out_of_range)
    );

    let collision = PlanError::DuplicateColumn { name: "b".into() };
    assert_eq!(built(scan().sort_by_as(["a"], "b")), collision);
    assert_eq!(
        sort(vec![0], "b").output_schema(&schema),
        Err(collision.clone())
    );
    let twice = [(RangeExpr::col(0), "b"), (RangeExpr::col(1), "b")];
    assert_eq!(built(scan().project_exprs(twice.clone())), collision);
    let exprs = twice.into_iter().map(|(e, n)| (e, n.to_string())).collect();
    assert_eq!(Op::Project { exprs }.output_schema(&schema), Err(collision));

    assert_eq!(
        built(scan().sort_by(Vec::<usize>::new())),
        PlanError::EmptyOrderBy
    );
    assert_eq!(
        sort(vec![], "pos").output_schema(&schema),
        Err(PlanError::EmptyOrderBy)
    );

    let frame = PlanError::InvalidWindowFrame { lower: 1, upper: 2 };
    assert_eq!(
        built(scan().window(WindowSpec::rows(1, 2).order_by(["a"]))),
        frame
    );
    let window = Op::Window {
        spec: AuWindowSpec {
            partition: vec![],
            order: vec![0],
            lower: 1,
            upper: 2,
        },
        agg: WinAgg::Count,
        out_name: "x".into(),
    };
    assert_eq!(window.output_schema(&schema), Err(frame));
}

/// Dead-column pruning renumbers every later operator through
/// [`Op::remapped`]: the never-read column goes behind the last breaker —
/// ahead of one every column is read, to break ties — the columns the
/// breakers appended are found again behind fewer columns, and answers do
/// not move.
#[test]
fn dead_column_pruning_renumbers_through_breakers() {
    let rel = AuRelation::from_rows(
        Schema::new(["dead", "k", "g", "v"]),
        (0..12i64).map(|i| {
            let k = 10 * ((i * 5) % 12);
            let row = [
                RangeValue::certain(i),
                RangeValue::new(k - 13, k, k + 14),
                RangeValue::certain(i % 3),
                RangeValue::new(9 - i, 10 - i, 12 - i),
            ];
            let mult = if i % 5 == 0 {
                Mult3::new(0, 1, 1)
            } else {
                Mult3::ONE
            };
            (AuTuple::new(row), mult)
        }),
    );
    // top-k → window → selection → projection: `dead` is never read, `v`
    // is read by the aggregate alone and `g` by PARTITION BY alone; the
    // selection reads the window's `w`, the projection both appended
    // columns.
    let plan = Query::scan(rel)
        .sort_by_as(["k"], "p")
        .topk(9)
        .window(
            WindowSpec::rows(-1, 1)
                .order_by(["k"])
                .partition_by(["g"])
                .aggregate(Agg::sum("v"))
                .output("w"),
        )
        .select(RangeExpr::col(5).le(RangeExpr::lit(12)))
        .project_exprs([
            (RangeExpr::col(5), "w"),
            (RangeExpr::Neg(Box::new(RangeExpr::col(4))), "neg_p"),
        ])
        .build()
        .unwrap();
    let optimized = optimize(&plan);
    let rules = &optimized.opt().expect("pruning fires").rules;
    assert_eq!(rules.len(), 1, "{rules:?}");
    assert_eq!(rules[0].rule, "prune-dead-columns");
    assert!(
        rules[0].reason.contains("[\"dead\"]"),
        "{}",
        rules[0].reason
    );
    let rendered: Vec<String> = optimized.ops().iter().map(Op::to_string).collect();
    assert_eq!(
        rendered,
        [
            "topk k=9 [1] → p",
            "window [-1, 1] Sum(3) over [1] partition [2] → w",
            "project [k, g, v, p, w]",
            "select σ",
            "project [w, neg_p]",
        ]
    );
    let select = &optimized.ops()[3];
    let renumbered = RangeExpr::col(4).le(RangeExpr::lit(12));
    assert_eq!(select, &Op::Select { pred: renumbered });
    assert_eq!(optimized.schema(), plan.schema());
    for method in Engine::ALL {
        let plain = method.execute(&plan).unwrap().to_rows();
        let opt = method.execute(&optimized).unwrap().to_rows();
        assert!(!plain.is_empty());
        assert!(opt.bag_eq(&plain), "{method}:\n{opt}\nvs\n{plain}");
    }
}

// ------------------------------------------------------------------
// Appended in pieces ≡ registered whole
// ------------------------------------------------------------------

mod appended_in_pieces {
    use super::au_relation;
    use audb::core::{AuRelation, AuTuple, Mult3, RangeValue};
    use audb::engine::{exec, Engine, Session, SharedCatalog, SEGMENT_ROWS};
    use audb::rel::{Schema, Value};
    use audb::workloads::read_au_csv_columns;
    use proptest::prelude::*;

    /// Every statement shape of `bound_preservation`'s
    /// `sql_answers_bound_every_world` over `t(a, b)` — the bare `WHERE`,
    /// and the `WHERE` under and around a sort, a top-k and a window —
    /// plus the window's `PARTITION BY`.
    fn statement_strategy() -> impl Strategy<Value = String> {
        let over = prop_oneof![
            Just(None),
            (
                prop_oneof![Just("a"), Just("b"), Just("a, b")],
                prop_oneof![Just(None), (1u64..4).prop_map(Some)],
            )
                .prop_map(|(order, k)| {
                    let limit = k.map_or(String::new(), |k| format!(" LIMIT {k}"));
                    Some(("*".to_string(), format!(" ORDER BY {order} AS pos{limit}")))
                }),
            (
                proptest::bool::ANY,
                prop_oneof![Just("SUM"), Just("MIN"), Just("MAX"), Just("COUNT")],
                prop_oneof![Just((0i64, 0i64)), Just((1, 0)), Just((2, 0)), Just((1, 1))],
                proptest::bool::ANY,
            )
                .prop_map(|(order_a, agg, (l, u), partitioned)| {
                    let (order, other) = if order_a { ("a", "b") } else { ("b", "a") };
                    let arg = if agg == "COUNT" { "*" } else { other };
                    let partition = if partitioned {
                        format!("PARTITION BY {other} ")
                    } else {
                        String::new()
                    };
                    let item = format!(
                        "*, {agg}({arg}) OVER ({partition}ORDER BY {order} \
                         ROWS BETWEEN {l} PRECEDING AND {u} FOLLOWING) AS x"
                    );
                    Some((item, String::new()))
                }),
        ];
        ((0usize..2, -1i64..16), proptest::bool::ANY, over).prop_map(
            |((col, lit), filter_below, over)| {
                let filter = format!("WHERE {} < {lit}", ["a", "b"][col]);
                match over {
                    None => format!("SELECT * FROM t {filter}"),
                    Some((items, tail)) if filter_below => {
                        format!("SELECT {items} FROM (SELECT * FROM t {filter}){tail}")
                    }
                    Some((items, tail)) => {
                        format!("SELECT * FROM (SELECT {items} FROM t{tail}) {filter}")
                    }
                }
            },
        )
    }

    /// `rows[..cuts[0]]` registered, the rest appended piece by piece (an
    /// empty piece publishes nothing).
    fn in_pieces(rel: &AuRelation, cuts: &[usize]) -> SharedCatalog {
        let piece = |from: usize, to: usize| {
            let rows = rel.rows()[from..to].iter();
            AuRelation::from_rows(
                rel.schema.clone(),
                rows.map(|row| (row.tuple.clone(), row.mult)),
            )
        };
        let catalog = SharedCatalog::new();
        catalog.register("t", piece(0, cuts[0]));
        for pair in cuts.windows(2) {
            catalog.append("t", &piece(pair[0], pair[1])).unwrap();
        }
        catalog
    }

    /// `sql` over `pieces` against `sql` over `whole`, on every method —
    /// the native one at every batch size, through its runner; the
    /// oracles, whose runner has no batch size, once: the same rows in the
    /// same order on native, the same bag elsewhere; and on native every
    /// batch of every segment is accounted for, skipped or scanned, when
    /// `source_fused_only` says the statement's one fused stage is the one
    /// over the source.
    fn assert_same_answers(
        whole: &SharedCatalog,
        pieces: &SharedCatalog,
        sql: &str,
        batch_sizes: &[usize],
        methods: &[Engine],
        source_fused_only: bool,
    ) {
        for &method in methods {
            let sizes = if method == Engine::Native {
                batch_sizes
            } else {
                &batch_sizes[..1]
            };
            for &batch_size in sizes {
                let run = |catalog: &SharedCatalog| {
                    let session = Session::with_catalog(method, catalog.clone());
                    let prepared = session.prepare(sql).expect("generated SQL compiles");
                    let recorder = exec::Recorder::default();
                    let ran = match method {
                        Engine::Native => {
                            exec::run_pipelined(prepared.plan(), batch_size, true, &recorder)
                        }
                        oracle => oracle.execute(prepared.plan()),
                    };
                    let out = ran.expect("generated SQL runs");
                    (prepared, out.to_rows(), recorder.finish())
                };
                let (_, want, _) = run(whole);
                let (prepared, got, trace) = run(pieces);
                let what = format!("{sql}\non {method}, batch {batch_size}");
                if method == Engine::Native {
                    assert_eq!(got.rows(), want.rows(), "{what}");
                    if source_fused_only {
                        let layout = prepared.plan().source_columns().segments();
                        let batches: usize = (layout.iter())
                            .map(|s| s.columns().len().div_ceil(batch_size))
                            .sum();
                        let seen = trace.batches_skipped + trace.batches_scanned;
                        assert_eq!(seen, batches, "{what}");
                    }
                } else {
                    assert!(got.bag_eq(&want), "{what}\npieces:\n{got}\nwhole:\n{want}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A table registered in part and appended to — the registered
        /// segment is never extended, so any append makes it
        /// multi-segment — answers every statement as the same rows
        /// registered whole do.
        #[test]
        fn appended_in_pieces_equals_registered_whole(
            rel in au_relation(0..=14),
            cuts in proptest::collection::vec(0usize..15, 1..=4),
            sql in statement_strategy(),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (rel.len() + 1)).collect();
            cuts.push(rel.len());
            cuts.sort_unstable();
            let whole = SharedCatalog::new();
            whole.register("t", rel.clone());
            let pieces = in_pieces(&rel, &cuts);
            // The layout the cuts say: the registered rows, and (under
            // the seal) everything appended in one tail.
            let stored = pieces.snapshot();
            let lens: Vec<usize> = (stored.get("t").unwrap().segments().iter())
                .map(|s| s.columns().len())
                .collect();
            let appended = rel.len() - cuts[0];
            let want = if appended == 0 { vec![cuts[0]] } else { vec![cuts[0], appended] };
            prop_assert_eq!(lens, want);

            let source_fused_only = sql.contains("(SELECT * FROM t WHERE")
                || sql.starts_with("SELECT * FROM t WHERE");
            assert_same_answers(
                &whole,
                &pieces,
                &sql,
                &[1, 7, 1024],
                &Engine::ALL,
                source_fused_only,
            );
        }
    }

    /// The real seal, crossed: appends of 1, 64, `SEGMENT_ROWS − 1`,
    /// `SEGMENT_ROWS` and `SEGMENT_ROWS + 1` rows in sequence leave four
    /// appended segments behind the registered one. `id` is clustered, so
    /// zone maps decide most batches — each segment's by its own.
    #[test]
    fn appends_across_the_seal_answer_as_the_whole_relation() {
        let s = SEGMENT_ROWS;
        let pieces = [500, 1, 64, s - 1, s, s + 1, 3];
        let total: usize = pieces.iter().sum();
        let mut state = 0x5EA1_u64;
        let rel = AuRelation::from_rows(
            Schema::new(["id", "v"]),
            (0..total as i64).map(|id| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % 1000) as i64;
                let v = match state % 5 {
                    0 => RangeValue::new(v - 3, v, v + 2),
                    _ => RangeValue::certain(v),
                };
                let mult = match state % 97 {
                    0 => Mult3::ZERO,
                    1 => Mult3::new(0, 1, 1),
                    _ => Mult3::ONE,
                };
                (AuTuple::new([RangeValue::certain(id), v]), mult)
            }),
        );
        let cuts: Vec<usize> = (pieces.iter())
            .scan(0, |at, n| {
                *at += n;
                Some(*at)
            })
            .collect();
        let whole = SharedCatalog::new();
        whole.register("t", rel.clone());
        let appended = in_pieces(&rel, &cuts);
        let stored = appended.snapshot();
        let lens: Vec<usize> = (stored.get("t").unwrap().segments().iter())
            .map(|seg| seg.columns().len())
            .collect();
        assert_eq!(lens, [500, s + 64, s, s + 1, 3]);

        let last = total as i64;
        for (sql, source_fused_only) in [
            // The tail alone, the registered rows alone, a band across two
            // sealed segments, nothing, everything.
            (format!("SELECT * FROM t WHERE id >= {}", last - 2), true),
            ("SELECT id FROM t WHERE id < 40".to_string(), true),
            (
                format!(
                    "SELECT * FROM (SELECT * FROM t WHERE id >= {} AND id < {}) \
                     ORDER BY v, id AS pos LIMIT 7",
                    500 + s,
                    500 + s + 300
                ),
                true,
            ),
            ("SELECT * FROM t WHERE id < 0".to_string(), true),
            (
                "SELECT * FROM t ORDER BY v, id AS pos LIMIT 5".to_string(),
                false,
            ),
            (
                format!(
                    "SELECT *, SUM(v) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND \
                     CURRENT ROW) AS x FROM (SELECT * FROM t WHERE id >= {})",
                    last - 600
                ),
                true,
            ),
        ] {
            assert_same_answers(
                &whole,
                &appended,
                &sql,
                &[7, 1024],
                &[Engine::Native],
                source_fused_only,
            );
        }
        // The quadratic oracles, on statements that leave them little.
        for sql in [
            format!(
                "SELECT * FROM t WHERE id >= {} ORDER BY v AS pos",
                last - 40
            ),
            "SELECT id FROM t WHERE id < 9".to_string(),
        ] {
            let oracles = [Engine::Rewrite, Engine::Reference];
            assert_same_answers(&whole, &appended, &sql, &[1024], &oracles, false);
        }
    }

    fn rows(schema: &Schema, rows: &[(&[RangeValue], Mult3)]) -> AuRelation {
        AuRelation::from_rows(
            schema.clone(),
            rows.iter()
                .map(|(t, m)| (AuTuple::new(t.iter().cloned()), *m)),
        )
    }

    fn register_then_append(base: &AuRelation, batch: &AuRelation) -> [SharedCatalog; 2] {
        let whole = SharedCatalog::new();
        let mut all = base.clone();
        all.append(&mut batch.clone());
        whole.register("t", all);
        let pieces = SharedCatalog::new();
        pieces.register("t", base.clone());
        pieces.append("t", batch).unwrap();
        [whole, pieces]
    }

    const EVERY_BATCH: [usize; 3] = [1, 7, 1024];

    /// An exact duplicate of a registered row, appended: the registered
    /// segment is in canonical form and says so, the two segments end to
    /// end are not — the sort must merge the copies, and the window must
    /// find the duplicate multiplicity and take the reference, exactly as
    /// over the relation stored whole.
    #[test]
    fn an_appended_duplicate_of_a_registered_row_merges() {
        let schema = Schema::new(["a", "b"]);
        let rv = RangeValue::new;
        let base = rows(
            &schema,
            &[
                (&[rv(1, 2, 4), RangeValue::certain(10i64)], Mult3::ONE),
                (&[rv(2, 3, 5), RangeValue::certain(7i64)], Mult3::ONE),
                (
                    &[rv(6, 6, 6), RangeValue::certain(1i64)],
                    Mult3::new(0, 1, 1),
                ),
            ],
        )
        .normalize();
        assert!(base.is_normalized());
        // The batch is in canonical form too: only their concatenation is not.
        let dup = &base.rows()[0];
        let batch = rows(&schema, &[(&dup.tuple.0, dup.mult)]).normalize();
        assert!(batch.is_normalized());
        let [whole, pieces] = register_then_append(&base, &batch);

        let sort = "SELECT * FROM t ORDER BY a AS pos";
        let window = "SELECT *, SUM(b) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING \
                      AND CURRENT ROW) AS x FROM t";
        for sql in [sort, window] {
            assert_same_answers(&whole, &pieces, sql, &EVERY_BATCH, &Engine::ALL, false);
        }
        let native = Session::with_catalog(Engine::native(), pieces.clone());
        let reference = Session::with_catalog(Engine::reference(), pieces);
        // Merged, the copies are one row of multiplicity 2 that `split`
        // lays out at two positions: four output rows, not the three
        // (or the unmerged four at other positions) of any other reading.
        let sorted = native.sql(sort).unwrap();
        assert!(sorted.bag_eq(&reference.sql(sort).unwrap()), "{sorted}");
        assert_eq!(sorted.len(), 4);
        assert!(native
            .sql(window)
            .unwrap()
            .bag_eq(&reference.sql(window).unwrap()));
    }

    /// `(0, 0, 0)` rows on both sides of a segment edge: stored, never
    /// answered.
    #[test]
    fn zero_annotated_rows_at_a_segment_edge_stay_out() {
        let schema = Schema::new(["a", "b"]);
        let c = |v: i64| RangeValue::certain(v);
        let base = rows(
            &schema,
            &[(&[c(1), c(5)], Mult3::ONE), (&[c(2), c(6)], Mult3::ZERO)],
        );
        let batch = rows(
            &schema,
            &[(&[c(0), c(7)], Mult3::ZERO), (&[c(3), c(8)], Mult3::ONE)],
        );
        let [whole, pieces] = register_then_append(&base, &batch);
        for (sql, source_fused_only) in [
            ("SELECT a FROM t", true),
            ("SELECT * FROM t WHERE a < 3", true),
            ("SELECT * FROM t ORDER BY a AS pos", false),
            ("SELECT *, COUNT(*) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS x FROM t", false),
        ] {
            assert_same_answers(
                &whole,
                &pieces,
                sql,
                &EVERY_BATCH,
                &Engine::ALL,
                source_fused_only,
            );
        }
        let session = Session::with_catalog(Engine::native(), pieces);
        assert_eq!(session.sql("SELECT a FROM t").unwrap().len(), 2);
        assert_eq!(
            session.sql("SELECT * FROM t").unwrap().len(),
            4,
            "a bare scan shows what is stored"
        );
    }

    /// Lane classes that differ between the registered segment and the
    /// batch — integers into a float-admitted column, strings the
    /// dictionary has not seen — through the served ingest path (CSV
    /// straight to columns): each segment keeps its own lanes, and the
    /// answers are those of the concatenated rows transposed at once.
    #[test]
    fn batches_of_another_lane_class_answer_alike() {
        use audb::core::PhysType;
        let base = read_au_csv_columns("x,s\n1.5,pear\n2,fig\n0.25,pear\n".as_bytes()).unwrap();
        let batch = read_au_csv_columns("x,s\n3,kiwi\n1,fig\n2,lime\n".as_bytes()).unwrap();
        assert_eq!(base.col_phys_types(), [PhysType::F64, PhysType::Str]);
        assert_eq!(batch.col_phys_types(), [PhysType::I64, PhysType::Str]);

        let mut all = base.to_rows();
        all.append(&mut batch.to_rows());
        let whole = SharedCatalog::new();
        whole.register("t", all);
        let pieces = SharedCatalog::new();
        pieces.register_columns("t", base);
        pieces.append_columns("t", batch.clone()).unwrap();
        // A second batch of the first's class extends the tail's lanes.
        pieces.append_columns("t", batch.clone()).unwrap();
        whole.append("t", &batch.to_rows()).unwrap();
        let stored = pieces.snapshot();
        let segments = stored.get("t").unwrap().segments();
        assert_eq!(
            segments[0].columns().col_phys_types(),
            [PhysType::F64, PhysType::Str]
        );
        assert_eq!(
            segments[1].columns().col_phys_types(),
            [PhysType::I64, PhysType::Str]
        );
        assert_eq!(segments[1].columns().len(), 6);

        for (sql, source_fused_only) in [
            ("SELECT s, x FROM t WHERE x < 2", true),
            ("SELECT * FROM t ORDER BY x, s AS pos", false),
            ("SELECT * FROM t ORDER BY s, x AS pos LIMIT 3", false),
            ("SELECT *, MAX(x) OVER (PARTITION BY s ORDER BY x ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS m FROM t", false),
            ("SELECT * FROM (SELECT * FROM t WHERE x >= 1) ORDER BY s AS pos", true),
        ] {
            assert_same_answers(
                &whole,
                &pieces,
                sql,
                &EVERY_BATCH,
                &Engine::ALL,
                source_fused_only,
            );
        }
        // The strings the batch introduced are found, and order as strings.
        let session = Session::with_catalog(Engine::native(), pieces);
        let top = session
            .sql("SELECT s FROM t ORDER BY s AS pos LIMIT 1")
            .unwrap();
        assert!(
            top.rows()
                .iter()
                .any(|r| r.tuple.get(0).sg == Value::str("fig")),
            "{top}"
        );
        assert_eq!(session.sql("SELECT s FROM t WHERE x < 2").unwrap().len(), 4);
    }

    /// A `PARTITION BY` attribute certain in every registered row and
    /// uncertain in one appended one: the native window refuses the whole
    /// input and the reference answers, whichever segment the range is in.
    #[test]
    fn an_uncertain_partition_value_in_the_tail_reroutes_the_window() {
        let schema = Schema::new(["g", "o", "v"]);
        let c = |v: i64| RangeValue::certain(v);
        let base = rows(
            &schema,
            &[
                (&[c(0), c(1), RangeValue::new(1, 2, 3)], Mult3::ONE),
                (&[c(1), c(2), c(4)], Mult3::ONE),
                (&[c(0), c(3), c(5)], Mult3::new(0, 1, 1)),
            ],
        );
        let batch = rows(
            &schema,
            &[
                (&[c(1), c(4), c(6)], Mult3::ONE),
                (
                    &[RangeValue::new(0, 0, 1), c(5), RangeValue::new(6, 7, 9)],
                    Mult3::ONE,
                ),
            ],
        );
        let [whole, pieces] = register_then_append(&base, &batch);
        let sql = "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o ROWS BETWEEN 1 PRECEDING \
                   AND CURRENT ROW) AS x FROM t";
        assert_same_answers(&whole, &pieces, sql, &EVERY_BATCH, &Engine::ALL, false);
        let native = Session::with_catalog(Engine::native(), pieces.clone());
        let reference = Session::with_catalog(Engine::reference(), pieces.clone());
        assert!(native
            .sql(sql)
            .unwrap()
            .bag_eq(&reference.sql(sql).unwrap()));
        // The optimizer reads certainty over every segment: a filter on
        // `g` may not move below this window.
        let around = format!("SELECT * FROM ({sql}) WHERE g < 1");
        let plan = native.prepare(&around).unwrap();
        let ops: Vec<&str> = plan.plan().ops().iter().map(|op| op.name()).collect();
        assert_eq!(ops, ["window", "select"]);
        assert_same_answers(&whole, &pieces, &around, &EVERY_BATCH, &Engine::ALL, false);
    }
}
