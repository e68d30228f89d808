//! The pipeline executor's semantic contract: for **every** plan and
//! batch size, the backends that run it (native, rewrite — fused
//! select/project stages, morsel-parallel, breakers materializing) are
//! bag-equal to the reference backend's operator-at-a-time run over the
//! Defs. 2–3 row operators, which shares no select/project code with them.
//!
//! Plans here are deliberately richer than the cross-backend agreement
//! suite's: multiple streamable operators in a row (so fusion chains have
//! length > 1), streamable operators between breakers, and degenerate
//! batch sizes (1, input size, larger than input) that stress batch
//! boundaries. A second plan shape hands the breaker what the integer
//! tables never do: `select · project_exprs → sort | topk` over string,
//! `NULL` and computed-float order keys — the fused stage's columns reach
//! the native sort as dictionary, generic and `f64` lanes.

use audb::core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
use audb::engine::{optimize, Agg, BackendChoice, Engine, Plan, Query, WindowSpec};
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

fn au_relation(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        ((rv_strategy(), rv_strategy()), mult_strategy()),
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

/// A random plan: [`keyed_plan_strategy`], or [`chained_plan_strategy`]
/// twice as often.
fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop_oneof![
        chained_plan_strategy(),
        chained_plan_strategy(),
        keyed_plan_strategy(),
    ]
}

/// Up to three segments of (0–2 streamable ops, breaker), closed by a
/// final run of streamable ops — covering empty fusion chains, multi-op
/// fusion chains, consecutive breakers and trailing output pipelines.
fn chained_plan_strategy() -> impl Strategy<Value = Plan> {
    (
        au_relation(9),
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

    /// THE executor invariant: the pipelined backends ≡ the materialized
    /// reference, bag-wise, across batch sizes including the degenerate
    /// ones.
    #[test]
    fn pipelined_equals_materialized_on_all_backends(
        plan in plan_strategy(),
        batch_size in prop_oneof![Just(1usize), Just(2), Just(7), Just(1024)],
    ) {
        let materialized = Engine::reference().execute(&plan).expect("reference run");
        for choice in [BackendChoice::Native, BackendChoice::Rewrite] {
            let pipelined = Engine::new(choice)
                .with_batch_size(batch_size)
                .execute(&plan)
                .expect("pipelined run");
            prop_assert!(
                pipelined.bag_eq(&materialized),
                "{choice} batch {batch_size}:\npipelined:\n{pipelined}\nreference:\n{materialized}"
            );
        }
    }

    /// The same invariant through `run_all` (native/rewrite pipelined,
    /// reference materialized): identical bounds everywhere.
    #[test]
    fn run_all_agrees_through_the_pipeline_executor(plan in plan_strategy()) {
        let all = Engine::native().run_all(&plan).expect("backends agree");
        let direct = Engine::native().execute(&plan).expect("native executes");
        prop_assert!(all.output.bag_eq(&direct));
    }

    /// The optimizer's contract: every rewrite (select reordering, select
    /// pushdown below breakers, dead-column pruning) preserves AU-DB bag
    /// semantics on every backend.
    #[test]
    fn optimized_equals_unoptimized_on_all_backends(plan in plan_strategy()) {
        let optimized = optimize(&plan);
        for choice in BackendChoice::ALL {
            let plain = Engine::new(choice).execute(&plan).expect("unoptimized run");
            let opt = Engine::new(choice).execute(&optimized).expect("optimized run");
            prop_assert!(
                opt.bag_eq(&plain),
                "{choice}:\noptimized:\n{opt}\nunoptimized:\n{plain}\nrewrites: {:?}",
                optimized.opt().map(|o| &o.rules)
            );
        }
    }

    /// Zone-map batch skipping is invisible in the output: pruned
    /// pipelined execution is bag-equal to pruning-disabled execution on
    /// every backend and batch size.
    #[test]
    fn pruned_equals_unpruned_on_all_backends(
        plan in plan_strategy(),
        batch_size in prop_oneof![Just(1usize), Just(2), Just(7), Just(1024)],
    ) {
        for choice in BackendChoice::ALL {
            let unpruned = Engine::new(choice)
                .with_batch_size(batch_size)
                .with_pruning(false)
                .execute(&plan)
                .expect("unpruned run");
            let pruned = Engine::new(choice)
                .with_batch_size(batch_size)
                .execute(&plan)
                .expect("pruned run");
            prop_assert!(
                pruned.bag_eq(&unpruned),
                "{choice} batch {batch_size}:\npruned:\n{pruned}\nunpruned:\n{unpruned}"
            );
        }
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
    for choice in BackendChoice::ALL {
        let plain = Engine::new(choice).execute(&safe_plan).unwrap();
        let opt = Engine::new(choice).execute(&optimized).unwrap();
        assert!(opt.bag_eq(&plain), "{choice}");
    }
}
