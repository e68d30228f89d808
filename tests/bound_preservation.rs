//! The paper's central correctness property (Theorems 1 and 2), verified
//! mechanically: for random incomplete databases, the AU-DB result of
//! sort / top-k / windowed aggregation **bounds the deterministic result of
//! every possible world** — checked with the exact tuple-matching max-flow
//! of `audb_worlds::bounding`, not with a weaker heuristic.
//!
//! Operator by operator first, then through the path users run: SQL text →
//! bind → optimizer rewrites → zone pruning → the executor of each backend.

use audb::core::{AuRelation, AuWindowSpec, WinAgg};
use audb::engine::{exec, Engine, Session, SharedCatalog};
use audb::rel::ops::sort::topk_with_pos;
use audb::rel::{
    select, sort_to_pos, window_rows, AggFunc, Expr, Relation, Schema, Tuple, Value, WindowSpec,
};
use audb::worlds::{bounds_world, enumerate_worlds, Alternative, XTuple, XTupleTable};
use proptest::prelude::*;

/// Random small x-tuple tables: ≤ 6 tuples, ≤ 3 alternatives each over a
/// tiny value domain (collisions and ties actively exercised), optional
/// absence, and occasionally a declared range wider than the hull. A
/// quarter of the tables end in a second copy of their first x-tuple, so
/// normalization merges the two into one row of `k↑ = 2` (`k↓ = 2` where
/// both certainly exist) — in half of them a certain point.
fn table_strategy() -> impl Strategy<Value = XTupleTable> {
    let alt = (0i64..8, 0i64..8);
    let xtuple = (
        proptest::collection::vec(alt, 1..=3),
        proptest::bool::ANY, // may be absent?
        proptest::bool::ANY, // widen declared ranges?
    )
        .prop_map(|(alts, absent, widen)| {
            let present: f64 = if absent { 0.5 } else { 1.0 };
            let p = present / alts.len() as f64;
            let xt = XTuple::new(
                alts.iter()
                    .map(|&(a, b)| Alternative {
                        tuple: Tuple::from([a, b]),
                        prob: p,
                    })
                    .collect(),
            );
            if widen {
                let lo0 = alts.iter().map(|a| a.0).min().unwrap();
                let hi0 = alts.iter().map(|a| a.0).max().unwrap();
                let lo1 = alts.iter().map(|a| a.1).min().unwrap();
                let hi1 = alts.iter().map(|a| a.1).max().unwrap();
                xt.with_declared(vec![
                    (Value::Int(lo0 - 1), Value::Int(hi0 + 1)),
                    (Value::Int(lo1), Value::Int(hi1 + 2)),
                ])
            } else {
                xt
            }
        });
    (proptest::collection::vec(xtuple, 1..=6), 0..8).prop_map(|(mut tuples, repeat)| {
        if repeat < 2 && tuples.len() > 1 {
            if repeat == 1 {
                // A certain point: its two copies merge into `(2,2,2)`.
                let tuple = tuples[0].alternatives[0].tuple.clone();
                tuples[0] = XTuple::new(vec![Alternative { tuple, prob: 1.0 }]);
            }
            let first = tuples[0].clone();
            *tuples.last_mut().expect("two x-tuples") = first;
        }
        XTupleTable::new(Schema::new(["a", "b"]), tuples)
    })
}

/// One statement of the supported grammar over the table `t(a, b)`, held
/// as data so the same description renders the SQL text and evaluates the
/// deterministic answer in a possible world.
#[derive(Clone, Debug)]
struct Statement {
    /// `WHERE <filter.0> < <filter.1>` (column index, literal).
    filter: (usize, i64),
    /// Where the `WHERE` sits when `over` is a breaker: in a sub-select
    /// below it, or around it — the shape the optimizer's pushdown rules
    /// rewrite.
    filter_below: bool,
    over: Over,
}

#[derive(Clone, Debug)]
enum Over {
    /// The bare `WHERE`.
    Nothing,
    /// `ORDER BY <order> AS pos [LIMIT k]`.
    Rank { order: Vec<usize>, k: Option<u64> },
    /// `<agg> OVER ([PARTITION BY <other>] ORDER BY <order> ROWS BETWEEN l
    /// PRECEDING AND u FOLLOWING) AS x`, aggregating the other column —
    /// which is a range wherever an x-tuple's alternatives differ on it.
    Window {
        order: usize,
        partitioned: bool,
        agg: &'static str,
        l: i64,
        u: i64,
    },
}

const COLS: [&str; 2] = ["a", "b"];

fn statement_strategy() -> impl Strategy<Value = Statement> {
    let over = prop_oneof![
        Just(Over::Nothing),
        (
            prop_oneof![Just(vec![0]), Just(vec![1]), Just(vec![0, 1])],
            prop_oneof![Just(None), (1u64..4).prop_map(Some)],
        )
            .prop_map(|(order, k)| Over::Rank { order, k }),
        (
            0usize..2,
            proptest::bool::ANY,
            prop_oneof![Just("SUM"), Just("MIN"), Just("MAX"), Just("COUNT")],
            prop_oneof![Just((0i64, 0i64)), Just((1, 0)), Just((2, 0)), Just((1, 1))],
        )
            .prop_map(|(order, partitioned, agg, (l, u))| Over::Window {
                order,
                partitioned,
                agg,
                l,
                u
            }),
    ];
    // Literals reach past both ends of the value domain, so zone maps
    // prove some predicates false, and some true, over the whole table.
    ((0usize..2, -1i64..11), proptest::bool::ANY, over).prop_map(|(filter, filter_below, over)| {
        Statement {
            filter,
            filter_below,
            over,
        }
    })
}

impl Statement {
    fn sql(&self) -> String {
        let filter = format!("WHERE {} < {}", COLS[self.filter.0], self.filter.1);
        let (items, tail) = match &self.over {
            Over::Nothing => return format!("SELECT * FROM t {filter}"),
            Over::Rank { order, k } => {
                let cols: Vec<&str> = order.iter().map(|&c| COLS[c]).collect();
                let limit = k.map_or(String::new(), |k| format!(" LIMIT {k}"));
                (
                    "*".to_string(),
                    format!(" ORDER BY {} AS pos{limit}", cols.join(", ")),
                )
            }
            Over::Window {
                order,
                partitioned,
                agg,
                l,
                u,
            } => {
                let arg = if *agg == "COUNT" {
                    "*"
                } else {
                    COLS[1 - order]
                };
                let partition = match partitioned {
                    true => format!("PARTITION BY {} ", COLS[1 - order]),
                    false => String::new(),
                };
                (
                    format!(
                        "*, {agg}({arg}) OVER ({partition}ORDER BY {} ROWS BETWEEN {l} \
                         PRECEDING AND {u} FOLLOWING) AS x",
                        COLS[*order]
                    ),
                    String::new(),
                )
            }
        };
        if self.filter_below {
            format!("SELECT {items} FROM (SELECT * FROM t {filter}){tail}")
        } else {
            format!("SELECT * FROM (SELECT {items} FROM t{tail}) {filter}")
        }
    }

    /// The statement's answer in one possible world, by the deterministic
    /// operators of `audb-rel`.
    fn eval(&self, world: &Relation) -> Relation {
        let filter =
            |rel: &Relation| select(rel, &Expr::col(self.filter.0).lt(Expr::lit(self.filter.1)));
        let over = |rel: &Relation| match &self.over {
            Over::Nothing => rel.clone(),
            Over::Rank { order, k: None } => sort_to_pos(rel, order, "pos"),
            Over::Rank { order, k: Some(k) } => topk_with_pos(rel, order, *k),
            Over::Window {
                order,
                partitioned,
                agg,
                l,
                u,
            } => {
                let arg = 1 - order;
                let agg = match *agg {
                    "SUM" => AggFunc::Sum(arg),
                    "MIN" => AggFunc::Min(arg),
                    "MAX" => AggFunc::Max(arg),
                    _ => AggFunc::Count,
                };
                let partition = if *partitioned { vec![arg] } else { vec![] };
                let spec = WindowSpec::rows(vec![*order], -l, *u).partition_by(partition);
                window_rows(rel, &spec, agg, "x")
            }
        };
        if self.filter_below {
            over(&filter(world))
        } else {
            filter(&over(world))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorems 1 and 2 through the path users run: a registered table,
    /// SQL text, the optimizer, zone pruning and each method's executor —
    /// the native one at the degenerate and the default batch size. Every
    /// world's deterministic answer lies within the returned bounds.
    #[test]
    fn sql_answers_bound_every_world(
        table in table_strategy(),
        stmt in statement_strategy(),
    ) {
        let sql = stmt.sql();
        // Methods and batch sizes must agree bag-wise; each distinct
        // answer is checked against the worlds once.
        let mut answers: Vec<(String, AuRelation)> = Vec::new();
        let catalog = SharedCatalog::new();
        catalog.register("t", table.to_au_relation());
        for method in Engine::ALL {
            let session = Session::with_catalog(method, catalog.clone());
            for &batch_size in batch_sizes(method) {
                let out = run_sql(&session, &sql, batch_size);
                if !answers.iter().any(|(_, seen)| seen.bag_eq(&out)) {
                    answers.push((format!("{method} batch {batch_size}"), out));
                }
            }
        }
        check_worlds(&table, &stmt, &answers);
    }
}

/// The batch sizes `method` runs at: the native one at the degenerate and
/// the default size; the oracles' runner has no batch size.
fn batch_sizes(method: Engine) -> &'static [usize] {
    match method {
        Engine::Native => &[1, 1024],
        _ => &[1024],
    }
}

/// `sql` through `session`'s method, as rows — the native one at
/// `batch_size`, through its runner.
fn run_sql(session: &Session, sql: &str, batch_size: usize) -> AuRelation {
    let prepared = session.prepare(sql).expect("generated SQL compiles");
    let plan = prepared.plan();
    let out = match session.engine() {
        Engine::Native => exec::run_pipelined(plan, batch_size, true, &()),
        oracle => oracle.execute(plan),
    };
    out.expect("generated SQL runs").to_rows()
}

/// Every world of `table` under `stmt` lies within each of `answers`.
fn check_worlds(table: &XTupleTable, stmt: &Statement, answers: &[(String, AuRelation)]) {
    for w in enumerate_worlds(table, 4096) {
        let det = stmt.eval(&w.relation);
        for (who, out) in answers {
            assert!(
                bounds_world(out, &det),
                "{}\non {who}, {} x-tuples: world answer {det} not bounded by\n{out}",
                stmt.sql(),
                table.len()
            );
        }
    }
}

/// Frame offsets at the `i64` edge (`… AND 9223372036854775807
/// FOLLOWING`): `τ ± offset` used to wrap into a one-row window on every
/// backend, so `run_all` agreed on bounds that excluded the truth. Such a
/// frame is a frame wider than the table — the same answer as one, on each
/// backend, and every world within it.
#[test]
fn frames_at_the_i64_edge_are_frames_wider_than_the_table() {
    let alt = |a: i64, b: i64, prob: f64| Alternative {
        tuple: Tuple::from([a, b]),
        prob,
    };
    let table = XTupleTable::new(
        Schema::new(["a", "b"]),
        vec![
            XTuple::new(vec![alt(1, 5, 0.5), alt(3, 2, 0.5)]),
            XTuple::new(vec![alt(2, 7, 1.0)]),
            XTuple::new(vec![alt(2, 1, 0.25), alt(6, 4, 0.25)]),
            XTuple::new(vec![alt(4, 4, 1.0)]),
            XTuple::new(vec![alt(0, 3, 0.5), alt(5, 6, 0.5)]),
        ],
    );
    let catalog = SharedCatalog::new();
    catalog.register("t", table.to_au_relation());
    for (l, u) in [(2, i64::MAX), (i64::MAX, 0), (i64::MAX, i64::MAX)] {
        for agg in ["SUM", "MIN", "COUNT"] {
            let window = |l, u| Statement {
                filter: (0, 100),
                filter_below: true,
                over: Over::Window {
                    order: 0,
                    partitioned: false,
                    agg,
                    l,
                    u,
                },
            };
            let (edge, wide) = (window(l, u), window(l.min(100), u.min(100)));
            for method in Engine::ALL {
                let session = Session::with_catalog(method, catalog.clone());
                let out = session.sql(&edge.sql()).expect("an i64 offset parses");
                let as_wide = session.sql(&wide.sql()).unwrap();
                assert!(
                    out.bag_eq(&as_wide),
                    "{method}: {}\n{out}\nvs {}\n{as_wide}",
                    edge.sql(),
                    wide.sql()
                );
                check_worlds(&table, &edge, &[(method.to_string(), out)]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same property where statements share a table's stored form and
    /// the table grows under them: register part of the x-tuples → a
    /// filtered top-k → a second statement over the same version (the same
    /// handle) → the remaining x-tuples appended in a random split → the
    /// first statement again (a new version: the registered segment
    /// shared, a tail of its own). The registered segment is never
    /// extended, so every append — however small — leaves the table in
    /// several segments: the last step is world enumeration over
    /// segmented storage, its zone verdicts per segment and its breakers
    /// over a concatenation. Each answer bounds every world of the table
    /// *as of its statement*.
    #[test]
    fn sql_answers_bound_every_world_across_statements_and_appends(
        table in table_strategy(),
        topk in (statement_strategy(), prop_oneof![Just(vec![0]), Just(vec![1]), Just(vec![0, 1])], 1u64..4)
            .prop_map(|(stmt, order, k)| Statement { over: Over::Rank { order, k: Some(k) }, ..stmt }),
        second in statement_strategy(),
        cuts in (0usize..6, 0usize..6),
    ) {
        let part = |range: std::ops::Range<usize>| {
            XTupleTable::new(table.schema.clone(), table.tuples[range].to_vec())
        };
        let head = 1 + cuts.0 % table.len();
        let mid = head + cuts.1 % (table.len() - head + 1);
        let registered = part(0..head);
        // One answer list per step; methods and batch sizes that agree
        // bag-wise are checked against the worlds once.
        let mut steps: [Vec<(String, AuRelation)>; 3] = Default::default();
        for method in [Engine::Native, Engine::Rewrite] {
            for &batch_size in batch_sizes(method) {
                let catalog = SharedCatalog::new();
                catalog.register("t", registered.to_au_relation());
                let session = Session::with_catalog(method, catalog.clone());
                let mut run = |step: usize, stmt: &Statement| {
                    let out = run_sql(&session, &stmt.sql(), batch_size);
                    if !steps[step].iter().any(|(_, seen)| seen.bag_eq(&out)) {
                        steps[step].push((format!("{method} batch {batch_size}"), out));
                    }
                };
                run(0, &topk);
                run(1, &second);
                for batch in [part(head..mid), part(mid..table.len())] {
                    if !batch.is_empty() {
                        catalog.append("t", &batch.to_au_relation()).expect("same schema");
                    }
                }
                run(2, &topk);
            }
        }
        check_worlds(&registered, &topk, &steps[0]);
        check_worlds(&registered, &second, &steps[1]);
        check_worlds(&table, &topk, &steps[2]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: sorting is bound preserving.
    #[test]
    fn sort_bounds_every_world(table in table_strategy()) {
        let au = table.to_au_relation();
        let sorted = audb::native::sort_native(&au, &[0], "pos");
        for w in enumerate_worlds(&table, 4096) {
            let det = sort_to_pos(&w.relation, &[0], "pos");
            prop_assert!(
                bounds_world(&sorted, &det),
                "world {:?} not bounded by\n{sorted}",
                det
            );
        }
    }

    /// Top-k = sort + selection is bound preserving.
    #[test]
    fn topk_bounds_every_world(table in table_strategy(), k in 1u64..4) {
        let au = table.to_au_relation();
        let top = audb::native::topk_native(&au, &[0], k, "pos");
        for w in enumerate_worlds(&table, 4096) {
            let det = sort_to_pos(&w.relation, &[0], "pos");
            let pos_col = det.schema.arity() - 1;
            let det_top = select(&det, &Expr::col(pos_col).lt(Expr::lit(k as i64)));
            prop_assert!(
                bounds_world(&top, &det_top),
                "world top-{k} {det_top} not bounded by\n{top}"
            );
        }
    }

    /// Theorem 2: windowed aggregation is bound preserving (native).
    #[test]
    fn window_bounds_every_world(
        table in table_strategy(),
        lu in prop_oneof![Just((0i64, 0i64)), Just((-1, 0)), Just((-2, 0)), Just((-1, 1))],
        agg in prop_oneof![
            Just((WinAgg::Sum(1), AggFunc::Sum(1))),
            Just((WinAgg::Count, AggFunc::Count)),
            Just((WinAgg::Min(1), AggFunc::Min(1))),
            Just((WinAgg::Max(1), AggFunc::Max(1))),
        ],
    ) {
        let (l, u) = lu;
        let (au_agg, det_agg) = agg;
        let au = table.to_au_relation();
        let spec = AuWindowSpec::rows(vec![0], l, u);
        let out = audb::native::window_native(&au, &spec, au_agg, "x");
        for w in enumerate_worlds(&table, 4096) {
            let det = window_rows(&w.relation, &WindowSpec::rows(vec![0], l, u), det_agg, "x");
            prop_assert!(
                bounds_world(&out, &det),
                "world window result {det} not bounded by\n{out}"
            );
        }
    }

    /// The rewrite method is bound preserving too (it must be — it equals
    /// the reference — but this checks the full pipeline independently).
    #[test]
    fn rewrite_window_bounds_every_world(table in table_strategy()) {
        let au = table.to_au_relation();
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        let out = audb::rewrite::rewr_window(
            &au,
            &spec,
            WinAgg::Sum(1),
            "x",
            audb::rewrite::JoinStrategy::IntervalIndex,
        );
        for w in enumerate_worlds(&table, 4096) {
            let det = window_rows(&w.relation, &WindowSpec::rows(vec![0], -1, 0), AggFunc::Sum(1), "x");
            prop_assert!(bounds_world(&out, &det));
        }
    }

    /// The derived AU-DB itself bounds the incomplete database (sanity for
    /// the whole setup), including the selected-guess world condition.
    #[test]
    fn derived_audb_bounds_the_table(table in table_strategy()) {
        let au = table.to_au_relation();
        let worlds: Vec<_> = enumerate_worlds(&table, 4096)
            .into_iter()
            .map(|w| w.relation)
            .collect();
        prop_assert!(audb::worlds::bounds_incomplete(&au, &worlds, true));
    }
}
