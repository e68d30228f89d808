//! The SQL round-trip guarantee: for random builder-generated plans,
//! pretty-printing to SQL and reparsing through a session catalog yields
//! the *identical* plan (`parse ∘ print = id` — same operator chain, same
//! per-operator schemas, same shared source), and both plans produce
//! bag-equal bounds on **all three** backends (`run_all`).

use audb::core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
use audb::engine::{Agg, Engine, Plan, Query, Session, WindowSpec};
use audb::rel::{CmpOp, Schema};
use proptest::prelude::*;

fn rv_strategy() -> impl Strategy<Value = RangeValue> {
    (0i64..10, 0i64..4, 0i64..4)
        .prop_map(|(lb, d1, d2)| RangeValue::new(lb, lb + d1.min(d2), lb + d1.max(d2)))
}

fn mult_strategy() -> impl Strategy<Value = Mult3> {
    prop_oneof![
        Just(Mult3::ONE),
        Just(Mult3::new(0, 1, 1)),
        Just(Mult3::new(0, 0, 1)),
        Just(Mult3::new(1, 1, 2)),
    ]
}

fn au_relation() -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(((rv_strategy(), rv_strategy()), mult_strategy()), 1..=5).prop_map(
        |rows| {
            AuRelation::from_rows(
                Schema::new(["a", "b"]),
                rows.into_iter()
                    .map(|((a, b), m)| (AuTuple::new([a, b]), m)),
            )
        },
    )
}

/// Abstract operator choices with raw numeric parameters; `apply` fits
/// them to whatever schema the chain has reached, so every generated chain
/// builds successfully.
#[derive(Clone, Debug)]
enum OpSeed {
    Select {
        col: usize,
        cmp: usize,
        lit: i64,
        neg: bool,
    },
    Project {
        keep: Vec<usize>,
    },
    ProjectExprs {
        a: usize,
        b: usize,
    },
    Sort {
        cols: Vec<usize>,
        k: Option<u64>,
    },
    Window {
        order: usize,
        part: Option<usize>,
        frame: usize,
        agg: usize,
    },
}

fn op_seed() -> impl Strategy<Value = OpSeed> {
    prop_oneof![
        (0usize..8, 0usize..6, 0i64..12, proptest::bool::ANY)
            .prop_map(|(col, cmp, lit, neg)| { OpSeed::Select { col, cmp, lit, neg } }),
        proptest::collection::vec(0usize..8, 1..=3).prop_map(|keep| OpSeed::Project { keep }),
        (0usize..8, 0usize..8).prop_map(|(a, b)| OpSeed::ProjectExprs { a, b }),
        (
            proptest::collection::vec(0usize..8, 1..=2),
            prop_oneof![Just(None), (0u64..5).prop_map(Some)]
        )
            .prop_map(|(cols, k)| OpSeed::Sort { cols, k }),
        (
            0usize..8,
            prop_oneof![Just(None), (0usize..8).prop_map(Some)],
            0usize..5,
            0usize..5
        )
            .prop_map(|(order, part, frame, agg)| OpSeed::Window {
                order,
                part,
                frame,
                agg
            }),
    ]
}

const CMPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];
const FRAMES: [(i64, i64); 5] = [(0, 0), (-1, 0), (-2, 0), (-1, 1), (0, 1)];

fn apply(q: Query, names: &mut Vec<String>, fresh: &mut u32, seed: &OpSeed) -> Query {
    let n = names.len();
    let mut next_name = || {
        let name = format!("c{fresh}");
        *fresh += 1;
        name
    };
    match seed {
        OpSeed::Select { col, cmp, lit, neg } => {
            // Neg-of-literal is the regression case: it must print as
            // `-(5)`, not `-5` (which would fold back into a literal).
            let rhs = if *neg {
                RangeExpr::Neg(Box::new(RangeExpr::lit(*lit)))
            } else {
                RangeExpr::lit(*lit)
            };
            q.select(RangeExpr::Cmp(
                CMPS[cmp % CMPS.len()],
                Box::new(RangeExpr::col(col % n)),
                Box::new(rhs),
            ))
        }
        OpSeed::Project { keep } => {
            let mut idxs: Vec<usize> = Vec::new();
            for i in keep {
                let i = i % n;
                if !idxs.contains(&i) {
                    idxs.push(i);
                }
            }
            let selected: Vec<String> = idxs.iter().map(|&i| names[i].clone()).collect();
            let q = q.project(selected.iter().map(String::as_str));
            *names = selected;
            q
        }
        OpSeed::ProjectExprs { a, b } => {
            let (n1, n2) = (next_name(), next_name());
            let q = q.project_exprs([
                (RangeExpr::col(a % n), n1.clone()),
                (
                    RangeExpr::Add(
                        Box::new(RangeExpr::col(a % n)),
                        Box::new(RangeExpr::col(b % n)),
                    ),
                    n2.clone(),
                ),
            ]);
            *names = vec![n1, n2];
            q
        }
        OpSeed::Sort { cols, k } => {
            let mut idxs: Vec<usize> = Vec::new();
            for i in cols {
                let i = i % n;
                if !idxs.contains(&i) {
                    idxs.push(i);
                }
            }
            let pos = next_name();
            let q = q.sort_by_as(idxs, pos.clone());
            names.push(pos);
            match k {
                Some(k) => q.topk(*k),
                None => q,
            }
        }
        OpSeed::Window {
            order,
            part,
            frame,
            agg,
        } => {
            let (l, u) = FRAMES[frame % FRAMES.len()];
            let agg = match agg % 5 {
                0 => Agg::sum(order % n),
                1 => Agg::count(),
                2 => Agg::min(order % n),
                3 => Agg::max(order % n),
                _ => Agg::avg(order % n),
            };
            let mut spec = WindowSpec::rows(l, u).order_by([order % n]).aggregate(agg);
            if let Some(p) = part {
                spec = spec.partition_by([p % n]);
            }
            let out = next_name();
            let q = q.window(spec.output(out.clone()));
            names.push(out);
            q
        }
    }
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (au_relation(), proptest::collection::vec(op_seed(), 0..=3)).prop_map(|(rel, seeds)| {
        let mut names: Vec<String> = rel.schema.cols().to_vec();
        let mut fresh = 0u32;
        let mut q = Query::scan(rel);
        for seed in &seeds {
            q = apply(q, &mut names, &mut fresh, seed);
        }
        q.build().expect("generated plan is valid by construction")
    })
}

/// Print a plan, reparse it against a catalog holding its source as `t`,
/// and return the recompiled plan.
fn roundtrip(plan: &Plan) -> Plan {
    let sql = plan.to_sql("t");
    let session = Session::new(Engine::native());
    session.register("t", plan.source_columns().contiguous().to_rows());
    let prepared = session
        .prepare(&sql)
        .unwrap_or_else(|e| panic!("printed SQL must reparse: {e}\nsql: {sql}\nplan: {plan:?}"));
    prepared.plan().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse ∘ print = id`: the reparsed plan has the identical operator
    /// chain and schemas, scans the same rows, and the printed form is a
    /// fixpoint (printing the reparsed plan gives the same SQL back).
    /// `Session::prepare` hands out the plan it binds, so the reparsed plan
    /// is held to the original.
    #[test]
    fn printed_plans_reparse_to_the_identical_plan(plan in plan_strategy()) {
        let sql = plan.to_sql("t");
        let back = roundtrip(&plan);
        prop_assert!(
            plan.same_shape(&back),
            "plan drifted through SQL:\n  sql: {sql}\n  ops:  {:?}\n  back: {:?}",
            plan.ops(), back.ops()
        );
        let rows = |p: &Plan| p.source_columns().contiguous().to_rows();
        prop_assert_eq!(rows(&plan).rows(), rows(&back).rows());
        prop_assert_eq!(back.to_sql("t"), sql.clone(), "printing is a fixpoint");
        prop_assert_eq!(back.sql().unwrap(), sql, "provenance carries the text");
    }

    /// SQL-issued plans keep the paper's cross-implementation invariant:
    /// `run_all` (reference ≡ native ≡ rewrite, bag-equal bounds) agrees
    /// between the original and the reparsed plan.
    #[test]
    fn reparsed_plans_agree_on_all_backends(plan in plan_strategy()) {
        let back = roundtrip(&plan);
        let original = Engine::native().run_all(&plan).expect("backends agree on original");
        let reparsed = Engine::native().run_all(&back).expect("backends agree on reparsed");
        let (original, reparsed) = (original.output.to_rows(), reparsed.output.to_rows());
        prop_assert!(
            original.bag_eq(&reparsed),
            "original:\n{}\nreparsed:\n{}", original, reparsed
        );
    }
}

/// Regression: `Neg` over a numeric literal must not print as `(-5)` —
/// the parser folds that into the literal -5 and the op chain drifts.
#[test]
fn neg_of_literal_roundtrips() {
    let rel = AuRelation::from_rows(
        Schema::new(["a", "b"]),
        [(
            AuTuple::new([RangeValue::new(-9, -3, 1), RangeValue::certain(2i64)]),
            Mult3::ONE,
        )],
    );
    let plan = Query::scan(rel)
        .select(RangeExpr::col(0).lt(RangeExpr::Neg(Box::new(RangeExpr::lit(5)))))
        .build()
        .unwrap();
    let sql = plan.to_sql("t");
    assert_eq!(sql, "SELECT * FROM t WHERE a < -(5)");
    let back = roundtrip(&plan);
    assert!(plan.same_shape(&back), "ops: {:?}", back.ops());

    // A plain negative literal still prints (and folds back) as itself.
    let rel2 = back.source_columns().contiguous().to_rows();
    let plan = Query::scan(rel2)
        .select(RangeExpr::col(0).lt(RangeExpr::lit(-5)))
        .build()
        .unwrap();
    assert_eq!(plan.to_sql("t"), "SELECT * FROM t WHERE a < -5");
    assert!(plan.same_shape(&roundtrip(&plan)));
}

/// One crafted statement per merged operator form: a plain permutation and
/// an aliased column are the same `Op::Project` the builder's two
/// projection calls make, and `LIMIT` — zero included — is the sort's own
/// limit. Each prints back as it was written.
#[test]
fn merged_operator_forms_roundtrip() {
    let rel = AuRelation::from_rows(
        Schema::new(["a", "b"]),
        [(
            AuTuple::new([RangeValue::new(1, 2, 3), RangeValue::certain(10i64)]),
            Mult3::ONE,
        )],
    );
    let session = Session::new(Engine::native());
    session.register("t", rel.clone());
    let scan = || Query::scan(rel.clone());
    let by_builder = [
        ("SELECT b, a FROM t", scan().project(["b", "a"])),
        (
            "SELECT a AS x, b FROM t",
            scan().project_exprs([(RangeExpr::col(0), "x"), (RangeExpr::col(1), "b")]),
        ),
        (
            "SELECT * FROM t ORDER BY b, a LIMIT 0",
            scan().sort_by(["b", "a"]).topk(0),
        ),
    ];
    for (sql, query) in by_builder {
        let built = query.build().unwrap();
        let bound = session.prepare(sql).unwrap();
        assert!(
            built.same_shape(bound.plan()),
            "{sql}: {:?}",
            bound.plan().ops()
        );
        assert_eq!(built.to_sql("t"), sql);
        assert!(built.same_shape(&roundtrip(&built)), "{sql}");
    }
    // The builder's two projection doors meet in one form.
    let plain = scan().project(["b", "a"]).build().unwrap();
    let computed = scan()
        .project_exprs([(RangeExpr::col(1), "b"), (RangeExpr::col(0), "a")])
        .build()
        .unwrap();
    assert!(plain.same_shape(&computed));
    // A limited sort is still called top-k wherever operators are named.
    let top = scan().sort_by(["b"]).topk(0).build().unwrap();
    assert_eq!(top.ops()[0].name(), "topk");
    assert_eq!(top.ops()[0].to_string(), "topk k=0 [1] → pos");
    assert!(session
        .sql("SELECT * FROM t ORDER BY b LIMIT 0")
        .unwrap()
        .is_empty());
}

/// A deterministic multi-block chain: every operator kind in one plan,
/// printed across nested sub-selects, reparses identically.
#[test]
fn kitchen_sink_plan_roundtrips() {
    let rel = AuRelation::from_rows(
        Schema::new(["a", "b"]),
        [
            (
                AuTuple::new([RangeValue::new(1, 2, 3), RangeValue::certain(10i64)]),
                Mult3::ONE,
            ),
            (
                AuTuple::new([RangeValue::certain(2i64), RangeValue::new(7, 8, 12)]),
                Mult3::new(0, 1, 1),
            ),
        ],
    );
    let plan = Query::scan(rel)
        .select(RangeExpr::col(0).le(RangeExpr::Lit(RangeValue::new(1, 2, 9))))
        .window(
            WindowSpec::rows(-1, 0)
                .order_by(["b"])
                .partition_by(["a"])
                .aggregate(Agg::sum("b"))
                .output("s"),
        )
        .project_exprs([
            (RangeExpr::col(0), "a2".to_string()),
            (
                RangeExpr::Mul(Box::new(RangeExpr::col(2)), Box::new(RangeExpr::lit(2))),
                "s2".to_string(),
            ),
        ])
        .sort_by_as(["s2", "a2"], "rank")
        .topk(3)
        .build()
        .unwrap();
    let sql = plan.to_sql("t");
    assert_eq!(
        sql,
        "SELECT a AS a2, s * 2 AS s2 FROM \
         (SELECT *, SUM(b) OVER (PARTITION BY a ORDER BY b \
         ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM t \
         WHERE a <= RANGE(1, 2, 9)) ORDER BY s2, a2 AS rank LIMIT 3"
    );
    let back = roundtrip(&plan);
    assert!(plan.same_shape(&back));
}

/// A selection over a window whose frame is the current row alone prints
/// as a sub-select and comes back from the re-bind above the window, where
/// it was: `prepare` hands out the bound plan.
#[test]
fn a_selection_over_a_one_row_frame_reparses_in_place() {
    let rel = AuRelation::from_rows(
        Schema::new(["a", "b"]),
        [
            (
                AuTuple::new([RangeValue::new(-6, -5, 2), RangeValue::certain(3i64)]),
                Mult3::ONE,
            ),
            (
                AuTuple::new([RangeValue::certain(1i64), RangeValue::new(0, 1, 3)]),
                Mult3::new(0, 1, 1),
            ),
        ],
    );
    let plan = Query::scan(rel)
        .window(
            WindowSpec::rows(0, 0)
                .order_by(["b"])
                .partition_by(["b"])
                .aggregate(Agg::max("b"))
                .output("c0"),
        )
        .select(RangeExpr::col(0).le(RangeExpr::Neg(Box::new(RangeExpr::lit(4)))))
        .build()
        .unwrap();
    let sql = plan.to_sql("t");
    assert_eq!(
        sql,
        "SELECT * FROM (SELECT *, MAX(b) OVER (PARTITION BY b ORDER BY b \
         ROWS BETWEEN CURRENT ROW AND CURRENT ROW) AS c0 FROM t) WHERE a <= -(4)"
    );
    let back = roundtrip(&plan);
    assert!(plan.same_shape(&back), "ops: {:?}", back.ops());
    assert_eq!(back.to_sql("t"), sql);
    assert_eq!(back.sql().unwrap(), sql);
}
