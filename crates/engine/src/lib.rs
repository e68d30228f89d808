//! # audb-engine — one entry point for every uncertain-ranking method
//!
//! The paper's evaluation rests on one invariant: the quadratic reference
//! semantics (Defs. 2–3), the one-pass native operators (Sec. 8) and the
//! SQL-style rewrites (Sec. 7) all bound the *same* set of possible worlds.
//! This crate turns that invariant into an API:
//!
//! * [`Query`] — a typed logical-plan builder
//!   (`Query::scan(rel).select(p).sort_by(cols).topk(k)` /
//!   `.window(spec)`) that validates schemas and column references at
//!   build time and returns structured [`PlanError`]s instead of operator
//!   panics;
//! * [`Backend`] — the row oracles' trait (a scan and the order-based
//!   operator hooks, over rows), implemented by [`Reference`] and
//!   [`Rewrite`] (which scans through the relational encoding, as a DBMS
//!   executing Figs. 7–8 would); the native method is no implementation of
//!   it but the pipelined executor itself ([`exec::run_pipelined`], with
//!   fallback rules for the cases the one-pass operators do not cover);
//! * [`SharedCatalog`] / [`Table`] — what a FROM name maps to: a table
//!   stored as `Arc`'d columnar [`Segment`]s and nothing else, so an
//!   append costs its batch and every plan over one version shares one
//!   handle;
//! * [`Engine`] — the method itself (`Reference`, `Native`, `Rewrite`):
//!   it executes plans, renders per-query [`Engine::explain`] output, and
//!   cross-checks every method against every other via
//!   [`Engine::run_all`].
//! * [`exec`] — the physical execution layer between plans and backends:
//!   logical chains lower to batch-streaming [`Pipeline`]s whose fused
//!   select/project stages run morsel-parallel as vectorized column
//!   sweeps over cache-sized columnar [`audb_core::AuBatch`] views
//!   ([`audb_core::AuColumns`] storage), with the order-based operators
//!   as the only materializing pipeline breakers. The native method
//!   executes pipelined at every input size; the two row oracles run
//!   operator-at-a-time over `audb-core`'s row operators; nothing selects
//!   between the two runners, and they are property-tested bag-equal on
//!   every plan. Either way a result is [`audb_core::AuColumns`] — the
//!   native breakers emit columns, the oracles transpose once at their
//!   end — and `to_rows()` is the caller's door ([`Session::sql`] opens
//!   it; the server encodes from the lanes and never does).
//!
//! Everything downstream of the operator crates — examples, workload
//! drivers, benchmarks — constructs its sort/top-k/window queries through
//! this crate, so plan construction is written exactly once.

mod backend;
mod bind;
mod catalog;
mod engine;
mod error;
pub mod exec;
pub mod maintain;
pub mod optimize;
mod plan;
mod plancache;
mod print;
mod session;

pub use backend::{Backend, Reference, Rewrite};
pub use catalog::{Catalog, CatalogAppendError, Segment, SharedCatalog, Table, SEGMENT_ROWS};
pub use engine::{BackendRun, Engine, Explain, ExplainStep, RunAll};
pub use error::{EngineError, PlanError, SessionError};
pub use exec::{ExecTrace, OpTiming, Pipeline, DEFAULT_BATCH_SIZE};
pub use maintain::{Delta, MaintainedQuery, Strategy, DEFAULT_INCREMENTAL_CUTOFF};
pub use optimize::{optimize, AppliedRule, OptInfo};
pub use plan::{Agg, ColRef, Op, Plan, Query, WindowSpec};
pub use plancache::{CacheStats, PlanCache, MAX_ANSWER_BYTES};
pub use print::plan_to_sql;
pub use session::{Prepared, Session};

// Re-exported so engine users can configure backends without importing the
// operator crates directly. `IntervalIndex` rides along for callers that
// measure the `Rewr(index)` strategy's index-build cost separately, as the
// paper does. `SqlError` completes the error surface of the SQL front
// door (`Session`).
pub use audb_core::CmpSemantics;
// lint: allow(no-direct-backend-call) -- re-export of config/measurement types; execution still flows through Engine
pub use audb_rewrite::{IntervalIndex, JoinStrategy};
pub use audb_sql::{Span, SqlError, SqlErrorKind};

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{AuRelation, AuTuple, Mult3, RangeValue, WinAgg};
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// Paper Example 6 input.
    fn example6() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3)]),
                    Mult3::new(1, 1, 2),
                ),
                (
                    AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64)]),
                    Mult3::new(0, 1, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64)]),
                    Mult3::ONE,
                ),
            ],
        )
    }

    /// A `select → project → sort` plan over `n` rows.
    fn large_plan(n: usize) -> Plan {
        use audb_core::RangeExpr;
        let rows = (0..n).map(|i| {
            (
                AuTuple::new([
                    RangeValue::certain(i as i64),
                    rv(i as i64, i as i64, i as i64 + 1),
                ]),
                Mult3::ONE,
            )
        });
        let rel = AuRelation::from_rows(Schema::new(["a", "b"]), rows);
        Query::scan(rel)
            .select(RangeExpr::col(0).le(RangeExpr::lit(i64::MAX / 2)))
            .project(["a", "b"])
            .sort_by(["a"])
            .build()
            .unwrap()
    }

    /// The acceptance-criteria test: explain() and run_all() agreement
    /// through the unified API, on the paper's own example.
    #[test]
    fn explain_and_run_all_agree_on_example6() {
        let plan = Query::scan(example6())
            .sort_by_as(["a", "b"], "pos")
            .build()
            .unwrap();

        let engine = Engine::native();
        let explain = engine.explain(&plan);
        assert_eq!(explain.backend, Engine::Native);
        let text = explain.to_string();
        assert!(text.contains("backend: native"), "{text}");
        assert!(text.contains("sort"), "{text}");
        assert!(text.contains("Algorithm 1"), "{text}");

        let all = engine.run_all(&plan).unwrap();
        assert_eq!(all.runs.len(), 3);
        // The agreed output is the reference output.
        let reference = Engine::reference().execute(&plan).unwrap().to_rows();
        assert!(all.output.to_rows().bag_eq(&reference));
    }

    #[test]
    fn run_all_agreement_covers_topk_and_windows() {
        let topk = Query::scan(example6())
            .sort_by(["a", "b"])
            .topk(2)
            .build()
            .unwrap();
        Engine::native()
            .run_all(&topk)
            .expect("top-k backends agree");

        let win = Query::scan(example6())
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["b"])
                    .aggregate(Agg::sum("b"))
                    .output("s"),
            )
            .build()
            .unwrap();
        // example6 has a duplicate multiplicity (1,1,2): the native backend
        // must reroute that window to the reference semantics, keeping
        // run_all's exact agreement.
        Engine::native()
            .run_all(&win)
            .expect("window backends agree");
    }

    /// Regression: identical rows *stored separately* with unit
    /// multiplicities normalize into one row with a duplicate multiplicity
    /// inside the native operators — the fallback check must look at the
    /// normalized relation, or the native backend silently diverges from
    /// the reference bounds.
    #[test]
    fn native_window_falls_back_on_split_duplicate_rows() {
        let dup = AuTuple::new([rv(1, 2, 4), RangeValue::certain(10i64)]);
        let rel = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (dup.clone(), Mult3::ONE),
                (dup, Mult3::ONE),
                (
                    AuTuple::new([rv(2, 3, 5), RangeValue::certain(7i64)]),
                    Mult3::ONE,
                ),
            ],
        );
        let plan = Query::scan(rel)
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["a"])
                    .aggregate(Agg::sum("b"))
                    .output("s"),
            )
            .build()
            .unwrap();
        let native = Engine::native().execute(&plan).unwrap().to_rows();
        let reference = Engine::reference().execute(&plan).unwrap().to_rows();
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
        Engine::native().run_all(&plan).expect("backends agree");
    }

    #[test]
    fn native_window_falls_back_on_uncertain_partition() {
        // Uncertain partition attribute: window_native would assert; the
        // engine reroutes to the reference instead of panicking.
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                (
                    AuTuple::new([rv(0, 0, 1), RangeValue::certain(1i64), rv(1, 2, 3)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([
                        RangeValue::certain(1i64),
                        RangeValue::certain(2i64),
                        rv(4, 5, 6),
                    ]),
                    Mult3::ONE,
                ),
            ],
        );
        let plan = Query::scan(rel)
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["o"])
                    .partition_by(["g"])
                    .aggregate(Agg::sum("v"))
                    .output("s"),
            )
            .build()
            .unwrap();
        let native = Engine::native().execute(&plan).unwrap().to_rows();
        let reference = Engine::reference().execute(&plan).unwrap().to_rows();
        assert!(native.bag_eq(&reference));
    }

    /// The engine's operator chain matches hand-wired operator calls — the
    /// backends are thin adapters, not re-implementations.
    /// The satellite contract: explain output has ONE stable shape —
    /// optional `query:` line (the originating SQL), then the `backend:`
    /// line, then numbered steps. Consumers (CI golden files, scripts) may rely on it.
    #[test]
    fn explain_format_is_stable() {
        let session = Session::new(Engine::reference());
        session.register("r", example6());
        let explain = session.explain_sql("SELECT * FROM r ORDER BY a").unwrap();
        let text = explain.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "query:   SELECT * FROM r ORDER BY a");
        assert_eq!(lines[1], "backend: reference");
        assert_eq!(lines[2], " 0. scan [3 rows]");
        assert!(lines[3].starts_with("      schema: "), "{text}");
        assert!(lines[4].starts_with("      note:   "), "{text}");
        // The reference oracle runs operator-at-a-time.
        assert_eq!(
            lines.last().unwrap(),
            &"exec:    materialized (operator-at-a-time)"
        );

        // Without SQL provenance: no query line. The native method pipelines at every size,
        // and the physical pipeline plan (fused stages and breaker
        // annotations) is printed.
        let plan = Query::scan(example6())
            .select(audb_core::RangeExpr::col(0).le(audb_core::RangeExpr::lit(9)))
            .project(["a", "b"])
            .sort_by(["a"])
            .build()
            .unwrap();
        let text = Engine::native().explain(&plan).to_string();
        assert_eq!(text.lines().next().unwrap(), "backend: native");
        assert!(!text.contains("query:"), "{text}");
        let tail: Vec<&str> = text.lines().rev().take(3).collect();
        assert!(tail[2].starts_with("      note:   "), "{text}");
        assert_eq!(tail[1], "exec:    pipelined · batch 1024 · 1 pipeline");
        assert_eq!(tail[0], "      p0: fuse(select · project) ⇒ breaker sort");
    }

    /// The batch-size rule: 4 096 from 65 536 source rows up, else 1 024 —
    /// on every method.
    #[test]
    fn batch_size_is_chosen_from_source_rows() {
        let large = large_plan(65_536);
        let pick = |engine: Engine, plan: &Plan| engine.choose_exec(plan).batch_size;
        assert_eq!(pick(Engine::native(), &large), 4096);
        assert_eq!(pick(Engine::native(), &large_plan(65_535)), 1024);
        assert_eq!(pick(Engine::reference(), &large), 4096);
    }

    /// The satellite contract for `run_all`: ONE stable report format —
    /// per-backend totals with execution mode, then per-operator wall
    /// times with batch counts and cardinalities. Built from synthetic
    /// timings so the golden string is exact.
    #[test]
    fn run_all_report_format_is_stable() {
        use crate::exec::OpTiming;
        use std::time::Duration;
        let report = RunAll {
            output: example6().to_columns(),
            runs: vec![
                BackendRun {
                    backend: Engine::Reference,
                    elapsed: Duration::from_micros(1500),
                    rows: 3,
                    ops: vec![
                        OpTiming {
                            label: "scan".into(),
                            elapsed: Duration::from_micros(500),
                            batches: 1,
                            rows_out: 3,
                        },
                        OpTiming {
                            label: "sort".into(),
                            elapsed: Duration::from_micros(1000),
                            batches: 1,
                            rows_out: 3,
                        },
                    ],
                },
                BackendRun {
                    backend: Engine::Native,
                    elapsed: Duration::from_micros(800),
                    rows: 3,
                    ops: vec![OpTiming {
                        label: "fuse(select · project)".into(),
                        elapsed: Duration::from_micros(300),
                        batches: 2,
                        rows_out: 1234,
                    }],
                },
            ],
        };
        assert_eq!(
            report.to_string(),
            "all backends agree (3 output rows):\n\
             \x20 reference materialized      1.500ms\n\
             \x20   · scan                          500.000µs     1 batches       3 rows\n\
             \x20   · sort                            1.000ms     1 batches       3 rows\n\
             \x20 native    pipelined       800.000µs\n\
             \x20   · fuse(select · project)        300.000µs     2 batches    1234 rows\n"
        );
    }

    /// `run_all` executes each backend the one way it runs plans — the
    /// two row oracles operator-at-a-time, the native method pipelined,
    /// whatever the input size — and carries per-operator timings for
    /// every run.
    #[test]
    fn run_all_reports_modes_and_op_timings() {
        let small = Query::scan(example6())
            .select(audb_core::RangeExpr::col(0).le(audb_core::RangeExpr::lit(9)))
            .project(["a", "b"])
            .sort_by(["a"])
            .build()
            .unwrap();
        for plan in [small, large_plan(1024)] {
            let all = Engine::native().run_all(&plan).unwrap();
            let modes: Vec<&str> = all.runs.iter().map(|r| r.backend.mode()).collect();
            assert_eq!(modes, ["materialized", "pipelined", "materialized"]);
            for run in &all.runs {
                let labels: Vec<&str> = run.ops.iter().map(|o| o.label.as_str()).collect();
                match run.backend {
                    Engine::Native => {
                        assert_eq!(labels, ["scan", "fuse(select · project)", "sort"])
                    }
                    _ => assert_eq!(labels, ["scan", "select", "project", "sort"]),
                }
            }
        }
    }

    #[test]
    fn backends_are_faithful_adapters() {
        let rel = example6();
        let plan = Query::scan(rel.clone())
            .sort_by_as(["a", "b"], "pos")
            .build()
            .unwrap();
        let native = Engine::native().execute(&plan).unwrap().to_rows();
        assert!(native.bag_eq(&audb_native::sort_native(&rel, &[0, 1], "pos")));

        let rewrite = Engine::rewrite().execute(&plan).unwrap().to_rows();
        assert!(rewrite.bag_eq(&audb_rewrite::rewr_sort(&rel, &[0, 1], "pos")));

        let win_plan = Query::scan(rel.clone())
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["b"])
                    .aggregate(WinAgg::Sum(1))
                    .output("s"),
            )
            .build()
            .unwrap();
        let reference = Engine::reference().execute(&win_plan).unwrap().to_rows();
        assert!(reference.bag_eq(&audb_core::window_ref(
            &rel,
            &audb_core::AuWindowSpec::rows(vec![1], -1, 0),
            WinAgg::Sum(1),
            "s",
            CmpSemantics::IntervalLex,
        )));
    }

    #[test]
    fn multi_op_plan_executes_end_to_end() {
        use audb_core::RangeExpr;
        let plan = Query::scan(example6())
            .project_exprs([
                (RangeExpr::col(0), "a".to_string()),
                (RangeExpr::col(1), "b".to_string()),
                (
                    RangeExpr::Neg(Box::new(RangeExpr::col(1))),
                    "neg_b".to_string(),
                ),
            ])
            .select(RangeExpr::col(0).le(RangeExpr::lit(3)))
            .sort_by_as(["neg_b"], "rank")
            .topk(2)
            .build()
            .unwrap();
        assert_eq!(plan.schema().cols(), &["a", "b", "neg_b", "rank"]);
        let all = Engine::native().run_all(&plan).unwrap();
        assert!(!all.output.is_empty());
        for row in all.output.to_rows().rows() {
            let (lb, _, _) = row.tuple.get(3).as_i64_triple();
            assert!(lb < 2, "top-2 rows sit possibly below rank 2");
        }
    }

    /// One output row per possible duplicate: a breaker whose input could
    /// be more than `u32::MAX` rows is refused on every method before it
    /// allocates anything (this test allocates three rows). Only the
    /// native `LIMIT k` sort is bounded by its band — a row stops being
    /// split at `k` — and keeps answering; the row oracles sort everything
    /// first.
    #[test]
    fn a_result_past_the_row_index_is_refused_not_allocated() {
        let dup = |k: u64| {
            AuRelation::from_rows(
                Schema::new(["a"]),
                [(AuTuple::new([rv(7, 7, 7)]), Mult3::new(1, 1, k))],
            )
        };
        let window = || {
            WindowSpec::rows(-1, 0)
                .order_by(["a"])
                .aggregate(Agg::count())
                .output("c")
        };
        let many = 5_000_000_000;
        let refused = |engine: Engine, plan: &Plan, rows: u64| {
            let e = engine.execute(plan).unwrap_err();
            assert!(
                matches!(e, EngineError::ResultTooLarge { rows: r } if r == rows),
                "{e}"
            );
            assert_eq!(SessionError::from(e).kind(), "result_too_large");
        };
        let sort = Query::scan(dup(many)).sort_by(["a"]).build().unwrap();
        let windowed = Query::scan(dup(many)).window(window()).build().unwrap();
        let top3 = Query::scan(dup(many))
            .sort_by(["a"])
            .topk(3)
            .build()
            .unwrap();
        for method in Engine::ALL {
            refused(method, &sort, many);
            refused(method, &windowed, many);
        }
        assert_eq!(Engine::native().execute(&top3).unwrap().len(), 3);
        refused(Engine::reference(), &top3, many);
        refused(Engine::rewrite(), &top3, many);
        // A limit past the index bounds nothing.
        let top = Query::scan(dup(many))
            .sort_by(["a"])
            .topk(many)
            .build()
            .unwrap();
        refused(Engine::native(), &top, many);
        // A sum that leaves `u64` is reported as `u64::MAX`.
        let two = AuRelation::from_rows(
            Schema::new(["a"]),
            [1i64, 2].map(|a| (AuTuple::new([rv(a, a, a)]), Mult3::new(0, 0, u64::MAX))),
        );
        let sort = Query::scan(two).sort_by(["a"]).build().unwrap();
        refused(Engine::native(), &sort, u64::MAX);
        // A subscription's ground truth is the engine: it refuses alike.
        let session = Session::new(Engine::native());
        session.register("dup", dup(many));
        let e = session.subscribe("SELECT * FROM dup ORDER BY a AS pos LIMIT 3");
        assert_eq!(e.unwrap().value().len(), 3);
        let e = session
            .sql("SELECT * FROM dup ORDER BY a AS pos")
            .unwrap_err();
        assert_eq!(e.kind(), "result_too_large");
    }

    /// Under `LIMIT k` the native sort counts a row's multiplicity as
    /// `min(·, k)` in every position sum, so possible multiplicities of
    /// `u64::MAX` — whose true sums leave `u64` — still answer: every
    /// position ordered and at most `k`, and the answer is the reference's
    /// over the same rows with each multiplicity capped at `k` (all the
    /// reference can expand; under the limit the cap changes nothing).
    #[test]
    fn topk_position_sums_stay_in_u64() {
        let k = 3;
        let two = |m: Mult3| {
            AuRelation::from_rows(
                Schema::new(["a"]),
                [1i64, 2].map(|a| (AuTuple::new([rv(a, a, a)]), m)),
            )
        };
        for m in [
            Mult3::new(0, 0, u64::MAX),
            Mult3::new(0, u64::MAX, u64::MAX),
        ] {
            let session = Session::new(Engine::native());
            session.register("t", two(m));
            let top = session
                .sql("SELECT * FROM t ORDER BY a AS pos LIMIT 3")
                .unwrap();
            assert_eq!(top.len(), 6, "{m}: {top}");
            for row in top.rows() {
                let (lb, sg, ub) = row.tuple.get(1).as_i64_triple();
                assert!(lb <= sg && sg <= ub && ub <= k as i64, "{m}: {top}");
            }
            let capped = Mult3::new(m.lb.min(k), m.sg.min(k), m.ub.min(k));
            let mut reference =
                audb_core::topk_ref(&two(capped), &[0], k, CmpSemantics::IntervalLex);
            for row in reference.rows_mut() {
                let (lb, sg, ub) = row.tuple.0[1].as_i64_triple();
                row.tuple.0[1] = RangeValue::from_i64s(lb, sg.min(k as i64), ub.min(k as i64));
            }
            assert!(top.bag_eq(&reference), "{m}: {top}\nvs\n{reference}");
        }
    }

    #[test]
    fn plan_is_cheap_to_share() {
        let session = Session::new(Engine::native());
        session.register("r", example6());
        let p1 = session.prepare("SELECT * FROM r ORDER BY a").unwrap();
        let p2 = session.prepare("SELECT * FROM r ORDER BY b").unwrap();
        // Both plans — and their clones — hold the catalog's one handle:
        // no data is copied per statement.
        let (p1, p2) = (p1.plan().clone(), p2.plan());
        assert!(std::sync::Arc::ptr_eq(
            p1.source_columns(),
            p2.source_columns()
        ));
        assert!(Engine::native().execute(p2).unwrap().len() >= 3);
    }
}
