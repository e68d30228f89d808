//! # audb — bound-preserving ranking and window queries over uncertain data
//!
//! Umbrella crate for the reproduction of *"Efficient Approximation of
//! Certain and Possible Answers for Ranking and Window Queries over
//! Uncertain Data"* (Feng, Glavic, Kennedy — VLDB 2023). It re-exports the
//! workspace crates under stable module names:
//!
//! | module | contents |
//! |---|---|
//! | [`rel`] | deterministic bag-relational engine (values, `RA+`, windows, sort) |
//! | [`core`] | AU-DB model, `ℕ³` semiring, reference sort/top-k/window semantics |
//! | [`conheap`] | connected heaps (Sec. 8.2) |
//! | [`native`] | one-pass native algorithms (Sec. 8) — the paper's `Imp` |
//! | [`rewrite`] | SQL-style rewrites over the relational encoding (Sec. 7) — `Rewr` |
//! | [`engine`] | **the front door**: logical plans, SQL sessions + pluggable backends |
//! | [`sql`] | textual frontend: lexer, parser, AST (bound by the engine) |
//! | [`worlds`] | x-tuple probabilistic model, world enumeration/sampling, exact bounds |
//! | [`competitors`] | MCDB, PT-k, Symb, U-Top, U-Rank, Global-Topk, expected rank |
//! | [`workloads`] | synthetic + real-world-simulating generators, quality metrics |
//! | [`server`] | concurrent SQL service layer: HTTP/JSON front end, worker pool, plan cache |
//!
//! ## Quick example
//!
//! Queries are built once as validated logical plans and executed on any of
//! the three interchangeable backends (reference / native / rewrite); the
//! engine can also run a plan on *all* of them and assert the bounds agree:
//!
//! ```
//! use audb::core::{AuRelation, AuTuple, Mult3, RangeValue};
//! use audb::engine::{Engine, Query};
//! use audb::rel::Schema;
//!
//! // A sales relation with an uncertain Sales attribute.
//! let rel = AuRelation::from_rows(
//!     Schema::new(["term", "sales"]),
//!     [
//!         (AuTuple::from([RangeValue::certain(1i64), RangeValue::new(2, 2, 3)]), Mult3::ONE),
//!         (AuTuple::from([RangeValue::certain(2i64), RangeValue::new(2, 3, 3)]), Mult3::ONE),
//!     ],
//! );
//! // Top-1 by sales: positions carry uncertainty; multiplicities tell you
//! // which answers are certain vs merely possible.
//! let plan = Query::scan(rel).sort_by(["sales"]).topk(1).build()?;
//! let engine = Engine::native();
//! println!("{}", engine.explain(&plan));   // backend + operator chain + cost notes
//! let agreed = engine.run_all(&plan)?;     // reference ≡ native ≡ rewrite
//! assert!(!agreed.output.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## SQL frontend
//!
//! The same queries compile from text: register relations in a
//! [`engine::Session`] catalog and every workload becomes scriptable
//! (`repro sql` drives whole `.sql` files over CSV-loaded tables):
//!
//! ```
//! use audb::core::{AuRelation, AuTuple, Mult3, RangeValue};
//! use audb::engine::{Engine, Session};
//! use audb::rel::Schema;
//!
//! let rel = AuRelation::from_rows(
//!     Schema::new(["term", "sales"]),
//!     [
//!         (AuTuple::from([RangeValue::certain(1i64), RangeValue::new(2, 2, 3)]), Mult3::ONE),
//!         (AuTuple::from([RangeValue::certain(2i64), RangeValue::new(2, 3, 3)]), Mult3::ONE),
//!     ],
//! );
//! let mut session = Session::new(Engine::native());
//! session.register("sales", rel);
//! // ORDER BY is the AU-DB sort (Def. 2): it appends a position-range
//! // column; LIMIT turns it into a top-k.
//! let top = session.sql("SELECT * FROM sales ORDER BY sales AS rank LIMIT 1")?;
//! assert_eq!(top.schema.cols(), &["term", "sales", "rank"]);
//! // Window queries, range-literal predicates and EXPLAIN work too:
//! session.sql("SELECT *, SUM(sales) OVER (ORDER BY sales \
//!     ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS roll FROM sales")?;
//! println!("{}", session.explain_sql("SELECT * FROM sales WHERE sales < RANGE(2, 2, 4)")?);
//! # Ok::<(), audb::engine::SessionError>(())
//! ```
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/sql_tour.rs` for the SQL session walkthrough, and DESIGN.md
//! for the full system inventory.

pub use audb_competitors as competitors;
pub use audb_conheap as conheap;
pub use audb_core as core;
pub use audb_engine as engine;
// lint: allow(no-direct-backend-call) -- umbrella crate re-exports every layer by design
pub use audb_native as native;
pub use audb_rel as rel;
// lint: allow(no-direct-backend-call) -- umbrella crate re-exports every layer by design
pub use audb_rewrite as rewrite;
pub use audb_server as server;
pub use audb_sql as sql;
pub use audb_workloads as workloads;
pub use audb_worlds as worlds;

// The full engine + SQL public surface, flattened to the umbrella root so
// `use audb::{Engine, Session, Query, SqlError, ...}` works without module
// paths.
pub use audb_engine::{
    plan_to_sql, Agg, Backend, BackendRun, Catalog, CmpSemantics, ColRef, Engine, EngineError,
    Explain, ExplainStep, IntervalIndex, JoinStrategy, Op, Plan, PlanError, Prepared, Query,
    Reference, Rewrite, RunAll, Session, SessionError, WindowSpec,
};
pub use audb_engine::{CacheStats, PlanCache, SharedCatalog};
pub use audb_engine::{
    CatalogAppendError, Delta, MaintainedQuery, Strategy, DEFAULT_INCREMENTAL_CUTOFF,
};
pub use audb_sql::{is_keyword, parse, parse_script, Span, SqlError, SqlErrorKind};
