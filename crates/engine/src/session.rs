//! The [`Session`] handle: a [`Catalog`] plus an [`Engine`] — the method
//! every statement runs on — speaking SQL.
//!
//! ```
//! use audb_engine::{Engine, Session};
//! use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
//! use audb_rel::Schema;
//!
//! let mut session = Session::new(Engine::native());
//! session.register("products", AuRelation::from_rows(
//!     Schema::new(["sku", "price"]),
//!     [
//!         (AuTuple::from([RangeValue::certain(1i64), RangeValue::new(9, 10, 12)]), Mult3::ONE),
//!         (AuTuple::from([RangeValue::certain(2i64), RangeValue::new(8, 11, 11)]), Mult3::ONE),
//!     ],
//! ));
//! let top = session.sql("SELECT * FROM products ORDER BY price AS rank LIMIT 1")?;
//! assert_eq!(top.schema.cols(), &["sku", "price", "rank"]);
//! println!("{}", session.explain_sql("SELECT sku FROM products")?);
//! # Ok::<(), audb_engine::SessionError>(())
//! ```

use crate::bind;
use crate::catalog::{Catalog, SharedCatalog};
use crate::engine::{Engine, Explain, RunAll};
use crate::error::SessionError;
use crate::maintain::MaintainedQuery;
use crate::plan::Plan;
use crate::plancache::PlanCache;
use audb_core::{AuColumns, AuRelation};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A compiled, reusable statement: the validated [`Plan`] plus its source
/// text. Prepare once, execute many times (the plan shares its scanned
/// table behind an `Arc`, so neither step copies data).
#[derive(Clone, Debug)]
pub struct Prepared {
    plan: Plan,
    /// The normalized answer and the engine that computed it, once
    /// [`PlanCache::answer`] has kept one: shared by every clone.
    answer: Arc<OnceLock<(Engine, AuColumns)>>,
}

impl Prepared {
    pub(crate) fn from_plan(plan: Plan) -> Prepared {
        Prepared {
            plan,
            answer: Arc::default(),
        }
    }

    /// The answer kept for `engine`, if one is.
    pub(crate) fn kept_answer(&self, engine: &Engine) -> Option<&AuColumns> {
        let (by, cols) = self.answer.get()?;
        (by == engine).then_some(cols)
    }

    /// Keep `cols` as the answer `engine` computed, and return the kept
    /// answer — a racing call's, if it kept one first on the same engine:
    /// the plan reads one table version, so the two are the same bag.
    /// Where another engine's answer is kept, `cols` comes back.
    pub(crate) fn keep_answer(&self, engine: &Engine, cols: AuColumns) -> Cow<'_, AuColumns> {
        let mut ours = Some(cols);
        let (by, kept) = self
            .answer
            .get_or_init(|| (*engine, ours.take().expect("an initializer runs once")));
        match ours {
            Some(cols) if by != engine => Cow::Owned(cols),
            _ => Cow::Borrowed(kept),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The originating SQL text.
    pub fn sql(&self) -> &str {
        self.plan
            .sql()
            .expect("prepared statements carry their SQL")
    }
}

/// A catalog of named AU-relations bound to an engine: the textual front
/// door. `register` relations, then drive everything with SQL strings —
/// `sql` executes, `prepare` compiles for reuse, `explain_sql` shows how
/// the session's method runs a statement, `run_all_sql` cross-checks all
/// three methods.
///
/// The catalog is a [`SharedCatalog`]: cloning a `Session` (or building
/// several via [`Session::with_catalog`]) yields sessions over the *same*
/// namespace, which is how the server gives every connection its own
/// session handle without copying tables. Each `prepare` pins one catalog
/// snapshot, so concurrent `register` calls never disturb a statement that
/// is already compiled or running.
#[derive(Clone, Debug, Default)]
pub struct Session {
    engine: Engine,
    catalog: SharedCatalog,
}

impl Session {
    /// A session on the given engine with an empty catalog.
    pub fn new(engine: Engine) -> Self {
        Session {
            engine,
            catalog: SharedCatalog::new(),
        }
    }

    /// A session on the given engine over an existing shared catalog
    /// (typically one handed out by another session's
    /// [`Session::shared_catalog`]).
    pub fn with_catalog(engine: Engine, catalog: SharedCatalog) -> Self {
        Session { engine, catalog }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The current catalog snapshot. The returned `Arc` is immutable:
    /// registrations made after this call publish *new* snapshots and are
    /// not visible through it.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.catalog.snapshot()
    }

    /// The shared catalog handle itself — clone it to build more sessions
    /// over the same namespace.
    pub fn shared_catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// Register a relation under a name (replacing any previous one) by
    /// publishing a new catalog snapshot. In-flight queries and already
    /// prepared statements keep their pinned snapshot; statements prepared
    /// after this call see the new table.
    pub fn register(&self, name: impl Into<String>, rel: impl Into<Arc<AuRelation>>) {
        self.catalog.register(name, rel);
    }

    /// Remove a named relation (again by snapshot publication); true iff
    /// it was registered.
    pub fn deregister(&self, name: &str) -> bool {
        self.catalog.deregister(name)
    }

    /// Compile one statement to a reusable [`Prepared`] plan against the
    /// current catalog snapshot: the plan the binder builds is the plan
    /// that runs.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, SessionError> {
        let stmt = audb_sql::parse(sql)?;
        Ok(Prepared::from_plan(bind::compile(
            &stmt,
            &self.catalog.snapshot(),
        )?))
    }

    /// Compile one statement through a shared [`PlanCache`], so repeated
    /// (even differently-whitespaced) texts skip parse + bind. Returns the
    /// prepared statement and whether it was a cache hit.
    pub fn prepare_cached(
        &self,
        cache: &PlanCache,
        sql: &str,
    ) -> Result<(Prepared, bool), SessionError> {
        cache.get_or_prepare(&self.catalog, sql)
    }

    /// Compile every statement of a `;`-separated script. The whole script
    /// binds against a single catalog snapshot, so a concurrent `register`
    /// cannot make later statements see different tables than earlier ones.
    pub fn prepare_script(&self, sql: &str) -> Result<Vec<Prepared>, SessionError> {
        let snapshot = self.catalog.snapshot();
        audb_sql::parse_script(sql)?
            .iter()
            .map(|stmt| Ok(Prepared::from_plan(bind::compile(stmt, &snapshot)?)))
            .collect()
    }

    /// Execute a prepared statement on the session's engine: the result
    /// as the executor leaves it, columnar (what the server encodes).
    pub fn execute(&self, prepared: &Prepared) -> Result<AuColumns, SessionError> {
        Ok(self.engine.execute(prepared.plan())?)
    }

    /// Parse, bind and execute one statement — the library's row door:
    /// the columnar result is transposed here, once ([`AuColumns::to_rows`]:
    /// one loop over the lanes where every column is integer, as a sort's
    /// or a window's answer over integers is, else a reader per cell).
    pub fn sql(&self, sql: &str) -> Result<AuRelation, SessionError> {
        let prepared = self.prepare(sql)?;
        Ok(self.execute(&prepared)?.to_rows())
    }

    /// Explain how the engine would run a statement (includes the SQL
    /// text).
    pub fn explain_sql(&self, sql: &str) -> Result<Explain, SessionError> {
        let prepared = self.prepare(sql)?;
        Ok(self.engine.explain(prepared.plan()))
    }

    /// Execute a statement on **all three** backends, asserting their
    /// bounds agree (see [`Engine::run_all`]).
    pub fn run_all_sql(&self, sql: &str) -> Result<RunAll, SessionError> {
        let prepared = self.prepare(sql)?;
        Ok(self.engine.run_all(prepared.plan())?)
    }

    /// Compile a statement and keep its result live under appended rows:
    /// the returned [`MaintainedQuery`] accepts batches via
    /// [`MaintainedQuery::append`] and re-emits only the changed output
    /// rows as [`crate::Delta`]s, maintaining window/top-k sweep state
    /// incrementally where the plan's shape allows (see the
    /// [`crate::maintain`] module docs).
    ///
    /// The subscription pins the catalog snapshot current at subscribe
    /// time; later `register`/`append` calls on the catalog do not feed it
    /// — rows reach it only through [`MaintainedQuery::append`].
    pub fn subscribe(&self, sql: &str) -> Result<MaintainedQuery, SessionError> {
        let prepared = self.prepare(sql)?;
        MaintainedQuery::new(self.engine, prepared.plan().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlanError;
    use audb_core::{AuTuple, Mult3, RangeValue};
    use audb_rel::Schema;

    fn products() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["sku", "price"]),
            [
                (
                    AuTuple::from([RangeValue::certain(1i64), RangeValue::new(9, 10, 12)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::from([RangeValue::certain(2i64), RangeValue::new(8, 11, 11)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::from([RangeValue::certain(3i64), RangeValue::certain(15i64)]),
                    Mult3::new(0, 1, 1),
                ),
            ],
        )
    }

    fn session() -> Session {
        let s = Session::new(Engine::native());
        s.register("products", products());
        s
    }

    #[test]
    fn sql_matches_builder_plan() {
        use crate::plan::Query;
        let s = session();
        let via_sql = s
            .sql("SELECT * FROM products ORDER BY price AS rank LIMIT 2")
            .unwrap();
        let plan = Query::scan(products())
            .sort_by_as(["price"], "rank")
            .topk(2)
            .build()
            .unwrap();
        let via_builder = Engine::native().execute(&plan).unwrap().to_rows();
        assert!(via_sql.bag_eq(&via_builder), "{via_sql}\n{via_builder}");
    }

    #[test]
    fn prepare_reuses_and_carries_sql() {
        let s = session();
        let p = s
            .prepare("SELECT sku, price FROM products WHERE price < 12;")
            .unwrap();
        assert_eq!(p.sql(), "SELECT sku, price FROM products WHERE price < 12");
        let a = s.execute(&p).unwrap().to_rows();
        let b = s.execute(&p).unwrap().to_rows();
        assert!(a.bag_eq(&b));
        // The prepared plan shares the catalog's table handle, no copy.
        assert!(Arc::ptr_eq(
            p.plan().source_columns(),
            s.catalog().get("products").unwrap()
        ));
    }

    #[test]
    fn window_sql_runs_on_all_backends() {
        let s = session();
        let all = s
            .run_all_sql(
                "SELECT *, SUM(price) OVER (ORDER BY price \
                 ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS roll FROM products",
            )
            .unwrap();
        assert_eq!(all.runs.len(), 3);
        assert_eq!(all.output.schema().cols(), &["sku", "price", "roll"]);
    }

    #[test]
    fn session_errors_are_structured() {
        let s = session();
        // Catalog miss.
        let e = s.sql("SELECT * FROM nope").unwrap_err();
        assert!(
            matches!(&e, SessionError::UnknownTable { name, known }
                if name == "nope" && known == &["products".to_string()]),
            "{e}"
        );
        assert_eq!((e.kind(), e.span()), ("unknown_table", None));
        // Plan validation flows through unchanged.
        let e = s.sql("SELECT missing FROM products").unwrap_err();
        assert!(
            matches!(&e, SessionError::Plan(PlanError::UnknownColumn { name, .. }) if name == "missing"),
            "{e}"
        );
        let e = s.sql("SELECT * FROM products LIMIT 3").unwrap_err();
        assert!(matches!(e, SessionError::Plan(PlanError::TopKWithoutSort)));
        // Parse errors carry spans, surfaced through kind()/span() for the
        // HTTP error mapping.
        let e = s.sql("SELECT * FROM").unwrap_err();
        assert!(
            e.to_string().starts_with("SQL error at line 1, column 14"),
            "{e}"
        );
        assert_eq!(e.kind(), "sql");
        let span = e.span().expect("parse errors carry a span");
        assert_eq!((span.line, span.col), (1, 14));
        let e = s.sql("SELECT missing FROM products").unwrap_err();
        assert_eq!(e.kind(), "unknown_column");
        // Compound expressions need aliases.
        let e = s.sql("SELECT price + 1 FROM products").unwrap_err();
        assert!(matches!(e, SessionError::ExpressionNeedsAlias { .. }));
        // Bad range literal.
        let e = s
            .sql("SELECT * FROM products WHERE price < RANGE(3, 2, 1)")
            .unwrap_err();
        assert!(matches!(e, SessionError::InvalidRangeLiteral { .. }));
    }

    /// The satellite contract: scripts with trailing semicolons and blank
    /// `;;` statements compile cleanly; a script with no statements is an
    /// empty (not failing) preparation; and the single-statement entry
    /// points report the empty-statement edge as a span-carrying
    /// `SqlError` pointing at the end of input.
    #[test]
    fn prepare_script_accepts_trailing_semicolons_and_blank_statements() {
        let s = session();
        let prepared = s
            .prepare_script(
                ";;\nSELECT * FROM products;;\n;\n-- comment\nSELECT sku FROM products;\n;;",
            )
            .unwrap();
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared[1].sql(), "SELECT sku FROM products");
        for p in &prepared {
            s.execute(p).unwrap();
        }

        // No statements at all: an empty preparation, not an error.
        assert!(s.prepare_script("").unwrap().is_empty());
        assert!(s
            .prepare_script(" ;; \n ; -- just a comment\n")
            .unwrap()
            .is_empty());

        // The single-statement path reports the empty edge with a span at
        // the end of the input.
        let e = s.sql(";;\n ").unwrap_err();
        let SessionError::Sql(sql_err) = &e else {
            panic!("expected SqlError, got {e}");
        };
        assert_eq!(sql_err.kind, audb_sql::SqlErrorKind::EmptyStatement);
        assert_eq!((sql_err.span.line, sql_err.span.col), (2, 2));
        assert!(
            e.to_string().starts_with("SQL error at line 2, column 2"),
            "{e}"
        );
    }

    /// The visibility rule, deterministically: a statement prepared before
    /// a `register` executes against its pinned snapshot; a statement
    /// prepared after sees the new data; sessions built over the same
    /// shared catalog observe each other's registrations.
    #[test]
    fn registration_publishes_snapshots_without_disturbing_prepared_plans() {
        let s = session();
        let p = s.prepare("SELECT sku FROM products").unwrap();
        let before = s.execute(&p).unwrap().to_rows();
        assert_eq!(before.rows().len(), 3);

        // Re-register under the same name with one row: the prepared plan
        // keeps its pinned relation, a fresh statement sees the new one.
        let one_row = AuRelation::from_rows(
            Schema::new(["sku", "price"]),
            [(
                AuTuple::from([RangeValue::certain(9i64), RangeValue::certain(1i64)]),
                Mult3::ONE,
            )],
        );
        let peer = Session::with_catalog(Engine::native(), s.shared_catalog().clone());
        peer.register("products", one_row);
        assert!(s.shared_catalog().same_catalog(peer.shared_catalog()));

        assert_eq!(s.execute(&p).unwrap().len(), 3);
        assert_eq!(s.sql("SELECT sku FROM products").unwrap().rows().len(), 1);

        // Deregistration likewise only affects future preparations.
        s.deregister("products");
        assert_eq!(s.execute(&p).unwrap().len(), 3);
        assert!(matches!(
            peer.sql("SELECT sku FROM products").unwrap_err(),
            SessionError::UnknownTable { .. }
        ));
    }

    /// One stored form per published table version, built by `register`:
    /// every plan bound to the version — different statements, a
    /// plan-cache miss and its hit, rank-only or filtered — reads the
    /// catalog's handle, and no statement transposes anything.
    #[test]
    fn plans_of_one_version_share_one_columnar_form() {
        let s = session();
        let stored = Arc::clone(s.catalog().get("products").unwrap());
        assert_eq!((stored.len(), stored.segments().len()), (3, 1));

        let rank = s
            .prepare("SELECT * FROM products ORDER BY price AS rank LIMIT 2")
            .unwrap();
        let filter = s
            .prepare("SELECT sku FROM products WHERE price < 12")
            .unwrap();
        let top = s
            .prepare("SELECT * FROM products WHERE sku < 3 ORDER BY price AS rank LIMIT 1")
            .unwrap();
        for p in [&rank, &filter, &top] {
            s.execute(p).unwrap();
            assert!(Arc::ptr_eq(p.plan().source_columns(), &stored));
        }

        let cache = PlanCache::default();
        let sql = "SELECT sku FROM products WHERE price < 11";
        let (miss, hit) = s.prepare_cached(&cache, sql).unwrap();
        assert!(!hit);
        let (again, hit) = s.prepare_cached(&cache, sql).unwrap();
        assert!(hit);
        for p in [&miss, &again] {
            assert!(Arc::ptr_eq(
                p.plan().source_columns(),
                filter.plan().source_columns()
            ));
        }
    }

    /// The visibility rule on the stored form: an `append` publishes a new
    /// table version — the registered segment shared, a tail of its own —
    /// and a statement prepared after it sees the new rows, while one
    /// compiled before it keeps answering from the old version's segments.
    #[test]
    fn append_never_leaks_into_another_versions_columns() {
        let s = session();
        let sql = "SELECT sku FROM products WHERE price < 12";
        let before = s.prepare(sql).unwrap();
        assert_eq!(s.execute(&before).unwrap().len(), 2);

        let cheap = |sku: i64| {
            AuRelation::from_rows(
                Schema::new(["sku", "price"]),
                [(
                    AuTuple::from([RangeValue::certain(sku), RangeValue::certain(1i64)]),
                    Mult3::ONE,
                )],
            )
        };
        s.shared_catalog().append("products", &cheap(4)).unwrap();
        let after = s.prepare(sql).unwrap();
        // A second append rebuilds the tail `after` reads — in a copy.
        s.shared_catalog().append("products", &cheap(5)).unwrap();

        assert_eq!(s.execute(&after).unwrap().len(), 3);
        assert_eq!(s.execute(&before).unwrap().len(), 2);
        assert_eq!(s.sql(sql).unwrap().len(), 4);
        let (old, new) = (
            before.plan().source_columns(),
            after.plan().source_columns(),
        );
        assert_eq!((old.len(), new.len()), (3, 4));
        assert_eq!((old.segments().len(), new.segments().len()), (1, 2));
        assert!(Arc::ptr_eq(&old.segments()[0], &new.segments()[0]));
    }

    #[test]
    fn subqueries_chain_operator_blocks() {
        let s = session();
        let out = s
            .sql(
                "SELECT sku, rank FROM \
                   (SELECT * FROM products WHERE price >= 8 ORDER BY price AS rank) \
                 WHERE rank < 2",
            )
            .unwrap();
        assert_eq!(out.schema.cols(), &["sku", "rank"]);
        let p = s
            .prepare(
                "SELECT sku, rank FROM \
                   (SELECT * FROM products WHERE price >= 8 ORDER BY price AS rank) \
                 WHERE rank < 2",
            )
            .unwrap();
        assert_eq!(
            p.plan().ops().iter().map(|o| o.name()).collect::<Vec<_>>(),
            ["select", "sort", "select", "project"]
        );
    }

    #[test]
    fn explain_sql_shows_query_and_backend() {
        let s = session();
        let ex = s
            .explain_sql("SELECT * FROM products ORDER BY price")
            .unwrap();
        assert_eq!(ex.backend, Engine::Native);
        let text = ex.to_string();
        assert!(
            text.contains("query:   SELECT * FROM products ORDER BY price"),
            "{text}"
        );
    }
}
