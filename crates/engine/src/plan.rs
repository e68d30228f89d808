//! Typed logical plans: the [`Query`] builder, the resolved operator IR
//! ([`Op`]), and the validated [`Plan`] every backend executes.
//!
//! A plan is a linear operator chain over one scanned table (a
//! [`Table`] handle — the catalog's, or a private one over a relation
//! handed to [`Query::scan`]):
//!
//! ```text
//! scan → (select | project | sort [limit k] | window)*
//! ```
//!
//! Four operators, each said once: top-k is the sort with a `limit` (the
//! paper's Sec. 5 defines it as `σ_{τ<k}` over the sort), a projection onto
//! existing columns is the generalized projection of bare column
//! references. What a pass needs to know of an operator — its output
//! schema, the columns it reads, whether it breaks a pipeline — [`Op`]
//! answers itself.
//!
//! The builder resolves every column reference (by name or index) against
//! the *evolving* schema at build time and folds [`Op::output_schema`] over
//! the chain, returning a structured [`PlanError`] instead of the
//! scattered panics of the free-function API — a plan that builds cannot
//! reference a missing attribute, shadow an existing column with a
//! position/aggregate output, or carry a window frame that excludes the
//! current row. The resolved IR is purely index-based, so backends never
//! re-resolve names.

use crate::catalog::Table;
use crate::error::PlanError;
use audb_core::{AuRelation, AuWindowSpec, RangeExpr, WinAgg};
use audb_rel::{AggFunc, Schema};
use std::fmt;
use std::sync::Arc;

/// A column reference: by attribute name (resolved against the schema at
/// the point in the chain where it is used) or by positional index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColRef {
    /// Reference by attribute name.
    Name(String),
    /// Reference by 0-based position.
    Index(usize),
}

impl From<&str> for ColRef {
    fn from(s: &str) -> Self {
        ColRef::Name(s.to_string())
    }
}

impl From<String> for ColRef {
    fn from(s: String) -> Self {
        ColRef::Name(s)
    }
}

impl From<usize> for ColRef {
    fn from(i: usize) -> Self {
        ColRef::Index(i)
    }
}

impl ColRef {
    fn resolve(&self, schema: &Schema) -> Result<usize, PlanError> {
        match self {
            ColRef::Name(name) => schema
                .index_of(name)
                .ok_or_else(|| PlanError::UnknownColumn {
                    name: name.clone(),
                    schema: schema.to_string(),
                }),
            ColRef::Index(i) => {
                if *i < schema.arity() {
                    Ok(*i)
                } else {
                    Err(PlanError::ColumnOutOfRange {
                        index: *i,
                        arity: schema.arity(),
                    })
                }
            }
        }
    }
}

/// A window aggregate with an unresolved input column (resolved to a
/// [`WinAgg`] when the plan is built): `Agg::sum("price")`.
pub type Agg = AggFunc<ColRef>;

/// Builder-level row-window specification (`ROWS BETWEEN -lower PRECEDING
/// AND upper FOLLOWING`), with unresolved column references and the
/// aggregate + output name folded in — [`Query::window`] takes exactly one
/// of these.
#[derive(Clone, Debug)]
pub struct WindowSpec {
    order: Vec<ColRef>,
    partition: Vec<ColRef>,
    lower: i64,
    upper: i64,
    agg: Agg,
    out_name: String,
}

impl WindowSpec {
    /// A `[lower, upper]` row frame; defaults to `count(*)` into a column
    /// named `"x"` until [`Self::aggregate`] / [`Self::output`] override it.
    pub fn rows(lower: i64, upper: i64) -> Self {
        WindowSpec {
            order: Vec::new(),
            partition: Vec::new(),
            lower,
            upper,
            agg: Agg::Count,
            out_name: "x".to_string(),
        }
    }

    /// ORDER BY columns.
    pub fn order_by<C: Into<ColRef>>(mut self, cols: impl IntoIterator<Item = C>) -> Self {
        self.order = cols.into_iter().map(Into::into).collect();
        self
    }

    /// PARTITION BY columns.
    pub fn partition_by<C: Into<ColRef>>(mut self, cols: impl IntoIterator<Item = C>) -> Self {
        self.partition = cols.into_iter().map(Into::into).collect();
        self
    }

    /// The window aggregate to compute, over a column reference of any
    /// form: `Agg::sum("v")`, `WinAgg::Sum(2)`, the parser's `sum(v)`.
    pub fn aggregate(mut self, agg: AggFunc<impl Into<ColRef>>) -> Self {
        self.agg = agg.map(Into::into);
        self
    }

    /// Name of the appended output column (default `"x"`).
    pub fn output(mut self, name: impl Into<String>) -> Self {
        self.out_name = name.into();
        self
    }
}

/// One resolved operator of a [`Plan`]. All column references are indices
/// into the operator's input schema. The operator is the one place that
/// knows its own shape: [`Op::output_schema`] (which is also its
/// validation), [`Op::reads`] and [`Op::is_breaker`] are what the builder,
/// the printer, the executor and maintenance ask instead of matching on the
/// variants.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// AU-DB selection `σ_pred` (\[24\] semantics).
    Select {
        /// The predicate (column indices refer to the input schema).
        pred: RangeExpr,
    },
    /// Generalized projection through range expressions. A projection onto
    /// existing columns is the special case of `Col(i)` under the column's
    /// own name (the executor copies such a column instead of evaluating
    /// it).
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(RangeExpr, String)>,
    },
    /// AU-DB sort (Def. 2): appends a position-range column. With a
    /// `limit` it is top-k (Sec. 5): the sort followed by `σ_{τ < k}`, with
    /// position bounds capped at `k` (the paper's Algorithm 1 `emit` step
    /// — applied uniformly by every backend so their outputs are
    /// identical).
    Sort {
        /// ORDER BY column indices.
        order: Vec<usize>,
        /// Name of the appended position column.
        pos_name: String,
        /// Number of rows to keep per world, if limited.
        limit: Option<u64>,
    },
    /// Row-based windowed aggregation (Def. 3): appends an aggregate-range
    /// column.
    Window {
        /// The resolved window specification.
        spec: AuWindowSpec,
        /// The resolved aggregate.
        agg: WinAgg,
        /// Name of the appended output column.
        out_name: String,
    },
}

/// The column references of an expression, in the order it mentions them.
fn cols_of(e: &RangeExpr, out: &mut Vec<usize>) {
    e.visit(&mut |node| {
        if let RangeExpr::Col(i) = node {
            out.push(*i);
        }
    });
}

impl Op {
    /// Short operator name for explain output, trace labels and rule ids
    /// (a limited sort is `"topk"`).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Select { .. } => "select",
            Op::Project { .. } => "project",
            Op::Sort { limit: None, .. } => "sort",
            Op::Sort { limit: Some(_), .. } => "topk",
            Op::Window { .. } => "window",
        }
    }

    /// True iff the operator must see its entire input before producing
    /// output — the order-based operators, whose position/aggregate bounds
    /// depend on every other row. The others stream one tuple at a time.
    pub fn is_breaker(&self) -> bool {
        matches!(self, Op::Sort { .. } | Op::Window { .. })
    }

    /// The input columns the operator reads, in the order it mentions them
    /// (a column mentioned twice is listed twice).
    pub fn reads(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        match self {
            Op::Select { pred } => cols_of(pred, &mut cols),
            Op::Project { exprs } => exprs.iter().for_each(|(e, _)| cols_of(e, &mut cols)),
            Op::Sort { order, .. } => cols.extend(order),
            Op::Window { spec, agg, .. } => {
                cols.extend(spec.order.iter().chain(&spec.partition));
                cols.extend(agg.input_col());
            }
        }
        cols
    }

    /// The operator's output schema over `input` — or why it cannot run
    /// there: a column reference past the input's arity, an output name
    /// that is already taken, an empty projection or ORDER BY, a window
    /// frame that excludes the current row. Folding this over a chain is
    /// how every [`Plan`] gets its schemas, whichever door built it.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, PlanError> {
        let arity = input.arity();
        if let Some(index) = self.reads().into_iter().find(|&c| c >= arity) {
            return Err(PlanError::ColumnOutOfRange { index, arity });
        }
        // The column a breaker appends must not shadow an attribute.
        let appended = |name: &str| match input.index_of(name) {
            Some(_) => Err(PlanError::DuplicateColumn { name: name.into() }),
            None => Ok(input.with(name)),
        };
        match self {
            Op::Select { .. } => Ok(input.clone()),
            Op::Project { exprs } => {
                if exprs.is_empty() {
                    return Err(PlanError::EmptyProjection);
                }
                for (i, (_, n)) in exprs.iter().enumerate() {
                    if exprs[..i].iter().any(|(_, m)| m == n) {
                        return Err(PlanError::DuplicateColumn { name: n.clone() });
                    }
                }
                Ok(Schema::new(exprs.iter().map(|(_, n)| n.clone())))
            }
            Op::Sort {
                order, pos_name, ..
            } => {
                if order.is_empty() {
                    return Err(PlanError::EmptyOrderBy);
                }
                appended(pos_name)
            }
            Op::Window { spec, out_name, .. } => {
                if spec.order.is_empty() {
                    return Err(PlanError::EmptyOrderBy);
                }
                if spec.lower > 0 || spec.upper < 0 {
                    return Err(PlanError::InvalidWindowFrame {
                        lower: spec.lower,
                        upper: spec.upper,
                    });
                }
                appended(out_name)
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Select { .. } => write!(f, "select σ"),
            Op::Project { exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(_, n)| n.as_str()).collect();
                write!(f, "project [{}]", names.join(", "))
            }
            Op::Sort {
                order,
                pos_name,
                limit,
            } => {
                write!(f, "{}", self.name())?;
                if let Some(k) = limit {
                    write!(f, " k={k}")?;
                }
                write!(f, " {order:?} → {pos_name}")
            }
            Op::Window {
                spec,
                agg,
                out_name,
            } => write!(
                f,
                "window [{}, {}] {agg:?} over {:?} partition {:?} → {out_name}",
                spec.lower, spec.upper, spec.order, spec.partition
            ),
        }
    }
}

/// A validated logical plan: a scanned source plus a resolved operator
/// chain. Cheap to clone (the source is shared behind an [`Arc`]); execute
/// it through [`crate::Engine`] or any [`crate::Backend`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// The scanned table's handle: its columnar segments and their
    /// statistics. A plan bound through a catalog holds the catalog's
    /// handle, so every plan over one published version of a table reads
    /// the same segments; [`Query::scan`] transposes its relation into a
    /// private handle.
    source: Arc<Table>,
    ops: Vec<Op>,
    /// Schema after each op: `schemas\[0\]` is the source schema,
    /// `schemas[i + 1]` the output of `ops[i]`.
    schemas: Vec<Schema>,
    /// The SQL text this plan was compiled from, when it came through the
    /// SQL frontend (shown by `Engine::explain`).
    sql: Option<String>,
}

impl Plan {
    /// The scanned source as it is stored — the handle on its columnar
    /// segments and their statistics ([`Table`]): row count, schema,
    /// batches, and (through [`Table::contiguous`]) one `AuColumns` or rows
    /// for whoever wants them. A native scan reads it in place; plans
    /// bound to one published version of a table hold the same handle
    /// (`Arc::ptr_eq`).
    pub fn source_columns(&self) -> &Arc<Table> {
        &self.source
    }

    /// The resolved operator chain.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Schema of the plan's output.
    pub fn schema(&self) -> &Schema {
        self.schemas.last().expect("plan has a source schema")
    }

    /// Schema after each operator: index 0 is the source schema, index
    /// `i + 1` the output schema of `ops()[i]`.
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// The originating SQL text, if this plan came through the SQL
    /// frontend.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }

    /// Attach the originating SQL text (used by `Session`).
    pub fn with_sql(mut self, sql: impl Into<String>) -> Self {
        self.sql = Some(sql.into());
        self
    }

    /// Structural equality: same operator chain and same per-operator
    /// schemas (the scanned data and SQL provenance are ignored). This is
    /// the `parse ∘ print = id` round-trip invariant's notion of "the same
    /// plan".
    pub fn same_shape(&self, other: &Plan) -> bool {
        self.ops == other.ops && self.schemas == other.schemas
    }

    /// The same operator chain over another table handle — the plan a
    /// subscription that is never maintained recomputes against its grown
    /// table, and the pre-operator plan a maintained one runs over each
    /// appended batch. Nothing of the
    /// table is read or copied. The resolved IR is index-based, so the
    /// only thing to re-validate is that the new source carries the schema
    /// the chain was compiled against.
    pub fn with_table(&self, source: Arc<Table>) -> Result<Plan, PlanError> {
        if source.schema() != &self.schemas[0] {
            return Err(PlanError::SourceSchemaMismatch {
                expected: self.schemas[0].to_string(),
                got: source.schema().to_string(),
            });
        }
        Ok(Plan {
            source,
            ops: self.ops.clone(),
            schemas: self.schemas.clone(),
            sql: self.sql.clone(),
        })
    }

    /// The plan truncated to its first `n` operators (the row-wise
    /// pre-operator chain of a maintained query).
    pub(crate) fn prefix(&self, n: usize) -> Plan {
        Plan {
            source: Arc::clone(&self.source),
            ops: self.ops[..n].to_vec(),
            schemas: self.schemas[..=n].to_vec(),
            sql: None,
        }
    }
}

/// Fluent, validating builder for [`Plan`]s.
///
/// Every call validates its column references against the schema at that
/// point in the chain; the first failure is remembered and returned by
/// [`Query::build`] (subsequent calls become no-ops), so the chain style
/// stays panic-free end to end:
///
/// ```
/// use audb_engine::{Query, PlanError};
/// use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
/// use audb_rel::Schema;
///
/// let rel = AuRelation::from_rows(
///     Schema::new(["sku", "price"]),
///     [(AuTuple::from([RangeValue::certain(1i64), RangeValue::new(9, 10, 12)]), Mult3::ONE)],
/// );
/// let plan = Query::scan(rel.clone()).sort_by(["price"]).topk(2).build().unwrap();
/// assert_eq!(plan.schema().cols(), &["sku", "price", "pos"]);
///
/// // A colliding position column is a structured error, not a panic:
/// let err = Query::scan(rel).sort_by_as(["price"], "sku").build().unwrap_err();
/// assert_eq!(err, PlanError::DuplicateColumn { name: "sku".into() });
/// ```
#[derive(Clone, Debug)]
pub struct Query {
    state: Result<Plan, PlanError>,
}

/// Resolve a list of column references against one schema.
fn resolve_all(cols: &[ColRef], schema: &Schema) -> Result<Vec<usize>, PlanError> {
    cols.iter().map(|c| c.resolve(schema)).collect()
}

impl Query {
    /// Start a plan by scanning an AU-relation, owned or behind an `Arc`:
    /// its rows are transposed and swept here, into a table handle of the
    /// plan's own (register the relation in a catalog to share one handle
    /// between many plans). The source schema itself is validated:
    /// repeated attribute names are rejected up front, because every
    /// downstream name resolution would silently bind to the first.
    pub fn scan(rel: impl Into<Arc<AuRelation>>) -> Query {
        Query::scan_table(Table::sealed(rel.into().to_columns()))
    }

    /// [`Query::scan`] over an existing table handle — a catalog's — so
    /// the new plan shares the handle's segments and statistics.
    pub(crate) fn scan_table(source: Arc<Table>) -> Query {
        let cols = source.schema().cols();
        let state = match cols
            .iter()
            .enumerate()
            .find(|(i, c)| cols[..*i].contains(c))
        {
            Some((_, c)) => Err(PlanError::DuplicateColumn { name: c.clone() }),
            None => Ok(Plan {
                schemas: vec![source.schema().clone()],
                source,
                ops: Vec::new(),
                sql: None,
            }),
        };
        Query { state }
    }

    /// Append the operator `resolve` makes of the current schema, under
    /// the schema [`Op::output_schema`] gives it; the first failure of
    /// either sticks.
    fn try_push(mut self, resolve: impl FnOnce(&Schema) -> Result<Op, PlanError>) -> Self {
        if let Ok(plan) = &mut self.state {
            let pushed = resolve(plan.schema()).and_then(|op| {
                let out = op.output_schema(plan.schema())?;
                Ok((op, out))
            });
            match pushed {
                Ok((op, out)) => {
                    plan.ops.push(op);
                    plan.schemas.push(out);
                }
                Err(e) => self.state = Err(e),
            }
        }
        self
    }

    /// AU-DB selection `σ_pred` — filters each row's multiplicity triple by
    /// the predicate's truth triple.
    pub fn select(self, pred: RangeExpr) -> Self {
        self.try_push(|_| Ok(Op::Select { pred }))
    }

    /// Project onto existing columns (by name or index): each becomes a
    /// bare column reference under the column's own name.
    pub fn project<C: Into<ColRef>>(self, cols: impl IntoIterator<Item = C>) -> Self {
        let cols: Vec<ColRef> = cols.into_iter().map(Into::into).collect();
        self.try_push(|schema| {
            let exprs = resolve_all(&cols, schema)?
                .into_iter()
                .map(|i| (RangeExpr::Col(i), schema.cols()[i].clone()))
                .collect();
            Ok(Op::Project { exprs })
        })
    }

    /// Generalized projection: compute each output column from a range
    /// expression over the input.
    pub fn project_exprs(
        self,
        exprs: impl IntoIterator<Item = (RangeExpr, impl Into<String>)>,
    ) -> Self {
        let exprs = exprs.into_iter().map(|(e, n)| (e, n.into())).collect();
        self.try_push(|_| Ok(Op::Project { exprs }))
    }

    /// Sort (Def. 2), appending position ranges in a column named `"pos"`.
    pub fn sort_by<C: Into<ColRef>>(self, order: impl IntoIterator<Item = C>) -> Self {
        self.sort_by_as(order, "pos")
    }

    /// Sort with an explicit position-column name.
    pub fn sort_by_as<C: Into<ColRef>>(
        self,
        order: impl IntoIterator<Item = C>,
        pos_name: impl Into<String>,
    ) -> Self {
        let order: Vec<ColRef> = order.into_iter().map(Into::into).collect();
        let pos_name = pos_name.into();
        self.try_push(|schema| {
            Ok(Op::Sort {
                order: resolve_all(&order, schema)?,
                pos_name,
                limit: None,
            })
        })
    }

    /// Restrict the directly preceding [`Query::sort_by`] to the top `k`
    /// rows (`σ_{τ < k}` with position bounds capped at `k`, the paper's
    /// Algorithm 1 `emit` step). Calling it anywhere else is a
    /// [`PlanError::TopKWithoutSort`].
    pub fn topk(mut self, k: u64) -> Self {
        if let Ok(plan) = &mut self.state {
            match plan.ops.last_mut() {
                Some(Op::Sort { limit, .. }) if limit.is_none() => *limit = Some(k),
                _ => self.state = Err(PlanError::TopKWithoutSort),
            }
        }
        self
    }

    /// Row-based windowed aggregation (Def. 3).
    pub fn window(self, spec: WindowSpec) -> Self {
        self.try_push(|schema| {
            Ok(Op::Window {
                // `rows` clamps the offsets; the frame is `output_schema`'s
                // to judge.
                spec: AuWindowSpec::rows(resolve_all(&spec.order, schema)?, spec.lower, spec.upper)
                    .partition_by(resolve_all(&spec.partition, schema)?),
                agg: spec.agg.try_map(|c| c.resolve(schema))?,
                out_name: spec.out_name,
            })
        })
    }

    /// The schema at the current point of the chain, or `None` if an
    /// earlier call already failed (the error surfaces from
    /// [`Query::build`]). Lets external compilers — the SQL binder — resolve
    /// names mid-chain exactly like the builder itself does.
    pub fn schema(&self) -> Option<&Schema> {
        self.state.as_ref().ok().map(Plan::schema)
    }

    /// Finish the chain, returning the validated plan or the first error
    /// encountered while building it.
    pub fn build(self) -> Result<Plan, PlanError> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{AuTuple, Mult3, RangeValue};

    fn rel() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [(
                AuTuple::new([RangeValue::certain(1i64), RangeValue::new(1, 2, 3)]),
                Mult3::ONE,
            )],
        )
    }

    #[test]
    fn builds_and_tracks_schemas() {
        let plan = Query::scan(rel())
            .select(RangeExpr::col(1).lt(RangeExpr::lit(10)))
            .sort_by(["b", "a"])
            .topk(3)
            .build()
            .unwrap();
        assert_eq!(plan.ops().len(), 2);
        assert_eq!(plan.schema().cols(), &["a", "b", "pos"]);
        assert_eq!(plan.schemas()[0].cols(), &["a", "b"]);
        assert!(
            matches!(&plan.ops()[1], Op::Sort { limit: Some(3), order, .. } if order == &[1, 0])
        );
    }

    /// The satellite regression: a position/aggregate column that collides
    /// with an existing attribute is a `DuplicateColumn` error, not a
    /// silently double-named schema (and no panic anywhere).
    #[test]
    fn duplicate_position_and_window_columns_are_errors() {
        let err = Query::scan(rel())
            .sort_by_as(["a"], "b")
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::DuplicateColumn { name: "b".into() });

        let err = Query::scan(rel())
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["b"])
                    .aggregate(Agg::sum("b"))
                    .output("a"),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::DuplicateColumn { name: "a".into() });

        // A duplicate-named *source* is caught at scan.
        let dup = AuRelation::empty(Schema::new(["x", "x"]));
        let err = Query::scan(dup).build().unwrap_err();
        assert_eq!(err, PlanError::DuplicateColumn { name: "x".into() });
    }

    #[test]
    fn unknown_and_out_of_range_columns() {
        let err = Query::scan(rel()).sort_by(["nope"]).build().unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn { name, .. } if name == "nope"));

        let err = Query::scan(rel()).sort_by([7usize]).build().unwrap_err();
        assert_eq!(err, PlanError::ColumnOutOfRange { index: 7, arity: 2 });

        let err = Query::scan(rel())
            .select(RangeExpr::col(5).lt(RangeExpr::lit(1)))
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::ColumnOutOfRange { index: 5, arity: 2 });
    }

    #[test]
    fn structural_errors() {
        let err = Query::scan(rel()).topk(2).build().unwrap_err();
        assert_eq!(err, PlanError::TopKWithoutSort);

        let err = Query::scan(rel())
            .select(RangeExpr::lit(true))
            .topk(2)
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::TopKWithoutSort);

        let err = Query::scan(rel())
            .sort_by(Vec::<usize>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::EmptyOrderBy);

        let err = Query::scan(rel())
            .window(WindowSpec::rows(1, 2).order_by(["a"]))
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::InvalidWindowFrame { lower: 1, upper: 2 });

        let err = Query::scan(rel())
            .project(Vec::<usize>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::EmptyProjection);
    }

    #[test]
    fn first_error_wins_and_chain_stays_usable() {
        // The unknown column is reported even though a later call would
        // also fail; no panic anywhere in the chain.
        let err = Query::scan(rel())
            .sort_by(["nope"])
            .topk(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn { .. }));
    }

    #[test]
    fn projection_resolution() {
        let plan = Query::scan(rel()).project(["b"]).build().unwrap();
        assert_eq!(plan.schema().cols(), &["b"]);

        let err = Query::scan(rel()).project(["a", "a"]).build().unwrap_err();
        assert_eq!(err, PlanError::DuplicateColumn { name: "a".into() });

        let plan = Query::scan(rel())
            .project_exprs([
                (RangeExpr::col(0), "a"),
                (RangeExpr::Neg(Box::new(RangeExpr::col(1))), "neg_b"),
            ])
            .build()
            .unwrap();
        assert_eq!(plan.schema().cols(), &["a", "neg_b"]);
    }
}
