//! The abstract syntax tree the parser produces and the engine's binder
//! consumes.
//!
//! The AST is deliberately *unresolved*: column references are names, the
//! FROM clause is a table name (looked up in the engine's `Catalog`) or a
//! nested sub-select. `audb_engine` binds it onto the `Query` builder, so
//! all schema validation (`PlanError`) is shared with programmatic plans.

use crate::error::Span;
use audb_rel::{AggFunc, CmpOp, Value};

/// A scalar expression (WHERE predicates and projection expressions).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Certain literal.
    Lit(Value),
    /// `RANGE(lb, sg, ub)` — an uncertain range-value literal.
    Range(Value, Value, Value),
    /// Unary numeric negation.
    Neg(Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// `+`, `-`, `*`.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `AND`.
    And(Box<Expr>, Box<Expr>),
    /// `OR`.
    Or(Box<Expr>, Box<Expr>),
}

/// Arithmetic operators of [`Expr::Bin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

/// A window aggregate call, e.g. `SUM(sales)` or `COUNT(*)`: the plan's
/// own aggregate over a column name. Its [`AggFunc::name`] is the default
/// output-column name when no `AS` alias is given.
pub type AggCall = AggFunc<String>;

/// `<agg> OVER (PARTITION BY ... ORDER BY ... ROWS BETWEEN l AND u)`.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowItem {
    /// The aggregate.
    pub agg: AggCall,
    /// PARTITION BY column names (may be empty).
    pub partition_by: Vec<String>,
    /// ORDER BY column names inside the OVER clause.
    pub order_by: Vec<String>,
    /// `(lower, upper)` row-frame offsets relative to the current row
    /// (`n PRECEDING` → `-n`, `n FOLLOWING` → `n`, `CURRENT ROW` → `0`).
    /// Defaults to `(0, 0)` when the ROWS clause is omitted.
    pub frame: (i64, i64),
    /// Output column name (`AS` alias).
    pub alias: Option<String>,
}

/// One item of an explicit select list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// A scalar expression, optionally aliased.
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional `AS` alias. Compound expressions require one.
        alias: Option<String>,
    },
    /// A window aggregate.
    Window(WindowItem),
}

/// The select list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectList {
    /// `*` optionally followed by window items: keep every input column and
    /// append the window outputs.
    Star {
        /// Appended window aggregates, in list order.
        windows: Vec<WindowItem>,
    },
    /// An explicit item list (projection, possibly with window items).
    Items(Vec<SelectItem>),
}

/// The FROM clause.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    /// A named relation, resolved against the session catalog.
    Name(String),
    /// A parenthesized sub-select.
    Subquery(Box<Select>),
}

/// `ORDER BY cols [AS pos_name]` — the AU-DB sort operator (Def. 2), which
/// *appends* a position-range column (named `pos` unless aliased).
#[derive(Clone, Debug, PartialEq)]
pub struct OrderBy {
    /// Order-by column names.
    pub cols: Vec<String>,
    /// Name of the appended position column (dialect extension; default
    /// `pos`).
    pub pos_name: Option<String>,
}

/// One `SELECT` statement of the supported fragment.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// The select list.
    pub items: SelectList,
    /// The FROM clause.
    pub from: TableRef,
    /// Optional WHERE predicate.
    pub r#where: Option<Expr>,
    /// Optional ORDER BY (AU-DB sort).
    pub order_by: Option<OrderBy>,
    /// Optional LIMIT (top-k; requires ORDER BY).
    pub limit: Option<u64>,
    /// Position of the `SELECT` keyword.
    pub span: Span,
    /// The statement's own source text (trimmed slice of the script).
    pub text: String,
}
