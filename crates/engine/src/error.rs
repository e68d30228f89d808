//! Structured errors for plan construction and execution.
//!
//! The pre-engine API surfaced every misuse as a panic deep inside an
//! operator (`Schema::col` panics on a missing attribute, `AuWindowSpec::
//! rows` asserts on bad frames, `window_native` asserts on uncertain
//! partition attributes, a colliding position-column name silently produced
//! a schema with two identically-named attributes). The [`crate::Query`]
//! builder turns all of these into values of [`PlanError`] at plan-build
//! time; backends report execution-level problems as [`EngineError`].

use audb_core::MultOverflow;
use std::error::Error;
use std::fmt;

/// A plan could not be built: a schema or column reference is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A column was referenced by a name the current schema does not have.
    UnknownColumn {
        /// The name that failed to resolve.
        name: String,
        /// Display form of the schema it was resolved against.
        schema: String,
    },
    /// A column was referenced by an index past the current arity.
    ColumnOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// Arity of the schema it was resolved against.
        arity: usize,
    },
    /// A new output column (sort position, window aggregate, projection
    /// alias) collides with an attribute already in the schema — or the
    /// scanned relation's own schema repeats a name.
    DuplicateColumn {
        /// The colliding name.
        name: String,
    },
    /// `sort_by` / `window` was given an empty ORDER BY list.
    EmptyOrderBy,
    /// A projection with no output columns.
    EmptyProjection,
    /// `topk(k)` must directly follow `sort_by(...)`.
    TopKWithoutSort,
    /// Row windows must contain the current row: `lower ≤ 0 ≤ upper`.
    InvalidWindowFrame {
        /// Window start offset.
        lower: i64,
        /// Window end offset.
        upper: i64,
    },
    /// [`crate::Plan::with_table`] was given a table whose schema
    /// differs from the one the plan was compiled against (appended rows
    /// must match the subscribed table's schema exactly).
    SourceSchemaMismatch {
        /// Display form of the schema the plan was compiled against.
        expected: String,
        /// Display form of the schema actually supplied.
        got: String,
    },
}

impl PlanError {
    /// A stable machine-readable tag for this error variant, as used in
    /// the server's structured error responses (`{"error": {"kind": ...}}`).
    pub fn kind(&self) -> &'static str {
        match self {
            PlanError::UnknownColumn { .. } => "unknown_column",
            PlanError::ColumnOutOfRange { .. } => "column_out_of_range",
            PlanError::DuplicateColumn { .. } => "duplicate_column",
            PlanError::EmptyOrderBy => "empty_order_by",
            PlanError::EmptyProjection => "empty_projection",
            PlanError::TopKWithoutSort => "topk_without_sort",
            PlanError::InvalidWindowFrame { .. } => "invalid_window_frame",
            PlanError::SourceSchemaMismatch { .. } => "schema_mismatch",
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownColumn { name, schema } => {
                write!(f, "unknown column {name:?} in schema {schema}")
            }
            PlanError::ColumnOutOfRange { index, arity } => {
                write!(f, "column index {index} out of range for arity {arity}")
            }
            PlanError::DuplicateColumn { name } => {
                write!(f, "duplicate column name {name:?}")
            }
            PlanError::EmptyOrderBy => write!(f, "ORDER BY list is empty"),
            PlanError::EmptyProjection => write!(f, "projection has no output columns"),
            PlanError::TopKWithoutSort => {
                write!(f, "topk(k) must directly follow sort_by(...)")
            }
            PlanError::InvalidWindowFrame { lower, upper } => write!(
                f,
                "window frame [{lower}, {upper}] must contain the current row (lower ≤ 0 ≤ upper)"
            ),
            PlanError::SourceSchemaMismatch { expected, got } => write!(
                f,
                "source schema {got} does not match the plan's schema {expected}"
            ),
        }
    }
}

impl Error for PlanError {}

/// A plan failed at execution time.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// `run_all` detected two backends producing different bounds for the
    /// same plan — a broken bound-agreement invariant.
    BackendDisagreement {
        /// Backend whose output is taken as the baseline.
        baseline: &'static str,
        /// Backend that disagreed with it.
        other: &'static str,
        /// Display form of the baseline output.
        baseline_output: String,
        /// Display form of the disagreeing output.
        other_output: String,
    },
    /// An order-based operator would emit more rows than the kernels index
    /// (one per possible duplicate of its input, `u32::MAX` at most):
    /// refused before anything is allocated for them.
    ResultTooLarge {
        /// The rows it would emit (`u64::MAX` when the sum leaves `u64`).
        rows: u64,
    },
    /// Identical rows of a result add up to a multiplicity past `u64` where
    /// it is put in canonical form: refused, neither wrapped nor saturated.
    MultiplicityOverflow(MultOverflow),
    /// An order-based operator over more rows than one ranking numbers
    /// (`audb_native::MAX_RANKED_ROWS`: three keys a row in a `u32`):
    /// refused before anything is allocated for them.
    InputTooLarge {
        /// The rows it would rank.
        rows: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BackendDisagreement {
                baseline,
                other,
                baseline_output,
                other_output,
            } => write!(
                f,
                "backend {other} disagrees with {baseline}:\n--- {baseline} ---\n{baseline_output}\n--- {other} ---\n{other_output}"
            ),
            EngineError::ResultTooLarge { rows } => write!(
                f,
                "an ORDER BY or window over this input would emit {rows} rows \
                 (one per possible duplicate); at most {} are supported",
                u32::MAX
            ),
            EngineError::MultiplicityOverflow(e) => write!(f, "{e}"),
            EngineError::InputTooLarge { rows } => write!(
                f,
                "an ORDER BY or window would rank {rows} rows; at most {} are supported",
                u64::from(u32::MAX) / 3
            ),
        }
    }
}

impl EngineError {
    /// A stable machine-readable tag for this error variant (see
    /// [`SessionError::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::BackendDisagreement { .. } => "backend_disagreement",
            EngineError::ResultTooLarge { .. } => "result_too_large",
            EngineError::MultiplicityOverflow(_) => "multiplicity_overflow",
            EngineError::InputTooLarge { .. } => "input_too_large",
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::MultiplicityOverflow(e) => Some(e),
            EngineError::BackendDisagreement { .. }
            | EngineError::ResultTooLarge { .. }
            | EngineError::InputTooLarge { .. } => None,
        }
    }
}

impl From<MultOverflow> for EngineError {
    fn from(e: MultOverflow) -> Self {
        EngineError::MultiplicityOverflow(e)
    }
}

/// A SQL-session operation failed: anywhere from the lexer to execution.
///
/// The session funnels every layer's failure into one uniform
/// `std::error::Error` value — [`audb_sql::SqlError`] (with line/column
/// spans) for text-level problems, [`PlanError`] for binding/validation,
/// [`EngineError`] for execution — plus the catalog- and binder-level
/// conditions that only exist at the session layer.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// The query text failed to lex or parse.
    Sql(audb_sql::SqlError),
    /// The FROM clause names a relation the catalog does not have.
    UnknownTable {
        /// The missing name.
        name: String,
        /// The catalog's registered names (for the error message).
        known: Vec<String>,
    },
    /// A compound select-list expression has no `AS` alias to name its
    /// output column.
    ExpressionNeedsAlias {
        /// Display form of the unnamed expression's SQL.
        item: String,
    },
    /// A `RANGE(lb, sg, ub)` literal violating `lb ≤ sg ≤ ub`.
    InvalidRangeLiteral {
        /// Display form of the offending literal.
        lit: String,
    },
    /// The statement failed plan validation (unknown column, duplicate
    /// output name, bad frame, ...).
    Plan(PlanError),
    /// The plan failed at execution time.
    Engine(EngineError),
}

impl SessionError {
    /// A stable machine-readable tag ("kind") classifying the failure,
    /// independent of its human-readable message. The HTTP layer maps
    /// these onto status codes and clients match on them programmatically,
    /// so values here are a compatibility surface: extend, don't rename.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionError::Sql(_) => "sql",
            SessionError::UnknownTable { .. } => "unknown_table",
            SessionError::ExpressionNeedsAlias { .. } => "needs_alias",
            SessionError::InvalidRangeLiteral { .. } => "invalid_range_literal",
            SessionError::Plan(e) => e.kind(),
            SessionError::Engine(e) => e.kind(),
        }
    }

    /// The line/column span of the failure, when the error originates in
    /// the query text (lex/parse errors carry one; semantic errors do not).
    pub fn span(&self) -> Option<audb_sql::Span> {
        match self {
            SessionError::Sql(e) => Some(e.span),
            _ => None,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sql(e) => write!(f, "{e}"),
            SessionError::UnknownTable { name, known } => {
                write!(f, "unknown table {name:?}; registered: ")?;
                if known.is_empty() {
                    write!(f, "(none)")
                } else {
                    write!(f, "{}", known.join(", "))
                }
            }
            SessionError::ExpressionNeedsAlias { item } => {
                write!(f, "select-list expression {item} needs an AS alias")
            }
            SessionError::InvalidRangeLiteral { lit } => {
                write!(f, "range literal {lit} violates lb \u{2264} sg \u{2264} ub")
            }
            SessionError::Plan(e) => write!(f, "invalid plan: {e}"),
            SessionError::Engine(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Sql(e) => Some(e),
            SessionError::Plan(e) => Some(e),
            SessionError::Engine(e) => Some(e),
            SessionError::UnknownTable { .. }
            | SessionError::ExpressionNeedsAlias { .. }
            | SessionError::InvalidRangeLiteral { .. } => None,
        }
    }
}

impl From<audb_sql::SqlError> for SessionError {
    fn from(e: audb_sql::SqlError) -> Self {
        SessionError::Sql(e)
    }
}

impl From<PlanError> for SessionError {
    fn from(e: PlanError) -> Self {
        SessionError::Plan(e)
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

impl From<MultOverflow> for SessionError {
    fn from(e: MultOverflow) -> Self {
        SessionError::Engine(e.into())
    }
}
