//! The [`Backend`] trait and its three implementations.
//!
//! Every backend executes the *same* logical [`Plan`] and must produce the
//! *same* bounds — the paper's "one semantics, interchangeable
//! implementations" story, made a trait:
//!
//! * [`Reference`] — the quadratic Defs. 2–3 semantics of `audb-core`,
//!   parameterized by [`CmpSemantics`]. The ground truth.
//! * [`Native`] — the one-pass Sec. 8 algorithms of `audb-native`
//!   (`O(n log n)` sorts, connected-heap window sweeps). Falls back to the
//!   reference for the cases the native operators do not cover: uncertain
//!   `PARTITION BY` attributes and window inputs with duplicate
//!   multiplicities (where the native duplicate-offset treatment is
//!   tighter-but-different; the engine contract is reference bounds).
//! * [`Rewrite`] — the Sec. 7 SQL-style rewrites of `audb-rewrite`. Its
//!   scan round-trips the source through the relational encoding of
//!   `audb_core::encode` (three columns per attribute + the multiplicity
//!   triple), exactly the representation a DBMS executing Figs. 7–8 would
//!   hold.
//!
//! Selection and projection have one semantics (\[24\]) — only the
//! order-based operators differ between methods, so those are the trait's
//! two breaker hooks: [`Backend::sort`] (top-k is the sort with a limit,
//! as in the paper's Sec. 5) and [`Backend::window`]. How the whole chain
//! runs is a fact about the backend ([`Backend::mode`]): the reference
//! steps through `audb-core`'s row operators one at a time, the other two
//! stream batches through [`crate::exec`]'s fused stages. Nothing
//! overrides it.
//!
//! A breaker reads the executor's current relation as a [`BreakerInput`]:
//! columns (the stored source, a fused stage's output) or rows (a previous
//! breaker's output, a rewriting scan's). Both of [`Native`]'s hooks
//! consume either form as it lies; the two oracle backends are defined
//! over rows and call [`BreakerInput::rows`] — as does the native window's
//! fallback, by way of [`Reference`] — which is the one row
//! materialization left between stages.

use crate::catalog::Table;
use crate::error::EngineError;
use crate::exec::ExecMode;
use crate::plan::Op;
use audb_core::encode::{decode, encode};
use audb_core::{
    au_select, sort_ref, window_ref, AuColumns, AuRelation, AuWindowSpec, CmpSemantics, RangeExpr,
    RangeValue, WinAgg,
};
use audb_rewrite::JoinStrategy;
use std::borrow::Cow;

/// The relation a pipeline breaker reads, in the form the stage before it
/// left behind.
#[derive(Clone, Copy, Debug)]
pub enum BreakerInput<'a> {
    /// A previous breaker's output, or a scan that rewrote the source.
    Rows(&'a AuRelation),
    /// The stored source, or a fused stage's output.
    Columns(&'a AuColumns),
}

impl<'a> BreakerInput<'a> {
    /// The input as rows: borrowed when it is rows already, transposed
    /// back (one tuple per row) when it is columns.
    pub fn rows(self) -> Cow<'a, AuRelation> {
        match self {
            BreakerInput::Rows(rel) => Cow::Borrowed(rel),
            BreakerInput::Columns(cols) => Cow::Owned(cols.to_rows()),
        }
    }
}

/// A physical implementation of the logical plan language:
/// [`crate::exec::execute`] runs the operator chain in the backend's
/// [`Backend::mode`]; the per-operator hooks are what distinguish the
/// three methods.
pub trait Backend {
    /// Stable backend name (used in explain output and disagreement
    /// reports).
    fn name(&self) -> &'static str;

    /// Scan the source as it is stored. The default reads the columns in
    /// place (`None`); a backend whose scan rewrites the relation returns
    /// the rows it made of them — [`Rewrite`], with the
    /// relational-encoding round-trip.
    fn scan(&self, source: &Table) -> Result<Option<AuRelation>, EngineError> {
        let _ = source;
        Ok(None)
    }

    /// `sort_{O→τ}` (Def. 2); with `limit = Some(k)`, top-k (Sec. 5): the
    /// sort followed by `σ_{τ < k}`, position bounds capped at `k`.
    fn sort(
        &self,
        input: BreakerInput<'_>,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> Result<AuRelation, EngineError>;

    /// `ω[l,u]` row-based windowed aggregation (Def. 3).
    fn window(
        &self,
        input: BreakerInput<'_>,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> Result<AuRelation, EngineError>;

    /// One-line cost/strategy note for an operator, shown by
    /// [`crate::Engine::explain`]: selection and projection are the shared
    /// operators on every backend, a breaker's note is its hook's.
    fn op_note(&self, op: &Op) -> String {
        match op {
            Op::Select { .. } | Op::Project { .. } => {
                "shared AU-DB operator ([24] semantics)".into()
            }
            Op::Sort { limit, .. } => self.sort_note(*limit),
            Op::Window { .. } => self.window_note(),
        }
    }

    /// What [`Backend::sort`] does, limited or not, in one line.
    fn sort_note(&self, limit: Option<u64>) -> String;

    /// What [`Backend::window`] does, in one line.
    fn window_note(&self) -> String;

    /// One-line note describing what `scan` does in this backend.
    fn scan_note(&self) -> String {
        "read the stored columnar segments in place".to_string()
    }

    /// How this backend runs plans: the batch-streaming pipeline executor
    /// for the production backends, operator-at-a-time for the semantic
    /// oracle. The two are bag-equal on every plan (property-tested).
    fn mode(&self) -> ExecMode;
}

/// A sort's output under `limit`: `σ_{τ < k}` over the appended position
/// column, then the selected-guess and upper position bounds capped at `k`
/// — the paper's Algorithm 1 `emit` step. The native sweep does both
/// internally; applying them here to the reference and rewrite sorts makes
/// all three backends bit-identical (the surviving rows' lower bounds are
/// `< k` by the filter, so only `sg`/`ub` can exceed `k`).
fn limited(sorted: AuRelation, limit: Option<u64>) -> AuRelation {
    let Some(k) = limit else {
        return sorted;
    };
    let pos_col = sorted.schema.arity() - 1;
    let k = k as i64;
    let mut rel = au_select(&sorted, &RangeExpr::col(pos_col).lt(RangeExpr::lit(k)));
    for row in rel.rows_mut() {
        let (lb, sg, ub) = row.tuple.0[pos_col].as_i64_triple();
        if sg > k || ub > k {
            row.tuple.0[pos_col] = RangeValue::from_i64s(lb, sg.min(k), ub.min(k));
        }
    }
    rel
}

/// The quadratic reference semantics (`audb-core`, Defs. 2–3), under a
/// configurable comparison semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference {
    /// Uncertain-comparison semantics for position bounds.
    pub semantics: CmpSemantics,
}

impl Backend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    /// The oracle: `audb-core`'s row operators, one full relation per
    /// step, sharing no select/project code with the executor it checks.
    fn mode(&self) -> ExecMode {
        ExecMode::Materialized
    }

    fn scan_note(&self) -> String {
        "rebuild rows from the stored columns (the row operators' form)".to_string()
    }

    fn sort(
        &self,
        input: BreakerInput<'_>,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> Result<AuRelation, EngineError> {
        let sorted = sort_ref(&input.rows(), order, pos_name, self.semantics);
        Ok(limited(sorted, limit))
    }

    fn window(
        &self,
        input: BreakerInput<'_>,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> Result<AuRelation, EngineError> {
        Ok(window_ref(
            &input.rows(),
            spec,
            agg,
            out_name,
            self.semantics,
        ))
    }

    fn sort_note(&self, limit: Option<u64>) -> String {
        match limit {
            None => format!(
                "Def. 2 pairwise position bounds, O(n²), {:?} comparison",
                self.semantics
            ),
            Some(_) => "Def. 2 sort + σ_{τ<k}, positions capped at k".into(),
        }
    }

    fn window_note(&self) -> String {
        "Def. 3 per-target membership scan, O(n²)–O(n³)".into()
    }
}

/// The one-pass native algorithms (`audb-native`, Sec. 8), with documented
/// fallbacks to [`Reference`] where the native operators do not apply.
#[derive(Clone, Copy, Debug, Default)]
pub struct Native;

impl Native {
    fn reference() -> Reference {
        Reference {
            semantics: CmpSemantics::IntervalLex,
        }
    }
}

impl Backend for Native {
    fn name(&self) -> &'static str {
        "native"
    }

    /// Production backend: batch-streaming pipelines with fused
    /// select/project chains, at every input size.
    fn mode(&self) -> ExecMode {
        ExecMode::Pipelined
    }

    fn sort(
        &self,
        input: BreakerInput<'_>,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> Result<AuRelation, EngineError> {
        Ok(match (input, limit) {
            (BreakerInput::Rows(rel), None) => audb_native::sort_native(rel, order, pos_name),
            (BreakerInput::Rows(rel), Some(k)) => audb_native::topk_native(rel, order, k, pos_name),
            (BreakerInput::Columns(cols), _) => {
                audb_native::sort_columns_native(cols, order, pos_name, limit)
            }
        })
    }

    fn window(
        &self,
        input: BreakerInput<'_>,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> Result<AuRelation, EngineError> {
        // The native window requires certain `PARTITION BY` attributes and
        // treats duplicate multiplicities by position offsets — tighter
        // than, but different from, the expand-first Def. 3 reference the
        // engine promises. The sweep reports both conditions itself —
        // duplicates as its fused normalisation merged them (identical rows
        // stored separately included) — so the input is neither copied nor
        // sorted to ask. The duplicate case costs one discarded O(n log n)
        // sweep before the O(n²) reference.
        let swept = match input {
            BreakerInput::Rows(rel) => audb_native::window_native_checked(rel, spec, agg, out_name),
            BreakerInput::Columns(cols) => {
                audb_native::window_columns_native(cols, spec, agg, out_name)
            }
        };
        match swept {
            Ok(out) if !out.merged_duplicates => Ok(out.rel),
            _ => Self::reference().window(input, spec, agg, out_name),
        }
    }

    fn sort_note(&self, limit: Option<u64>) -> String {
        match limit {
            None => "one-pass corner sweep (Algorithm 1), O(n log n)",
            Some(_) => "one-pass sweep with early termination at rank↓ ≥ k (Algorithm 1)",
        }
        .into()
    }

    fn window_note(&self) -> String {
        "connected-heap sweep (Algorithm 3), O(N·n log n); \
         falls back to reference on uncertain PARTITION BY \
         or duplicate multiplicities"
            .into()
    }
}

/// The SQL-style rewrites (`audb-rewrite`, Sec. 7) over the relational
/// encoding of AU-DBs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rewrite {
    /// Join strategy for the Fig. 8 window rewrite's range-overlap
    /// self-join.
    pub strategy: JoinStrategy,
}

impl Backend for Rewrite {
    fn name(&self) -> &'static str {
        "rewrite"
    }

    /// The rewrites execute over materialized encodings per breaker, but
    /// the streamable stages between them pipeline like the native
    /// backend's.
    fn mode(&self) -> ExecMode {
        ExecMode::Pipelined
    }

    /// Round-trip the source through the flat relational encoding (three
    /// columns per attribute + the `ℕ³` triple) — the representation the
    /// Sec. 7 rewrites are defined over. Structurally a no-op on the AU
    /// level (`decode ∘ encode = id`, property-tested in `audb-core`), but
    /// it keeps this backend honest: everything it consumes fits in a
    /// deterministic DBMS table. The encoding is of rows, so this scan
    /// pays for them once per execution.
    fn scan(&self, source: &Table) -> Result<Option<AuRelation>, EngineError> {
        let rel = source.contiguous().to_rows();
        Ok(Some(decode(&encode(&rel), &rel.schema)))
    }

    fn scan_note(&self) -> String {
        "relational-encoding round-trip (3·arity + 3 flat columns)".to_string()
    }

    fn sort(
        &self,
        input: BreakerInput<'_>,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> Result<AuRelation, EngineError> {
        let sorted = audb_rewrite::rewr_sort(&input.rows(), order, pos_name);
        Ok(limited(sorted, limit))
    }

    fn window(
        &self,
        input: BreakerInput<'_>,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> Result<AuRelation, EngineError> {
        Ok(audb_rewrite::rewr_window(
            &input.rows(),
            spec,
            agg,
            out_name,
            self.strategy,
        ))
    }

    fn sort_note(&self, limit: Option<u64>) -> String {
        match limit {
            None => "Fig. 7 endpoint union + running sums over the encoding",
            Some(_) => "Fig. 7 endpoint rewrite + σ_{τ<k}, positions capped at k",
        }
        .into()
    }

    fn window_note(&self) -> String {
        format!(
            "Fig. 8 range-overlap self-join ({:?} strategy)",
            self.strategy
        )
    }
}
