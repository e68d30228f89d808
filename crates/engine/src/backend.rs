//! The row oracles: the [`Backend`] trait and its two implementations.
//!
//! The paper keeps its methods apart by what they run over. The Sec. 8
//! one-pass operators are physical operators of their own — the *native*
//! method, which is the pipelined executor ([`crate::exec::run_pipelined`])
//! calling `audb-native`'s columnar kernels, and no implementation of this
//! trait. The other two are defined over rows, and the operator-at-a-time
//! loop ([`crate::exec::run_materialized`]) is generic over them:
//!
//! * [`Reference`] — the quadratic Defs. 2–3 semantics of `audb-core`,
//!   parameterized by [`CmpSemantics`]. The ground truth.
//! * [`Rewrite`] — the Sec. 7 SQL-style rewrites of `audb-rewrite`. Its
//!   scan round-trips the source through the relational encoding of
//!   `audb_core::encode` (three columns per attribute + the multiplicity
//!   triple), exactly the representation a DBMS executing Figs. 7–8 would
//!   hold.
//!
//! All three execute the *same* logical [`crate::Plan`] and must produce
//! the *same* bounds — the paper's "one semantics, interchangeable
//! implementations" story. Selection and projection have one semantics
//! (\[24\]) — only the order-based operators differ between methods, so
//! those are the trait's two breaker hooks: [`Backend::sort`] (top-k is
//! the sort with a limit, as in the paper's Sec. 5) and
//! [`Backend::window`], both over a full [`AuRelation`].

use crate::catalog::Table;
use audb_core::encode::{decode, encode};
use audb_core::{
    au_select, sort_ref, window_ref, AuRelation, AuWindowSpec, CmpSemantics, RangeExpr, RangeValue,
    WinAgg,
};
use audb_rewrite::JoinStrategy;

/// A row-at-a-time implementation of the order-based operators:
/// [`crate::exec::run_materialized`] steps through the operator chain one
/// full relation at a time and calls these hooks at its breakers.
pub trait Backend {
    /// The source as the rows this backend's operators run over. The
    /// default rebuilds them from the stored columns; [`Rewrite`] takes
    /// them through the relational encoding and back.
    fn scan(&self, source: &Table) -> AuRelation {
        source.contiguous().to_rows()
    }

    /// `sort_{O→τ}` (Def. 2); with `limit = Some(k)`, top-k (Sec. 5): the
    /// sort followed by `σ_{τ < k}`, position bounds capped at `k`.
    fn sort(
        &self,
        input: &AuRelation,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> AuRelation;

    /// `ω[l,u]` row-based windowed aggregation (Def. 3).
    fn window(
        &self,
        input: &AuRelation,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> AuRelation;
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
    fn sort(
        &self,
        input: &AuRelation,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> AuRelation {
        limited(sort_ref(input, order, pos_name, self.semantics), limit)
    }

    fn window(
        &self,
        input: &AuRelation,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> AuRelation {
        window_ref(input, spec, agg, out_name, self.semantics)
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
    /// Round-trip the source through the flat relational encoding (three
    /// columns per attribute + the `ℕ³` triple) — the representation the
    /// Sec. 7 rewrites are defined over. Structurally a no-op on the AU
    /// level (`decode ∘ encode = id`, property-tested in `audb-core`), but
    /// it keeps this backend honest: everything it consumes fits in a
    /// deterministic DBMS table.
    fn scan(&self, source: &Table) -> AuRelation {
        let rel = source.contiguous().to_rows();
        decode(&encode(&rel), &rel.schema)
    }

    fn sort(
        &self,
        input: &AuRelation,
        order: &[usize],
        pos_name: &str,
        limit: Option<u64>,
    ) -> AuRelation {
        limited(audb_rewrite::rewr_sort(input, order, pos_name), limit)
    }

    fn window(
        &self,
        input: &AuRelation,
        spec: &AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> AuRelation {
        audb_rewrite::rewr_window(input, spec, agg, out_name, self.strategy)
    }
}
