//! Cost-based plan optimization: pure `Plan → Plan` rewrite passes driven
//! by the source table's statistics — one [`audb_core::TableStats`] per
//! stored segment, folded by [`Table::all_certain`] and
//! [`Table::estimate_selectivity`].
//!
//! Three passes run in order, each recording an [`AppliedRule`] with a
//! human-readable reason (shown by `Engine::explain` as a before/after
//! diff):
//!
//! 1. **Select pushdown** below order-based breakers, where AU-DB
//!    semantics allow it. Classic pushdown is *unsound* here in general:
//!    sort, top-k and window outputs encode **position bounds**, and
//!    removing rows early changes which rows can possibly precede a
//!    surviving row. The pass therefore only fires under conditions that
//!    provably leave every surviving row's bounds untouched:
//!    * below **sort/top-k** — a keep-small predicate
//!      `col < lit` / `col ≤ lit` on the *leading order column* where
//!      that column is fully certain (per stats) and the literal is
//!      certain: every dropped row then sorts strictly after every kept
//!      row in every possible world, so kept position bounds (and the
//!      top-k cutoff) are unchanged.
//!    * below **window** — either the frame is exactly `[0, 0]` (each
//!      row's aggregate depends only on itself), or the predicate
//!      touches only fully-certain `PARTITION BY` columns with certain
//!      literals (its truth is then certain and constant per partition,
//!      so whole partitions are kept or dropped and surviving frames are
//!      intact). Anything else is refused — property-pinned in
//!      `tests/pipeline_equivalence.rs`.
//! 2. **Select reordering**: the leading run of selections is stably
//!    re-sorted by estimated selectivity
//!    ([`audb_core::estimate_selectivity`]), most
//!    selective first. Adjacent AU-DB selections commute
//!    (`Mult3::filter` is componentwise), so this is always sound.
//! 3. **Dead-column pruning**: source columns that no operator reads and
//!    that cannot reach the output schema are projected away right behind
//!    the last breaker. Never ahead of a breaker: a sort or window reads
//!    every column that reaches it, since `<total_O` breaks order-key ties
//!    on all of them (Def. 1) — pruning one there reorders tied rows. A
//!    plan without a breaker, or without a projection, is left as it is.
//!
//! The passes never match on the operator variants to learn a schema, a
//! column set or breaker-ness — they ask the operator ([`Op::reads`],
//! [`Op::remapped`], [`Op::is_breaker`]). The rewritten chain becomes a plan
//! by folding [`Op::output_schema`] over it, the validation every plan goes
//! through — an optimized plan is a first-class plan — and on any failure
//! the optimizer falls back to the original plan unchanged (rewrites may
//! never turn a valid plan into an error).

use crate::catalog::Table;
use crate::plan::{Op, Plan};
use audb_core::{AuWindowSpec, RangeExpr};
use audb_rel::CmpOp;
use std::sync::Arc;

/// One rewrite the optimizer applied, with the reason it fired.
#[derive(Clone, Debug)]
pub struct AppliedRule {
    /// Stable rule identifier (e.g. `pushdown-select-below-sort`).
    pub rule: &'static str,
    /// Why the rule fired on this plan.
    pub reason: String,
}

/// Optimizer provenance attached to a rewritten plan: the
/// pre-optimization operator chain and the applied rules, so `explain`
/// can render before/after even for plans served from the plan cache.
#[derive(Clone, Debug)]
pub struct OptInfo {
    /// The original operator chain, one rendered operator per entry.
    pub before: Vec<String>,
    /// The rewrites that produced the current chain, in application order.
    pub rules: Vec<AppliedRule>,
}

/// Optimize a plan against its source statistics. Returns the input plan
/// unchanged (a clone) when no rule applies; either way the result scans
/// the same table handle.
pub fn optimize(plan: &Plan) -> Plan {
    let stats = plan.source_columns();
    let src_schema = plan.schemas()[0].clone();
    let mut ops = plan.ops().to_vec();
    let mut rules = Vec::new();

    pushdown_selects(&mut ops, stats, src_schema.arity(), &mut rules);
    reorder_selects(&mut ops, stats, &mut rules);
    prune_dead_columns(&mut ops, &src_schema, &mut rules);

    if rules.is_empty() {
        return plan.clone();
    }
    let before: Vec<String> = plan.ops().iter().map(|op| op.to_string()).collect();
    match Plan::from_ops(Arc::clone(plan.source_columns()), ops) {
        Ok(rewritten) => rewritten.rewritten_from(plan, Arc::new(OptInfo { before, rules })),
        // A rewrite that fails validation would be an optimizer bug; never
        // surface it as a user error — run the original plan instead.
        Err(_) => plan.clone(),
    }
}

// ---------------------------------------------------------------------
// Pass 1: select pushdown below frame-safe breakers
// ---------------------------------------------------------------------

/// Swap adjacent `(breaker, select)` pairs to a fixpoint wherever the
/// AU-DB soundness conditions in the module docs hold. Every condition
/// additionally requires that all operators before the breaker are
/// selections, so the breaker's input columns are exactly the source
/// columns (same indices, same statistics) — which makes the first
/// non-selection the only candidate.
fn pushdown_selects(ops: &mut [Op], stats: &Table, src_arity: usize, rules: &mut Vec<AppliedRule>) {
    loop {
        let i = leading_selects(ops);
        let (Some(breaker), Some(Op::Select { pred })) = (ops.get(i), ops.get(i + 1)) else {
            return;
        };
        let fired = match breaker {
            Op::Sort { order, limit, .. } => sort_pushdown_reason(pred, order, stats, src_arity)
                .map(|reason| AppliedRule {
                    rule: match limit {
                        None => "pushdown-select-below-sort",
                        Some(_) => "pushdown-select-below-topk",
                    },
                    reason,
                }),
            Op::Window { spec, .. } => {
                window_pushdown_reason(pred, spec, stats, src_arity).map(|reason| AppliedRule {
                    rule: "pushdown-select-below-window",
                    reason,
                })
            }
            _ => None,
        };
        let Some(rule) = fired else {
            return;
        };
        rules.push(rule);
        ops.swap(i, i + 1);
    }
}

/// How many selections the chain starts with: the operators whose input
/// columns are exactly the source's.
fn leading_selects(ops: &[Op]) -> usize {
    ops.iter()
        .take_while(|o| matches!(o, Op::Select { .. }))
        .count()
}

/// `Some(col)` iff the predicate is a keep-small comparison
/// `Col(col) < Lit` / `Col(col) ≤ Lit` with a certain literal.
fn keep_small_col(pred: &RangeExpr) -> Option<usize> {
    let RangeExpr::Cmp(op, a, b) = pred else {
        return None;
    };
    if !matches!(op, CmpOp::Lt | CmpOp::Le) {
        return None;
    }
    match (a.as_ref(), b.as_ref()) {
        (RangeExpr::Col(c), RangeExpr::Lit(v)) if v.is_certain() => Some(*c),
        _ => None,
    }
}

/// Soundness check for pushing a select below sort/top-k: keep-small on
/// the fully-certain leading order column (see module docs). Returns the
/// reason string when sound.
fn sort_pushdown_reason(
    pred: &RangeExpr,
    order: &[usize],
    stats: &Table,
    src_arity: usize,
) -> Option<String> {
    let c = keep_small_col(pred)?;
    if c >= src_arity {
        return None; // references the appended position column
    }
    if order.first() != Some(&c) {
        return None;
    }
    if !stats.all_certain(c) {
        return None;
    }
    Some(format!(
        "keep-small predicate on certain leading order column #{c}: \
         dropped rows sort strictly after every kept row, so kept \
         position bounds are unchanged"
    ))
}

/// Soundness check for pushing a select below a window (see module docs):
/// a `[0, 0]` frame, or a certain partition-constant predicate.
fn window_pushdown_reason(
    pred: &RangeExpr,
    spec: &AuWindowSpec,
    stats: &Table,
    src_arity: usize,
) -> Option<String> {
    let mut cols = Vec::new();
    let mut lits_certain = true;
    pred.visit(&mut |node| match node {
        RangeExpr::Col(c) => cols.push(*c),
        RangeExpr::Lit(v) => lits_certain &= v.is_certain(),
        _ => {}
    });
    if cols.iter().any(|&c| c >= src_arity) {
        return None; // references the appended aggregate column
    }
    if spec.lower == 0 && spec.upper == 0 {
        return Some(
            "frame [0, 0]: each row's aggregate depends only on itself, \
             so dropping other rows cannot change it"
                .to_string(),
        );
    }
    let partition_only = cols.iter().all(|c| spec.partition.contains(c));
    let all_certain = cols.iter().all(|&c| stats.all_certain(c));
    if partition_only && all_certain && lits_certain {
        return Some(
            "predicate over fully-certain PARTITION BY columns with \
             certain literals: whole partitions are kept or dropped, \
             surviving frames are intact"
                .to_string(),
        );
    }
    None
}

// ---------------------------------------------------------------------
// Pass 2: selectivity-based select reordering
// ---------------------------------------------------------------------

/// Stably re-sort the leading run of selections by estimated selectivity,
/// most selective first. Sound because adjacent AU-DB selections commute:
/// `Mult3::filter` multiplies componentwise.
fn reorder_selects(ops: &mut [Op], stats: &Table, rules: &mut Vec<AppliedRule>) {
    let k = leading_selects(ops);
    if k < 2 {
        return;
    }
    let mut run: Vec<(f64, Op)> = ops[..k]
        .iter()
        .map(|op| {
            let Op::Select { pred } = op else {
                unreachable!()
            };
            (stats.estimate_selectivity(pred), op.clone())
        })
        .collect();
    let before: Vec<f64> = run.iter().map(|(s, _)| *s).collect();
    run.sort_by(|a, b| a.0.total_cmp(&b.0));
    let after: Vec<f64> = run.iter().map(|(s, _)| *s).collect();
    if before == after {
        return;
    }
    for (slot, (_, op)) in ops[..k].iter_mut().zip(run) {
        *slot = op;
    }
    rules.push(AppliedRule {
        rule: "reorder-selects",
        reason: format!("estimated selectivities {before:.2?} re-sorted ascending to {after:.2?}"),
    });
}

// ---------------------------------------------------------------------
// Pass 3: dead-column pruning
// ---------------------------------------------------------------------

/// Project away the source columns no operator reads and that cannot
/// reach the output schema, inserting one `Project` right behind the last
/// breaker and remapping every later column index.
fn prune_dead_columns(
    ops: &mut Vec<Op>,
    src_schema: &audb_rel::Schema,
    rules: &mut Vec<AppliedRule>,
) {
    let Some(last_breaker) = ops.iter().rposition(Op::is_breaker) else {
        return;
    };
    let p = last_breaker + 1;
    if p == ops.len() || matches!(ops[p], Op::Project { .. }) {
        return; // every column is the output's, or the plan prunes there itself
    }

    // Walk the chain tracking, for every current column, which source
    // column it passes through unchanged (None for appended or computed
    // ones), and mark every source column any operator reads.
    let mut used = vec![false; src_schema.arity()];
    let mut origin: Vec<Option<usize>> = (0..src_schema.arity()).map(Some).collect();
    let mut at_p = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i == p {
            at_p.clone_from(&origin);
        }
        for c in op.reads() {
            if let Some(src) = origin[c] {
                used[src] = true;
            }
        }
        if let Op::Project { exprs } = op {
            origin = exprs
                .iter()
                .map(|(e, _)| match e {
                    RangeExpr::Col(i) => origin[*i],
                    _ => None,
                })
                .collect();
        } else if op.is_breaker() {
            origin.push(None);
        }
    }
    // Whatever still maps to a source column reaches the output schema.
    for src in origin.into_iter().flatten() {
        used[src] = true;
    }

    // The columns at `p` that are dead source columns go.
    let dead = |c: usize| at_p[c].is_some_and(|src| !used[src]);
    let live: Vec<usize> = (0..at_p.len()).filter(|&c| !dead(c)).collect();
    if live.len() == at_p.len() {
        return;
    }
    let mut schema = src_schema.clone();
    for op in &ops[..p] {
        let Ok(next) = op.output_schema(&schema) else {
            return;
        };
        schema = next;
    }

    // Remap ops[p..] through the pruned schema: `m[old] = Some(new)` for
    // surviving columns at the current point in the chain. An operator
    // that reads a pruned column would be a bug of the walk above — the
    // pass is then abandoned, never the plan corrupted.
    let mut m: Vec<Option<usize>> = vec![None; at_p.len()];
    for (new, &old) in live.iter().enumerate() {
        m[old] = Some(new);
    }
    let mut rewritten = ops[..p].to_vec();
    rewritten.push(Op::Project {
        exprs: live
            .iter()
            .map(|&c| (RangeExpr::Col(c), schema.cols()[c].clone()))
            .collect(),
    });
    for op in &ops[p..] {
        let Some(op) = op.remapped(&m) else {
            return;
        };
        if let Op::Project { exprs } = &op {
            // Its outputs are numbered as before, whatever fed them.
            m = (0..exprs.len()).map(Some).collect();
        }
        rewritten.push(op);
    }

    let dropped: Vec<&str> = (0..at_p.len())
        .filter(|&c| dead(c))
        .map(|c| schema.cols()[c].as_str())
        .collect();
    *ops = rewritten;
    rules.push(AppliedRule {
        rule: "prune-dead-columns",
        reason: format!("source columns {dropped:?} are never read and cannot reach the output"),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Agg, Query, WindowSpec};
    use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
    use audb_rel::Schema;

    /// `n` rows with a certain increasing key `t`, an uncertain value `v`
    /// and a certain group column `g` (`t mod 4`).
    fn rel(n: i64) -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["t", "v", "g"]),
            (0..n).map(|i| {
                (
                    AuTuple::new([
                        RangeValue::certain(i),
                        RangeValue::new(i - 1, i, i + 1),
                        RangeValue::certain(i % 4),
                    ]),
                    Mult3::ONE,
                )
            }),
        )
    }

    fn op_names(plan: &Plan) -> Vec<&'static str> {
        plan.ops().iter().map(|o| o.name()).collect()
    }

    #[test]
    fn keep_small_select_pushes_below_sort_and_topk() {
        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .select(RangeExpr::col(0).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert_eq!(op_names(&opt), ["select", "sort"]);
        let info = opt.opt().expect("rules applied");
        assert_eq!(info.rules[0].rule, "pushdown-select-below-sort");
        assert_eq!(info.before.len(), 2);

        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .topk(5)
            .select(RangeExpr::col(0).le(RangeExpr::lit(3)))
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert_eq!(op_names(&opt), ["select", "topk"]);
    }

    #[test]
    fn pushdown_refuses_unsound_shapes() {
        // Uncertain order column: dropped rows could sort before kept ones.
        let plan = Query::scan(rel(8))
            .sort_by(["v"])
            .select(RangeExpr::col(1).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["sort", "select"]);

        // Predicate on a non-leading order column.
        let plan = Query::scan(rel(8))
            .sort_by(["t", "g"])
            .select(RangeExpr::col(2).lt(RangeExpr::lit(2)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["sort", "select"]);

        // Predicate on the appended position column itself.
        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .select(RangeExpr::col(3).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["sort", "select"]);

        // Keep-large shape (lit < col) is not the keep-small rule.
        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .select(RangeExpr::lit(4).lt(RangeExpr::col(0)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["sort", "select"]);
    }

    #[test]
    fn window_pushdown_fires_on_partition_and_point_frames() {
        // Certain partition-column predicate pushes below a real frame.
        let plan = Query::scan(rel(8))
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["t"])
                    .partition_by(["g"])
                    .aggregate(Agg::sum("v"))
                    .output("w"),
            )
            .select(RangeExpr::col(2).lt(RangeExpr::lit(2)))
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert_eq!(op_names(&opt), ["select", "window"]);
        assert_eq!(
            opt.opt().unwrap().rules[0].rule,
            "pushdown-select-below-window"
        );

        // [0, 0] frame admits any pre-window predicate.
        let plan = Query::scan(rel(8))
            .window(
                WindowSpec::rows(0, 0)
                    .order_by(["t"])
                    .aggregate(Agg::sum("v"))
                    .output("w"),
            )
            .select(RangeExpr::col(1).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["select", "window"]);
    }

    #[test]
    fn window_pushdown_refuses_frame_unsafe_predicates() {
        // Non-partition predicate under a real frame: dropping rows would
        // change surviving rows' frames.
        let plan = Query::scan(rel(8))
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["t"])
                    .partition_by(["g"])
                    .aggregate(Agg::sum("v"))
                    .output("w"),
            )
            .select(RangeExpr::col(0).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["window", "select"]);

        // Uncertain partition column: partition membership is uncertain.
        let plan = Query::scan(rel(8))
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["t"])
                    .partition_by(["v"])
                    .aggregate(Agg::count())
                    .output("w"),
            )
            .select(RangeExpr::col(1).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["window", "select"]);

        // Predicate on the aggregate output can never move below.
        let plan = Query::scan(rel(8))
            .window(
                WindowSpec::rows(0, 0)
                    .order_by(["t"])
                    .aggregate(Agg::count())
                    .output("w"),
            )
            .select(RangeExpr::col(3).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        assert_eq!(op_names(&optimize(&plan)), ["window", "select"]);
    }

    #[test]
    fn selects_reorder_by_estimated_selectivity() {
        use audb_core::ZONE_ROWS;
        let n = 2 * ZONE_ROWS as i64; // two zones so estimates separate
        let wide = RangeExpr::col(0).lt(RangeExpr::lit(n)); // keeps all
        let narrow = RangeExpr::col(0).lt(RangeExpr::lit(4)); // keeps zone 0 partially
        let plan = Query::scan(rel(n))
            .select(wide.clone())
            .select(narrow.clone())
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert_eq!(
            opt.ops()[0],
            Op::Select {
                pred: narrow.clone()
            }
        );
        assert_eq!(opt.ops()[1], Op::Select { pred: wide.clone() });
        let info = opt.opt().unwrap();
        assert_eq!(info.rules[0].rule, "reorder-selects");

        // Already-ordered selects are left alone (stable, no rule).
        let plan = Query::scan(rel(n))
            .select(narrow)
            .select(wide)
            .build()
            .unwrap();
        assert!(optimize(&plan).opt().is_none());
    }

    #[test]
    fn dead_columns_are_pruned_behind_a_projection() {
        // A sort reads every column that reaches it (`<total_O` breaks ties
        // on all of them): nothing is dead ahead of one, though only `t`
        // and `pos` are projected.
        let plan = Query::scan(rel(8))
            .select(RangeExpr::col(0).lt(RangeExpr::lit(6)))
            .sort_by(["t"])
            .project(["t", "pos"])
            .build()
            .unwrap();
        assert!(optimize(&plan).opt().is_none());

        // Behind it, `g` is never read: a select on `v`, then t + pos.
        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .select(RangeExpr::col(1).lt(RangeExpr::lit(6)))
            .project(["t", "pos"])
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert_eq!(op_names(&opt), ["sort", "project", "select", "project"]);
        let cols = |names: &[(usize, &str)]| Op::Project {
            exprs: (names.iter())
                .map(|&(i, n)| (RangeExpr::Col(i), n.to_string()))
                .collect(),
        };
        assert_eq!(opt.ops()[1], cols(&[(0, "t"), (1, "v"), (3, "pos")]));
        assert_eq!(opt.ops()[3], cols(&[(0, "t"), (2, "pos")]));
        assert_eq!(opt.schema().cols(), plan.schema().cols());
        let info = opt.opt().unwrap();
        assert!(info.rules.iter().any(|r| r.rule == "prune-dead-columns"));

        // Without a projection every column reaches the output: no-op.
        let plan = Query::scan(rel(8)).sort_by(["t"]).build().unwrap();
        assert!(optimize(&plan).opt().is_none());
    }

    #[test]
    fn optimized_plans_share_source_and_caches() {
        let plan = Query::scan(rel(8))
            .sort_by(["t"])
            .select(RangeExpr::col(0).lt(RangeExpr::lit(4)))
            .build()
            .unwrap();
        let opt = optimize(&plan);
        assert!(opt.opt().is_some(), "pushdown should fire");
        assert!(Arc::ptr_eq(plan.source_columns(), opt.source_columns()));
    }
}
