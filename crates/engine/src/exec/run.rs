//! The two plan runners ([`super`] says which method runs which).
//! [`run_materialized`] walks rows from the oracle's scan — once per
//! execution — and transposes once, at its end. In [`run_pipelined`] a
//! fused stage reads the scanned table's stored segments when it reads the
//! source unchanged ([`Plan::source_columns`] — each batch under its own
//! segment's zone maps) or the columns before it, batch `i`'s rows always
//! ahead of batch `i + 1`'s; a breaker over a source stored in several
//! segments reads one concatenation per execution. The kernels emit
//! columns, so what a breaker returns is what the next stage reads and what
//! the plan returns: nothing is transposed on the way.
//!
//! Both return [`AuColumns`] — whoever wants tuples calls
//! [`AuColumns::to_rows`] at its own door — and report to the [`Stages`]
//! sink they are handed. Both ask, before a breaker allocates anything, how
//! many rows it would emit ([`EngineError::ResultTooLarge`]) and rank
//! ([`EngineError::InputTooLarge`]).

use super::lower::{fuse_label, lower, Pipeline};
use crate::backend::Backend;
use crate::catalog::Segment;
use crate::error::EngineError;
use crate::plan::{Op, Plan};
use audb_core::{
    range_verdict, AuBatch, AuColumns, Kept, Mult3, TableStats, TruthMasks, ZoneVerdict,
};
pub use audb_native::Stages;
use audb_native::{output_rows_bound, MAX_OUTPUT_ROWS, MAX_RANKED_ROWS};
use audb_rel::Schema;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default number of rows per batch: small enough that a batch of tuples
/// plus its fused-stage output stays cache-resident, large enough to
/// amortize per-batch dispatch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// One physical operator's measured execution.
#[derive(Clone, Debug)]
pub struct OpTiming {
    /// Stable label: `scan`, a breaker's operator name, or
    /// `fuse(select · project)` for a fused stage.
    pub label: String,
    /// Wall-clock time spent in this operator.
    pub elapsed: Duration,
    /// Batches processed (materialized operators count their single
    /// materialized input as one batch).
    pub batches: usize,
    /// Rows flowing out of the operator.
    pub rows_out: usize,
}

/// What the [`Recorder`] heard of one plan's execution.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// Batches the pipelined executor skipped outright because the source
    /// zone maps proved a fused selection false over the whole batch
    /// (always 0 for materialized runs and with pruning disabled).
    pub batches_skipped: usize,
    /// Batches the fused stages actually evaluated (0 for materialized
    /// runs, which do not batch their operator inputs).
    pub batches_scanned: usize,
    /// Per-operator timings, in execution order (first entry is the scan).
    pub ops: Vec<OpTiming>,
    /// Kernel stages, first reported first, each summed over its reports.
    pub stages: Vec<(&'static str, Duration)>,
}

/// The one sink that reads a clock: it keeps what it hears — from the
/// runner and the kernels' workers alike — as an [`ExecTrace`].
#[derive(Debug, Default)]
pub struct Recorder(Mutex<ExecTrace>);

impl Recorder {
    /// What was heard.
    pub fn finish(self) -> ExecTrace {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every update is one push or one sum, so a poisoned trace is whole.
    fn trace(&self) -> MutexGuard<'_, ExecTrace> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Stages for Recorder {
    type Mark = Instant;

    fn mark(&self) -> Instant {
        Instant::now()
    }

    fn stage(&self, since: Instant, name: &'static str) -> Instant {
        let now = Instant::now();
        let mut trace = self.trace();
        match trace.stages.iter_mut().find(|(stage, _)| *stage == name) {
            Some((_, elapsed)) => *elapsed += now - since,
            None => trace.stages.push((name, now - since)),
        }
        now
    }

    fn op(&self, since: Instant, label: impl FnOnce() -> String, batches: usize, rows: usize) {
        let (elapsed, label) = (since.elapsed(), label());
        (self.trace().ops).push(OpTiming {
            label,
            elapsed,
            batches,
            rows_out: rows,
        });
    }

    fn batches(&self, skipped: usize, scanned: usize) {
        let mut trace = self.trace();
        trace.batches_skipped += skipped;
        trace.batches_scanned += scanned;
    }
}

/// An order-based operator emits one row per possible duplicate of its
/// input (`split`, Algorithm 2) and ranks every row that may exist: refuse
/// it — before it allocates anything — when either is more than the
/// kernels' `u32` indexes hold. `limit` is the `LIMIT k` that bounds the
/// emission (the native sort stops splitting a row at `k`; the row oracles
/// sort everything first and pass `None`).
pub(crate) fn check_output_rows(
    mult_ub: impl IntoIterator<Item = u64>,
    limit: Option<u64>,
) -> Result<(), EngineError> {
    count_output_rows((0, 0), mult_ub, limit).map(drop)
}

/// [`check_output_rows`] over the rows counted in `before` and the rows of
/// `mult_ub`: how many of them all are ranked and emitted — the counts
/// add, so a caller fed in batches keeps them for everything fed —, or
/// the refusal.
pub(crate) fn count_output_rows(
    before: (u64, u64),
    mult_ub: impl IntoIterator<Item = u64>,
    limit: Option<u64>,
) -> Result<(u64, u64), EngineError> {
    let mut ranked = before.0;
    let mult_ub = mult_ub
        .into_iter()
        .inspect(|&ub| ranked += u64::from(ub > 0));
    match output_rows_bound(mult_ub, limit).and_then(|rows| rows.checked_add(before.1)) {
        Some(rows) if rows <= MAX_OUTPUT_ROWS && ranked <= MAX_RANKED_ROWS => Ok((ranked, rows)),
        Some(rows) if rows <= MAX_OUTPUT_ROWS => Err(EngineError::InputTooLarge { rows: ranked }),
        bound => Err(EngineError::ResultTooLarge {
            rows: bound.unwrap_or(u64::MAX),
        }),
    }
}

/// The operator-at-a-time loop of a row oracle: every step materializes,
/// and the last relation is transposed for the caller. Each step —
/// the scan included — is one batch to `stages`.
pub fn run_materialized<B: Backend + ?Sized, S: Stages>(
    backend: &B,
    plan: &Plan,
    stages: &S,
) -> Result<AuColumns, EngineError> {
    let at = stages.mark();
    let mut cur = backend.scan(plan.source_columns());
    stages.op(at, || "scan".to_string(), 1, cur.len());
    for op in plan.ops() {
        let at = stages.mark();
        if op.is_breaker() {
            check_output_rows(cur.rows().iter().map(|r| r.mult.ub), None)?;
        }
        cur = match op {
            Op::Select { pred } => audb_core::au_select(&cur, pred),
            Op::Project { exprs } => {
                let borrowed: Vec<(audb_core::RangeExpr, &str)> =
                    exprs.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
                audb_core::au_project(&cur, &borrowed)
            }
            Op::Sort {
                order,
                pos_name,
                limit,
            } => backend.sort(&cur, order, pos_name, *limit),
            Op::Window {
                spec,
                agg,
                out_name,
            } => backend.window(&cur, spec, *agg, out_name),
        };
        stages.op(at, || op.name().to_string(), 1, cur.len());
    }
    // lint: allow(no-transpose-between-operators) -- the row oracles' door: their operators are defined over rows, and their result joins the columnar one here, once
    Ok(cur.to_columns())
}

/// Zone-map verdicts for one batch of the first fused stage: whether the
/// whole batch can be skipped (some fused selection is provably false
/// over the batch's bound box), and per fused step whether its predicate
/// is provably true for every row (the evaluation short-circuits; the
/// certainty bitmap and annotations are untouched because
/// `Mult3::filter(TRUE)` is the identity). The default — no statistics to
/// ask — skips nothing and knows nothing.
#[derive(Default)]
struct BatchVerdict {
    skip: bool,
    all_true: Vec<bool>,
}

/// Compute the verdicts for the leading `Select` steps of a fused chain
/// over rows `[start, start + len)` of the segment `stats` describes. Only
/// the selects *before* the first projection see source columns
/// (projections reshape the schema, so statistics column indices stop
/// applying there).
fn batch_verdict(
    steps: &[(&Op, &Schema)],
    stats: &TableStats,
    start: usize,
    len: usize,
) -> BatchVerdict {
    let mut all_true = vec![false; steps.len()];
    for (si, (op, _)) in steps.iter().enumerate() {
        let Op::Select { pred } = op else {
            break;
        };
        match range_verdict(pred, stats, start, len) {
            ZoneVerdict::AllFalse => {
                return BatchVerdict {
                    skip: true,
                    all_true,
                }
            }
            ZoneVerdict::AllTrue => all_true[si] = true,
            ZoneVerdict::Mixed => {}
        }
    }
    BatchVerdict {
        skip: false,
        all_true,
    }
}

/// Apply a fused chain of streamable operators to one columnar batch: the
/// surviving (possibly reshaped) rows, in input order, as the rows
/// [`Kept`] of their base — the borrowed batch (`None`: the chain only
/// selects) or the owned columns of the last projection. Each `(op,
/// output schema)` step is one vectorized column sweep over the current
/// base.
///
/// Semantics mirror the row operators the reference loop runs exactly
/// (pinned against [`Reference`](crate::Reference) by
/// `tests/pipeline_equivalence.rs`):
/// * `select` evaluates the predicate's truth masks and visits only the
///   rows whose `lb | sg | ub` bit is set, reading their multiplicity
///   triples there: each is filtered by the row's truth triple and the
///   row dropped if that leaves `(0, 0, 0)`. A row with all three bits
///   clear filters to `(0, 0, 0)` and is dropped unread;
/// * `project` drops rows whose (current) annotation is zero, then
///   gathers / recomputes columns — a bare column reference copies the
///   column instead of re-evaluating per cell.
fn apply_fused(
    steps: &[(&Op, &Schema)],
    batch: &AuBatch<'_>,
    all_true: &[bool],
    stages: &impl Stages,
) -> (Option<AuColumns>, Kept) {
    // Selections never copy a value: they fold into the pending rows
    // (surviving batch-relative indices + filtered annotations) of the
    // current base. Projections resolve them in their gather, so a
    // `select · project` chain copies each surviving cell exactly once.
    let mut owned: Option<AuColumns> = None;
    let mut pending = Kept::All;
    for (si, (op, out_schema)) in steps.iter().enumerate() {
        let base = match &owned {
            Some(cols) => cols.as_batch(),
            None => *batch,
        };
        let verdict = all_true.get(si).copied().unwrap_or(false);
        pending = match (op, pending) {
            // A zone-map `AllTrue` verdict short-circuits the predicate:
            // `Mult3::filter(TRUE)` is the identity, so the step only
            // drops already-zero annotations (exactly the materialized
            // select's drop rule) and never evaluates.
            (Op::Select { .. }, Kept::All)
                if verdict && (0..base.len()).any(|i| base.mult(i).is_zero()) =>
            {
                let (keep, mults) = nonzero_rows(&base);
                Kept::Rows(keep, mults)
            }
            (Op::Select { .. }, rows) if verdict => rows,
            (Op::Select { pred }, pending) => {
                // Fold into the previous selection: evaluate the predicate
                // over its surviving rows only and re-filter their
                // annotations.
                let at = stages.mark();
                let (keep, mults) = match pending {
                    Kept::Rows(sel, mults) => {
                        let truths = pred.truth_batch_at(&base, &sel);
                        stages.stage(at, "truth_batch");
                        kept(&truths, |k| (sel[k], mults[k]))
                    }
                    Kept::All => {
                        let truths = pred.truth_batch(&base);
                        stages.stage(at, "truth_batch");
                        kept(&truths, |i| (i, base.mult(i)))
                    }
                };
                Kept::Rows(keep, mults)
            }
            (Op::Project { exprs }, pending) => {
                let (keep, mults) = match pending {
                    Kept::Rows(keep, mults) => (keep, mults),
                    Kept::All => nonzero_rows(&base),
                };
                let cols = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        // A bare column reference copies the column;
                        // computed expressions evaluate only the kept
                        // rows, straight into a typed output column when
                        // the kernel stays monomorphic.
                        audb_core::RangeExpr::Col(c) => base.gather_col(*c, &keep),
                        computed => computed.eval_batch_column(&base, &keep),
                    })
                    .collect();
                owned = Some(AuColumns::from_cols((*out_schema).clone(), cols, &mults));
                Kept::All
            }
            _ => unreachable!("breakers are never fused"),
        };
    }
    (owned, pending)
}

/// The rows a selection keeps: `row(k)` names the `k`-th evaluated row
/// and its annotation, and only the set bits of `lb | sg | ub` are read —
/// every other row's filtered annotation is `(0, 0, 0)`. Drops what
/// filters to zero, as the materialized select does.
fn kept(truths: &TruthMasks, row: impl Fn(usize) -> (usize, Mult3)) -> (Vec<usize>, Vec<Mult3>) {
    truths
        .any_true()
        .filter_map(|(k, truth)| {
            let (i, m) = row(k);
            let m = m.filter(truth);
            (!m.is_zero()).then_some((i, m))
        })
        .unzip()
}

/// The batch-relative indices and annotations of the rows a projection
/// keeps (`k↑ > 0` — the materialized operators' drop rule).
fn nonzero_rows(b: &AuBatch<'_>) -> (Vec<usize>, Vec<Mult3>) {
    let mut keep = Vec::with_capacity(b.len());
    let mut mults = Vec::with_capacity(b.len());
    for i in 0..b.len() {
        let m = b.mult(i);
        if !m.is_zero() {
            keep.push(i);
            mults.push(m);
        }
    }
    (keep, mults)
}

/// Run one fused stage over `parts`, each with the zone maps to judge its
/// batches by (`None`: nothing to ask — pruning is off, or the columns are
/// this execution's own). Every step inside the stage is a vectorized
/// column sweep; batch `i` of a part covers its rows `[i·batch, i·batch +
/// len)`, and no batch spans two parts. The stage and its batches are
/// reported to `stages`.
fn run_fused<S: Stages>(
    steps: &[(&Op, &Schema)],
    parts: &[(&AuColumns, Option<&TableStats>)],
    batch_size: usize,
    stages: &S,
) -> AuColumns {
    let at = stages.mark();
    // A skipped batch costs its verdict and nothing else: it never becomes
    // a unit of work.
    let mut batches = 0;
    let mut work: Vec<(AuBatch<'_>, Vec<bool>)> = Vec::new();
    for &(cols, stats) in parts {
        batches += cols.batch_count(batch_size);
        for batch in cols.batches(batch_size) {
            let verdict = stats.map_or_else(BatchVerdict::default, |stats| {
                batch_verdict(steps, stats, batch.index() * batch_size, batch.len())
            });
            if !verdict.skip {
                work.push((batch, verdict.all_true));
            }
        }
    }
    // Morsel-parallel: each batch runs the whole fused chain independently;
    // par_map guarantees chunk `i`'s rows land before chunk `i + 1`'s, so
    // the output order is exactly the sequential one.
    let chunks = audb_par::par_map(&work, |(batch, all_true)| {
        apply_fused(steps, batch, all_true, stages)
    });
    // Every chunk's survivors are copied once, into the output columns of
    // the last fused operator: from the stored batch when the chain only
    // selects, else from the chunk's projected columns.
    let parts = work.iter().zip(&chunks);
    let parts = parts.map(|((batch, _), (owned, kept))| {
        (owned.as_ref().map_or(*batch, AuColumns::as_batch), kept)
    });
    let out = AuColumns::gather_kept(steps[steps.len() - 1].1.clone(), parts);
    stages.batches(batches - work.len(), work.len());
    let label = || fuse_label(steps.iter().map(|(op, _)| op.name()));
    stages.op(at, label, batches, out.len());
    out
}

/// The stored segments as the parts of a fused stage, under their zone
/// maps when `prune`.
fn segment_parts(segments: &[Arc<Segment>], prune: bool) -> Vec<(&AuColumns, Option<&TableStats>)> {
    (segments.iter())
        .map(|s| (s.columns(), prune.then(|| s.stats())))
        .collect()
}

/// Each operator of `ops` (indices into the plan) with its output schema
/// (`schemas()[i + 1]` is the schema *after* operator `i`).
fn steps_of(plan: &Plan, ops: impl Iterator<Item = usize>) -> Vec<(&Op, &Schema)> {
    ops.map(|i| (&plan.ops()[i], &plan.schemas()[i + 1]))
        .collect()
}

/// One breaker over `cols`: `audb-native`'s one-pass kernels (Sec. 8),
/// columns in and columns out. The window kernel answers every input —
/// duplicate multiplicities and uncertain `PARTITION BY` values included —
/// with the bounds of the Def. 3 reference.
fn run_breaker(op: &Op, cols: &AuColumns, stages: &impl Stages) -> Result<AuColumns, EngineError> {
    match op {
        Op::Sort {
            order,
            pos_name,
            limit,
        } => {
            check_output_rows(cols.mult_ub().iter().copied(), *limit)?;
            Ok(audb_native::sort_columns_native(
                cols, order, pos_name, *limit, stages,
            ))
        }
        Op::Window {
            spec,
            agg,
            out_name,
        } => {
            check_output_rows(cols.mult_ub().iter().copied(), None)?;
            Ok(audb_native::window_columns_native(
                cols, spec, *agg, out_name, stages,
            ))
        }
        _ => unreachable!("only order-based operators are pipeline breakers"),
    }
}

/// The native method: fused stages morsel-parallel per batch, breakers by
/// `audb-native`'s columnar kernels. `prune` switches zone-map batch
/// skipping (the disabled arm is the within-run comparison baseline of
/// `repro bench` and the pruned ≡ unpruned property test).
pub fn run_pipelined<S: Stages>(
    plan: &Plan,
    batch_size: usize,
    prune: bool,
    stages: &S,
) -> Result<AuColumns, EngineError> {
    let pipelines: Vec<Pipeline> = lower(plan);
    let at = stages.mark();
    let source = plan.source_columns();
    // The current relation: this execution's own columns, or — while
    // nothing has touched it — the stored source.
    let mut cur: Option<AuColumns> = None;
    let batches = source.batch_count(batch_size);
    stages.op(at, || "scan".to_string(), batches, source.len());
    for pipeline in &pipelines {
        if !pipeline.fused.is_empty() {
            let steps = steps_of(plan, pipeline.fused.iter().copied());
            // A stage that reads the plan's source unchanged (the common
            // scan → select/project head) reads the table's stored
            // segments, each with the zone maps swept over exactly its
            // rows. Behind a breaker the input is this execution's alone
            // and there are no statistics to ask. (Lowering never puts two
            // fused stages back to back.)
            let parts = match &cur {
                None => segment_parts(source.segments(), prune),
                Some(cols) => vec![(cols, None)],
            };
            cur = Some(run_fused(&steps, &parts, batch_size, stages));
        }
        if let Some(b) = pipeline.breaker {
            let at = stages.mark();
            let op = &plan.ops()[b];
            // A breaker over the untouched source reads it as one
            // `AuColumns`: the segment when there is one, else a copy of
            // the lanes made here — O(n) ahead of an Ω(n log n) operator.
            let input = cur.take().map_or_else(|| source.contiguous(), Cow::Owned);
            let out = run_breaker(op, &input, stages)?;
            stages.op(at, || op.name().to_string(), 1, out.len());
            cur = Some(out);
        }
    }
    // A plan that is only its scan returns the stored lanes, copied.
    Ok(cur.unwrap_or_else(|| source.contiguous().into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Reference, Rewrite};
    use crate::plan::{Agg, Query, WindowSpec};
    use audb_core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
    use audb_rel::Schema;

    fn rel(n: usize) -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            (0..n).map(|i| {
                (
                    AuTuple::new([
                        RangeValue::new(i as i64, i as i64 + 1, i as i64 + 2),
                        RangeValue::certain((i % 5) as i64),
                    ]),
                    if i % 3 == 0 {
                        Mult3::new(0, 1, 1)
                    } else {
                        Mult3::ONE
                    },
                )
            }),
        )
    }

    fn fused_plan(n: usize) -> Plan {
        Query::scan(rel(n))
            .select(RangeExpr::col(1).lt(RangeExpr::lit(4)))
            .project_exprs([
                (RangeExpr::col(0), "a".to_string()),
                (
                    RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::lit(1))),
                    "b1".to_string(),
                ),
            ])
            .sort_by(["b1", "a"])
            .topk(4)
            .build()
            .unwrap()
    }

    /// A run and what the recorder heard of it.
    fn traced<T>(run: impl FnOnce(&Recorder) -> Result<T, EngineError>) -> (T, ExecTrace) {
        let recorder = Recorder::default();
        (run(&recorder).unwrap(), recorder.finish())
    }

    /// The row loop on `oracle`: one trace entry per operator, under their
    /// own names.
    fn materialized(oracle: &dyn Backend, plan: &Plan) -> AuRelation {
        let (out, trace) = traced(|stages| run_materialized(oracle, plan, stages));
        assert!(trace.ops.iter().all(|o| o.batches == 1));
        let labels: Vec<&str> = trace.ops.iter().map(|o| o.label.as_str()).collect();
        let names: Vec<&str> = plan.ops().iter().map(Op::name).collect();
        assert_eq!(labels, [&["scan"], &names[..]].concat());
        out.to_rows()
    }

    /// The oracle arm of every comparison below: the operator-at-a-time
    /// loop on the reference backend.
    fn reference(plan: &Plan) -> AuRelation {
        materialized(&Reference::default(), plan)
    }

    /// The comparison-semantics ablation runs the reference's own runner:
    /// on `cmp.rs`'s example — `([1/1/2], 2) < ([2/3/3], 15)` is certain
    /// only through a possible tie — the syntactic recursion is the
    /// `sort_ref` it names, differs from interval-lex, and is looser on
    /// every row.
    #[test]
    fn syntactic_reference_is_sort_ref_and_looser_than_interval_lex() {
        use audb_core::{sort_ref, CmpSemantics};
        let rel = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::new(1, 1, 2), RangeValue::certain(2i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([RangeValue::new(2, 3, 3), RangeValue::certain(15i64)]),
                    Mult3::ONE,
                ),
            ],
        );
        let plan = Query::scan(rel.clone())
            .sort_by_as(["a", "b"], "pos")
            .build()
            .unwrap();
        let syntactic = Reference {
            semantics: CmpSemantics::Syntactic,
        };
        let loose = run_materialized(&syntactic, &plan, &()).unwrap().to_rows();
        let exact = reference(&plan);
        let by_definition = sort_ref(&rel, &[0, 1], "pos", CmpSemantics::Syntactic);
        assert!(loose.bag_eq(&by_definition), "{loose}\nvs\n{by_definition}");
        assert!(!loose.bag_eq(&exact), "inputs chosen to differ");
        assert_eq!(loose.len(), exact.len());
        for row in exact.rows() {
            let (lb, ub) = (row.tuple.get(2).lb.clone(), row.tuple.get(2).ub.clone());
            let wider = (loose.rows().iter())
                .find(|r| r.tuple.0[..2] == row.tuple.0[..2])
                .expect("one row per input");
            let pos = wider.tuple.get(2);
            assert!(pos.lb <= lb && ub <= pos.ub, "{wider:?} ⊉ {row:?}");
        }
    }

    /// The native method with pruning on: the output — as rows, this
    /// module's door — and the trace.
    fn execute(plan: &Plan, batch_size: usize) -> (AuRelation, ExecTrace) {
        let (out, trace) = traced(|stages| run_pipelined(plan, batch_size, true, stages));
        (out.to_rows(), trace)
    }

    /// The batch-boundary contract: batch size 1 (every row its own
    /// morsel), exactly n (one full batch), and > n (one short batch) all
    /// produce the reference result on the native method — as does the
    /// rewrite oracle through the row loop, where no batch exists.
    #[test]
    fn batch_boundaries_are_bag_equal_to_materialized() {
        let n = 23;
        let plan = fused_plan(n);
        let oracle = reference(&plan);
        assert!(materialized(&Rewrite::default(), &plan).bag_eq(&oracle));
        for batch_size in [1, n, n + 10] {
            let (pipelined, trace) = execute(&plan, batch_size);
            assert!(
                pipelined.bag_eq(&oracle),
                "batch {batch_size}:\n{pipelined}\nvs\n{oracle}"
            );
            assert_eq!(lower(&plan).len(), 1);
            // scan, fused stage, breaker.
            assert_eq!(trace.ops.len(), 3);
            assert_eq!(trace.ops[1].label, "fuse(select · project)");
            assert_eq!(trace.ops[2].label, "topk");
            let expected_batches = if batch_size == 1 { n } else { 1 };
            assert_eq!(trace.ops[1].batches, expected_batches);
        }
    }

    /// Fused chains replicate the drop rules of the row operators: select
    /// drops zero filtered annotations, projections drop zero input
    /// annotations, and rows that never pass a dropping operator survive
    /// untouched.
    #[test]
    fn fused_chain_matches_operator_composition() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE),
                (AuTuple::new([RangeValue::certain(9i64)]), Mult3::ONE),
                (AuTuple::new([RangeValue::certain(2i64)]), Mult3::ZERO),
            ],
        );
        // Zero-annotation rows survive an empty chain (no pipeline at all)…
        let plan = Query::scan(rel.clone()).build().unwrap();
        let (out, trace) = execute(&plan, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(lower(&plan).len(), 0);
        assert_eq!(trace.ops.len(), 1);
        // …but a projection drops them, exactly like au_project.
        let a = [(RangeExpr::col(0), "a")];
        let plan = Query::scan(rel.clone()).project(["a"]).build().unwrap();
        let (out, _) = execute(&plan, 2);
        assert!(out.bag_eq(&audb_core::au_project(&rel, &a)));
        assert_eq!(out.len(), 2);
        // A select ahead of the projection drops non-matching rows first.
        let plan = Query::scan(rel.clone())
            .select(RangeExpr::col(0).lt(RangeExpr::lit(5)))
            .project(["a"])
            .build()
            .unwrap();
        let (out, _) = execute(&plan, 1);
        let step = audb_core::au_select(&rel, &RangeExpr::col(0).lt(RangeExpr::lit(5)));
        assert!(out.bag_eq(&audb_core::au_project(&step, &a)));
        assert_eq!(out.len(), 1);
    }

    /// Uncertain predicates weaken annotations instead of dropping rows —
    /// the fused select must carry the filtered (not original) triple into
    /// the downstream projection.
    #[test]
    fn fused_select_filters_annotations() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [(
                AuTuple::new([RangeValue::new(1, 2, 9)]),
                Mult3::new(2, 2, 2),
            )],
        );
        let pred = RangeExpr::col(0).le(RangeExpr::lit(4));
        let plan = Query::scan(rel.clone())
            .select(pred.clone())
            .project(["a"])
            .build()
            .unwrap();
        let (out, _) = execute(&plan, 8);
        // Possibly-true predicate: certain multiplicity drops to 0.
        assert_eq!(out.rows()[0].mult, Mult3::new(0, 2, 2));
        let a = [(RangeExpr::col(0), "a")];
        let by_rows = audb_core::au_project(&audb_core::au_select(&rel, &pred), &a);
        assert!(out.bag_eq(&by_rows));
    }

    /// Zone-map pruning on clustered data skips provably-false batches and
    /// short-circuits provably-true ones, with output identical to the
    /// unpruned run (and the skip/scan counters surfaced in the trace).
    #[test]
    fn zone_pruning_skips_batches_and_preserves_output() {
        use audb_core::ZONE_ROWS;
        // Clustered certain key in col 0 (zone maps are tight), uncertain
        // payload in col 1, some zero annotations sprinkled in.
        let n = 4 * ZONE_ROWS;
        let rel = AuRelation::from_rows(
            Schema::new(["t", "v"]),
            (0..n).map(|i| {
                (
                    AuTuple::new([
                        RangeValue::certain(i as i64),
                        RangeValue::new(i as i64 - 1, i as i64, i as i64 + 1),
                    ]),
                    if i % 7 == 0 { Mult3::ZERO } else { Mult3::ONE },
                )
            }),
        );
        // Keeps only the first zone: three of four batches prune away.
        let plan = Query::scan(rel)
            .select(RangeExpr::col(0).lt(RangeExpr::lit(ZONE_ROWS as i64)))
            .project(["t", "v"])
            .build()
            .unwrap();
        let (pruned, trace) = execute(&plan, ZONE_ROWS);
        assert_eq!(trace.batches_skipped, 3);
        assert_eq!(trace.batches_scanned, 1);
        let (unpruned, off) = traced(|stages| run_pipelined(&plan, ZONE_ROWS, false, stages));
        let unpruned = unpruned.to_rows();
        assert_eq!(off.batches_skipped, 0);
        assert_eq!(off.batches_scanned, 4);
        assert!(pruned.bag_eq(&unpruned));
        assert!(pruned.bag_eq(&reference(&plan)));

        // An always-true predicate short-circuits: nothing skips, the
        // output still drops the zero-annotation rows.
        let plan2 = Query::scan(plan.source_columns().contiguous().to_rows())
            .select(RangeExpr::col(0).lt(RangeExpr::lit(n as i64)))
            .project(["t"])
            .build()
            .unwrap();
        let (pruned, trace) = execute(&plan2, ZONE_ROWS);
        assert_eq!(trace.batches_skipped, 0);
        assert!(pruned.bag_eq(&reference(&plan2)));

        // A batch size misaligned with the zones stays correct: verdicts
        // combine every overlapping zone.
        let (odd, trace) = execute(&plan, ZONE_ROWS / 3 + 11);
        assert!(odd.bag_eq(&unpruned));
        assert!(trace.batches_skipped > 0);
    }

    /// Zone maps are per segment: a batch is judged by the statistics of
    /// the segment it lies in, at its offset *within* that segment, and no
    /// batch spans two — so a segment boundary that is not a multiple of
    /// the batch size costs one short batch, never a wrong verdict.
    #[test]
    fn zone_pruning_reads_each_segments_own_zones() {
        use crate::{Engine, Session};
        use audb_core::ZONE_ROWS;
        let clustered = |from: i64, n: usize| {
            AuRelation::from_rows(
                Schema::new(["t", "v"]),
                (from..from + n as i64).map(|i| {
                    (
                        AuTuple::new([RangeValue::certain(i), RangeValue::new(i - 1, i, i + 1)]),
                        if i % 7 == 0 { Mult3::ZERO } else { Mult3::ONE },
                    )
                }),
            )
        };
        // Two zones registered; two more (one short) appended, far away in
        // `t` and starting mid-way through what would be the table's third
        // zone had it been swept whole.
        let session = Session::new(Engine::native());
        session.register("c", clustered(0, ZONE_ROWS + 300));
        let far = 1_000_000;
        let tail = clustered(far, ZONE_ROWS + 5);
        session.shared_catalog().append("c", &tail).unwrap();
        let run = |sql: &str, batch_size: usize, prune: bool| {
            let prepared = session.prepare(sql).unwrap();
            let (out, trace) = traced(|s| run_pipelined(prepared.plan(), batch_size, prune, s));
            let out = out.to_rows();
            assert!(out.bag_eq(&reference(prepared.plan())), "{sql}");
            (out, trace.batches_skipped, trace.batches_scanned)
        };

        // Only the tail: both registered batches skip.
        let sql = format!("SELECT t, v FROM c WHERE t >= {far}");
        let (out, skipped, scanned) = run(&sql, ZONE_ROWS, true);
        assert_eq!((skipped, scanned), (2, 2));
        // (A projection keeps what is not zero-annotated.)
        let t_v = [(RangeExpr::col(0), "t"), (RangeExpr::col(1), "v")];
        assert!(out.bag_eq(&audb_core::au_project(&tail, &t_v)));
        assert_eq!(run(&sql, ZONE_ROWS, false).1, 0);
        // Only the first registered zone.
        let sql = format!("SELECT t, v FROM c WHERE t < {ZONE_ROWS}");
        assert_eq!(run(&sql, ZONE_ROWS, true).1, 3);
        // A batch size the segments are no multiple of: each segment ends
        // in a short batch of its own, and verdicts still hold.
        let odd = ZONE_ROWS / 3 + 11;
        let batches = (ZONE_ROWS + 300).div_ceil(odd) + (ZONE_ROWS + 5).div_ceil(odd);
        let (_, skipped, scanned) = run(&sql, odd, true);
        assert_eq!(skipped + scanned, batches);
        assert!(
            skipped >= (ZONE_ROWS + 5).div_ceil(odd),
            "the tail's batches all skip"
        );
    }

    /// The refusal sits exactly at the kernels' index width, and a `LIMIT`
    /// counts no more than `k` duplicates of a row.
    #[test]
    fn output_rows_are_checked_at_the_index_width() {
        let edge = u64::from(u32::MAX);
        assert!(check_output_rows([edge - 1, 1], None).is_ok());
        let over = check_output_rows([edge, 1], None).unwrap_err();
        assert!(matches!(over, EngineError::ResultTooLarge { rows } if rows == edge + 1));
        assert!(check_output_rows([u64::MAX, u64::MAX], Some(3)).is_ok());
        assert!(check_output_rows([u64::MAX, 1], Some(edge)).is_err());
        let wrapped = check_output_rows([u64::MAX, 1], None).unwrap_err();
        assert!(matches!(
            wrapped,
            EngineError::ResultTooLarge { rows: u64::MAX }
        ));
        // Counts kept for rows fed before add to the new rows'.
        assert_eq!(
            count_output_rows((1, edge - 1), [1, 0], None).ok(),
            Some((2, edge))
        );
        let over = count_output_rows((1, edge), [1], None).unwrap_err();
        assert!(matches!(over, EngineError::ResultTooLarge { rows } if rows == edge + 1));
        // More rows than a ranking numbers keys for, each emitting one.
        let most = MAX_RANKED_ROWS;
        assert!(count_output_rows((most, most), [], None).is_ok());
        let over = count_output_rows((most + 1, most + 1), [], None).unwrap_err();
        assert!(matches!(over, EngineError::InputTooLarge { rows } if rows == most + 1));
        assert_eq!(over.kind(), "input_too_large");
        assert!(matches!(
            count_output_rows((most + 1, edge + 1), [], None),
            Err(EngineError::ResultTooLarge { .. })
        ));
    }

    /// `sort → select → window`: what the sort emits is what the fused
    /// stage reads, what that emits is what the window reads, and what the
    /// window emits is the result — its lanes and its canonical-order flag
    /// arrive as the kernel left them, nothing transposed on the way.
    #[test]
    fn columns_flow_from_breaker_to_breaker_untransposed() {
        let plan = Query::scan(rel(29))
            .sort_by_as(["b", "a"], "r1")
            .select(RangeExpr::col(2).lt(RangeExpr::lit(20)))
            .window(
                WindowSpec::rows(-2, 0)
                    .order_by(["r1"])
                    .aggregate(Agg::sum("a"))
                    .output("s"),
            )
            .build()
            .unwrap();
        for batch_size in [1, 7, 64] {
            let (out, trace) = traced(|stages| run_pipelined(&plan, batch_size, true, stages));
            let ran: Vec<&str> = trace.ops.iter().map(|o| o.label.as_str()).collect();
            assert_eq!(ran, ["scan", "sort", "fuse(select)", "window"]);
            assert_eq!(trace.ops[3].rows_out, out.len());
            assert!(out.is_normalized(), "the window's flag is the result's");
            assert_eq!(out.schema(), plan.schema());
            let rows = out.to_rows();
            assert!(rows.is_normalized());
            assert_eq!(rows.rows(), reference(&plan).normalize().rows());
        }
    }

    /// Multi-breaker plans: every pipeline runs, intermediate fused stages
    /// see the previous breaker's output schema — and so does a breaker
    /// that follows a breaker directly: what a breaker emits is what the
    /// next stage reads, and the result as it stands when there is none.
    #[test]
    fn multi_breaker_plan_pipelines_end_to_end() {
        let window = || {
            WindowSpec::rows(-1, 0)
                .order_by(["a"])
                .aggregate(Agg::sum("b"))
                .output("s")
        };
        let staged = Query::scan(rel(17))
            .sort_by_as(["b"], "r1")
            .select(RangeExpr::col(2).lt(RangeExpr::lit(10)))
            .window(window())
            .project(["a", "s"]);
        let adjacent = Query::scan(rel(17))
            .sort_by_as(["b"], "r1")
            .window(window());
        for (query, pipelines, labels) in [
            (
                staged,
                3,
                &["scan", "sort", "fuse(select)", "window", "fuse(project)"][..],
            ),
            (adjacent, 2, &["scan", "sort", "window"][..]),
        ] {
            let plan = query.build().unwrap();
            let oracle = reference(&plan);
            assert!(materialized(&Rewrite::default(), &plan).bag_eq(&oracle));
            let (pipelined, trace) = execute(&plan, 4);
            assert!(pipelined.bag_eq(&oracle), "{labels:?}");
            assert_eq!(lower(&plan).len(), pipelines);
            let ran: Vec<&str> = trace.ops.iter().map(|o| o.label.as_str()).collect();
            assert_eq!(ran, labels);
        }
    }
}
