//! Live maintained queries: [`crate::Session::subscribe`] compiles a SQL
//! statement once and keeps its result *maintained* under appended rows,
//! re-emitting only the changed output rows as [`Delta`]s.
//!
//! ## Supported shape
//!
//! A maintainable plan is a chain of row-wise operators (select /
//! project) feeding one final [`Op::Window`] or limited [`Op::Sort`]. Row-wise
//! operators commute with append — running them over each batch and
//! feeding the final operator's incremental state
//! ([`audb_native::MaintainedWindow`] / [`audb_native::TopKMaintain`]) is
//! exactly equivalent to recomputing the chain over the accumulated rows.
//! Any other shape still subscribes, but every append recomputes.
//!
//! ## Strategy selection
//!
//! Each append batch picks [`Strategy::Incremental`] or
//! [`Strategy::Recompute`], visible in [`MaintainedQuery::explain`]:
//!
//! * **Tiny relations recompute.** Below the cutoff (default
//!   [`DEFAULT_INCREMENTAL_CUTOFF`] accumulated rows) a full recompute is
//!   cheaper than maintaining sweep state; the maintained state is built
//!   lazily the first time the relation crosses the cutoff.
//! * **Window maintenance needs the native fast path.** If the engine is
//!   not [`Engine::Native`], or the data hits the documented
//!   native-window fallbacks (duplicate multiplicities after
//!   normalization, uncertain `PARTITION BY` values — both checked on the
//!   normalized batch itself, never read off an error message),
//!   maintenance is disabled *permanently* for the subscription — those
//!   conditions don't un-happen — and every append recomputes on the
//!   engine, preserving the engine's bound-agreement promise.
//! * **Out-of-order appends rebuild.** The window sweep consumes rows in
//!   ascending ORDER BY position; a batch overlapping the accumulated
//!   frontier forces one recompute and a state rebuild (the rebuilt sweep
//!   absorbs everything seen so far as a single batch). Top-k maintenance
//!   accepts appends in any order and never rebuilds.
//!
//! Ground truth is always the engine itself: the recompute path *is*
//! `engine.execute(plan.with_table(accumulated))`, and the property tests
//! pin the incremental path bag-equal to it on all three backends.
//!
//! ## One append, two callers
//!
//! A subscription's accumulator is a table handle like the catalog's: the
//! plan's own [`Table`] at `subscribe` — shared, not copied — grown by the
//! append the catalog publishes with (sealed segments shared, the open
//! tail rebuilt: the cost of the batch, whatever has accumulated). The
//! two do not see each other's rows: a subscription pins the version
//! current when it was made and from then on is fed only through
//! [`MaintainedQuery::append`]. A recompute binds the plan to the grown
//! handle ([`Plan::with_table`], nothing read); the incremental states
//! take the row-wise prefix's output over the batch as columns.
//!
//! ## One answer, one diff
//!
//! The maintained value is the normalized output bag, and it is held once.
//! While a window sweep is live the sweep holds it — what it has closed is
//! final (paper Sec. 8) — and the subscription keeps only the open rows it
//! emitted last; otherwise it is one normalized [`AuColumns`], the last
//! recompute's output or the top-k band's.
//!
//! ## Delta semantics
//!
//! A [`Delta`] lists `removed` (key's old row/multiplicity) and `added`
//! (new) for exactly the keys whose normalized entry changed:
//! `value_after = value_before − removed + added`. Replaying every delta
//! from subscription onward reconstructs [`MaintainedQuery::value`]. Every
//! delta is one merge walk over two normalized relations in canonical
//! order: the answer before and the recompute's output; the band before and
//! after a top-k append (`O(k)`); the open rows emitted last and the rows
//! closed since plus the open rows now, after a window append
//! (`O(changed)` — the window's output rows are distinct, so no key is in
//! both the closed and the open rows).

use crate::catalog::Table;
use crate::engine::Engine;
use crate::error::SessionError;
use crate::exec;
use crate::plan::{Op, Plan};
use audb_core::{AuColumns, AuRelation, AuTuple, AuWindowSpec, Mult3, SortKey};
use audb_native::{MaintainedWindow, TopKMaintain};
use std::cmp::Ordering;
use std::sync::Arc;

/// Accumulated row count below which an append recomputes instead of
/// maintaining sweep state (override per subscription with
/// [`MaintainedQuery::with_cutoff`]).
pub const DEFAULT_INCREMENTAL_CUTOFF: usize = 256;

/// How one append batch was absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The batch updated live sweep state in `O(log n)` per row.
    #[default]
    Incremental,
    /// The full plan re-ran over the accumulated relation.
    Recompute,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Incremental => write!(f, "incremental"),
            Strategy::Recompute => write!(f, "recompute"),
        }
    }
}

/// The changed output rows of one append: `value_after = value_before −
/// removed + added`, as normalized `(row, multiplicity)` entries.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Entries whose old form left the result (or changed multiplicity).
    pub removed: Vec<(AuTuple, Mult3)>,
    /// Entries now in the result (with their new multiplicity).
    pub added: Vec<(AuTuple, Mult3)>,
    /// How this batch was absorbed.
    pub strategy: Strategy,
}

impl Delta {
    /// True iff the append changed nothing in the output.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// The final maintainable operator of the subscribed plan, and its live
/// state once the accumulated relation has crossed the cutoff.
enum MaintainKind {
    Window(Option<MaintainedWindow>),
    TopK(Option<TopKMaintain>),
    /// Never maintained, and why: the plan's shape, the engine's backend,
    /// or data the native window hands to the reference — none of which
    /// un-happens. Every append recomputes.
    Never(String),
}

impl MaintainKind {
    /// What is maintained, as `explain` and the fallback reasons call it.
    fn name(&self) -> &'static str {
        match self {
            MaintainKind::Window(_) => "window",
            MaintainKind::TopK(_) => "top-k",
            MaintainKind::Never(_) => "nothing",
        }
    }
}

/// A subscribed query: a compiled [`Plan`] whose result stays current
/// under [`MaintainedQuery::append`]ed rows. Obtain one from
/// [`crate::Session::subscribe`].
pub struct MaintainedQuery {
    engine: Engine,
    plan: Plan,
    /// The row-wise prefix of the plan (everything before the final op).
    pre: Plan,
    kind: MaintainKind,
    cutoff: usize,
    /// The accumulated source: the subscribed table version grown by
    /// every batch.
    accum: Arc<Table>,
    /// The answer, normalized — except while a window sweep is live: the
    /// sweep holds the answer then, and this is only the open rows it was
    /// last asked for, which the next append may change.
    answer: AuColumns,
    incremental_appends: u64,
    recompute_appends: u64,
    last: Option<(Strategy, usize)>,
}

impl MaintainedQuery {
    pub(crate) fn new(engine: Engine, plan: Plan) -> Result<MaintainedQuery, SessionError> {
        let row_wise = |pre: &[Op]| !pre.iter().any(Op::is_breaker);
        let mut kind = match plan.ops().split_last() {
            Some((Op::Window { .. }, pre)) if row_wise(pre) => MaintainKind::Window(None),
            Some((Op::Sort { limit: Some(_), .. }, pre)) if row_wise(pre) => {
                MaintainKind::TopK(None)
            }
            Some((op, _)) => MaintainKind::Never(format!(
                "final operator `{}` is not maintainable",
                op.name()
            )),
            None => MaintainKind::Never("plan has no maintainable operator".to_string()),
        };
        if engine != Engine::Native && !matches!(kind, MaintainKind::Never(_)) {
            kind = MaintainKind::Never(format!(
                "{} maintenance requires the native backend (engine runs {engine})",
                kind.name()
            ));
        }
        let mut q = MaintainedQuery {
            engine,
            pre: plan.prefix(plan.ops().len().saturating_sub(1)),
            kind,
            cutoff: DEFAULT_INCREMENTAL_CUTOFF,
            accum: Arc::clone(plan.source_columns()),
            answer: AuColumns::empty(plan.schema().clone()),
            incremental_appends: 0,
            recompute_appends: 0,
            last: None,
            plan,
        };
        // Data the native window refers to the reference is checked up
        // front too, so explain() is honest from the start.
        if let (MaintainKind::Window(_), Some(Op::Window { spec, .. })) =
            (&q.kind, q.plan.ops().last())
        {
            let pre_rel = q.prefix_over(Arc::clone(&q.accum))?.normalize()?;
            if let Some(what) = needs_reference(&pre_rel, spec) {
                q.kind = MaintainKind::Never(format!("initial relation carries {what}"));
            }
        }
        q.recompute()?;
        Ok(q)
    }

    /// Override the tiny-relation cutoff (accumulated rows below which
    /// appends recompute instead of maintaining sweep state).
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// The compiled plan this subscription maintains.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The current result, normalized, in deterministic row-key order.
    pub fn value(&self) -> AuRelation {
        match &self.kind {
            MaintainKind::Window(Some(m)) => window_answer(m).to_rows(),
            _ => self.answer.to_rows(),
        }
    }

    /// The accumulated source (initial relation plus every appended
    /// batch, in arrival order), as the table handle recomputes scan.
    pub fn accumulated(&self) -> &Arc<Table> {
        &self.accum
    }

    /// `(incremental, recompute)` append counts so far.
    pub fn strategy_counts(&self) -> (u64, u64) {
        (self.incremental_appends, self.recompute_appends)
    }

    /// Append a batch of source rows and return the changed output rows.
    /// The batch must carry the subscribed table's exact schema.
    pub fn append(&mut self, batch: &AuRelation) -> Result<Delta, SessionError> {
        let rows = batch.len();
        if batch.schema != self.plan.schemas()[0] {
            return Err(SessionError::Plan(
                crate::error::PlanError::SourceSchemaMismatch {
                    expected: self.plan.schemas()[0].to_string(),
                    got: batch.schema.to_string(),
                },
            ));
        }
        // The subscription's batch door: rows in, columns from here on.
        let batch = batch.to_columns();
        if !batch.is_empty() {
            self.accum = self.accum.appended(batch.clone());
        }
        let (strategy, delta) = match self.try_incremental(batch)? {
            Some(delta) => {
                self.incremental_appends += 1;
                (Strategy::Incremental, delta)
            }
            None => {
                self.recompute_appends += 1;
                (Strategy::Recompute, self.recompute()?)
            }
        };
        self.last = Some((strategy, rows));
        Ok(Delta { strategy, ..delta })
    }

    /// The engine's explain output for the subscribed plan, followed by
    /// stable maintenance lines (strategy, cutoff, append counts).
    pub fn explain(&self) -> String {
        let mut s = self.engine.explain(&self.plan).to_string();
        if !s.ends_with('\n') {
            s.push('\n');
        }
        let mode = match &self.kind {
            MaintainKind::Never(reason) => format!("always recompute — {reason}"),
            kind => format!("{} incremental (cutoff {})", kind.name(), self.cutoff),
        };
        s.push_str(&format!("maintain: {mode}\n"));
        s.push_str(&format!(
            "appends: {} incremental, {} recompute\n",
            self.incremental_appends, self.recompute_appends
        ));
        if let Some((strategy, rows)) = &self.last {
            s.push_str(&format!("last append: {strategy} ({rows} rows)\n"));
        }
        s
    }

    /// Absorb the batch into the live state and return its delta — or
    /// `None`: this append recomputes. The accumulated rows already hold
    /// the batch.
    fn try_incremental(&mut self, batch: AuColumns) -> Result<Option<Delta>, SessionError> {
        if self.accum.len() < self.cutoff {
            // Tiny relation: recompute, and drop any state so the next
            // crossing of the cutoff rebuilds from scratch.
            self.drop_state();
            return Ok(None);
        }
        match &self.kind {
            MaintainKind::Never(_) => Ok(None),
            MaintainKind::Window(_) => self.try_incremental_window(batch),
            MaintainKind::TopK(_) => self.try_incremental_topk(batch),
        }
    }

    /// The row-wise prefix over `source`, on the native method (the only
    /// one that maintains) — over a batch alone, its contribution to the
    /// prefix over the accumulated table.
    fn prefix_over(&self, source: Arc<Table>) -> Result<AuColumns, SessionError> {
        let plan = self.pre.with_table(source)?;
        let batch_size = self.engine.choose_exec(&plan).batch_size;
        Ok(exec::run_row_wise(&plan, batch_size))
    }

    /// Drop the live state — a window sweep hands its answer back first.
    fn drop_state(&mut self) {
        match &mut self.kind {
            MaintainKind::Window(state) => {
                if let Some(m) = state.take() {
                    self.answer = window_answer(&m);
                }
            }
            MaintainKind::TopK(state) => *state = None,
            MaintainKind::Never(_) => {}
        }
    }

    /// Stop maintaining for good.
    fn never(&mut self, reason: String) {
        self.drop_state();
        self.kind = MaintainKind::Never(reason);
    }

    fn try_incremental_window(&mut self, batch: AuColumns) -> Result<Option<Delta>, SessionError> {
        let Some(Op::Window {
            spec,
            agg,
            out_name,
        }) = self.plan.ops().last().cloned()
        else {
            unreachable!("kind is Window only for window plans");
        };
        let pre_batch = self.prefix_over(Table::sealed(batch))?.normalize()?;
        // The native window's documented fallbacks are sticky: a duplicate
        // multiplicity or an uncertain partition value stays in the data.
        if let Some(what) = needs_reference(&pre_batch, &spec) {
            self.never(format!("appended rows carry {what}"));
            return Ok(None);
        }
        if let MaintainKind::Window(Some(m)) = &mut self.kind {
            if m.in_order(&pre_batch) {
                m.apply(&pre_batch);
                // What changed: the rows closed since, and the open rows
                // now against the open rows last emitted.
                let open = m.open_result().normalize()?;
                let mut now = m.drain_new_closed();
                now.append(open.clone());
                let delta = diff(&self.answer, &now.normalize()?);
                self.answer = open;
                return Ok(Some(delta));
            }
        }
        // No sweep yet, or a frontier overlap: build one from everything
        // seen so far as one batch. This append recomputes; the next
        // in-order batch goes incremental.
        self.drop_state();
        let pre_all = self.prefix_over(Arc::clone(&self.accum))?.normalize()?;
        if let Some(what) = needs_reference(&pre_all, &spec) {
            self.never(format!("accumulated relation carries {what}"));
            return Ok(None);
        }
        let mut m = MaintainedWindow::new(pre_all.schema().clone(), spec, agg, &out_name);
        m.apply(&pre_all);
        self.kind = MaintainKind::Window(Some(m));
        Ok(None)
    }

    fn try_incremental_topk(&mut self, batch: AuColumns) -> Result<Option<Delta>, SessionError> {
        let Some(Op::Sort {
            order,
            pos_name,
            limit: Some(k),
        }) = self.plan.ops().last().cloned()
        else {
            unreachable!("kind is TopK only for top-k plans");
        };
        let pre_batch = self.prefix_over(Table::sealed(batch))?;
        if let MaintainKind::TopK(Some(m)) = &mut self.kind {
            m.apply(&pre_batch);
            // The band is the whole answer: diff it in O(k), not O(n).
            let band = m.result().normalize()?;
            let delta = diff(&self.answer, &band);
            self.answer = band;
            return Ok(Some(delta));
        }
        // First crossing of the cutoff: seed from the accumulated rows.
        let pre_all = self.prefix_over(Arc::clone(&self.accum))?;
        let mut m = TopKMaintain::new(pre_all.schema().clone(), order, k, &pos_name);
        m.apply(&pre_all);
        self.kind = MaintainKind::TopK(Some(m));
        Ok(None)
    }

    /// The ground-truth path: the full plan over the accumulated relation,
    /// normalized, diffed against the answer before. A window sweep built
    /// this append keeps what it has closed — the recompute answered it —
    /// and leaves only its open rows here.
    fn recompute(&mut self) -> Result<Delta, SessionError> {
        let out = (self.engine)
            .execute(&self.plan.with_table(Arc::clone(&self.accum))?)?
            .normalize()?;
        let delta = diff(&self.answer, &out);
        self.answer = match &mut self.kind {
            MaintainKind::Window(Some(m)) => {
                m.drain_new_closed();
                m.open_result().normalize()?
            }
            _ => out,
        };
        Ok(delta)
    }
}

impl std::fmt::Debug for MaintainedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainedQuery")
            .field("rows", &self.accum.len())
            .field("incremental", &self.incremental_appends)
            .field("recompute", &self.recompute_appends)
            .finish()
    }
}

/// The native window's two fallbacks to the reference (DESIGN.md §5.2) —
/// a duplicate multiplicity, an uncertain `PARTITION BY` value — decided
/// for window *maintenance* before any sweep state is built (a one-shot
/// window learns them from its sweep), and named. Callers pass a
/// **normalized** relation (zero-free, so every stored row exists):
/// separately stored copies of one hypercube merge into a duplicate
/// multiplicity, so checking raw rows would miss them.
fn needs_reference(rel: &AuColumns, spec: &AuWindowSpec) -> Option<&'static str> {
    debug_assert!(rel.is_normalized());
    if rel.mult_ub().iter().any(|&ub| ub > 1) {
        Some("duplicate multiplicities (k↑ > 1)")
    } else if (spec.partition.iter())
        .any(|&g| (0..rel.len()).any(|row| !rel.col(g).certain_at(row)))
    {
        Some("an uncertain PARTITION BY value")
    } else {
        None
    }
}

/// A live window's answer, normalized: its rows are distinct (the input
/// rows are, and each is extended by one aggregate), each of `k↑ = 1`.
fn window_answer(m: &MaintainedWindow) -> AuColumns {
    m.result()
        .normalize()
        .expect("a window's rows are distinct")
}

/// `after − before` as a [`Delta`]: one merge walk over two normalized
/// relations in their canonical order, compared by whole-row key. A key on
/// one side only is removed or added; a key on both under another
/// multiplicity is removed at the old one and added at the new.
fn diff(before: &AuColumns, after: &AuColumns) -> Delta {
    debug_assert!(before.is_normalized() && after.is_normalized());
    let (old, new) = (SortKey::of_columns(before), SortKey::of_columns(after));
    let row = |cols: &AuColumns, i: usize| (cols.tuple(i), cols.mult(i));
    let mut delta = Delta::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let ord = match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) => a.cmp(b),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        match ord {
            Ordering::Less => delta.removed.push(row(before, i)),
            Ordering::Greater => delta.added.push(row(after, j)),
            Ordering::Equal if before.mult(i) != after.mult(j) => {
                delta.removed.push(row(before, i));
                delta.added.push(row(after, j));
            }
            Ordering::Equal => {}
        }
        i += usize::from(ord.is_le());
        j += usize::from(ord.is_ge());
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::session::Session;
    use audb_core::RangeValue;
    use audb_rel::Schema;
    use std::collections::BTreeMap;
    use std::sync::Arc as StdArc;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn stream_rows(n: usize, seed: u64) -> Vec<(AuTuple, Mult3)> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| {
                let o = 10 * i as i64;
                let j = (step() % 5) as i64;
                let v = (step() % 100) as i64 - 50;
                (
                    AuTuple::new([rv(o - j, o, o + j), rv(v, v, v + (step() % 3) as i64)]),
                    if step() % 4 == 0 {
                        Mult3::new(0, 1, 1)
                    } else {
                        Mult3::ONE
                    },
                )
            })
            .collect()
    }

    fn rel_of(rows: &[(AuTuple, Mult3)]) -> AuRelation {
        AuRelation::from_rows(Schema::new(["o", "v"]), rows.iter().cloned())
    }

    const ROLLING_SQL: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll FROM s";

    fn subscribe(rows: &[(AuTuple, Mult3)], cutoff: usize) -> MaintainedQuery {
        let session = Session::new(Engine::native());
        session.register("s", rel_of(rows));
        session.subscribe(ROLLING_SQL).unwrap().with_cutoff(cutoff)
    }

    #[test]
    fn value_tracks_recompute_and_deltas_replay() {
        let rows = stream_rows(60, 5);
        let mut q = subscribe(&rows[..20], 16);
        let session = Session::new(Engine::native());
        // Replay target: every delta applied to the initial value, by key.
        let entries = |value: AuRelation| -> BTreeMap<SortKey, (AuTuple, Mult3)> {
            (value.into_rows().into_iter())
                .map(|row| (SortKey::of_row(&row.tuple), (row.tuple, row.mult)))
                .collect()
        };
        let mut replay = entries(q.value());
        for chunk in rows[20..].chunks(7) {
            let delta = q.append(&rel_of(chunk)).unwrap();
            for (t, m) in &delta.removed {
                let old = replay.remove(&SortKey::of_row(t));
                assert_eq!(
                    old,
                    Some((t.clone(), *m)),
                    "removed at its old multiplicity"
                );
            }
            for (t, m) in &delta.added {
                let old = replay.insert(SortKey::of_row(t), (t.clone(), *m));
                assert_eq!(old, None, "added over a live entry");
            }
            // Ground truth: full recompute over the accumulated rows.
            session.register("s", q.accumulated().contiguous().to_rows());
            let truth = session.sql(ROLLING_SQL).unwrap();
            let value = q.value();
            assert!(value.bag_eq(&truth), "value:\n{value}\ntruth:\n{truth}");
            assert_eq!(replay, entries(value), "deltas must replay to the value");
        }
        let (inc, rec) = q.strategy_counts();
        assert!(inc >= 4, "expected mostly incremental appends, got {inc}");
        assert!(rec >= 1, "cutoff crossing recomputes once, got {rec}");
    }

    #[test]
    fn cutoff_governs_strategy_and_explain_reports_it() {
        let rows = stream_rows(40, 11);
        let mut q = subscribe(&rows[..4], 12);
        // Below the cutoff: recompute.
        let d = q.append(&rel_of(&rows[4..8])).unwrap();
        assert_eq!(d.strategy, Strategy::Recompute);
        // Crossing the cutoff: one recompute that seeds the state...
        let d = q.append(&rel_of(&rows[8..16])).unwrap();
        assert_eq!(d.strategy, Strategy::Recompute);
        // ...then in-order appends go incremental.
        let d = q.append(&rel_of(&rows[16..24])).unwrap();
        assert_eq!(d.strategy, Strategy::Incremental);
        let text = q.explain();
        assert!(
            text.contains("maintain: window incremental (cutoff 12)"),
            "{text}"
        );
        assert!(
            text.contains("appends: 1 incremental, 2 recompute"),
            "{text}"
        );
        assert!(text.contains("last append: incremental (8 rows)"), "{text}");
    }

    #[test]
    fn out_of_order_appends_recompute_then_resume_incremental() {
        let rows = stream_rows(40, 3);
        let mut q = subscribe(&rows[..24], 8);
        assert_eq!(
            q.append(&rel_of(&rows[24..30])).unwrap().strategy,
            Strategy::Recompute,
            "first append seeds the state"
        );
        assert_eq!(
            q.append(&rel_of(&rows[30..34])).unwrap().strategy,
            Strategy::Incremental
        );
        // An overlapping (out-of-order) batch forces a recompute + rebuild…
        let overlap = vec![(AuTuple::new([rv(5, 7, 9), rv(1, 1, 1)]), Mult3::ONE)];
        assert_eq!(
            q.append(&rel_of(&overlap)).unwrap().strategy,
            Strategy::Recompute
        );
        // …but is not sticky: the next in-order batch is incremental again.
        assert_eq!(
            q.append(&rel_of(&rows[34..38])).unwrap().strategy,
            Strategy::Incremental
        );
        let session = Session::new(Engine::native());
        session.register("s", q.accumulated().contiguous().to_rows());
        let truth = session.sql(ROLLING_SQL).unwrap();
        assert!(q.value().bag_eq(&truth));
    }

    #[test]
    fn duplicate_multiplicities_disable_maintenance_permanently() {
        let rows = stream_rows(30, 17);
        let mut q = subscribe(&rows[..20], 8);
        q.append(&rel_of(&rows[20..24])).unwrap();
        assert_eq!(
            q.append(&rel_of(&rows[24..26])).unwrap().strategy,
            Strategy::Incremental
        );
        // k↑ = 2 hits the native window's documented fallback — sticky.
        let dup = vec![(
            AuTuple::new([rv(400, 400, 400), rv(1, 1, 1)]),
            Mult3::new(1, 1, 2),
        )];
        assert_eq!(
            q.append(&rel_of(&dup)).unwrap().strategy,
            Strategy::Recompute
        );
        assert_eq!(
            q.append(&rel_of(&rows[26..28])).unwrap().strategy,
            Strategy::Recompute,
            "fallback is permanent"
        );
        assert!(q.explain().contains("always recompute"), "{}", q.explain());
        let session = Session::new(Engine::native());
        session.register("s", q.accumulated().contiguous().to_rows());
        assert!(q.value().bag_eq(&session.sql(ROLLING_SQL).unwrap()));
    }

    #[test]
    fn topk_subscription_accepts_any_order() {
        let rows = stream_rows(50, 23);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..20]));
        let sql = "SELECT * FROM s ORDER BY v AS rank LIMIT 5";
        let mut q = session.subscribe(sql).unwrap().with_cutoff(8);
        // Appends in reverse order: top-k maintenance has no frontier.
        let mut chunks: Vec<&[(AuTuple, Mult3)]> = rows[20..].chunks(6).collect();
        chunks.reverse();
        let mut saw_incremental = false;
        for chunk in chunks {
            let d = q.append(&rel_of(chunk)).unwrap();
            saw_incremental |= d.strategy == Strategy::Incremental;
            session.register("s", q.accumulated().contiguous().to_rows());
            let truth = session.sql(sql).unwrap();
            assert!(q.value().bag_eq(&truth), "{}\nvs\n{truth}", q.value());
        }
        assert!(saw_incremental);
        assert!(q.explain().contains("top-k incremental"), "{}", q.explain());
    }

    /// One row of `k↑ = 2⁶³` appended twice: merged in the band, where each
    /// copy counts as `min(k↑, k)`, it neither wraps to `k↑ = 0` (and drops
    /// out of the answer) nor overflows — the value is the recompute's.
    #[test]
    fn topk_subscription_merges_multiplicities_past_u64() {
        let schema = Schema::new(["a"]);
        let row = |a: i64, mult| (AuTuple::new([RangeValue::certain(a)]), mult);
        let session = Session::new(Engine::native());
        let certain = (10..20).map(|a| row(a, Mult3::ONE));
        session.register("s", AuRelation::from_rows(schema.clone(), certain));
        let sql = "SELECT * FROM s ORDER BY a AS pos LIMIT 3";
        let mut q = session.subscribe(sql).unwrap().with_cutoff(1);
        let huge = AuRelation::from_rows(schema, [row(1, Mult3::new(0, 0, 1 << 63))]);
        for _ in 0..2 {
            q.append(&huge).unwrap();
            session.register("s", q.accumulated().contiguous().to_rows());
            let truth = session.sql(sql).unwrap();
            assert!(q.value().bag_eq(&truth), "{}\nvs\n{truth}", q.value());
        }
        assert_eq!(q.strategy_counts(), (1, 1));
    }

    #[test]
    fn non_maintainable_and_non_native_shapes_always_recompute() {
        let rows = stream_rows(20, 29);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..10]));
        // Final op is a plain sort — not maintainable.
        let mut q = session
            .subscribe("SELECT * FROM s ORDER BY o AS p")
            .unwrap()
            .with_cutoff(1);
        let d = q.append(&rel_of(&rows[10..15])).unwrap();
        assert_eq!(d.strategy, Strategy::Recompute);
        assert!(
            q.explain()
                .contains("always recompute — final operator `sort`"),
            "{}",
            q.explain()
        );
        // Reference engine: window maintenance requires the native backend.
        let ref_session = Session::new(Engine::reference());
        ref_session.register("s", rel_of(&rows[..10]));
        let mut q = ref_session.subscribe(ROLLING_SQL).unwrap().with_cutoff(1);
        assert_eq!(
            q.append(&rel_of(&rows[10..15])).unwrap().strategy,
            Strategy::Recompute
        );
        assert!(q.explain().contains("requires the native backend"));
        let check = Session::new(Engine::reference());
        check.register("s", q.accumulated().contiguous().to_rows());
        assert!(q.value().bag_eq(&check.sql(ROLLING_SQL).unwrap()));
    }

    #[test]
    fn append_rejects_mismatched_schemas() {
        let rows = stream_rows(10, 31);
        let mut q = subscribe(&rows, 8);
        let bad = AuRelation::empty(Schema::new(["o", "v", "extra"]));
        let e = q.append(&bad).unwrap_err();
        assert_eq!(e.kind(), "schema_mismatch");
        // Pre-oped plans survive: the subscription still answers.
        let _ = StdArc::new(q.value());
    }
}
