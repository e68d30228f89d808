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
//! `subscribe` builds the maintained state over the subscribed table and
//! reads the initial value off it; the plan runs once. Each append batch
//! then picks [`Strategy::Incremental`] or [`Strategy::Recompute`], visible
//! in [`MaintainedQuery::explain`]:
//!
//! * **Maintenance needs the native method and a maintainable shape.** If
//!   the engine is not [`Engine::Native`], or the plan's shape is not one
//!   above, the subscription is never maintained — both are fixed at
//!   `subscribe` — and every append recomputes on the engine. Duplicate
//!   multiplicities and uncertain `PARTITION BY` values are maintained
//!   like any other rows.
//! * **A batch the window cannot absorb rebuilds.** The window sweep
//!   consumes rows in ascending ORDER BY position, one group per partition
//!   value: a batch overlapping a group's frontier, holding a range
//!   partition value, or a point value a range value fed before possibly
//!   equals rebuilds the sweep from the rows it was fed and the batch, as
//!   a single batch — no plan runs — and the append (a recompute) answers
//!   from the rebuilt sweep ([`MaintainedWindow::apply`] returns the whole
//!   answer before). The next batch that touches no such group is
//!   incremental again. Top-k maintenance accepts appends in any order and
//!   never rebuilds.
//!
//! Ground truth is always the engine itself: the property tests pin every
//! maintained value bag-equal to the engine's answer over the subscribed
//! table and every batch appended, on all three backends — which is what a
//! subscription that is never maintained holds. A top-k band is refused as
//! the engine refuses a sort of the same rows, a window as it refuses the
//! window over every row fed, and an append that fails changes nothing:
//! whatever can fail runs before the state is replaced.
//!
//! ## What a subscription keeps
//!
//! A subscription pins the table version current when it was made and is
//! fed only through [`MaintainedQuery::append`]; the catalog's append and
//! it do not see each other's rows. A maintained one keeps its native
//! state and nothing else: the window operator keeps the rows the prefix
//! passed, the top-k its band. Only one that is never maintained keeps a
//! table — the subscribed version grown by every batch, as the catalog
//! grows one (`Table::appended`) — because its recompute binds the plan
//! to it.
//!
//! ## One answer, one diff
//!
//! The maintained value is the normalized output bag, and it is held once.
//! While a window sweep is live the sweep holds it — what it has closed is
//! final (paper Sec. 8), and it hands its rows over normalized — and the
//! subscription keeps only the open rows it emitted last; otherwise it is
//! one normalized [`AuColumns`], the last recompute's output or the top-k
//! band's.
//!
//! ## Delta semantics
//!
//! A [`Delta`] lists `removed` (key's old row/multiplicity) and `added`
//! (new) for exactly the keys whose normalized entry changed:
//! `value_after = value_before − removed + added`. Replaying every delta
//! from subscription onward reconstructs [`MaintainedQuery::value`]. Every
//! delta is one merge walk over two normalized relations in canonical
//! order: the whole answer before and after a recompute or a rebuild; the
//! band before and after a top-k append (`O(k)`); the open rows emitted
//! last and the rows closed since plus the open rows now, after a window
//! append (`O(changed)`, one relation from [`MaintainedWindow::drain`]).

use crate::catalog::Table;
use crate::engine::Engine;
use crate::error::SessionError;
use crate::exec;
use crate::plan::{Op, Plan};
use audb_core::{AuColumns, AuRelation, AuTuple, Mult3, SortKey};
use audb_native::{MaintainedWindow, TopKMaintain};
use std::cmp::Ordering;
use std::sync::Arc;

/// How one append batch was absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The batch updated live sweep state in `O(log n)` per row.
    #[default]
    Incremental,
    /// The answer was computed afresh: the plan re-ran over every row, or
    /// the window sweep was rebuilt from every row it was fed.
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

/// The final maintainable operator of the subscribed plan, with its live
/// state.
enum MaintainKind {
    /// The sweep, and how many rows the window over every row fed ranks
    /// and emits ([`exec::count_output_rows`]).
    Window(MaintainedWindow<'static>, (u64, u64)),
    TopK(TopKMaintain),
    /// Never maintained, and why — the plan's shape or the engine's
    /// backend, both fixed at `subscribe` —, and the subscribed table
    /// version grown by every batch, which every append recomputes over.
    Never(String, Arc<Table>),
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
    /// The answer, normalized — except while a window sweep is live: the
    /// sweep holds the answer then, and this is only the open rows it was
    /// last asked for, which the next append may change.
    answer: AuColumns,
    incremental_appends: u64,
    recompute_appends: u64,
    last: Option<(Strategy, usize)>,
}

impl MaintainedQuery {
    /// The state over the subscribed table and its answer: the engine's,
    /// for a subscription that is never maintained; otherwise the final
    /// operator's, over the prefix's rows.
    pub(crate) fn new(engine: Engine, plan: Plan) -> Result<MaintainedQuery, SessionError> {
        let row_wise = |pre: &[Op]| !pre.iter().any(Op::is_breaker);
        let never = match plan.ops().split_last() {
            Some((Op::Window { .. }, pre)) if row_wise(pre) => native_only("window", engine),
            Some((Op::Sort { limit: Some(_), .. }, pre)) if row_wise(pre) => {
                native_only("top-k", engine)
            }
            Some((op, _)) => Some(format!(
                "final operator `{}` is not maintainable",
                op.name()
            )),
            None => Some("plan has no maintainable operator".to_string()),
        };
        let pre = plan.prefix(plan.ops().len().saturating_sub(1));
        let (kind, answer) = match (never, plan.ops().last()) {
            (Some(reason), _) => {
                let accum = Arc::clone(plan.source_columns());
                let answer = recompute(engine, &plan, &accum)?;
                (MaintainKind::Never(reason, accum), answer)
            }
            (
                None,
                Some(Op::Window {
                    spec,
                    agg,
                    out_name,
                }),
            ) => {
                let rows = Engine::Native.execute(&pre)?;
                let fed = exec::count_output_rows((0, 0), rows.mult_ub().iter().copied(), None)?;
                let rows = rows.normalize()?;
                let mut m =
                    MaintainedWindow::new(rows.schema().clone(), spec.clone(), *agg, out_name);
                m.apply(rows);
                let (_, open) = m.drain();
                (MaintainKind::Window(m, fed), open)
            }
            (
                None,
                Some(Op::Sort {
                    order,
                    pos_name,
                    limit: Some(k),
                }),
            ) => {
                let rows = Engine::Native.execute(&pre)?;
                let mut m = TopKMaintain::new(rows.schema().clone(), order.clone(), *k, pos_name);
                m.apply(rows);
                let band = topk_answer(&m)?;
                (MaintainKind::TopK(m), band)
            }
            _ => unreachable!("only window and top-k plans are maintained"),
        };
        Ok(MaintainedQuery {
            engine,
            plan,
            pre,
            kind,
            answer,
            incremental_appends: 0,
            recompute_appends: 0,
            last: None,
        })
    }

    /// The compiled plan this subscription maintains.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The current result, normalized, in deterministic row-key order.
    pub fn value(&self) -> AuRelation {
        match &self.kind {
            MaintainKind::Window(m, _) => m.result().to_rows(),
            _ => self.answer.to_rows(),
        }
    }

    /// `(incremental, recompute)` append counts so far.
    pub fn strategy_counts(&self) -> (u64, u64) {
        (self.incremental_appends, self.recompute_appends)
    }

    /// Append a batch of source rows and return the changed output rows.
    /// The batch must carry the subscribed table's exact schema. An error
    /// leaves the subscription as it was: nothing is replaced before
    /// everything that can fail has run.
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
        let (strategy, delta) = match &mut self.kind {
            MaintainKind::Never(_, accum) => {
                let grown = match batch.is_empty() {
                    true => Arc::clone(accum),
                    false => accum.appended(batch),
                };
                let whole = recompute(self.engine, &self.plan, &grown)?;
                *accum = grown;
                let before = std::mem::replace(&mut self.answer, whole);
                (Strategy::Recompute, diff(&before, &self.answer))
            }
            MaintainKind::TopK(m) => {
                // The band absorbs the batch — on a copy, kept once its
                // answer is not refused — and is diffed in O(k), not O(n).
                let mut grown = m.clone();
                grown.apply(prefix_over(&self.pre, batch)?);
                let band = topk_answer(&grown)?;
                *m = grown;
                let before = std::mem::replace(&mut self.answer, band);
                (Strategy::Incremental, diff(&before, &self.answer))
            }
            MaintainKind::Window(m, fed) => {
                let rows = prefix_over(&self.pre, batch)?;
                let counted = exec::count_output_rows(*fed, rows.mult_ub().iter().copied(), None)?;
                let rows = rows.normalize()?;
                // Absorbed, or rebuilt from everything fed; what changed:
                // the rows closed since, and the open rows now, against the
                // open rows last emitted — or the whole answer before.
                let before = m.apply(rows);
                *fed = counted;
                let (since, open) = m.drain();
                let delta = diff(before.as_ref().unwrap_or(&self.answer), &since);
                self.answer = open;
                (
                    before.map_or(Strategy::Incremental, |_| Strategy::Recompute),
                    delta,
                )
            }
        };
        match strategy {
            Strategy::Incremental => self.incremental_appends += 1,
            Strategy::Recompute => self.recompute_appends += 1,
        }
        self.last = Some((strategy, rows));
        Ok(Delta { strategy, ..delta })
    }

    /// The engine's explain output for the subscribed plan, followed by
    /// stable maintenance lines (strategy, append counts).
    pub fn explain(&self) -> String {
        let mut s = self.engine.explain(&self.plan).to_string();
        if !s.ends_with('\n') {
            s.push('\n');
        }
        let mode = match &self.kind {
            MaintainKind::Window(..) => "window incremental".to_string(),
            MaintainKind::TopK(_) => "top-k incremental".to_string(),
            MaintainKind::Never(reason, _) => format!("always recompute — {reason}"),
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
}

impl std::fmt::Debug for MaintainedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainedQuery")
            .field("incremental", &self.incremental_appends)
            .field("recompute", &self.recompute_appends)
            .finish()
    }
}

/// The row-wise prefix `pre` over `batch` alone, on the native method (the
/// only one that maintains): its contribution to the prefix over
/// everything appended.
fn prefix_over(pre: &Plan, batch: AuColumns) -> Result<AuColumns, SessionError> {
    Ok(Engine::Native.execute(&pre.with_table(Table::sealed(batch))?)?)
}

/// `engine`'s answer of `plan` over `source`, normalized: what a
/// subscription that is never maintained holds.
fn recompute(engine: Engine, plan: &Plan, source: &Arc<Table>) -> Result<AuColumns, SessionError> {
    Ok(engine
        .execute(&plan.with_table(Arc::clone(source))?)?
        .normalize()?)
}

/// Why a `what` subscription on `engine` is never maintained, if it is not.
fn native_only(what: &str, engine: Engine) -> Option<String> {
    (engine != Engine::Native)
        .then(|| format!("{what} maintenance requires the native backend (engine runs {engine})"))
}

/// The top-k answer over the band, normalized — refused as the engine
/// refuses a sort of the same rows under the same `k`.
fn topk_answer(m: &TopKMaintain) -> Result<AuColumns, SessionError> {
    let (band, k) = m.band();
    exec::check_output_rows(band.mult_ub().iter().copied(), Some(k))?;
    Ok(m.result().normalize()?)
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
    use audb_core::{KeyArena, RangeValue};
    use audb_rel::Schema;
    use std::collections::BTreeMap;
    use std::sync::Arc as StdArc;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// A key that tells tuples apart: every bound of every cell, through
    /// the `Value`-side encoder.
    fn row_key(t: &AuTuple) -> Vec<u8> {
        let mut keys = KeyArena::with_capacity(1, 3 * t.arity());
        for v in t.0.iter().flat_map(|r| [&r.lb, &r.sg, &r.ub]) {
            keys.extend_value(v);
        }
        keys.end_key();
        keys.key(0).to_vec()
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

    fn subscribe(rows: &[(AuTuple, Mult3)]) -> MaintainedQuery {
        let session = Session::new(Engine::native());
        session.register("s", rel_of(rows));
        session.subscribe(ROLLING_SQL).unwrap()
    }

    #[test]
    fn value_tracks_recompute_and_deltas_replay() {
        let rows = stream_rows(60, 5);
        let mut q = subscribe(&rows[..20]);
        let session = Session::new(Engine::native());
        // Replay target: every delta applied to the initial value, by key.
        let entries = |value: AuRelation| -> BTreeMap<Vec<u8>, (AuTuple, Mult3)> {
            (value.into_rows().into_iter())
                .map(|row| (row_key(&row.tuple), (row.tuple, row.mult)))
                .collect()
        };
        let mut replay = entries(q.value());
        let mut fed = 20;
        for chunk in rows[20..].chunks(7) {
            let delta = q.append(&rel_of(chunk)).unwrap();
            fed += chunk.len();
            for (t, m) in &delta.removed {
                let old = replay.remove(&row_key(t));
                assert_eq!(
                    old,
                    Some((t.clone(), *m)),
                    "removed at its old multiplicity"
                );
            }
            for (t, m) in &delta.added {
                let old = replay.insert(row_key(t), (t.clone(), *m));
                assert_eq!(old, None, "added over a live entry");
            }
            // Ground truth: full recompute over every row appended.
            session.register("s", rel_of(&rows[..fed]));
            let truth = session.sql(ROLLING_SQL).unwrap();
            let value = q.value();
            assert!(value.bag_eq(&truth), "value:\n{value}\ntruth:\n{truth}");
            assert_eq!(replay, entries(value), "deltas must replay to the value");
        }
        // The state is built at subscribe: an in-order stream never
        // recomputes.
        assert_eq!(q.strategy_counts(), (6, 0));
        let text = q.explain();
        assert!(text.contains("maintain: window incremental\n"), "{text}");
        assert!(
            text.contains("appends: 6 incremental, 0 recompute"),
            "{text}"
        );
        assert!(text.contains("last append: incremental (5 rows)"), "{text}");
    }

    #[test]
    fn out_of_order_appends_recompute_then_resume_incremental() {
        // A selection in front: the rebuild sweeps the rows it passed.
        let sql = format!("{ROLLING_SQL} WHERE v > -30");
        let rows = stream_rows(40, 3);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..24]));
        let mut q = session.subscribe(&sql).unwrap();
        let truth = |fed: &[(AuTuple, Mult3)]| {
            assert!(fed.iter().any(|(t, _)| t.0[1].ub.as_i64() < Some(-30)));
            session.register("s", rel_of(fed));
            session.sql(&sql).unwrap()
        };
        assert_eq!(
            q.append(&rel_of(&rows[24..30])).unwrap().strategy,
            Strategy::Incremental,
            "subscribe built the state"
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
        assert!(q
            .value()
            .bag_eq(&truth(&[&rows[..34], &overlap[..]].concat())));
        // …but is not sticky: the next in-order batch is incremental again.
        assert_eq!(
            q.append(&rel_of(&rows[34..38])).unwrap().strategy,
            Strategy::Incremental
        );
        assert!(q
            .value()
            .bag_eq(&truth(&[&rows[..38], &overlap[..]].concat())));
    }

    /// In-order appends that carry duplicate multiplicities — a row of
    /// `k↑ = 2`, a row stored twice — are absorbed by the live sweep, and
    /// the value is the engine's over the accumulated table.
    #[test]
    fn in_order_duplicates_are_maintained() {
        let rows = stream_rows(40, 17);
        let mut q = subscribe(&rows[..20]);
        let session = Session::new(Engine::native());
        let mut fed = rows[..20].to_vec();
        for (i, chunk) in rows[20..].chunks(5).enumerate() {
            let mut batch = chunk.to_vec();
            batch[0].1 = [Mult3::new(2, 2, 2), Mult3::new(0, 1, 2)][i % 2];
            batch.push(batch[3].clone());
            let delta = q.append(&rel_of(&batch)).unwrap();
            assert_eq!(delta.strategy, Strategy::Incremental, "batch {i}");
            fed.extend(batch);
            session.register("s", rel_of(&fed));
            assert!(q.value().bag_eq(&session.sql(ROLLING_SQL).unwrap()));
        }
        assert!(
            q.explain().contains("window incremental"),
            "{}",
            q.explain()
        );
    }

    #[test]
    fn topk_subscription_accepts_any_order() {
        let rows = stream_rows(50, 23);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..20]));
        let sql = "SELECT * FROM s ORDER BY v AS rank LIMIT 5";
        let mut q = session.subscribe(sql).unwrap();
        // Appends in reverse order: top-k maintenance has no frontier.
        let mut chunks: Vec<&[(AuTuple, Mult3)]> = rows[20..].chunks(6).collect();
        chunks.reverse();
        let mut saw_incremental = false;
        let mut fed = rows[..20].to_vec();
        for chunk in chunks {
            let d = q.append(&rel_of(chunk)).unwrap();
            saw_incremental |= d.strategy == Strategy::Incremental;
            fed.extend_from_slice(chunk);
            session.register("s", rel_of(&fed));
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
        let mut fed: Vec<_> = (10..20).map(|a| row(a, Mult3::ONE)).collect();
        session.register("s", AuRelation::from_rows(schema.clone(), fed.clone()));
        let sql = "SELECT * FROM s ORDER BY a AS pos LIMIT 3";
        let mut q = session.subscribe(sql).unwrap();
        let huge = row(1, Mult3::new(0, 0, 1 << 63));
        for _ in 0..2 {
            q.append(&AuRelation::from_rows(schema.clone(), [huge.clone()]))
                .unwrap();
            fed.push(huge.clone());
            session.register("s", AuRelation::from_rows(schema.clone(), fed.clone()));
            let truth = session.sql(sql).unwrap();
            assert!(q.value().bag_eq(&truth), "{}\nvs\n{truth}", q.value());
        }
        assert_eq!(q.strategy_counts(), (2, 0));
    }

    #[test]
    fn non_maintainable_and_non_native_shapes_always_recompute() {
        let rows = stream_rows(20, 29);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..10]));
        // Final op is a plain sort — not maintainable.
        let mut q = session
            .subscribe("SELECT * FROM s ORDER BY o AS p")
            .unwrap();
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
        let mut q = ref_session.subscribe(ROLLING_SQL).unwrap();
        assert_eq!(
            q.append(&rel_of(&rows[10..15])).unwrap().strategy,
            Strategy::Recompute
        );
        assert!(q.explain().contains("requires the native backend"));
        let check = Session::new(Engine::reference());
        check.register("s", rel_of(&rows[..15]));
        assert!(q.value().bag_eq(&check.sql(ROLLING_SQL).unwrap()));
    }

    /// A subscription that is never maintained grows its table as the
    /// catalog grows one: each append shares every sealed segment and makes
    /// one new one (the open tail plus the batch), across the seal, and a
    /// recompute binds the plan to that handle.
    #[test]
    fn a_recompute_subscription_grows_its_table_like_the_catalog() {
        let rows = stream_rows(2 * crate::SEGMENT_ROWS + 200, 37);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..10]));
        let accum = |q: &MaintainedQuery| match &q.kind {
            MaintainKind::Never(_, accum) => Arc::clone(accum),
            _ => unreachable!("a maintained subscription keeps no table"),
        };
        let mut q = session.subscribe("SELECT * FROM s WHERE v < 40").unwrap();
        let mut fed = 10;
        for size in [
            1,
            700,
            crate::SEGMENT_ROWS - 600,
            crate::SEGMENT_ROWS + 1,
            3,
            64,
        ] {
            let before = accum(&q);
            q.append(&rel_of(&rows[fed..fed + size])).unwrap();
            fed += size;
            let after = accum(&q);
            assert_eq!(after.len(), fed);
            let sealed = after.segments().len() - 1;
            assert!(sealed + 1 >= before.segments().len());
            for (old, new) in before.segments().iter().zip(&after.segments()[..sealed]) {
                assert!(Arc::ptr_eq(old, new), "{size} rows copied a sealed segment");
            }
        }
        let grown = accum(&q);
        assert!(grown.segments().len() >= 4, "the seal was crossed");
        let bound = q.plan().with_table(Arc::clone(&grown)).unwrap();
        assert!(Arc::ptr_eq(bound.source_columns(), &grown));
        session.register("s", rel_of(&rows[..fed]));
        let truth = session.sql("SELECT * FROM s WHERE v < 40").unwrap();
        assert!(q.value().bag_eq(&truth));
    }

    #[test]
    fn append_rejects_mismatched_schemas() {
        let rows = stream_rows(10, 31);
        let mut q = subscribe(&rows);
        let bad = AuRelation::empty(Schema::new(["o", "v", "extra"]));
        let e = q.append(&bad).unwrap_err();
        assert_eq!(e.kind(), "schema_mismatch");
        // Pre-oped plans survive: the subscription still answers.
        let _ = StdArc::new(q.value());
    }
}
