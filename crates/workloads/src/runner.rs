//! The compared methods: run each algorithm of Sec. 9 on an x-tuple
//! workload and extract per-input-tuple answer bounds plus wall-clock time.
//!
//! A [`Method`] is one value per method (`Det`, `Imp`, `Rewr`, `MCDB`,
//! `Symb`, `PT-k`), run over one sort query ([`RankQuery`]) and one window
//! query ([`WindowQuery`]). Every method consumes the *same* x-tuple table
//! (deriving whatever representation it needs — the AU-DB for
//! `Imp`/`Rewr`, the most likely world for `Det`, samples for `MCDB`), and
//! returns `Vec<Option<(f64, f64)>>` of per-x-tuple bounds keyed by the
//! table's trailing `id` attribute, ready for [`crate::metrics`].
//!
//! The engine methods (`Det`, `Imp`, `Rewr`) are driven exclusively
//! through the unified [`audb_engine`] API: each builds one logical plan
//! and executes it on the corresponding method, so the plan construction
//! (order columns, position/aggregate output names, top-k capping) is
//! written once and shared with the examples and benchmarks. `Det` runs
//! `Imp`'s plan and kernels over the selected-guess world, lifted to a
//! certain AU-DB, and reads the `Sg` corner as its point answer.

use crate::real::{RankQuery, WindowQuery};
use audb_competitors::{mcdb_sort_bounds, mcdb_window_bounds, ptk_topk_probs, symb_sort_bounds};
use audb_core::{AuColumns, AuRelation, Corner, WinAgg};
use audb_engine::{
    exec, Engine, JoinStrategy, Plan, Query, Rewrite, Session, SessionError,
    WindowSpec as EngineWindowSpec,
};
use audb_rel::Value;
use audb_worlds::{WindowTruth, XTupleTable};
use std::time::{Duration, Instant};

/// A timed result.
#[derive(Debug)]
pub struct Timed<T> {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The produced value.
    pub value: T,
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed {
        elapsed: start.elapsed(),
        value,
    }
}

/// Per-x-tuple `[lo, hi]` bounds as floats (`None` = no answer for that
/// input tuple, e.g. filtered out of a top-k).
pub type Bounds = Vec<Option<(f64, f64)>>;

fn val_f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The AU methods' answer: the range between the lower and upper corner.
const RANGE: (Corner, Corner) = (Corner::Lb, Corner::Ub);

/// `Det`'s answer: the selected-guess corner, as a point.
const POINT: (Corner, Corner) = (Corner::Sg, Corner::Sg);

/// Extract per-id bounds from an AU sort/window output, as the engine
/// returns it: `id_col` holds the certain provenance id, `val_col` the
/// range-annotated answer, both read from their lanes, the answer between
/// its corners `lo` and `hi`. Multiple rows per id (duplicates) hull
/// together.
pub fn au_bounds_by_id(
    out: &AuColumns,
    id_col: usize,
    val_col: usize,
    n: usize,
    (lo, hi): (Corner, Corner),
) -> Bounds {
    let mut bounds: Bounds = vec![None; n];
    let ids = out.col(id_col).corner(Corner::Sg);
    let (los, his) = (out.col(val_col).corner(lo), out.col(val_col).corner(hi));
    for row in (0..out.len()).filter(|&row| !out.mult(row).is_zero()) {
        let id = ids.value(row).as_i64().expect("certain id") as usize;
        let (lo, hi) = (val_f(&los.value(row)), val_f(&his.value(row)));
        bounds[id] = Some(match bounds[id] {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }
    bounds
}

// ---------------------------------------------------------------- plans

/// The most likely world of `table` — the paper's selected-guess world —
/// as a certain AU-DB: what `Det` runs the engine's kernels over.
pub fn selected_guess(table: &XTupleTable) -> AuRelation {
    AuRelation::certain(&table.most_likely_world())
}

/// Build the shared sort / top-k plan over `rel` (a table's derived AU-DB,
/// or its [`selected_guess`]). Written once for every engine method (and
/// reused by the perf bench): positions land in a trailing `"pos"` column;
/// `k` turns the sort into a top-k with position bounds capped at `k`.
pub fn sort_plan(rel: AuRelation, order: &[usize], k: Option<u64>) -> Plan {
    let q = Query::scan(rel).sort_by(order.iter().copied());
    let q = match k {
        Some(k) => q.topk(k),
        None => q,
    };
    q.build().expect("workload sort plan is valid")
}

/// Build the shared row-window plan over `rel`, as [`sort_plan`] does
/// (aggregate lands in a trailing `"x"` column).
pub fn window_plan(rel: AuRelation, order: &[usize], agg: WinAgg, l: i64, u: i64) -> Plan {
    Query::scan(rel)
        .window(
            EngineWindowSpec::rows(l, u)
                .order_by(order.iter().copied())
                .aggregate(agg)
                .output("x"),
        )
        .build()
        .expect("workload window plan is valid")
}

/// Drive a workload with a **textual** query: the table's derived AU-DB is
/// registered as `t` in a fresh session, the SQL is compiled against it
/// (inheriting every plan-validation check), executed on the engine's
/// backend, and per-id bounds are extracted from the trailing output
/// column — the same contract as [`Method`]'s engine methods, so scripted
/// and programmatic workloads are interchangeable.
pub fn sql_bounds(
    table: &XTupleTable,
    engine: Engine,
    sql: &str,
) -> Result<Timed<Bounds>, SessionError> {
    let session = Session::new(engine);
    session.register("t", table.to_au_relation());
    let prepared = session.prepare(sql)?;
    let id_col = table.schema.arity() - 1;
    let n_ids = prepared.plan().source_columns().len() + 1;
    let run = time(|| session.engine().execute(prepared.plan()));
    let out = run.value?;
    Ok(Timed {
        elapsed: run.elapsed,
        value: au_bounds_by_id(&out, id_col, out.arity() - 1, n_ids, RANGE),
    })
}

/// One plan on the rewrite oracle under an explicit window join
/// `strategy`.
pub fn rewrite_execute(plan: &Plan, strategy: JoinStrategy) -> AuColumns {
    let run = exec::run_materialized(&Rewrite { strategy }, plan, &());
    run.expect("workload plan executes")
}

// ---------------------------------------------------------------- methods

/// The seed `MCDB` draws its worlds from, in every figure.
const MCDB_SEED: u64 = 1;

/// How many joint outcomes `Symb`'s window enumerates per x-tuple before
/// it reports the tuple as skipped (`None`).
const SYMB_ENUM_CAP: u128 = 1 << 22;

/// One compared method of Sec. 9: what a column of Figs. 11–19 runs. Each
/// runs on a [`RankQuery`] ([`Method::sort`]) and a [`WindowQuery`]
/// ([`Method::window`]) over the *same* x-tuple table, deriving whatever
/// representation it needs, and answers per-x-tuple [`Bounds`] keyed by
/// the table's trailing `id` attribute, ready for [`crate::metrics`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// The native kernels over the [`selected_guess`] world, lifted to a
    /// certain AU-DB; its answers are points, the `Sg` corner (for certain
    /// input a window `AVG`'s range is the frame's `[min, max]`, its
    /// selected guess the average).
    Det,
    /// The native one-pass sort / top-k / window over the derived AU-DB.
    Imp,
    /// The Fig. 7 / Fig. 8 rewrite on the row oracle, its window self-join
    /// under the given strategy (a sort has no join): `NestedLoop` is the
    /// paper's plain `Rewr`, `IntervalIndex` its `Rewr(index)` and what
    /// `Engine::rewrite()` runs.
    Rewr(JoinStrategy),
    /// Envelopes over `samples` worlds drawn from one fixed seed. A sort's
    /// positions are enveloped over the whole sort, the query's `k` aside.
    Mcdb {
        /// Sampled worlds.
        samples: usize,
    },
    /// Exact bounds: pairwise precedence reasoning for a sort (the query's
    /// `k` aside), capped local enumeration for a window (an x-tuple past
    /// the cap is `None`).
    Symb,
    /// PT-k: each x-tuple's `Pr[t ∈ top-k]`, as a point, `None` where it is
    /// 0 (not a possible answer). Its `k`, when given, replaces the
    /// query's; with neither, every x-tuple is in the top `n`. No window
    /// answer.
    PtK {
        /// The `k` this method ranks for, if not the query's.
        k: Option<u64>,
    },
}

impl Method {
    /// The method's name, as the figures' headers print it.
    pub fn name(self) -> String {
        match self {
            Method::Det => "Det".into(),
            Method::Imp => "Imp".into(),
            Method::Rewr(JoinStrategy::NestedLoop) => "Rewr".into(),
            Method::Rewr(JoinStrategy::IntervalIndex) => "Rewr(index)".into(),
            Method::Mcdb { samples } => format!("MCDB{samples}"),
            Method::Symb => "Symb".into(),
            Method::PtK { k: None } => "PT-k".into(),
            Method::PtK { k: Some(k) } => format!("PT-k(k={k})"),
        }
    }

    /// Run the sort / top-k `q`, timed.
    pub fn sort(self, q: &RankQuery) -> Timed<Bounds> {
        let (table, order) = (&q.table, &q.order[..]);
        let positions = |bounds: Vec<Option<(u64, u64)>>| -> Bounds {
            let float = |b: Option<(u64, u64)>| b.map(|(lo, hi)| (lo as f64, hi as f64));
            bounds.into_iter().map(float).collect()
        };
        match self {
            Method::Det | Method::Imp | Method::Rewr(_) => {
                self.run_engine(table, |rel| sort_plan(rel, order, q.k))
            }
            Method::Mcdb { samples } => {
                time(|| positions(mcdb_sort_bounds(table, order, samples, MCDB_SEED)))
            }
            Method::Symb => time(|| positions(symb_sort_bounds(table, order))),
            Method::PtK { k } => {
                let k = k.or(q.k).unwrap_or(table.len() as u64);
                let point = |p: f64| (p > 0.0).then_some((p, p));
                time(|| {
                    ptk_topk_probs(table, order, k)
                        .into_iter()
                        .map(point)
                        .collect()
                })
            }
        }
    }

    /// Run the window `q`, timed; `None` for PT-k, which has no window
    /// answer.
    pub fn window(self, q: &WindowQuery) -> Option<Timed<Bounds>> {
        let (table, order, agg, l, u) = (&q.table, &q.order[..], q.agg, q.l, q.u);
        let floats = |(lo, hi): (Value, Value)| (val_f(&lo), val_f(&hi));
        Some(match self {
            Method::Det | Method::Imp | Method::Rewr(_) => {
                self.run_engine(table, |rel| window_plan(rel, order, agg, l, u))
            }
            Method::Mcdb { samples } => time(|| {
                let bounds = mcdb_window_bounds(table, order, agg, l, u, samples, MCDB_SEED);
                bounds.into_iter().map(|b| b.map(floats)).collect()
            }),
            Method::Symb => time(|| {
                let truth =
                    audb_worlds::exact_window_bounds(table, order, agg, l, u, SYMB_ENUM_CAP);
                let exact = |t: Option<WindowTruth>| match t? {
                    WindowTruth::Exact(lo, hi) => Some(floats((lo, hi))),
                    WindowTruth::Skipped => None,
                };
                truth.into_iter().map(exact).collect()
            }),
            Method::PtK { .. } => return None,
        })
    }

    /// Whether the timed figures run `self` on the sort `q`: the exact
    /// methods stop at 60 000 rows. ROADMAP item 1's per-cell wall budget
    /// goes here and in [`Method::fits_window`].
    pub fn fits_sort(self, q: &RankQuery) -> bool {
        !matches!(self, Method::Symb | Method::PtK { .. }) || q.table.len() <= 60_000
    }

    /// Whether the timed figures run `self` on the window `q`: `Rewr` and
    /// `Symb` stop at 20 000 rows, and `Symb` enumerates local frames only
    /// ([`WindowQuery::is_local`]).
    pub fn fits_window(self, q: &WindowQuery) -> bool {
        let rows = q.table.len();
        match self {
            Method::Rewr(_) => rows <= 20_000,
            Method::Symb => rows <= 20_000 && q.is_local(),
            _ => true,
        }
    }

    /// Time one execution of an engine method's plan, built by `plan` over
    /// `table`'s derived AU-DB (`Det`: its selected-guess world) outside the
    /// timed closure, extracting per-id bounds of the trailing output
    /// column, one slot per id of the table: the `[Lb, Ub]` range, `Det`'s
    /// `Sg` point.
    fn run_engine(
        self,
        table: &XTupleTable,
        plan: impl FnOnce(AuRelation) -> Plan,
    ) -> Timed<Bounds> {
        let (plan, corners) = match self {
            Method::Det => (plan(selected_guess(table)), POINT),
            _ => (plan(table.to_au_relation()), RANGE),
        };
        let (id_col, n_ids) = (table.schema.arity() - 1, table.len() + 1);
        time(move || {
            let out = match self {
                Method::Rewr(strategy) => rewrite_execute(&plan, strategy),
                _ => Engine::Native
                    .execute(&plan)
                    .expect("workload plan executes"),
            };
            au_bounds_by_id(&out, id_col, out.arity() - 1, n_ids, corners)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Method::*;
    use super::*;
    use crate::metrics::aggregate_quality;
    use crate::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};

    fn pairs(approx: &Bounds, tight: &Bounds) -> Vec<((f64, f64), (f64, f64))> {
        approx
            .iter()
            .zip(tight)
            .filter_map(|(a, t)| Some(((*a)?, (*t)?)))
            .collect()
    }

    /// A sort / top-k on `(a, b)`, as the synthetic sort tables are ranked.
    fn sorted(table: XTupleTable, k: Option<u64>) -> RankQuery {
        let order = vec![0, 1];
        RankQuery { table, order, k }
    }

    /// `SUM(v)` over the two preceding rows and the current one, on `o`.
    fn sums(table: XTupleTable) -> WindowQuery {
        let (order, agg) = (vec![0], WinAgg::Sum(2));
        WindowQuery {
            table,
            order,
            agg,
            l: -2,
            u: 0,
        }
    }

    /// End-to-end sanity: on a small synthetic workload the AU bounds cover
    /// the exact bounds (recall 1), MCDB's envelopes are inside them
    /// (recall ≤ 1, accuracy ≤ 1), and `Symb` is exact.
    #[test]
    fn sort_quality_relationships() {
        let cfg = SyntheticConfig::default().rows(300).seed(9);
        let q = sorted(gen_sort_table(&cfg), None);
        let tight = Symb.sort(&q).value;
        let imp = Imp.sort(&q).value;
        let rewr = Rewr(JoinStrategy::IntervalIndex).sort(&q).value;
        let mc = Mcdb { samples: 10 }.sort(&q).value;

        assert_eq!(imp, rewr, "Imp and Rewr produce identical bounds");
        let qi = aggregate_quality(pairs(&imp, &tight));
        assert!(qi.recall > 0.999, "AU bounds over-approximate: {qi:?}");
        assert!(qi.range_ratio >= 1.0 - 1e-9);
        let qm = aggregate_quality(pairs(&mc, &tight));
        assert!(
            qm.range_ratio <= 1.0 + 1e-9,
            "MCDB under-approximates: {qm:?}"
        );
        let qs = aggregate_quality(pairs(&tight, &tight));
        assert!((qs.accuracy - 1.0).abs() < 1e-9);
    }

    /// With declared ranges (the default generator) the AU bounds are
    /// strictly looser than the truth but still cover it; with declared
    /// ranges stripped (AU = alternative hull) the position bounds are
    /// exactly tight on single-attribute uncertainty.
    #[test]
    fn imp_sort_bounds_tight_iff_hull() {
        let cfg = SyntheticConfig::default().rows(200).seed(4);
        let q = sorted(gen_sort_table(&cfg), None);
        let tight = Symb.sort(&q).value;
        let loose = Imp.sort(&q).value;
        let ql = aggregate_quality(pairs(&loose, &tight));
        assert!(ql.recall > 0.999 && ql.range_ratio >= 1.0, "{ql:?}");

        let mut hull = q;
        for xt in &mut hull.table.tuples {
            xt.declared = None;
        }
        let imp = Imp.sort(&hull).value;
        let q = aggregate_quality(pairs(&imp, &tight));
        assert!(
            (q.accuracy - 1.0).abs() < 1e-9,
            "expected exact bounds, got {q:?}"
        );
    }

    /// Scripted and programmatic workloads are interchangeable: the same
    /// ranking / window queries issued as SQL text produce exactly the
    /// bounds of the builder-driven methods.
    #[test]
    fn sql_driver_matches_builder_drivers() {
        let cfg = SyntheticConfig::default().rows(120).seed(7);
        let t = gen_sort_table(&cfg);
        let sql = sql_bounds(
            &t,
            Engine::native(),
            "SELECT * FROM t ORDER BY a, b LIMIT 5",
        )
        .expect("sql sort runs")
        .value;
        let built = Imp.sort(&sorted(t.clone(), Some(5))).value;
        assert_eq!(sql, built, "SQL top-k ≡ builder top-k");

        let w = gen_window_table(&cfg);
        let sql = sql_bounds(
            &w,
            Engine::rewrite(),
            "SELECT *, SUM(v) OVER (ORDER BY o ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) \
             AS x FROM t",
        )
        .expect("sql window runs")
        .value;
        let built = Rewr(JoinStrategy::IntervalIndex).window(&sums(w));
        let built = built.unwrap().value;
        assert_eq!(sql, built, "SQL window ≡ builder window");

        // Validation errors surface as structured SessionErrors.
        let err = sql_bounds(&t, Engine::native(), "SELECT * FROM t ORDER BY nope").unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
    }

    #[test]
    fn window_bounds_cover_truth() {
        let cfg = SyntheticConfig::default().rows(150).seed(11);
        let w = sums(gen_window_table(&cfg));
        let tight = Symb.window(&w).unwrap().value;
        let imp = Imp.window(&w).unwrap().value;
        let q = aggregate_quality(pairs(&imp, &tight));
        assert!(q.recall > 0.999, "AU window bounds must cover truth: {q:?}");
        assert!(q.range_ratio >= 1.0 - 1e-9);
        let mc = Mcdb { samples: 10 }.window(&w).unwrap().value;
        let qm = aggregate_quality(pairs(&mc, &tight));
        assert!(qm.range_ratio <= 1.0 + 1e-9, "{qm:?}");
    }
}
