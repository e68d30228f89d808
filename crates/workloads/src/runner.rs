//! Method drivers: run each compared algorithm on an x-tuple workload and
//! extract per-input-tuple answer bounds plus wall-clock time.
//!
//! Every driver follows the same contract: it consumes the *same* x-tuple
//! table (deriving whatever representation its method needs — the AU-DB for
//! `Imp`/`Rewr`, the most likely world for `Det`, samples for `MCDB`), and
//! returns `Vec<Option<(f64, f64)>>` of per-x-tuple bounds keyed by the
//! table's trailing `id` attribute, ready for [`crate::metrics`].
//!
//! The engine methods (`Det`, `Imp`, `Rewr`) are driven exclusively
//! through the unified [`audb_engine`] API: each driver builds one logical
//! plan and executes it on the corresponding method, so the plan
//! construction (order columns, position/aggregate output names, top-k
//! capping) is written once and shared with the examples and benchmarks.
//! `Det` runs `Imp`'s plan and kernels over the selected-guess world, lifted
//! to a certain AU-DB, and reads the `Sg` corner as its point answer.

use audb_core::{AuColumns, AuRelation, Corner, WinAgg};
use audb_engine::{
    exec, Agg, Engine, JoinStrategy, Plan, Query, Rewrite, Session, SessionError,
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

// ---------------------------------------------------------------- sorting

/// The most likely world of `table` — the paper's selected-guess world —
/// as a certain AU-DB: what `Det` runs the engine's kernels over.
pub fn selected_guess(table: &XTupleTable) -> AuRelation {
    AuRelation::certain(&table.most_likely_world())
}

/// Build the shared sort / top-k plan over `rel` (a table's derived AU-DB,
/// or its [`selected_guess`]). Written once for every method driver (and
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
                .aggregate(Agg::from(agg))
                .output("x"),
        )
        .build()
        .expect("workload window plan is valid")
}

/// Time one engine execution of a sort/window plan over `table`,
/// extracting per-id bounds between `corners` of the trailing output
/// column, one slot per id of the table. The plan is built by the caller,
/// outside the timed closure.
fn engine_bounds(
    engine: Engine,
    plan: &Plan,
    table: &XTupleTable,
    corners: (Corner, Corner),
) -> Timed<Bounds> {
    let (id_col, n_ids) = (table.schema.arity() - 1, table.len() + 1);
    time(move || {
        let out = engine.execute(plan).expect("workload plan executes");
        au_bounds_by_id(&out, id_col, out.arity() - 1, n_ids, corners)
    })
}

/// Drive a workload with a **textual** query: the table's derived AU-DB is
/// registered as `t` in a fresh session, the SQL is compiled against it
/// (inheriting every plan-validation check), executed on the engine's
/// backend, and per-id bounds are extracted from the trailing output
/// column — the same contract as the builder-driven drivers, so scripted
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

/// `Det`: the native sort / top-k over the selected-guess world; the
/// positions (certain there) are point "bounds".
pub fn det_sort(table: &XTupleTable, order: &[usize], k: Option<u64>) -> Timed<Bounds> {
    let plan = sort_plan(selected_guess(table), order, k);
    engine_bounds(Engine::Native, &plan, table, POINT)
}

/// `Imp`: the native one-pass sort / top-k over the derived AU-DB.
pub fn imp_sort(table: &XTupleTable, order: &[usize], k: Option<u64>) -> Timed<Bounds> {
    let plan = sort_plan(table.to_au_relation(), order, k);
    engine_bounds(Engine::Native, &plan, table, RANGE)
}

/// `Rewr`: the Fig. 7 rewrite.
pub fn rewrite_sort(table: &XTupleTable, order: &[usize], k: Option<u64>) -> Timed<Bounds> {
    let plan = sort_plan(table.to_au_relation(), order, k);
    engine_bounds(Engine::Rewrite, &plan, table, RANGE)
}

/// `MCDB`: sampled position envelopes.
pub fn mcdb_sort(table: &XTupleTable, order: &[usize], samples: usize, seed: u64) -> Timed<Bounds> {
    time(|| {
        audb_competitors::mcdb_sort_bounds(table, order, samples, seed)
            .into_iter()
            .map(|b| b.map(|(lo, hi)| (lo as f64, hi as f64)))
            .collect()
    })
}

/// `Symb`: exact tight position bounds (quadratic pairwise reasoning).
pub fn symb_sort(table: &XTupleTable, order: &[usize]) -> Timed<Bounds> {
    time(|| {
        audb_competitors::symb_sort_bounds(table, order)
            .into_iter()
            .map(|b| b.map(|(lo, hi)| (lo as f64, hi as f64)))
            .collect()
    })
}

/// `PT-k`: certain/possible top-k membership (returns the two answer sets'
/// sizes packed as bounds is meaningless — expose the probabilities
/// instead; timing is what the perf figures need).
pub fn ptk_sort(table: &XTupleTable, order: &[usize], k: u64) -> Timed<Vec<f64>> {
    time(|| audb_competitors::ptk_topk_probs(table, order, k))
}

// ---------------------------------------------------------------- windows

/// `Det`: the native window over the selected-guess world, its aggregate
/// (the `Sg` corner: for certain input an `AVG`'s range is the frame's
/// `[min, max]`, its selected guess the average) as a point "bound".
pub fn det_window(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
) -> Timed<Bounds> {
    let plan = window_plan(selected_guess(table), order, agg, l, u);
    engine_bounds(Engine::Native, &plan, table, POINT)
}

/// `Imp`: the native one-pass window algorithm.
pub fn imp_window(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
) -> Timed<Bounds> {
    let plan = window_plan(table.to_au_relation(), order, agg, l, u);
    engine_bounds(Engine::Native, &plan, table, RANGE)
}

/// `Rewr` / `Rewr(index)`: the Fig. 8 rewrite. The engine's rewrite
/// backend always probes the interval index; the strategy is the figure's
/// argument, so this driver hands the plan to the row oracles' runner itself
/// under the [`Rewrite`] backend it names.
pub fn rewrite_window(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
    strategy: JoinStrategy,
) -> Timed<Bounds> {
    let plan = window_plan(table.to_au_relation(), order, agg, l, u);
    let (id_col, n_ids) = (table.schema.arity() - 1, table.len() + 1);
    time(|| {
        let out = rewrite_execute(&plan, strategy);
        au_bounds_by_id(&out, id_col, out.arity() - 1, n_ids, RANGE)
    })
}

/// One plan on the rewrite oracle under an explicit window join
/// `strategy`.
pub fn rewrite_execute(plan: &Plan, strategy: JoinStrategy) -> AuColumns {
    let run = exec::run_materialized(&Rewrite { strategy }, plan, &());
    run.expect("workload plan executes")
}

/// `MCDB`: sampled window-aggregate envelopes.
pub fn mcdb_window(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
    samples: usize,
    seed: u64,
) -> Timed<Bounds> {
    time(|| {
        audb_competitors::mcdb_window_bounds(table, order, agg, l, u, samples, seed)
            .into_iter()
            .map(|b| b.map(|(lo, hi)| (val_f(&lo), val_f(&hi))))
            .collect()
    })
}

/// `Symb`: exact window bounds by capped local enumeration. Skipped tuples
/// become `None`.
pub fn symb_window(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
    enum_cap: u128,
) -> Timed<Bounds> {
    time(|| {
        audb_worlds::exact_window_bounds(table, order, agg, l, u, enum_cap)
            .into_iter()
            .map(|b| match b {
                Some(WindowTruth::Exact(lo, hi)) => Some((val_f(&lo), val_f(&hi))),
                _ => None,
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
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

    /// End-to-end sanity: on a small synthetic workload the AU bounds cover
    /// the exact bounds (recall 1), MCDB's envelopes are inside them
    /// (recall ≤ 1, accuracy ≤ 1), and `Symb` is exact.
    #[test]
    fn sort_quality_relationships() {
        let cfg = SyntheticConfig::default().rows(300).seed(9);
        let t = gen_sort_table(&cfg);
        let order = [0usize, 1];
        let tight = symb_sort(&t, &order).value;
        let imp = imp_sort(&t, &order, None).value;
        let rewr = rewrite_sort(&t, &order, None).value;
        let mc = mcdb_sort(&t, &order, 10, 1).value;

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
    /// exactly tight on single-attribute uncertainty (DESIGN.md §3.6).
    #[test]
    fn imp_sort_bounds_tight_iff_hull() {
        let cfg = SyntheticConfig::default().rows(200).seed(4);
        let t = gen_sort_table(&cfg);
        let order = [0usize, 1];
        let tight = symb_sort(&t, &order).value;
        let loose = imp_sort(&t, &order, None).value;
        let ql = aggregate_quality(pairs(&loose, &tight));
        assert!(ql.recall > 0.999 && ql.range_ratio >= 1.0, "{ql:?}");

        let mut hull = t.clone();
        for xt in &mut hull.tuples {
            xt.declared = None;
        }
        let imp = imp_sort(&hull, &order, None).value;
        let q = aggregate_quality(pairs(&imp, &tight));
        assert!(
            (q.accuracy - 1.0).abs() < 1e-9,
            "expected exact bounds, got {q:?}"
        );
    }

    /// Scripted and programmatic workloads are interchangeable: the same
    /// ranking / window queries issued as SQL text produce exactly the
    /// bounds of the builder-driven drivers.
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
        let built = imp_sort(&t, &[0, 1], Some(5)).value;
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
        let built =
            rewrite_window(&w, &[0], WinAgg::Sum(2), -2, 0, JoinStrategy::IntervalIndex).value;
        assert_eq!(sql, built, "SQL window ≡ builder window");

        // Validation errors surface as structured SessionErrors.
        let err = sql_bounds(&t, Engine::native(), "SELECT * FROM t ORDER BY nope").unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
    }

    #[test]
    fn window_bounds_cover_truth() {
        let cfg = SyntheticConfig::default().rows(150).seed(11);
        let t = gen_window_table(&cfg);
        let order = [0usize];
        let tight = symb_window(&t, &order, WinAgg::Sum(2), -2, 0, 1 << 22).value;
        let imp = imp_window(&t, &order, WinAgg::Sum(2), -2, 0).value;
        let q = aggregate_quality(pairs(&imp, &tight));
        assert!(q.recall > 0.999, "AU window bounds must cover truth: {q:?}");
        assert!(q.range_ratio >= 1.0 - 1e-9);
        let mc = mcdb_window(&t, &order, WinAgg::Sum(2), -2, 0, 10, 3).value;
        let qm = aggregate_quality(pairs(&mc, &tight));
        assert!(qm.range_ratio <= 1.0 + 1e-9, "{qm:?}");
    }
}
