//! One function per table/figure of the paper's evaluation (Sec. 8.2 +
//! Sec. 9). Each prints the paper's reported numbers (where the paper gives
//! concrete values) next to our measurements; for plot-only figures the
//! measured series is printed with the expected qualitative shape stated in
//! the header. Absolute times differ (different hardware and engine); the
//! *shapes* — who wins, by what factor, where crossovers happen — are the
//! reproduction target (`repro all` prints both side by side).
//!
//! A figure of Sec. 9 is its sweep of queries times its list of
//! [`Method`]s: a method's column is headed by its name, and a timed cell
//! reads `skipped` where the method does not fit the query
//! ([`Method::fits_sort`], [`Method::fits_window`]).

use crate::heaps::{heaps_experiment, REPLAYS};
use crate::table::{fmt_ms, fmt_q, Table};
use audb_core::WinAgg;
use audb_engine::{Agg, Engine, JoinStrategy, Query, WindowSpec};
use audb_workloads::metrics::{aggregate_quality, QualityStats};
use audb_workloads::runner::{self, Bounds, Method, Method::*};
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
use audb_workloads::{all_datasets, RankQuery, WindowQuery};
use std::iter::once;
use std::time::Duration;

/// Global options for a repro run.
#[derive(Clone, Copy, Debug)]
pub struct ReproOptions {
    /// Scale factor on the paper's data sizes (1.0 = paper sizes; the
    /// default CLI uses 0.1 to keep a full run in minutes).
    pub scale: f64,
    /// Shrink sweeps to their endpoints for a quick smoke run.
    pub quick: bool,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            scale: 0.1,
            quick: false,
        }
    }
}

fn n_scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(256)
}

fn pairs(approx: &Bounds, tight: &Bounds) -> Vec<((f64, f64), (f64, f64))> {
    approx
        .iter()
        .zip(tight)
        .filter_map(|(a, t)| Some(((*a)?, (*t)?)))
        .collect()
}

fn quality(approx: &Bounds, tight: &Bounds) -> QualityStats {
    aggregate_quality(pairs(approx, tight))
}

/// Accuracy and recall, as Figs. 18 and 19 print them.
fn acc_rec(q: QualityStats) -> String {
    format!("{}/{}", fmt_q(q.accuracy), fmt_q(q.recall))
}

const MC10: Method = Mcdb { samples: 10 };
const MC20: Method = Mcdb { samples: 20 };
/// The paper's plain `Rewr`: its window self-join is a nested loop.
const REWR: Method = Rewr(JoinStrategy::NestedLoop);
const REWR_INDEX: Method = Rewr(JoinStrategy::IntervalIndex);

/// A swept parameter: every value, and the ones a `--quick` run keeps.
struct Sweep<T: 'static> {
    full: &'static [T],
    quick: &'static [T],
}

impl<T> Sweep<T> {
    fn values(&self, opts: ReproOptions) -> &'static [T] {
        if opts.quick {
            self.quick
        } else {
            self.full
        }
    }
}

const UNCERTAINTY: Sweep<f64> = Sweep {
    full: &[0.01, 0.03, 0.05, 0.07, 0.09],
    quick: &[0.01, 0.09],
};
const RANGE: Sweep<i64> = Sweep {
    full: &[500, 1_000, 2_000, 3_000, 4_000, 5_000],
    quick: &[500, 5_000],
};
/// Sizes the exact and quadratic methods still run at.
const SMALL: Sweep<usize> = Sweep {
    full: &[256, 512, 1024, 2048, 4096],
    quick: &[256, 1024],
};
/// Sizes for the scalable methods only.
const LARGE: Sweep<usize> = Sweep {
    full: &[1024, 4096, 16_384, 65_536],
    quick: &[1024, 4096],
};

/// A Figs. 11 / 16 configuration: `rows` rows generated from `seed`, and its
/// label, `r=…k,u=…%`.
fn config(rows: usize, seed: u64, range: i64, uncert: f64) -> (String, SyntheticConfig) {
    let label = format!(
        "r={}k,u={}%",
        range / 1_000,
        (uncert * 100.0).round() as i64
    );
    let cfg = SyntheticConfig::default().rows(rows).range(range);
    (label, cfg.uncertainty(uncert).seed(seed))
}

/// The synthetic sort / top-k: ascending on `(a, b)`.
fn sort_query(cfg: &SyntheticConfig, k: Option<u64>) -> RankQuery {
    let (table, order) = (gen_sort_table(cfg), vec![0, 1]);
    RankQuery { table, order, k }
}

/// The synthetic window: `SUM(v)` over `-l` preceding rows and the current
/// one, on `o`.
fn sum_query(cfg: &SyntheticConfig, l: i64) -> WindowQuery {
    let (table, order, agg) = (gen_window_table(cfg), vec![0], WinAgg::Sum(2));
    WindowQuery {
        table,
        order,
        agg,
        l,
        u: 0,
    }
}

/// The methods' names, as column headers.
fn names(methods: &[Method]) -> impl Iterator<Item = String> + '_ {
    methods.iter().map(|m| m.name())
}

/// A table headed `lead`, the methods' names, then `tail`.
fn timed_table(lead: &str, methods: &[Method], tail: &[&str]) -> Table {
    let tail = tail.iter().map(|h| h.to_string());
    Table::new(once(lead.to_string()).chain(names(methods)).chain(tail))
}

/// The sort `q` timed under each method.
fn sort_times(q: &RankQuery, methods: &[Method]) -> Vec<String> {
    let time = |m: Method| match m.fits_sort(q) {
        true => fmt_ms(m.sort(q).elapsed),
        false => "skipped".into(),
    };
    methods.iter().map(|&m| time(m)).collect()
}

/// The window `q` timed under each method; `N.A.` where the method has no
/// window answer.
fn window_times(q: &WindowQuery, methods: &[Method]) -> Vec<String> {
    let time = |m: Method| match m.fits_window(q) {
        true => m.window(q).map_or("N.A.".into(), |t| fmt_ms(t.elapsed)),
        false => "skipped".into(),
    };
    methods.iter().map(|&m| time(m)).collect()
}

/// `label`, then `cells`, then `tail`: one table row.
fn row(label: impl Into<String>, cells: Vec<String>, tail: &[&str]) -> Vec<String> {
    let tail = tail.iter().map(|c| c.to_string());
    once(label.into()).chain(cells).chain(tail).collect()
}

/// Sec. 8.2 table: connected vs unconnected heaps.
pub fn heaps_table(opts: ReproOptions) {
    // Heap residency (and thus the connected-heap advantage) only develops
    // at realistic sizes: keep at least 20k rows regardless of scale.
    let rows = n_scaled(50_000, opts.scale).max(20_000);
    let paper = [
        (0.01, 2_000, "1979.3", "3479.0"),
        (0.01, 15_000, "2045.2", "6676.7"),
        (0.01, 30_000, "2104.0", "9646.3"),
        (0.05, 2_000, "1976.7", "4078.5"),
        (0.05, 15_000, "2150.0", "15186.7"),
        (0.05, 30_000, "2191.8", "22866.7"),
    ];
    let mut t = Table::new([
        "uncert",
        "range",
        "connected",
        "unconnected",
        "speedup",
        "paper conn(ms)",
        "paper unconn(ms)",
    ]);
    for (u, r, pc, pu) in paper {
        if opts.quick && r == 15_000 {
            continue;
        }
        let e = heaps_experiment(rows, u, r, 42);
        // Median (fastest–slowest) of the arm's replays, sorted.
        let arm = |t: &[Duration]| {
            let (median, max) = (fmt_ms(t[REPLAYS / 2]), fmt_ms(t[REPLAYS - 1]));
            format!("{median} ({}–{max})", fmt_ms(t[0]))
        };
        let (con, unc) = (e.connected[REPLAYS / 2], e.unconnected[REPLAYS / 2]);
        t.row([
            format!("{}%", (u * 100.0) as i64),
            format!("{r}"),
            arm(&e.connected),
            arm(&e.unconnected),
            format!("{:.2}x", unc.as_secs_f64() / con.as_secs_f64().max(1e-9)),
            pc.into(),
            pu.into(),
        ]);
    }
    t.print(&format!(
        "Sec 8.2: connected vs unconnected heaps ({rows} rows, median (min–max) of {REPLAYS} alternating replays per arm; paper: 50k rows, 1.25x-10x gap growing with range)"
    ));
}

/// Fig. 11: sorting / top-k runtime table.
pub fn fig11(opts: ReproOptions) {
    let rows = n_scaled(50_000, opts.scale);
    let methods = [Det, Imp, REWR, MC10, MC20];
    // (range, uncertainty, k, the paper's ms per method)
    let cfgs = [
        (1_000, 0.05, None, "31.5/233.1/786.7/310.1/639.3"),
        (10_000, 0.05, None, "30.9/286.1/792.6/314.3/621.2"),
        (1_000, 0.20, None, "31.8/266.3/794.9/325.8/651.2"),
        (1_000, 0.05, Some(2), "13.4/48.3/750.4/149.1/295.2"),
        (1_000, 0.05, Some(10), "13.4/48.2/751.1/150.4/296.1"),
    ];
    let mut t = timed_table("config", &methods, &["paper(Det/Imp/Rewr/MC10/MC20 ms)"]);
    for (range, uncert, k, paper) in cfgs {
        if opts.quick && range == 10_000 {
            continue;
        }
        let (mut label, cfg) = config(rows, 17, range, uncert);
        if let Some(k) = k {
            label += &format!(",k={k}");
        }
        let q = sort_query(&cfg, k);
        t.row(row(label, sort_times(&q, &methods), &[paper]));
    }
    t.print(&format!(
        "Fig 11: sorting and top-k performance ({rows} rows; paper shape: Imp < MCDB10 < MCDB20 ~ Rewr; top-k much cheaper)"
    ));
}

/// The methods whose bounds Figs. 12 and 13 rate against `Symb`'s.
const RATED: [Method; 3] = [MC10, MC20, Imp];

/// Figs. 12 and 13: one quality table per swept parameter, uncertainty
/// (generated from `seeds.0`) then attribute range (`seeds.1`), headed by
/// [`RATED`] and `tail`; `cells` answers one configuration.
fn quality_tables(
    opts: ReproOptions,
    rows: usize,
    seeds: (u64, u64),
    tail: &[&str],
    titles: [&str; 2],
    cells: impl Fn(&SyntheticConfig) -> Vec<String>,
) {
    // `Rewr`'s bounds are `Imp`'s (`tests/real_pipelines.rs` pins it).
    let rated = names(&RATED).map(|n| if n == "Imp" { "Imp/Rewr".into() } else { n });
    let heads: Vec<String> = rated.chain(tail.iter().map(|h| h.to_string())).collect();
    let base = SyntheticConfig::default().rows(rows);

    let mut t = Table::new(once("uncertainty".to_string()).chain(heads.clone()));
    for &u in UNCERTAINTY.values(opts) {
        let cfg = base.clone().uncertainty(u).seed(seeds.0);
        let label = format!("{}%", (u * 100.0).round() as i64);
        t.row(row(label, cells(&cfg), &[]));
    }
    t.print(titles[0]);

    let mut t = Table::new(once("range".to_string()).chain(heads));
    for &r in RANGE.values(opts) {
        let cfg = base.clone().range(r).seed(seeds.1);
        t.row(row(format!("{r}"), cells(&cfg), &[]));
    }
    t.print(titles[1]);
}

/// One quality row of Figs. 12 and 13: each [`RATED`] method's range ratio
/// against the exact bounds `tight`, over the x-tuples whose exact bounds
/// `keep` admits; `answer` runs the method on the figure's query.
fn range_ratios(
    tight: &Bounds,
    keep: fn(&(f64, f64)) -> bool,
    answer: impl Fn(Method) -> Bounds,
) -> Vec<String> {
    let ratio = |m: Method| {
        let kept = pairs(&answer(m), tight)
            .into_iter()
            .filter(|(_, t)| keep(t));
        fmt_q(aggregate_quality(kept).range_ratio)
    };
    RATED.iter().map(|&m| ratio(m)).collect()
}

/// Fig. 12: sorting approximation quality (estimated value range).
pub fn fig12(opts: ReproOptions) {
    let rows = n_scaled(20_000, opts.scale);
    let titles = [
        &format!("Fig 12a: sorting quality vs uncertainty ({rows} rows; paper: Imp/Rewr >= 1 approaching ~1.3, MCDB <= 1 dropping to ~0.4)"),
        "Fig 12b: sorting quality vs attribute range (same expected shape)",
    ];
    quality_tables(opts, rows, (5, 6), &[], titles, |cfg| {
        let q = sort_query(cfg, None);
        let tight = Symb.sort(&q).value;
        range_ratios(&tight, |_| true, |m| m.sort(&q).value)
    });
}

/// Fig. 13: windowed-aggregation approximation quality. Quality is
/// measured over tuples whose window aggregate genuinely varies across
/// worlds (truth width > 0): tuples with a fixed answer but a loose bound
/// otherwise divide by a degenerate unit width and dwarf the average.
pub fn fig13(opts: ReproOptions) {
    let rows = n_scaled(2_000, opts.scale.min(1.0));
    let titles = [
        &format!("Fig 13a: window quality vs uncertainty ({rows} rows; paper: Imp <= ~1.3 over-approx, MCDB under-approx)"),
        "Fig 13b: window quality vs attribute range (same expected shape)",
    ];
    quality_tables(opts, rows, (8, 9), &["truth coverage"], titles, |cfg| {
        let q = sum_query(cfg, -2);
        let answer = |m: Method| m.window(&q).expect("a window answer").value;
        let tight = answer(Symb);
        let covered = tight.iter().flatten().count();
        let mut cells = range_ratios(&tight, |&(c, d)| d > c, answer);
        cells.push(format!("{covered}/{}", q.table.len()));
        cells
    });
}

/// Fig. 14: sorting performance vs data size.
pub fn fig14(opts: ReproOptions) {
    // (a) small sizes, including the exact competitors.
    let methods = [Det, Imp, REWR, MC10, MC20, Symb, PtK { k: Some(10) }];
    let mut t = timed_table("n", &methods, &[]);
    for &n in SMALL.values(opts) {
        let q = sort_query(&SyntheticConfig::default().rows(n).seed(21), None);
        t.row(row(format!("{n}"), sort_times(&q, &methods), &[]));
    }
    t.print(
        "Fig 14a: sorting runtime vs size, small (paper: Symb & PT-k 2+ orders of magnitude slower, growing super-linearly)",
    );

    // (b) larger sizes, scalable methods only.
    let methods = &methods[..5];
    let mut t = timed_table("n", methods, &[]);
    for &n in LARGE.values(opts) {
        let q = sort_query(&SyntheticConfig::default().rows(n).seed(22), None);
        t.row(row(format!("{n}"), sort_times(&q, methods), &[]));
    }
    t.print("Fig 14b: sorting runtime vs size, large (paper: all near-linear; Imp between Det and MCDB10)");
}

/// Fig. 15: windowed aggregation performance vs data size.
pub fn fig15(opts: ReproOptions) {
    // (a) small sizes including the rewrite variants, then the index build
    // time, then the samplers.
    let (rewrites, samplers) = ([Det, Imp, REWR, REWR_INDEX], [MC10, MC20]);
    let heads = names(&rewrites).chain(once("index build".into()));
    let mut t = Table::new(once("n".into()).chain(heads).chain(names(&samplers)));
    for &n in SMALL.values(opts) {
        let q = sum_query(&SyntheticConfig::default().rows(n).seed(31), -2);
        // Index build time measured on the position intervals, like the
        // paper reports Postgres' index creation separately.
        let sort_plan = runner::sort_plan(q.table.to_au_relation(), &q.order, None);
        let sorted = Engine::native().execute(&sort_plan).expect("native sort");
        let sorted = sorted.to_rows();
        let pos_col = sorted.schema.arity() - 1;
        let intervals: Vec<(i64, i64)> = sorted
            .rows()
            .iter()
            .map(|r| {
                let (lo, _, hi) = r.tuple.get(pos_col).as_i64_triple();
                (lo, hi)
            })
            .collect();
        let build = runner::time(|| audb_engine::IntervalIndex::build(&intervals)).elapsed;
        let mut cells = window_times(&q, &rewrites);
        cells.push(fmt_ms(build));
        cells.extend(window_times(&q, &samplers));
        t.row(row(format!("{n}"), cells, &[]));
    }
    t.print(
        "Fig 15a: window runtime vs size, small (paper: Rewr quadratic, Rewr(index) ~ MCDB20, Imp ~ MCDB10; Symb infeasible >1k)",
    );

    // (b) larger sizes.
    let methods = [Det, Imp, MC10, MC20];
    let mut t = timed_table("n", &methods, &[]);
    for &n in LARGE.values(opts) {
        let q = sum_query(&SyntheticConfig::default().rows(n).seed(32), -2);
        t.row(row(format!("{n}"), window_times(&q, &methods), &[]));
    }
    t.print("Fig 15b: window runtime vs size, large (paper: Imp ~ MCDB10, all near-linear)");
}

/// Fig. 16: windowed aggregation performance table.
pub fn fig16(opts: ReproOptions) {
    let rows = n_scaled(50_000, opts.scale);
    // A quick run keeps the first configuration of each table.
    let first = |n: usize| if opts.quick { 1 } else { n };
    let methods = [Det, Imp, MC10, MC20];
    // (window size, range, uncertainty, the paper's ms per method)
    let cfgs = [
        (3, 1_000, 0.05, "85.3/895.3/948.6/1850.4"),
        (3, 10_000, 0.05, "87.1/899.7/931.3/1877.5"),
        (3, 1_000, 0.20, "88.7/903.2/944.7/1869.7"),
        (6, 1_000, 0.05, "86.2/1008.3/953.1/1885.1"),
    ];
    let mut t = timed_table("config", &methods, &["paper(Det/Imp/MC10/MC20 ms)"]);
    for &(w, range, uncert, paper) in &cfgs[..first(cfgs.len())] {
        let (label, cfg) = config(rows, 41, range, uncert);
        let q = sum_query(&cfg, -(w - 1));
        t.row(row(
            format!("w={w},{label}"),
            window_times(&q, &methods),
            &[paper],
        ));
    }
    t.print(&format!(
        "Fig 16a: window performance, order-by only ({rows} rows; paper shape: Imp ~ MCDB10, window size +10% on Imp)"
    ));

    // (b) order-by + partition-by: the rewrite (with its range-overlap
    // join) on 8k rows — the paper's Rewr is minutes here.
    let rows_b = n_scaled(8_000, opts.scale);
    let cfgs = [
        (1_000, 0.05, "105.1/73500/1209.4/2127.1"),
        (10_000, 0.05, "101.7/75200/1231.3/2142.9"),
        (1_000, 0.20, "104.2/81100/1201.1/2102.3"),
    ];
    let strategies = [JoinStrategy::NestedLoop, JoinStrategy::IntervalIndex];
    let rewrites = strategies.map(Rewr);
    let mut t = timed_table("config", &rewrites, &["paper(Det/Rewr/MC10/MC20 ms)"]);
    for &(range, uncert, paper) in &cfgs[..first(cfgs.len())] {
        let (label, cfg) = config(rows_b, 43, range, uncert);
        // Partition by the category attribute g (index 1).
        let plan = Query::scan(gen_window_table(&cfg).to_au_relation())
            .window(
                WindowSpec::rows(-2, 0)
                    .order_by([0usize])
                    .partition_by([1usize])
                    .aggregate(Agg::Sum(2usize.into()))
                    .output("x"),
            )
            .build()
            .expect("partitioned window plan");
        let time = |s| fmt_ms(runner::time(|| runner::rewrite_execute(&plan, s)).elapsed);
        t.row(row(
            format!("w=3,{label}"),
            strategies.map(time).into(),
            &[paper],
        ));
    }
    t.print(&format!(
        "Fig 16b: window performance with partition-by, Rewr on {rows_b} rows (paper: Rewr minutes — orders slower than sampling)"
    ));
}

/// Fig. 17: real-world dataset performance.
pub fn fig17(opts: ReproOptions) {
    let datasets = all_datasets(opts.scale, 123);
    // The paper's ms per method, rank query then window query.
    let paper = [
        (
            "0.816/0.123/2.337/1.269/278/1000",
            "2.964/0.363/7.582/1.046/589/N.A.",
        ),
        (
            "1043.5/94.3/2001.1/14787.7/>10min/>10min",
            "3.050/0.416/8.337/2.226/>10min/N.A.",
        ),
        (
            "287.5/72.3/1451.2/4226.3/15000/8000",
            "130.5/15.2/323.9/13713.2/>10min/N.A.",
        ),
    ];
    // Our windows probe the interval index: the nested loop is quadratic at
    // these sizes (a sort has no join).
    let methods = [Imp, Det, MC20, REWR_INDEX, Symb, PtK { k: None }];
    let mut t = Table::new(
        ["dataset", "query"]
            .map(String::from)
            .into_iter()
            .chain(names(&methods))
            .chain(once("paper(Imp/Det/MC20/Rewr/Symb/PTk ms)".into())),
    );
    for (ds, (prank, pwin)) in datasets.iter().zip(paper) {
        let rank = once("rank".into()).chain(sort_times(&ds.rank, &methods));
        t.row(row(ds.name, rank.collect(), &[prank]));
        let window = once("window".into()).chain(window_times(&ds.window, &methods));
        t.row(row(ds.name, window.collect(), &[pwin]));
    }
    t.print(&format!(
        "Fig 17: real-world performance at scale {} (paper shape: Det < Imp < MCDB20; Rewr above Imp on every rank query and on Healthcare's window, below it on Iceberg's and Crimes' windows; exact methods slow/infeasible)",
        opts.scale
    ));
}

/// Fig. 18: real-world sort quality (position accuracy / recall).
pub fn fig18(opts: ReproOptions) {
    let datasets = all_datasets(opts.scale, 123);
    let paper = [
        ["0.891/1", "1/0.765"],
        ["0.996/1", "1/0.919"],
        ["0.990/1", "1/0.767"],
    ];
    let methods = [Imp, MC20];
    let rated = names(&methods).map(|n| format!("{n} acc/rec"));
    let papers = names(&methods).map(|n| format!("paper {n}"));
    let mut t = Table::new(once("dataset".into()).chain(rated).chain(papers));
    for (ds, paper) in datasets.into_iter().zip(paper) {
        // Positions over the whole input, the top-k's `k` aside.
        let q = RankQuery { k: None, ..ds.rank };
        let tight = Symb.sort(&q).value;
        let cells = methods.map(|m| acc_rec(quality(&m.sort(&q).value, &tight)));
        t.row(row(ds.name, cells.into(), &paper));
    }
    t.print("Fig 18: real-world sort position quality (paper: Imp recall 1 / high accuracy; MCDB accuracy 1 / lower recall; PT-k & Symb exact = 1/1)");
}

/// Fig. 19: real-world window quality (order membership + aggregation).
pub fn fig19(opts: ReproOptions) {
    let datasets = all_datasets(opts.scale, 123);
    let paper = [
        ["0.977/1 & 0.925/1", "1/0.745 & 1/0.604"],
        ["0.995/1 & 0.989/1", "1/0.916 & 1/0.825"],
        ["0.998/1 & 0.998/1", "1/0.967 & 1/0.967"],
    ];
    let methods = [Imp, MC20];
    let (imp, mc) = (Imp.name(), MC20.name());
    let mut t = Table::new([
        "dataset".to_string(),
        format!("{imp} order acc/rec"),
        format!("{imp} agg acc/rec"),
        format!("{mc} agg acc/rec"),
        format!("paper {imp} (order & agg)"),
        format!("paper {mc}"),
    ]);
    for (ds, paper) in datasets.into_iter().zip(paper) {
        let wq = ds.window;
        // Order/grouping quality: position bounds of the window input.
        let (table, order) = (wq.table.clone(), wq.order.clone());
        let positions = RankQuery {
            table,
            order,
            k: None,
        };
        let tight_pos = Symb.sort(&positions).value;
        let q_order = quality(&Imp.sort(&positions).value, &tight_pos);
        // Aggregation quality: window result bounds (truth capped for the
        // unbounded healthcare window — skipped tuples are excluded).
        let answer = |m: Method| m.window(&wq).expect("a window answer").value;
        let tight = if wq.is_local() {
            answer(Symb)
        } else {
            // Unbounded window (in-line rank): positions + 1 are the exact
            // count bounds, so reuse the position ground truth.
            let shift = |b: &Option<(f64, f64)>| b.map(|(lo, hi)| (lo + 1.0, hi + 1.0));
            tight_pos.iter().map(shift).collect()
        };
        let aggs = methods.map(|m| acc_rec(quality(&answer(m), &tight)));
        let cells = once(acc_rec(q_order)).chain(aggs).collect();
        t.row(row(ds.name, cells, &paper));
    }
    t.print("Fig 19: real-world window quality (paper: Imp acc ~0.93-1.0 with recall 1; MCDB recall 0.6-0.97)");
}

/// Run everything.
pub fn run_all(opts: ReproOptions) {
    heaps_table(opts);
    fig11(opts);
    fig12(opts);
    fig13(opts);
    fig14(opts);
    fig15(opts);
    fig16(opts);
    fig17(opts);
    fig18(opts);
    fig19(opts);
}
