//! One function per table/figure of the paper's evaluation (Sec. 8.2 +
//! Sec. 9). Each prints the paper's reported numbers (where the paper gives
//! concrete values) next to our measurements; for plot-only figures the
//! measured series is printed with the expected qualitative shape stated in
//! the header. Absolute times differ (different hardware and engine); the
//! *shapes* — who wins, by what factor, where crossovers happen — are the
//! reproduction target (`repro all` prints both side by side).

use crate::heaps::{heaps_experiment, REPLAYS};
use crate::table::{fmt_ms, fmt_q, Table};
use audb_core::WinAgg;
use audb_engine::{Agg, Engine, JoinStrategy, Query, WindowSpec};
use audb_workloads::all_datasets;
use audb_workloads::metrics::{aggregate_quality, QualityStats};
use audb_workloads::runner::{self, Bounds};
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
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
    let order = [0usize, 1];
    struct Cfg {
        label: &'static str,
        range: i64,
        uncert: f64,
        k: Option<u64>,
        paper: [&'static str; 5],
    }
    let cfgs = [
        Cfg {
            label: "r=1k,u=5%",
            range: 1_000,
            uncert: 0.05,
            k: None,
            paper: ["31.5", "233.1", "786.7", "310.1", "639.3"],
        },
        Cfg {
            label: "r=10k,u=5%",
            range: 10_000,
            uncert: 0.05,
            k: None,
            paper: ["30.9", "286.1", "792.6", "314.3", "621.2"],
        },
        Cfg {
            label: "r=1k,u=20%",
            range: 1_000,
            uncert: 0.20,
            k: None,
            paper: ["31.8", "266.3", "794.9", "325.8", "651.2"],
        },
        Cfg {
            label: "r=1k,u=5%,k=2",
            range: 1_000,
            uncert: 0.05,
            k: Some(2),
            paper: ["13.4", "48.3", "750.4", "149.1", "295.2"],
        },
        Cfg {
            label: "r=1k,u=5%,k=10",
            range: 1_000,
            uncert: 0.05,
            k: Some(10),
            paper: ["13.4", "48.2", "751.1", "150.4", "296.1"],
        },
    ];
    let mut t = Table::new([
        "config",
        "Det",
        "Imp",
        "Rewr",
        "MCDB10",
        "MCDB20",
        "paper(Det/Imp/Rewr/MC10/MC20 ms)",
    ]);
    for c in &cfgs {
        if opts.quick && c.label.starts_with("r=10k") {
            continue;
        }
        let cfg = SyntheticConfig::default()
            .rows(rows)
            .range(c.range)
            .uncertainty(c.uncert)
            .seed(17);
        let table = gen_sort_table(&cfg);
        let det = runner::det_sort(&table, &order, c.k).elapsed;
        let imp = runner::imp_sort(&table, &order, c.k).elapsed;
        let rewr = runner::rewrite_sort(&table, &order, c.k).elapsed;
        let mc10 = runner::mcdb_sort(&table, &order, 10, 1).elapsed;
        let mc20 = runner::mcdb_sort(&table, &order, 20, 1).elapsed;
        t.row([
            c.label.to_string(),
            fmt_ms(det),
            fmt_ms(imp),
            fmt_ms(rewr),
            fmt_ms(mc10),
            fmt_ms(mc20),
            c.paper.join("/"),
        ]);
    }
    t.print(&format!(
        "Fig 11: sorting and top-k performance ({rows} rows; paper shape: Imp < MCDB10 < MCDB20 ~ Rewr; top-k much cheaper)"
    ));
}

/// Fig. 12: sorting approximation quality (estimated value range).
pub fn fig12(opts: ReproOptions) {
    let rows = n_scaled(20_000, opts.scale);
    let order = [0usize, 1];
    let run = |cfg: &SyntheticConfig, t: &mut Table, label: String| {
        let table = gen_sort_table(cfg);
        let tight = runner::symb_sort(&table, &order).value;
        let imp = runner::imp_sort(&table, &order, None).value;
        let mc10 = runner::mcdb_sort(&table, &order, 10, 1).value;
        let mc20 = runner::mcdb_sort(&table, &order, 20, 1).value;
        t.row([
            label,
            fmt_q(quality(&mc10, &tight).range_ratio),
            fmt_q(quality(&mc20, &tight).range_ratio),
            fmt_q(quality(&imp, &tight).range_ratio),
        ]);
    };

    let mut t = Table::new(["uncertainty", "MCDB10", "MCDB20", "Imp/Rewr"]);
    let us: &[f64] = if opts.quick {
        &[0.01, 0.09]
    } else {
        &[0.01, 0.03, 0.05, 0.07, 0.09]
    };
    for &u in us {
        let cfg = SyntheticConfig::default().rows(rows).uncertainty(u).seed(5);
        run(&cfg, &mut t, format!("{}%", (u * 100.0).round() as i64));
    }
    t.print(&format!(
        "Fig 12a: sorting quality vs uncertainty ({rows} rows; paper: Imp/Rewr >= 1 approaching ~1.3, MCDB <= 1 dropping to ~0.4)"
    ));

    let mut t = Table::new(["range", "MCDB10", "MCDB20", "Imp/Rewr"]);
    let rs: &[i64] = if opts.quick {
        &[500, 5_000]
    } else {
        &[500, 1_000, 2_000, 3_000, 4_000, 5_000]
    };
    for &r in rs {
        let cfg = SyntheticConfig::default().rows(rows).range(r).seed(6);
        run(&cfg, &mut t, format!("{r}"));
    }
    t.print("Fig 12b: sorting quality vs attribute range (same expected shape)");
}

/// Fig. 13: windowed-aggregation approximation quality. Quality is
/// measured over tuples whose window aggregate genuinely varies across
/// worlds (truth width > 0): tuples with a fixed answer but a loose bound
/// otherwise divide by a degenerate unit width and dwarf the average.
pub fn fig13(opts: ReproOptions) {
    let rows = n_scaled(2_000, opts.scale.min(1.0));
    let order = [0usize];
    let (agg, l, u) = (WinAgg::Sum(2), -2i64, 0i64);
    let cap = 1u128 << 22;
    let affected = |approx: &Bounds, tight: &Bounds| -> QualityStats {
        aggregate_quality(
            approx
                .iter()
                .zip(tight)
                .filter_map(|(a, t)| Some(((*a)?, (*t)?)))
                .filter(|(_, (c, d))| d > c),
        )
    };
    let run = |cfg: &SyntheticConfig, t: &mut Table, label: String| {
        let table = gen_window_table(cfg);
        let tight = runner::symb_window(&table, &order, agg, l, u, cap).value;
        let covered = tight.iter().flatten().count();
        let imp = runner::imp_window(&table, &order, agg, l, u).value;
        let mc10 = runner::mcdb_window(&table, &order, agg, l, u, 10, 1).value;
        let mc20 = runner::mcdb_window(&table, &order, agg, l, u, 20, 1).value;
        t.row([
            label,
            fmt_q(affected(&mc10, &tight).range_ratio),
            fmt_q(affected(&mc20, &tight).range_ratio),
            fmt_q(affected(&imp, &tight).range_ratio),
            format!("{covered}/{}", table.len()),
        ]);
    };

    let mut t = Table::new([
        "uncertainty",
        "MCDB10",
        "MCDB20",
        "Imp/Rewr",
        "truth coverage",
    ]);
    let us: &[f64] = if opts.quick {
        &[0.01, 0.09]
    } else {
        &[0.01, 0.03, 0.05, 0.07, 0.09]
    };
    for &u_ in us {
        let cfg = SyntheticConfig::default()
            .rows(rows)
            .uncertainty(u_)
            .seed(8);
        run(&cfg, &mut t, format!("{}%", (u_ * 100.0).round() as i64));
    }
    t.print(&format!(
        "Fig 13a: window quality vs uncertainty ({rows} rows; paper: Imp <= ~1.3 over-approx, MCDB under-approx)"
    ));

    let mut t = Table::new(["range", "MCDB10", "MCDB20", "Imp/Rewr", "truth coverage"]);
    let rs: &[i64] = if opts.quick {
        &[500, 5_000]
    } else {
        &[500, 1_000, 2_000, 3_000, 4_000, 5_000]
    };
    for &r in rs {
        let cfg = SyntheticConfig::default().rows(rows).range(r).seed(9);
        run(&cfg, &mut t, format!("{r}"));
    }
    t.print("Fig 13b: window quality vs attribute range (same expected shape)");
}

/// Fig. 14: sorting performance vs data size.
pub fn fig14(opts: ReproOptions) {
    let order = [0usize, 1];
    // (a) small sizes, including the exact competitors.
    let mut t = Table::new([
        "n",
        "Det",
        "Imp",
        "Rewr",
        "MCDB10",
        "MCDB20",
        "Symb",
        "PT-k(k=10)",
    ]);
    let small: &[usize] = if opts.quick {
        &[256, 1024]
    } else {
        &[256, 512, 1024, 2048, 4096]
    };
    for &n in small {
        let cfg = SyntheticConfig::default().rows(n).seed(21);
        let table = gen_sort_table(&cfg);
        t.row([
            format!("{n}"),
            fmt_ms(runner::det_sort(&table, &order, None).elapsed),
            fmt_ms(runner::imp_sort(&table, &order, None).elapsed),
            fmt_ms(runner::rewrite_sort(&table, &order, None).elapsed),
            fmt_ms(runner::mcdb_sort(&table, &order, 10, 1).elapsed),
            fmt_ms(runner::mcdb_sort(&table, &order, 20, 1).elapsed),
            fmt_ms(runner::symb_sort(&table, &order).elapsed),
            fmt_ms(runner::ptk_sort(&table, &order, 10).elapsed),
        ]);
    }
    t.print(
        "Fig 14a: sorting runtime vs size, small (paper: Symb & PT-k 2+ orders of magnitude slower, growing super-linearly)",
    );

    // (b) larger sizes, scalable methods only.
    let mut t = Table::new(["n", "Det", "Imp", "Rewr", "MCDB10", "MCDB20"]);
    let max_exp = if opts.quick { 13 } else { 17 };
    let mut n = 1024usize;
    while n <= (1usize << max_exp) {
        let cfg = SyntheticConfig::default().rows(n).seed(22);
        let table = gen_sort_table(&cfg);
        t.row([
            format!("{n}"),
            fmt_ms(runner::det_sort(&table, &order, None).elapsed),
            fmt_ms(runner::imp_sort(&table, &order, None).elapsed),
            fmt_ms(runner::rewrite_sort(&table, &order, None).elapsed),
            fmt_ms(runner::mcdb_sort(&table, &order, 10, 1).elapsed),
            fmt_ms(runner::mcdb_sort(&table, &order, 20, 1).elapsed),
        ]);
        n *= 4;
    }
    t.print("Fig 14b: sorting runtime vs size, large (paper: all near-linear; Imp between Det and MCDB10)");
}

/// Fig. 15: windowed aggregation performance vs data size.
pub fn fig15(opts: ReproOptions) {
    let order = [0usize];
    let (agg, l, u) = (WinAgg::Sum(2), -2i64, 0i64);

    // (a) small sizes including the rewrite variants + index build time.
    let mut t = Table::new([
        "n",
        "Det",
        "Imp",
        "Rewr",
        "Rewr(index)",
        "index build",
        "MCDB10",
        "MCDB20",
    ]);
    let small: &[usize] = if opts.quick {
        &[256, 1024]
    } else {
        &[256, 512, 1024, 2048, 4096]
    };
    for &n in small {
        let cfg = SyntheticConfig::default().rows(n).seed(31);
        let table = gen_window_table(&cfg);
        // Index build time measured on the position intervals, like the
        // paper reports Postgres' index creation separately.
        let sort_plan = Query::scan(table.to_au_relation())
            .sort_by_as(order.iter().copied(), "tau")
            .build()
            .expect("index-build sort plan");
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
        t.row([
            format!("{n}"),
            fmt_ms(runner::det_window(&table, &order, agg, l, u).elapsed),
            fmt_ms(runner::imp_window(&table, &order, agg, l, u).elapsed),
            fmt_ms(
                runner::rewrite_window(&table, &order, agg, l, u, JoinStrategy::NestedLoop).elapsed,
            ),
            fmt_ms(
                runner::rewrite_window(&table, &order, agg, l, u, JoinStrategy::IntervalIndex)
                    .elapsed,
            ),
            fmt_ms(build),
            fmt_ms(runner::mcdb_window(&table, &order, agg, l, u, 10, 1).elapsed),
            fmt_ms(runner::mcdb_window(&table, &order, agg, l, u, 20, 1).elapsed),
        ]);
    }
    t.print(
        "Fig 15a: window runtime vs size, small (paper: Rewr quadratic, Rewr(index) ~ MCDB20, Imp ~ MCDB10; Symb infeasible >1k)",
    );

    // (b) larger sizes.
    let mut t = Table::new(["n", "Det", "Imp", "MCDB10", "MCDB20"]);
    let max_exp = if opts.quick { 13 } else { 16 };
    let mut n = 1024usize;
    while n <= (1usize << max_exp) {
        let cfg = SyntheticConfig::default().rows(n).seed(32);
        let table = gen_window_table(&cfg);
        t.row([
            format!("{n}"),
            fmt_ms(runner::det_window(&table, &order, agg, l, u).elapsed),
            fmt_ms(runner::imp_window(&table, &order, agg, l, u).elapsed),
            fmt_ms(runner::mcdb_window(&table, &order, agg, l, u, 10, 1).elapsed),
            fmt_ms(runner::mcdb_window(&table, &order, agg, l, u, 20, 1).elapsed),
        ]);
        n *= 4;
    }
    t.print("Fig 15b: window runtime vs size, large (paper: Imp ~ MCDB10, all near-linear)");
}

/// Fig. 16: windowed aggregation performance table.
pub fn fig16(opts: ReproOptions) {
    let order = [0usize];
    let rows = n_scaled(50_000, opts.scale);
    struct Cfg {
        label: &'static str,
        w: i64,
        range: i64,
        uncert: f64,
        paper: [&'static str; 4],
    }
    let cfgs = [
        Cfg {
            label: "w=3,r=1k,u=5%",
            w: 3,
            range: 1_000,
            uncert: 0.05,
            paper: ["85.3", "895.3", "948.6", "1850.4"],
        },
        Cfg {
            label: "w=3,r=10k,u=5%",
            w: 3,
            range: 10_000,
            uncert: 0.05,
            paper: ["87.1", "899.7", "931.3", "1877.5"],
        },
        Cfg {
            label: "w=3,r=1k,u=20%",
            w: 3,
            range: 1_000,
            uncert: 0.20,
            paper: ["88.7", "903.2", "944.7", "1869.7"],
        },
        Cfg {
            label: "w=6,r=1k,u=5%",
            w: 6,
            range: 1_000,
            uncert: 0.05,
            paper: ["86.2", "1008.3", "953.1", "1885.1"],
        },
    ];
    let mut t = Table::new([
        "config",
        "Det",
        "Imp",
        "MCDB10",
        "MCDB20",
        "paper(Det/Imp/MC10/MC20 ms)",
    ]);
    for c in &cfgs {
        if opts.quick && c.label != "w=3,r=1k,u=5%" {
            continue;
        }
        let cfg = SyntheticConfig::default()
            .rows(rows)
            .range(c.range)
            .uncertainty(c.uncert)
            .seed(41);
        let table = gen_window_table(&cfg);
        let (l, u) = (-(c.w - 1), 0i64);
        t.row([
            c.label.to_string(),
            fmt_ms(runner::det_window(&table, &order, WinAgg::Sum(2), l, u).elapsed),
            fmt_ms(runner::imp_window(&table, &order, WinAgg::Sum(2), l, u).elapsed),
            fmt_ms(runner::mcdb_window(&table, &order, WinAgg::Sum(2), l, u, 10, 1).elapsed),
            fmt_ms(runner::mcdb_window(&table, &order, WinAgg::Sum(2), l, u, 20, 1).elapsed),
            c.paper.join("/"),
        ]);
    }
    t.print(&format!(
        "Fig 16a: window performance, order-by only ({rows} rows; paper shape: Imp ~ MCDB10, window size +10% on Imp)"
    ));

    // (b) order-by + partition-by: the rewrite (with its range-overlap
    // join) on 8k rows — the paper's Rewr is minutes here.
    let rows_b = n_scaled(8_000, opts.scale);
    let paper_b = [
        (
            "w=3,r=1k,u=5%",
            1_000i64,
            0.05,
            ["105.1", "73500", "1209.4", "2127.1"],
        ),
        (
            "w=3,r=10k,u=5%",
            10_000,
            0.05,
            ["101.7", "75200", "1231.3", "2142.9"],
        ),
        (
            "w=3,r=1k,u=20%",
            1_000,
            0.20,
            ["104.2", "81100", "1201.1", "2102.3"],
        ),
    ];
    let mut t = Table::new([
        "config",
        "Rewr",
        "Rewr(index)",
        "paper(Det/Rewr/MC10/MC20 ms)",
    ]);
    for (label, range, uncert, paper) in paper_b {
        if opts.quick && label != "w=3,r=1k,u=5%" {
            continue;
        }
        let cfg = SyntheticConfig::default()
            .rows(rows_b)
            .range(range)
            .uncertainty(uncert)
            .seed(43);
        let table = gen_window_table(&cfg);
        let spec_order = [0usize];
        // Partition by the category attribute g (index 1).
        let plan = Query::scan(table.to_au_relation())
            .window(
                WindowSpec::rows(-2, 0)
                    .order_by(spec_order.iter().copied())
                    .partition_by([1usize])
                    .aggregate(Agg::Sum(2usize.into()))
                    .output("x"),
            )
            .build()
            .expect("partitioned window plan");
        let rewr =
            runner::time(|| runner::rewrite_execute(&plan, JoinStrategy::NestedLoop)).elapsed;
        let rewr_idx =
            runner::time(|| runner::rewrite_execute(&plan, JoinStrategy::IntervalIndex)).elapsed;
        t.row([
            label.to_string(),
            fmt_ms(rewr),
            fmt_ms(rewr_idx),
            paper.join("/"),
        ]);
    }
    t.print(&format!(
        "Fig 16b: window performance with partition-by, Rewr on {rows_b} rows (paper: Rewr minutes — orders slower than sampling)"
    ));
}

/// Fig. 17: real-world dataset performance.
pub fn fig17(opts: ReproOptions) {
    let datasets = all_datasets(opts.scale, 123);
    let paper: &[(&str, [&str; 6], [&str; 6])] = &[
        (
            "Iceberg",
            ["0.816", "0.123", "2.337", "1.269", "278", "1000"],
            ["2.964", "0.363", "7.582", "1.046", "589", "N.A."],
        ),
        (
            "Crimes",
            ["1043.5", "94.3", "2001.1", "14787.7", ">10min", ">10min"],
            ["3.050", "0.416", "8.337", "2.226", ">10min", "N.A."],
        ),
        (
            "Healthcare",
            ["287.5", "72.3", "1451.2", "4226.3", "15000", "8000"],
            ["130.5", "15.2", "323.9", "13713.2", ">10min", "N.A."],
        ),
    ];
    let mut t = Table::new([
        "dataset",
        "query",
        "Imp",
        "Det",
        "MCDB20",
        "Rewr",
        "Symb",
        "PT-k",
        "paper(Imp/Det/MC20/Rewr/Symb/PTk ms)",
    ]);
    for (ds, (_, prank, pwin)) in datasets.iter().zip(paper) {
        // Rank query.
        let rq = &ds.rank;
        let imp = runner::imp_sort(&rq.table, &rq.order, Some(rq.k)).elapsed;
        let det = runner::det_sort(&rq.table, &rq.order, Some(rq.k)).elapsed;
        let mc20 = runner::mcdb_sort(&rq.table, &rq.order, 20, 1).elapsed;
        let rewr = runner::rewrite_sort(&rq.table, &rq.order, Some(rq.k)).elapsed;
        let feasible_exact = rq.table.len() <= 60_000;
        let symb = feasible_exact.then(|| runner::symb_sort(&rq.table, &rq.order).elapsed);
        let ptk = feasible_exact.then(|| runner::ptk_sort(&rq.table, &rq.order, rq.k).elapsed);
        t.row([
            ds.name.to_string(),
            "rank".into(),
            fmt_ms(imp),
            fmt_ms(det),
            fmt_ms(mc20),
            fmt_ms(rewr),
            symb.map(fmt_ms).unwrap_or_else(|| "skipped".into()),
            ptk.map(fmt_ms).unwrap_or_else(|| "skipped".into()),
            prank.join("/"),
        ]);

        // Window query.
        let wq = &ds.window;
        let imp = runner::imp_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u).elapsed;
        let det = runner::det_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u).elapsed;
        let mc20 = runner::mcdb_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u, 20, 1).elapsed;
        let rewr_feasible = wq.table.len() <= 20_000;
        let rewr = rewr_feasible.then(|| {
            runner::rewrite_window(
                &wq.table,
                &wq.order,
                wq.agg,
                wq.l,
                wq.u,
                JoinStrategy::IntervalIndex,
            )
            .elapsed
        });
        let symb_feasible = wq.table.len() <= 20_000 && wq.l.abs() <= 8 && wq.u <= 8;
        let symb = symb_feasible.then(|| {
            runner::symb_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u, 1 << 22).elapsed
        });
        t.row([
            ds.name.to_string(),
            "window".into(),
            fmt_ms(imp),
            fmt_ms(det),
            fmt_ms(mc20),
            rewr.map(fmt_ms).unwrap_or_else(|| "skipped".into()),
            symb.map(fmt_ms).unwrap_or_else(|| "skipped".into()),
            "N.A.".into(),
            pwin.join("/"),
        ]);
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
        ("Iceberg", "0.891/1", "1/0.765"),
        ("Crimes", "0.996/1", "1/0.919"),
        ("Healthcare", "0.990/1", "1/0.767"),
    ];
    let mut t = Table::new([
        "dataset",
        "Imp acc/rec",
        "MCDB20 acc/rec",
        "paper Imp",
        "paper MCDB20",
    ]);
    for (ds, (_, p_imp, p_mc)) in datasets.iter().zip(paper) {
        let rq = &ds.rank;
        let tight = runner::symb_sort(&rq.table, &rq.order).value;
        let imp = runner::imp_sort(&rq.table, &rq.order, None).value;
        let mc = runner::mcdb_sort(&rq.table, &rq.order, 20, 1).value;
        let qi = quality(&imp, &tight);
        let qm = quality(&mc, &tight);
        t.row([
            ds.name.to_string(),
            format!("{}/{}", fmt_q(qi.accuracy), fmt_q(qi.recall)),
            format!("{}/{}", fmt_q(qm.accuracy), fmt_q(qm.recall)),
            p_imp.to_string(),
            p_mc.to_string(),
        ]);
    }
    t.print("Fig 18: real-world sort position quality (paper: Imp recall 1 / high accuracy; MCDB accuracy 1 / lower recall; PT-k & Symb exact = 1/1)");
}

/// Fig. 19: real-world window quality (order membership + aggregation).
pub fn fig19(opts: ReproOptions) {
    let datasets = all_datasets(opts.scale, 123);
    let paper = [
        ("Iceberg", "0.977/1 & 0.925/1", "1/0.745 & 1/0.604"),
        ("Crimes", "0.995/1 & 0.989/1", "1/0.916 & 1/0.825"),
        ("Healthcare", "0.998/1 & 0.998/1", "1/0.967 & 1/0.967"),
    ];
    let mut t = Table::new([
        "dataset",
        "Imp order acc/rec",
        "Imp agg acc/rec",
        "MCDB20 agg acc/rec",
        "paper Imp (order & agg)",
        "paper MCDB20",
    ]);
    for (ds, (_, p_imp, p_mc)) in datasets.iter().zip(paper) {
        let wq = &ds.window;
        // Order/grouping quality: position bounds of the window input.
        let tight_pos = runner::symb_sort(&wq.table, &wq.order).value;
        let imp_pos = runner::imp_sort(&wq.table, &wq.order, None).value;
        let q_order = quality(&imp_pos, &tight_pos);
        // Aggregation quality: window result bounds (truth capped for the
        // unbounded healthcare window — skipped tuples are excluded).
        let bounded = wq.l.abs() <= 8 && wq.u <= 8;
        let (q_agg, q_mc) = if bounded {
            let tight =
                runner::symb_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u, 1 << 22).value;
            let imp = runner::imp_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u).value;
            let mc = runner::mcdb_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u, 20, 1).value;
            (quality(&imp, &tight), quality(&mc, &tight))
        } else {
            // Unbounded window (in-line rank): positions + 1 are the exact
            // count bounds, so reuse the position ground truth.
            let shift = |b: &Bounds| -> Bounds {
                b.iter()
                    .map(|x| x.map(|(lo, hi)| (lo + 1.0, hi + 1.0)))
                    .collect()
            };
            let tight = shift(&tight_pos);
            let imp = runner::imp_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u).value;
            let mc = runner::mcdb_window(&wq.table, &wq.order, wq.agg, wq.l, wq.u, 20, 1).value;
            (quality(&imp, &tight), quality(&mc, &tight))
        };
        t.row([
            ds.name.to_string(),
            format!("{}/{}", fmt_q(q_order.accuracy), fmt_q(q_order.recall)),
            format!("{}/{}", fmt_q(q_agg.accuracy), fmt_q(q_agg.recall)),
            format!("{}/{}", fmt_q(q_mc.accuracy), fmt_q(q_mc.recall)),
            p_imp.to_string(),
            p_mc.to_string(),
        ]);
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
