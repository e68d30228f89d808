//! `repro bench` — the in-repo measuring stick beside the repo benchmark.
//!
//! End-to-end numbers that gate a PR come from the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`). This harness keeps what that benchmark
//! does not measure, and every comparison it makes is between two things
//! timed **within one run** (cross-run noise on a shared host is ±20 %):
//!
//! * **sort scaling** — ns per row of `sort/imp` from cache-resident to far
//!   past cache;
//! * **cells** — `det` (the native kernels on the most-likely world, lifted
//!   to a certain AU-DB), `imp` (the one-pass native algorithms) and `rewr`
//!   (the SQL-style
//!   rewrite) for sorting, windowed aggregation and a select/project-
//!   carrying ranking plan (`sort_sel`: `scan → select → project → sort`)
//!   at n ∈ {1k, 4k, 16k} by default (`--sizes` overrides);
//! * **footprints** — the measured per-row heap bytes of each cell's AU
//!   input in the row, generic-columnar and typed-columnar layouts;
//! * **kernel sweeps** — `truth_batch` / `eval_batch` on typed lanes against
//!   the same columns demoted to generic `Value` lanes, which the kernels
//!   leave to the row semantics, cell by cell;
//! * **streaming** — a window subscription, and a `LIMIT 10` one, each
//!   absorbing 64-row appends incrementally against the statement re-run
//!   over the catalog after each append;
//! * **pruning** — a clustered filter-scan statement with zone-map batch
//!   skipping on and off, prepared and executed afresh per timed run;
//! * **append** — a 64-row catalog append onto a 16 384-row and onto a
//!   131 072-row table: the cost of the batch, not of the table;
//! * **ingest** — ns per row of the AU-CSV loader on `serve_mix`'s
//!   registered table and on one of its append batches, beside `to_rows`
//!   of the same table;
//! * **sort stages** — where one 32 768-row native sort spends its time,
//!   and the same sort led by a 4-valued column (every prefix tied) or by
//!   strings that share ten key bytes, or Iceberg's sightings by date;
//!   **window stages** — the same for the two windows of the repo
//!   benchmark's `window_scan` over 8 192 rows, and for `serve_mix`'s
//!   window over an append-only series of 2 048, where no frame is full of
//!   certain members and every close scans the pool;
//!   **cmp-semantics** and **window aggregates** — ablations;
//!   **filter stages** — per statement of the repo benchmark's
//!   `filter_scan` at its size, the fused stage, the predicate sweeps
//!   inside it and the breaker;
//! * **window scaling** — ns per row of the native window from 16 384 to
//!   131 072 rows (1 048 576 printed, not gated), with the size of the
//!   possible-member pool a closing window scans;
//! * **window dup-scaling** — a partitioned SQL window over tables with
//!   duplicated rows and uncertain partition values, at 2 048 and 16 384
//!   rows.
//!
//! [`run`] prints every block, then one line per gate of [`check`] — the
//! only place a threshold is written (DESIGN.md §7 repeats them in prose)
//! — and returns the process exit code. `AUDB_THREADS` pins the worker
//! count here as it does everywhere else.

use audb_core::{
    AuColumns, AuRelation, AuTuple, Mult3, PhysType, RangeExpr, RangeValue, WinAgg, ZONE_ROWS,
};
use audb_engine::{
    exec, CmpSemantics, Engine, Op, Plan, Query, Reference, Session, SharedCatalog, WindowSpec,
};
// lint: allow(no-direct-backend-call) -- the window/scaling residency line reads the pool of a sweep the kernel keeps to itself
use audb_native::WindowMaintain;
use audb_rel::{CmpOp, Schema, Value};
use audb_workloads::read_au_csv_columns;
use audb_workloads::runner::{selected_guess, sort_plan, window_plan};
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row counts of the cell, streaming and pruning sweeps by default.
pub const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// Selectivities (percent of rows passing the clustered-key predicate)
/// the pruning sweep measures.
pub const SELECTIVITIES: [u32; 3] = [1, 10, 50];

/// Row counts of the `sort/scaling` block, whatever `--sizes` says:
/// cache-resident, past cache, and (not under `--quick`) far past it.
pub const SCALING_ROWS: [usize; 3] = [32_768, 262_144, 1_048_576];

/// Row counts of the `append/flat` block, whatever `--sizes` says: the
/// table a [`STREAM_BATCH`]-row batch is appended to.
pub const APPEND_ROWS: [usize; 2] = [16_384, 131_072];

/// Row counts of the `window/scaling` block, whatever `--sizes` says; the
/// largest (not under `--quick`) is printed once and carries no gate.
pub const WINDOW_SCALING_ROWS: [usize; 3] = [16_384, 131_072, 1_048_576];

/// Row counts of the `window/dup-scaling` block, whatever `--sizes` says.
pub const WINDOW_DUP_ROWS: [usize; 2] = [2_048, 16_384];

/// Rows of the `ingest/csv` table: `serve_mix`'s registered `w`.
const INGEST_ROWS: usize = 16_384;

/// Rows of the `sort/stages`, `window/stages` (the repo benchmark's
/// `window_scan` table size), `sort/cmp-semantics` (the quadratic
/// reference backend) and `window/aggregates` blocks.
const STAGE_ROWS: usize = 32_768;
const WINDOW_STAGE_ROWS: usize = 8_192;
const SERIES_STAGE_ROWS: usize = 2_048;
const CMP_ROWS: usize = 600;
const AGGREGATE_ROWS: usize = 4_000;

/// Benchmark configuration (the `repro bench` flags).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Fewer runs per cell and no 1 048 576-row scaling cell (smoke runs).
    pub quick: bool,
    /// Row counts to measure.
    pub sizes: Vec<usize>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            quick: false,
            sizes: SIZES.to_vec(),
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// `sort`, `window`, or `sort_sel` (select/project stages ahead of the
    /// sort — the plan shape pipelining targets).
    pub op: &'static str,
    /// `det` / `imp` / `rewr`.
    pub method: &'static str,
    /// Input rows.
    pub n: usize,
    /// Median milliseconds per run.
    pub ms: f64,
}

/// Measured per-row heap footprint of one op's AU input table under the
/// three storage layouts.
#[derive(Clone, Debug)]
pub struct Footprint {
    /// The op whose input this is (see [`Measurement::op`]).
    pub op: &'static str,
    /// Input rows.
    pub n: usize,
    /// Bytes per row in the **row** layout (`AuRelation::heap_bytes`).
    pub row: f64,
    /// Bytes per row in the **generic columnar** layout (struct-of-arrays
    /// `Value` lanes, measured by demoting the typed columns).
    pub columnar: f64,
    /// Bytes per row in the **typed** columnar layout (monomorphic
    /// `i64`/`f64`/dictionary lanes + certainty bitmaps — what
    /// `to_columns()` builds).
    pub typed: f64,
    /// Physical layout of each input column in the typed layout.
    pub phys: Vec<PhysType>,
}

fn footprint(op: &'static str, typed: &AuColumns) -> Footprint {
    let n = typed.len().max(1) as f64;
    Footprint {
        op,
        n: typed.len(),
        row: typed.to_rows().heap_bytes() as f64 / n,
        columnar: typed.to_generic().heap_bytes() as f64 / n,
        typed: typed.heap_bytes() as f64 / n,
        phys: typed.col_phys_types(),
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall milliseconds of `runs` calls of `f`.
fn time_median(mut f: impl FnMut(), runs: usize) -> f64 {
    median(
        (0..runs)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

fn cell(
    op: &'static str,
    method: &'static str,
    n: usize,
    f: impl FnMut(),
    runs: usize,
) -> Measurement {
    Measurement {
        op,
        method,
        n,
        ms: time_median(f, runs),
    }
}

fn execute(engine: &Engine, plan: &Plan) {
    std::hint::black_box(engine.execute(plan).expect("bench plan executes"));
}

/// Measure every (op, method, n) cell and every (op, n) input footprint.
pub fn measure(cfg: &BenchConfig) -> (Vec<Measurement>, Vec<Footprint>) {
    let runs = if cfg.quick { 3 } else { 7 };
    let mut cells = Vec::new();
    let mut footprints = Vec::new();
    // One logical plan per op, two engine backends: only the physical
    // operators differ between the timed AU cells.
    let mut au_cells = |cells: &mut Vec<Measurement>, op, n, plan: &Plan| {
        footprints.push(footprint(op, &plan.source_columns().contiguous()));
        for (method, engine) in [("imp", Engine::native()), ("rewr", Engine::rewrite())] {
            cells.push(cell(op, method, n, || execute(&engine, plan), runs));
        }
    };
    for &n in &cfg.sizes {
        let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
        let order = [0usize, 1];
        let det_plan = sort_plan(selected_guess(&table), &order, None);
        let det_sort = || execute(&Engine::Native, &det_plan);
        cells.push(cell("sort", "det", n, det_sort, runs));
        let plan = sort_plan(table.to_au_relation(), &order, None);
        au_cells(&mut cells, "sort", n, &plan);

        // Streamable stages ahead of the breaker (≈50% selectivity on the
        // certain `b` attribute, then a computed projection): one fused
        // sweep in the pipeline executor.
        let mid = (n as i64 * 20) / 2;
        let sel_plan = Query::scan(table.to_au_relation())
            .select(RangeExpr::col(1).le(RangeExpr::lit(mid)))
            .project_exprs([
                (RangeExpr::col(0), "a".to_string()),
                (
                    RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::col(2))),
                    "bid".to_string(),
                ),
            ])
            .sort_by(["a", "bid"])
            .build()
            .expect("sort_sel plan is valid");
        au_cells(&mut cells, "sort_sel", n, &sel_plan);

        let wtable = gen_window_table(&SyntheticConfig::default().rows(n).seed(4));
        let det_plan = window_plan(selected_guess(&wtable), &[0], WinAgg::Sum(2), -2, 0);
        let det_window = || execute(&Engine::Native, &det_plan);
        cells.push(cell("window", "det", n, det_window, runs));
        let wplan = window_plan(wtable.to_au_relation(), &[0], WinAgg::Sum(2), -2, 0);
        au_cells(&mut cells, "window", n, &wplan);
    }
    (cells, footprints)
}

/// One typed-vs-generic vectorized kernel sweep: the same expression over
/// the same columns, once on the typed lanes and once after demoting them
/// to generic `Value` lanes, where the typed tier declines and the row
/// semantics runs cell by cell.
#[derive(Clone, Debug)]
pub struct KernelSweep {
    /// `truth_batch` (the `sort_sel` selection predicate), `eval_batch`
    /// (its computed projection) or `conjunction` (two column compares).
    pub kernel: &'static str,
    /// Input rows per sweep.
    pub n: usize,
    /// Rows per second on the typed lanes.
    pub typed_rows_per_sec: f64,
    /// Rows per second on the demoted generic lanes (the cell-by-cell
    /// row semantics).
    pub generic_rows_per_sec: f64,
}

/// Time the vectorized kernels of the `sort_sel` plan's expressions —
/// the selection predicate through `truth_batch` and the computed
/// projection through `eval_batch` — and `filter_scan`'s conjunction of
/// two column-vs-column compares, per executor batch, on typed vs
/// demoted-generic columns of the same relation.
pub fn measure_kernels(cfg: &BenchConfig) -> Vec<KernelSweep> {
    let runs = if cfg.quick { 5 } else { 15 };
    let n = cfg.sizes.iter().copied().max().unwrap_or(16_000);
    let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
    let typed = table.to_au_relation().to_columns();
    let generic = typed.to_generic();
    let mid = (n as i64 * 20) / 2;
    let pred = RangeExpr::col(1).le(RangeExpr::lit(mid));
    let proj = RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::col(2)));
    // `filter_scan`'s shape: ranged `a` against certain `b` and `id`.
    let conj = (RangeExpr::col(0).lt(RangeExpr::col(1)))
        .and(RangeExpr::col(0).cmp(CmpOp::Gt, RangeExpr::col(2)));
    let mut out = Vec::new();
    let mut sweep = |kernel: &'static str, f: &mut dyn FnMut(&AuColumns)| {
        let t_ms = time_median(|| f(&typed), runs);
        let g_ms = time_median(|| f(&generic), runs);
        out.push(KernelSweep {
            kernel,
            n,
            typed_rows_per_sec: n as f64 * 1e3 / t_ms,
            generic_rows_per_sec: n as f64 * 1e3 / g_ms,
        });
    };
    sweep("truth_batch", &mut |cols| {
        std::hint::black_box(pred.truth_batch(&cols.as_batch()));
    });
    sweep("eval_batch", &mut |cols| {
        std::hint::black_box(proj.eval_batch(&cols.as_batch()));
    });
    sweep("conjunction", &mut |cols| {
        for b in cols.batches(exec::DEFAULT_BATCH_SIZE) {
            std::hint::black_box(conj.truth_batch(&b));
        }
    });
    out
}

/// One streaming cell: `n` rows pushed through a subscription in
/// [`STREAM_BATCH`]-row appends, and through the catalog with the statement
/// re-run after each, within one run so the speedup is immune to cross-run
/// noise.
#[derive(Clone, Debug, Default)]
pub struct StreamingRun {
    /// Rows streamed — or, for `streaming-topk`, held when the timed
    /// appends start.
    pub n: usize,
    /// Number of timed appends.
    pub appends: usize,
    /// Sustained append rate of the incremental arm.
    pub appends_per_sec: f64,
    /// Median per-append latency of the incremental arm, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-append latency, microseconds.
    pub p99_us: f64,
    /// Wall total of the incremental arm, milliseconds.
    pub incremental_ms: f64,
    /// Wall total of the at-rest arm over the same batches: each appended
    /// to the catalog, and the statement prepared, executed and normalized.
    pub recompute_ms: f64,
    /// `recompute_ms / incremental_ms`.
    pub speedup: f64,
}

/// Rows per streaming append; small enough that per-append latency is
/// dominated by the maintenance work, large enough to amortize the
/// batch-side sort.
pub const STREAM_BATCH: usize = 64;

const STREAM_SQL: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
                          ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS roll FROM s";

/// The top-k subscription of the `streaming-topk` block: its incremental
/// state is [`audb_native::TopKMaintain`]'s candidate band, kept across
/// appends, and the block is what says it earns its keep over re-running
/// the one-shot top-k per append.
const STREAM_TOPK_SQL: &str = "SELECT * FROM s ORDER BY o AS rank LIMIT 10";

fn stream_schema() -> Schema {
    Schema::new(["o", "v"])
}

/// A deterministic in-order sensor stream split into `batch`-row appends:
/// strictly increasing uncertain order keys (stride 4, spread ≤ 2, so
/// every batch lands past the accumulated frontier and the subscription
/// stays on the incremental path) and ~20% of readings carrying a value
/// band. Multiplicities are certain — readings exist for sure, only their
/// measurements are banded. That keeps the open tail frame-bounded: an
/// existence-uncertain row widens every later row's position range
/// permanently, so Θ(n) windows would stay open and the per-append delta
/// itself would be Θ(n) regardless of maintenance strategy (DESIGN.md
/// §13.1).
fn stream_batches(n: usize, batch: usize) -> Vec<AuRelation> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = 0i64;
    let mut out = Vec::new();
    let mut rows = Vec::with_capacity(batch);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        t += 4;
        let spread = (state % 3) as i64;
        let v = ((state >> 8) % 100) as i64 - 50;
        let value = if state.is_multiple_of(5) {
            RangeValue::new(v - 2, v, v + 2)
        } else {
            RangeValue::certain(v)
        };
        rows.push((
            AuTuple::new([RangeValue::new(t, t + spread / 2, t + spread), value]),
            Mult3::ONE,
        ));
        if rows.len() == batch {
            out.push(AuRelation::from_rows(stream_schema(), rows.split_off(0)));
        }
    }
    if !rows.is_empty() {
        out.push(AuRelation::from_rows(stream_schema(), rows));
    }
    out
}

/// Appends the `streaming-topk` block times onto its `n`-row table: the
/// cost of an append *at* `n` rows. (Streamed from empty the recompute arm
/// averages half the table, and the one-shot top-k's own band makes that a
/// 3–5 × ratio at 16 000 rows, not the 9 × an append onto them reads.)
const TOPK_APPENDS: usize = 64;

/// Measure one streaming block: the same append sequence absorbed by a
/// subscription to `sql` incrementally and — the baseline, what a client
/// without a subscription does — appended to the catalog with `sql` re-run
/// after each append, per configured size `n`. With `onto = None` the `n`
/// rows stream into an empty table; with `Some(appends)` they are the
/// subscribed table, and `appends` more are timed.
pub fn measure_streaming(cfg: &BenchConfig, sql: &str, onto: Option<usize>) -> Vec<StreamingRun> {
    cfg.sizes
        .iter()
        .map(|&n| {
            let (extra, head) =
                onto.map_or((0, 0), |appends| (appends * STREAM_BATCH, n / STREAM_BATCH));
            let mut timed = stream_batches(n + extra, STREAM_BATCH);
            let mut table = AuRelation::empty(stream_schema());
            (timed.drain(..head)).for_each(|mut b| table.append(&mut b));
            let session = || {
                let catalog = SharedCatalog::new();
                catalog.register("s", table.clone());
                Session::with_catalog(Engine::native(), catalog)
            };
            // One arm: total milliseconds and sorted per-append microseconds.
            let time = |append: &mut dyn FnMut(&AuRelation)| {
                let mut lat = Vec::with_capacity(timed.len());
                let started = Instant::now();
                for b in &timed {
                    let t = Instant::now();
                    append(b);
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                }
                let total_ms = started.elapsed().as_secs_f64() * 1e3;
                lat.sort_by(f64::total_cmp);
                (total_ms, lat)
            };

            let mut q = session().subscribe(sql).expect("streaming SQL compiles");
            let (incremental_ms, lat) = time(&mut |b| {
                std::hint::black_box(q.append(b).expect("in-order append"));
            });
            assert_eq!(
                q.strategy_counts(),
                (timed.len() as u64, 0),
                "streaming bench fell off the incremental path"
            );
            let p50_us = lat[lat.len() / 2];
            let p99_us = lat[(lat.len() - 1) * 99 / 100];
            let at_rest = session();
            let (recompute_ms, _) = time(&mut |b| {
                (at_rest.shared_catalog().append("s", b)).expect("schema matches");
                let prepared = at_rest.prepare(sql).expect("streaming SQL compiles");
                let out = at_rest.execute(&prepared).expect("streaming SQL runs");
                std::hint::black_box(out.normalize().expect("no overflow"));
            });

            StreamingRun {
                n,
                appends: timed.len(),
                appends_per_sec: timed.len() as f64 * 1e3 / incremental_ms,
                p50_us,
                p99_us,
                incremental_ms,
                recompute_ms,
                speedup: recompute_ms / incremental_ms,
            }
        })
        .collect()
}

/// One zone-map pruning cell: a filter-scan statement
/// (`scan → select → project_exprs`) over a clustered certain key,
/// prepared and executed afresh per timed run with zone-map batch
/// skipping on and off **within the same run** (so the speedup is immune
/// to cross-run noise), at one selectivity.
#[derive(Clone, Debug)]
pub struct PruningRun {
    /// Input rows.
    pub n: usize,
    /// Percent of rows the predicate keeps.
    pub sel_pct: u32,
    /// Median wall milliseconds with zone-map pruning (the default path).
    pub pruned_ms: f64,
    /// Median wall milliseconds with pruning disabled (`prune = false` to
    /// `exec::run_pipelined`) — same statement, same catalog, same path.
    pub unpruned_ms: f64,
    /// `unpruned_ms / pruned_ms`.
    pub speedup: f64,
    /// Source batches skipped outright by a provably-false zone verdict.
    pub batches_skipped: usize,
    /// Source batches that ran through the fused select chain.
    pub batches_scanned: usize,
}

/// A clustered AU table for the pruning sweep: a certain, strictly
/// increasing key `t` (so zone bound boxes are disjoint and a range
/// predicate is provably-false on most zones) and an uncertain value
/// band `v` (so the relation is genuinely AU — the pruning decision must
/// come from the zone maps, not from degenerate certainty).
fn clustered_table(n: usize) -> AuRelation {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    AuRelation::from_rows(
        Schema::new(["t", "v"]),
        (0..n).map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 1000) as i64;
            (
                AuTuple::new([
                    RangeValue::certain(i as i64),
                    RangeValue::new(v - 1, v, v + 1),
                ]),
                Mult3::ONE,
            )
        }),
    )
}

/// Measure the pruning sweep the way a SQL caller runs it: the table is
/// registered once in a shared catalog and **every timed run is a fresh
/// `prepare` + `execute` of the statement text** — no run holds a warm
/// plan. The statement is the filter-scan shape zone maps accelerate
/// (`scan → select → project_exprs`) with the selection on the clustered
/// key at each of [`SELECTIVITIES`]. Both arms run `prepare` +
/// `exec::run_pipelined` at the engine's batch size + `to_rows` over the
/// same catalog within one run, and differ only in `prune`.
/// Deliberately no trailing breaker: a sort's cost scales with the
/// *surviving* rows, identical in both arms, and at 1% selectivity it
/// would dominate both sides and dilute the measured contrast into noise.
pub fn measure_pruning(cfg: &BenchConfig) -> Vec<PruningRun> {
    let runs = if cfg.quick { 7 } else { 21 };
    let mut out = Vec::new();
    for &n in &cfg.sizes {
        let catalog = SharedCatalog::new();
        catalog.register("c", clustered_table(n));
        let session = Session::with_catalog(Engine::Native, catalog);
        for pct in SELECTIVITIES {
            let threshold = (n as i64 * pct as i64) / 100;
            let sql = format!("SELECT t, v + 1 AS v1 FROM c WHERE t < {threshold}");
            let statement = |prune: bool| {
                let prepared = session.prepare(&sql).expect("pruning statement compiles");
                let plan = prepared.plan();
                let batch_size = session.engine().choose_exec(plan).batch_size;
                let run = exec::run_pipelined(plan, batch_size, prune, &());
                run.expect("pruning statement runs").to_rows()
            };
            // One traced statement collects the skip counters.
            let prepared = session.prepare(&sql).expect("pruning statement compiles");
            let traced = session.engine().execute_traced(prepared.plan());
            let (_, trace) = traced.expect("pruning statement runs");
            let statement_ms = |prune: bool| {
                time_median(
                    || {
                        std::hint::black_box(statement(prune));
                    },
                    runs,
                )
            };
            let pruned_ms = statement_ms(true);
            let unpruned_ms = statement_ms(false);
            out.push(PruningRun {
                n,
                sel_pct: pct,
                pruned_ms,
                unpruned_ms,
                speedup: unpruned_ms / pruned_ms,
                batches_skipped: trace.batches_skipped,
                batches_scanned: trace.batches_scanned,
            });
        }
    }
    out
}

/// One `append/flat` cell: [`SharedCatalog::append`] of a
/// [`STREAM_BATCH`]-row batch onto a table registered with `n` rows.
#[derive(Clone, Debug, Default)]
pub struct AppendRun {
    /// Rows the table was registered with.
    pub n: usize,
    /// Median microseconds per append.
    pub us: f64,
}

/// Measure the append block at [`APPEND_ROWS`]: the median of 21
/// consecutive appends (7 under `--quick`) of one [`STREAM_BATCH`]-row
/// batch — the table grows by the batches, the open tail with it, and the
/// registered rows are never touched, so the two sizes should read alike.
/// Before the catalog stored segments an append copied the table and
/// re-swept its statistics: 8 × between these sizes.
pub fn measure_append(cfg: &BenchConfig) -> Vec<AppendRun> {
    let runs = if cfg.quick { 7 } else { 21 };
    let batch = clustered_table(STREAM_BATCH);
    APPEND_ROWS
        .iter()
        .map(|&n| {
            let catalog = SharedCatalog::new();
            catalog.register("c", clustered_table(n));
            let append = || {
                std::hint::black_box(catalog.append("c", &batch).expect("same schema"));
            };
            AppendRun {
                n,
                us: time_median(append, runs) * 1e3,
            }
        })
        .collect()
}

/// AU-CSV of rows `from..from + n` of an append-only series shaped like
/// the repo benchmark's served table `w(o, g, v, id)`: row `i`'s `o` in the
/// `i`-th stride of 200, ranged (the hull of four draws in 1 000) on one
/// row in twenty, a fifth of those possibly absent; `g` one of eight; `v`
/// ranged on one row in twenty — what `/register` and `/append` parse.
fn served_csv(from: usize, n: usize) -> String {
    let mut state = 0x0C57_10ADu64 ^ from as u64;
    let mut draw = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below) as i64
    };
    let ranged = |base: i64, draw: &mut dyn FnMut(u64) -> i64| match draw(20) {
        0 => {
            let alts = [0; 4].map(|_| base + draw(1_000));
            let (lo, hi) = (alts.iter().min(), alts.iter().max());
            [*lo.expect("four"), alts[0], *hi.expect("four")]
        }
        _ => [base; 3],
    };
    let mut out = String::from("o_lb,o,o_ub,g,v_lb,v,v_ub,id,mult_lb,mult_sg,mult_ub\n");
    for id in from..from + n {
        let o = ranged(200 * id as i64 + draw(200), &mut draw);
        let g = draw(8);
        let v = ranged(draw(200 * INGEST_ROWS as u64), &mut draw);
        let mult = match o[0] != o[2] && draw(5) == 0 {
            true => "0,1,1",
            false => "1,1,1",
        };
        let (o, v) = (o.map(|x| x.to_string()), v.map(|x| x.to_string()));
        let _ = writeln!(out, "{},{g},{},{id},{mult}", o.join(","), v.join(","));
    }
    out
}

/// The `ingest/csv` block: `(rows, what, ns per row)` of
/// `read_au_csv_columns` over a 16 384-row table shaped like the repo
/// benchmark's served `w` (`load`), of `to_rows` over the columns it loads
/// — the within-run yardstick — and of `read_au_csv_columns` over one
/// [`STREAM_BATCH`]-row batch of it, timed 100 loads at a time. Medians of
/// the runs.
pub fn measure_ingest(cfg: &BenchConfig) -> Vec<(usize, &'static str, f64)> {
    let runs = if cfg.quick { 5 } else { 21 };
    let load = |csv: &str| read_au_csv_columns(csv.as_bytes()).expect("generated AU-CSV loads");
    let table = served_csv(0, INGEST_ROWS);
    let batch = served_csv(INGEST_ROWS, STREAM_BATCH);
    let cols = load(&table);
    let ns_per_row = |rows: usize, f: &mut dyn FnMut()| time_median(f, runs) * 1e6 / rows as f64;
    let table_ns = ns_per_row(INGEST_ROWS, &mut || drop(load(&table)));
    let to_rows_ns = ns_per_row(INGEST_ROWS, &mut || drop(cols.to_rows()));
    let batch_ns = ns_per_row(100 * STREAM_BATCH, &mut || {
        (0..100).for_each(|_| drop(load(&batch)));
    });
    vec![
        (INGEST_ROWS, "load", table_ns),
        (INGEST_ROWS, "to_rows", to_rows_ns),
        (STREAM_BATCH, "load", batch_ns),
    ]
}

/// One `sort/scaling` cell: `sort/imp` over `n` rows.
#[derive(Clone, Debug, Default)]
pub struct ScalingRun {
    /// Input rows.
    pub n: usize,
    /// Median milliseconds per sort.
    pub ms: f64,
    /// `ms` over `n`, in nanoseconds.
    pub ns_per_row: f64,
}

/// Measure `sort/imp` at [`SCALING_ROWS`] (the largest only without
/// `--quick`). The rank sweep once fell off a cache cliff between the
/// first two sizes (32 → 72 → 113 ms from 32k to 64k rows).
pub fn measure_scaling(cfg: &BenchConfig) -> Vec<ScalingRun> {
    let runs = if cfg.quick { 3 } else { 5 };
    let sizes = &SCALING_ROWS[..if cfg.quick { 2 } else { 3 }];
    let engine = Engine::native();
    sizes
        .iter()
        .map(|&n| {
            let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
            let plan = sort_plan(table.to_au_relation(), &[0, 1], None);
            let ms = time_median(|| execute(&engine, &plan), runs);
            ScalingRun {
                n,
                ms,
                ns_per_row: ms * 1e6 / n as f64,
            }
        })
        .collect()
}

/// Where one native sort of 32 768 rows spends its time: median
/// milliseconds per stage of the kernel, as the executor's recorder hears
/// it (DESIGN.md §3.3 has the table). `lead`: the same table with a
/// certain `g = lead(row)` put ahead of it and sorted `ORDER BY g, b`.
/// With `tied_lead` every key shares its prefix with a quarter of the
/// others — the worst case of a ranking that encodes key bytes only where
/// prefixes tie; with `string_lead` all of them do.
pub fn measure_sort_stages(
    cfg: &BenchConfig,
    lead: Option<fn(usize) -> Value>,
) -> Vec<(&'static str, f64)> {
    let rel = gen_sort_table(&SyntheticConfig::default().rows(STAGE_ROWS).seed(3)).to_au_relation();
    let plan = match lead {
        Some(lead) => {
            let rows = (rel.rows().iter().enumerate()).map(|(i, row)| {
                let g = RangeValue::certain(lead(i));
                let tuple = AuTuple::new(std::iter::once(g).chain(row.tuple.0.iter().cloned()));
                (tuple, row.mult)
            });
            let schema = Schema::new(["g", "a", "b", "id"]);
            sort_plan(AuRelation::from_rows(schema, rows), &[0, 2], None)
        }
        None => sort_plan(rel, &[0, 1], None),
    };
    stage_medians(cfg, &[plan])
}

/// Median over the runs of each kernel stage's milliseconds, as one
/// [`exec::Recorder`] per run hears the native executor run every plan of
/// `plans`: summed over the plans and every window partition, in the order
/// the stages were first reported — the same in every run —, and last
/// `to_rows`, the row door (`Session::sql`'s) over each run's own outputs.
fn stage_medians(cfg: &BenchConfig, plans: &[Plan]) -> Vec<(&'static str, f64)> {
    // Stages of a 2 048-row window last tens of microseconds: more runs.
    let small = plans[0].source_columns().len() < WINDOW_STAGE_ROWS;
    let runs = match (cfg.quick, small) {
        (true, _) => 3,
        (false, false) => 7,
        (false, true) => 41,
    };
    let heard: Vec<_> = (0..runs)
        .map(|_| {
            let (recorder, mut to_rows) = (exec::Recorder::default(), Duration::ZERO);
            for plan in plans {
                let out = exec::run_pipelined(plan, exec::DEFAULT_BATCH_SIZE, true, &recorder);
                let (out, t) = (out.expect("bench plan executes"), Instant::now());
                let rows = out.to_rows();
                to_rows += t.elapsed();
                std::hint::black_box(rows);
            }
            let mut stages = recorder.finish().stages;
            stages.push(("to_rows", to_rows));
            stages
        })
        .collect();
    (0..heard[0].len())
        .map(|s| {
            let ms = heard.iter().map(|run| run[s].1.as_secs_f64() * 1e3);
            (heard[0][s].0, median(ms.collect()))
        })
        .collect()
}

/// The rows and the stage split of a sort by `date` of the simulated
/// Iceberg sightings (scale 0.1, the figures' seed): about 15 rows to each
/// of 1 095 dates, the tie density of the paper's window queries.
pub fn measure_iceberg_stages(cfg: &BenchConfig) -> (usize, Vec<(&'static str, f64)>) {
    let iceberg = audb_workloads::iceberg(0.1, 123);
    let plan = sort_plan(iceberg.window.table.to_au_relation(), &[0], None);
    (iceberg.rows, stage_medians(cfg, &[plan]))
}

/// The `sort/tied-stages` lead: four integers.
fn tied_lead(row: usize) -> Value {
    Value::Int((row % 4) as i64)
}

/// The `sort/str-stages` lead: 4 096 sensor names whose keys share their
/// first ten bytes — past the prefix.
fn string_lead(row: usize) -> Value {
    Value::str(format!("sensor-{:06}", row % 4096))
}

/// `agg` over the two preceding rows and the current one in column 0's
/// order, per `partition` or over the whole of `rel`, as an engine plan.
/// Over `gen_window_table`'s `(o, g, v, id)` with `SUM(v)` — per `g` or
/// not — it is the window the repo benchmark's `window_scan` runs.
fn window_over(rel: Arc<AuRelation>, partition: Option<usize>, agg: WinAgg) -> Plan {
    let window = (WindowSpec::rows(-2, 0).order_by([0])).partition_by(partition);
    let query = Query::scan(rel).window(window.aggregate(agg).output("s"));
    query.build().expect("bench window plan is valid")
}

fn window_table(n: usize) -> AuRelation {
    gen_window_table(&SyntheticConfig::default().rows(n).seed(3)).to_au_relation()
}

/// Mean and maximum size of the possible-member pool where a window of
/// `plan` — one window, no partition — closes, over its source.
fn pool_residency(plan: &Plan) -> (f64, usize) {
    let Op::Window { spec, agg, .. } = &plan.ops()[0] else {
        unreachable!("a window plan")
    };
    let mut sweep = WindowMaintain::new(spec.clone(), *agg);
    sweep.apply(&plan.source_columns().contiguous(), 0);
    sweep.pool_residency()
}

/// Where one `window_scan` operation — the partitioned window, then the
/// partitionless one, over 8 192 rows — spends its time: median over the
/// runs of each stage's milliseconds summed over both statements and every
/// partition (DESIGN.md §3.4 has the table).
pub fn measure_window_stages(cfg: &BenchConfig) -> Vec<(&'static str, f64)> {
    let rel = Arc::new(window_table(WINDOW_STAGE_ROWS));
    let scan = |partition| window_over(rel.clone(), partition, WinAgg::Sum(2));
    stage_medians(cfg, &[scan(Some(1)), scan(None)])
}

/// An append-only series `(o, v)` of `n` rows, the shape of the repo
/// benchmark's served window table: row `i`'s `o` lies in the `i`-th stride
/// of 200, one row in twenty has a range of `o` (the hull of four draws in
/// 1 000), one in a hundred — a fifth of those — may be absent, and one in
/// twenty has a range of `v`. Every possibly absent row widens the position
/// range of every row after it (DESIGN.md §13.1), so past the first few no
/// frame is full of certain members.
fn series_table(n: usize) -> AuRelation {
    let mut state = 0x005E_41E5u64;
    let mut draw = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below) as i64
    };
    let hull = |draw: &mut dyn FnMut(u64) -> i64, base: i64| {
        let alts = [0; 4].map(|_| base + draw(1_000));
        let (lo, hi) = (alts.iter().min(), alts.iter().max());
        RangeValue::new(*lo.expect("four"), alts[0], *hi.expect("four"))
    };
    let rows = (0..n as i64).map(|i| {
        let base = 200 * i + draw(200);
        let uncertain_o = draw(20) == 0;
        let o = match uncertain_o {
            true => hull(&mut draw, base),
            false => RangeValue::certain(base),
        };
        let v = draw(200 * n as u64);
        let v = match draw(20) {
            0 => hull(&mut draw, v),
            _ => RangeValue::certain(v),
        };
        let mult = match uncertain_o && draw(5) == 0 {
            true => Mult3::new(0, 1, 1),
            false => Mult3::ONE,
        };
        (AuTuple::new([o, v]), mult)
    });
    AuRelation::from_rows(Schema::new(["o", "v"]), rows)
}

/// `serve_mix`'s window — `SUM(v)` over the two preceding rows in `o`
/// order, no partition — over a 2 048-row append-only series, stage by
/// stage as [`measure_window_stages`] splits `window_scan`, and the size of
/// the pool where a window closes (mean, maximum).
pub fn measure_series_stages(cfg: &BenchConfig) -> (Vec<(&'static str, f64)>, (f64, usize)) {
    let plan = window_over(series_table(SERIES_STAGE_ROWS).into(), None, WinAgg::Sum(1));
    let pool = pool_residency(&plan);
    (stage_medians(cfg, &[plan]), pool)
}

/// One `window/scaling` cell: the native window over `n` rows.
#[derive(Clone, Debug, Default)]
pub struct WindowScalingRun {
    /// Input rows.
    pub n: usize,
    /// `PARTITION BY g` (eight values) or one sweep over the table.
    pub partitioned: bool,
    /// Median milliseconds per window.
    pub ms: f64,
    /// `ms` over `n`, in nanoseconds.
    pub ns_per_row: f64,
    /// Mean and maximum size of the possible-member pool where a window
    /// closes (the partitionless cells; zero on the partitioned ones).
    pub pool: (f64, usize),
}

/// Measure the native window as the engine runs it — partitions swept in
/// parallel, on `AUDB_THREADS` workers — at [`WINDOW_SCALING_ROWS`]:
/// median of 5 (3 under `--quick`), the largest size once and only without
/// `--quick`. The uncertain order ranges are as wide at every size
/// ([`SyntheticConfig::range`]) while the domain grows with the table, so
/// the pool a closing window scans should not: if its residency grows with
/// `n`, ns per row will, and the line says so beside the gate.
pub fn measure_window_scaling(cfg: &BenchConfig) -> Vec<WindowScalingRun> {
    let sizes = &WINDOW_SCALING_ROWS[..if cfg.quick { 2 } else { 3 }];
    let mut out = Vec::new();
    for &n in sizes {
        let runs = match (n == WINDOW_SCALING_ROWS[2], cfg.quick) {
            (true, _) => 1,
            (false, true) => 3,
            (false, false) => 5,
        };
        let rel = Arc::new(window_table(n));
        let plans = [None, Some(1)].map(|g| window_over(rel.clone(), g, WinAgg::Sum(2)));
        drop(rel);
        for (partitioned, plan) in [false, true].into_iter().zip(plans) {
            let window = || {
                let out = Engine::native()
                    .execute(&plan)
                    .expect("bench plan executes");
                std::hint::black_box(out);
            };
            let ms = time_median(window, runs);
            let pool = match partitioned {
                true => (0.0, 0),
                false => pool_residency(&plan),
            };
            out.push(WindowScalingRun {
                n,
                partitioned,
                ms,
                ns_per_row: ms * 1e6 / n as f64,
                pool,
            });
        }
    }
    out
}

/// The `window/dup-scaling` statement: eight partitions, three-row frames.
const WINDOW_DUP_SQL: &str = "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS x FROM t";

/// The `window/dup-scaling` block: `WINDOW_DUP_SQL` through `Session::sql`
/// on the native engine — the path users run — over the rows of
/// `window_table`, one in a hundred annotated `(2,2,2)` and another one
/// in a hundred with `g = [g, g+1]`: `(rows, median ms)` at
/// [`WINDOW_DUP_ROWS`], of 5 runs (3 under `--quick`).
pub fn measure_window_dup(cfg: &BenchConfig) -> Vec<(usize, f64)> {
    let runs = if cfg.quick { 3 } else { 5 };
    (WINDOW_DUP_ROWS.iter())
        .map(|&n| {
            let mut table = window_table(n);
            for (i, row) in table.rows_mut().iter_mut().enumerate() {
                let g = row.tuple.get(1).sg.as_i64().expect("an integer g");
                match i % 100 {
                    0 => row.mult = Mult3::certain(2),
                    50 => row.tuple.0[1] = RangeValue::new(g, g, g + 1),
                    _ => {}
                }
            }
            let session = Session::new(Engine::native());
            session.register("t", table);
            let window = || {
                let out = session.sql(WINDOW_DUP_SQL).expect("bench statement runs");
                std::hint::black_box(out);
            };
            (n, time_median(window, runs))
        })
        .collect()
}

/// Rows of the `filter/stages` table: the repo benchmark's `filter_scan`.
pub const FILTER_STAGE_ROWS: usize = 131_072;

/// `filter_scan`'s table shape over `n` rows: a certain `id` in row order;
/// `a` and `b` over `[0, 20 n)`, each ranged (`[x, x + r, x + 999]`) on one
/// row in twenty; certain `c` over the lower six tenths and `d` over the
/// upper.
fn events_table(n: usize) -> AuRelation {
    let mut state = 42u64;
    let mut below = move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let domain = n as u64 * 20;
    let rows = (0..n).map(|id| {
        let mut ranged = || match (below(20), below(domain) as i64) {
            (0, x) => RangeValue::new(x, x + below(1000) as i64, x + 999),
            (_, x) => RangeValue::certain(x),
        };
        let (a, b) = (ranged(), ranged());
        let c = RangeValue::certain(below(domain * 6 / 10) as i64);
        let d = RangeValue::certain((domain * 4 / 10 + below(domain * 6 / 10)) as i64);
        (
            AuTuple::new([RangeValue::certain(id as i64), a, b, c, d]),
            Mult3::ONE,
        )
    });
    AuRelation::from_rows(Schema::new(["id", "a", "b", "c", "d"]), rows)
}

/// Where each of `filter_scan`'s statements spends its time, as
/// `execute_traced` hears it at [`FILTER_STAGE_ROWS`] — the fused stage
/// (`fuse(…)`), the predicate sweeps inside it (`truth_batch`, summed over
/// batches) and the breaker: per statement, median milliseconds.
pub fn measure_filter_stages(cfg: &BenchConfig) -> Vec<(String, f64)> {
    let runs = if cfg.quick { 5 } else { 21 };
    let n = FILTER_STAGE_ROWS;
    let session = Session::new(Engine::native());
    session.register("e", events_table(n));
    let ranked = |t| format!("SELECT * FROM e WHERE id < {t} ORDER BY a, b AS pos LIMIT 10");
    let conjunction =
        "SELECT id, a + b AS c FROM e WHERE a < c AND b > d ORDER BY c AS pos LIMIT 10";
    let mut out = Vec::new();
    for (s, sql) in [ranked(n / 100), ranked(n / 10), conjunction.into()]
        .iter()
        .enumerate()
    {
        let prepared = session.prepare(sql).expect("filter statement compiles");
        let heard: Vec<Vec<(String, f64)>> = (0..runs)
            .map(|_| {
                let traced = session.engine().execute_traced(prepared.plan());
                let (_, trace) = traced.expect("filter statement runs");
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let truth = trace
                    .stages
                    .iter()
                    .find(|(stage, _)| *stage == "truth_batch");
                let mut lines: Vec<_> = (trace.ops.iter().skip(1))
                    .map(|o| (o.label.clone(), ms(o.elapsed)))
                    .collect();
                lines.insert(1, ("truth_batch".into(), truth.map_or(0.0, |t| ms(t.1))));
                lines
            })
            .collect();
        for (i, (name, _)) in heard[0].iter().enumerate() {
            let ms = median(heard.iter().map(|run| run[i].1).collect());
            out.push((format!("{} {name}", s + 1), ms));
        }
    }
    out
}

/// Ablation: exact interval-lex vs the paper's syntactic recursion in the
/// quadratic reference (DESIGN.md §3.2). Both run the same plan through
/// the reference oracle's runner, differing only in the oracle's
/// comparison semantics.
pub fn measure_cmp_semantics(cfg: &BenchConfig) -> Vec<(&'static str, f64)> {
    let runs = if cfg.quick { 3 } else { 7 };
    let table = gen_sort_table(&SyntheticConfig::default().rows(CMP_ROWS).seed(4));
    let plan = sort_plan(table.to_au_relation(), &[0, 1], None);
    [
        ("interval-lex", CmpSemantics::IntervalLex),
        ("syntactic", CmpSemantics::Syntactic),
    ]
    .into_iter()
    .map(|(name, semantics)| {
        let oracle = Reference { semantics };
        let run = || {
            let out = exec::run_materialized(&oracle, &plan, &()).expect("bench plan executes");
            std::hint::black_box(out);
        };
        (name, time_median(run, runs))
    })
    .collect()
}

/// `window/imp`, once per aggregate function.
pub fn measure_window_aggregates(cfg: &BenchConfig) -> Vec<(&'static str, f64)> {
    let runs = if cfg.quick { 3 } else { 7 };
    let table = gen_window_table(&SyntheticConfig::default().rows(AGGREGATE_ROWS).seed(3));
    let engine = Engine::native();
    [
        ("sum", WinAgg::Sum(2)),
        ("count", WinAgg::Count),
        ("min", WinAgg::Min(2)),
        ("max", WinAgg::Max(2)),
        ("avg", WinAgg::Avg(2)),
    ]
    .into_iter()
    .map(|(name, agg)| {
        let plan = window_plan(table.to_au_relation(), &[0], agg, -2, 0);
        (name, time_median(|| execute(&engine, &plan), runs))
    })
    .collect()
}

/// One run's typed results. [`check`] reads all but the cells, which
/// carry no gate.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The (op, method, n) cells.
    pub cells: Vec<Measurement>,
    /// The (op, n) input footprints.
    pub footprints: Vec<Footprint>,
    /// The typed-vs-generic kernel sweeps.
    pub kernels: Vec<KernelSweep>,
    /// The streaming block.
    pub streaming: Vec<StreamingRun>,
    /// The `streaming-topk` block.
    pub streaming_topk: Vec<StreamingRun>,
    /// The pruning block.
    pub pruning: Vec<PruningRun>,
    /// The `sort/scaling` block.
    pub scaling: Vec<ScalingRun>,
    /// The `append/flat` block.
    pub append: Vec<AppendRun>,
    /// The `window/scaling` block.
    pub window_scaling: Vec<WindowScalingRun>,
    /// The `window/dup-scaling` block: `(rows, ms)`.
    pub window_dup: Vec<(usize, f64)>,
}

/// How one gate came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every row the gate applies to is within its threshold.
    Ok,
    /// At least one row is past it.
    Fail,
    /// The report has no row the gate applies to.
    Skipped,
}

/// One gate of [`check`], evaluated.
#[derive(Clone, Debug)]
pub struct GateResult {
    /// Short stable name.
    pub gate: &'static str,
    /// What must hold, threshold included.
    pub rule: String,
    /// The gate compares two measured times (or rates). The ordering of
    /// two times is a property of the optimized build, so [`Self::blocks`]
    /// enforces such a gate in release builds only.
    pub timed: bool,
    /// The outcome.
    pub verdict: Verdict,
    /// The offending rows' measured values on `Fail`, every row's on
    /// `Ok`, what the report lacks on `Skipped`.
    pub measured: String,
}

impl GateResult {
    /// Does this result fail the run?
    pub fn blocks(&self) -> bool {
        self.verdict == Verdict::Fail && (!self.timed || !cfg!(debug_assertions))
    }
}

/// Evaluate one gate over the rows it applies to, each already judged:
/// `(holds, its measured values)`.
fn gate(
    gate: &'static str,
    rule: String,
    timed: bool,
    lacks: &str,
    rows: impl Iterator<Item = (bool, String)>,
) -> GateResult {
    let rows: Vec<(bool, String)> = rows.collect();
    let failed = rows.iter().any(|(holds, _)| !holds);
    let shown: Vec<&str> = (rows.iter().filter(|(holds, _)| *holds != failed))
        .map(|(_, values)| values.as_str())
        .collect();
    let (verdict, measured) = match (failed, rows.is_empty()) {
        (true, _) => (Verdict::Fail, shown.join("; ")),
        (false, false) => (Verdict::Ok, shown.join("; ")),
        (false, true) => (Verdict::Skipped, format!("needs {lacks}")),
    };
    GateResult {
        gate,
        rule,
        timed,
        verdict,
        measured,
    }
}

/// The row count whose streaming and pruning cells carry a threshold of
/// their own (the largest default size: the ratios grow with n).
const GATE_ROWS: usize = 16_000;
/// Incremental maintenance over a recompute per append, at [`GATE_ROWS`].
const STREAMING_MIN_SPEEDUP: f64 = 5.0;
/// Zone-map skipping over the unpruned scan, at [`GATE_ROWS`] rows and 1 %.
const PRUNING_MIN_SPEEDUP: f64 = 2.0;
/// A 50 % statement's time over a 1 % one's, at [`GATE_ROWS`]: below it,
/// statements pay a per-statement cost proportional to the table again
/// (the transposition, before PR 18).
const PRUNING_MIN_SPREAD: f64 = 10.0;
/// ns per row at `SCALING_ROWS[1]` over ns per row at `SCALING_ROWS[0]`.
/// It reads 1.36–1.44 × since the sort stopped building tuples (PR 24:
/// five runs; 2.5 until then — `materialise` was the stage that did not
/// scale): the 1.5 × ROADMAP item 1 asked is reached as a reading, and the
/// gate keeps a fifth above it for a host that is noisy by that much.
const SCALING_MAX_RATIO: f64 = 1.7;
/// ns per row of the native window at `WINDOW_SCALING_ROWS[1]` over ns per
/// row at `WINDOW_SCALING_ROWS[0]`, partitioned and not (ROADMAP item 2b;
/// it read 1.25 × when the gate was set).
const WINDOW_SCALING_MAX_RATIO: f64 = 2.0;
/// The `window/dup-scaling` cell at `WINDOW_DUP_ROWS[1]` over the one at
/// `WINDOW_DUP_ROWS[0]`: 8 × the rows in at most this many times the time
/// (ROADMAP item 9; a cubic window would read 512).
const WINDOW_DUP_MAX_RATIO: f64 = 9.0;
/// An append onto `APPEND_ROWS[1]` rows over one onto `APPEND_ROWS[0]`
/// (ROADMAP item 1: "`engine.catalog_append_ms` flat between 16k and 128k
/// rows"; linear in the table it would read 8).
const APPEND_MAX_RATIO: f64 = 2.0;

/// Every within-run gate, each written here and nowhere else.
pub fn check(report: &Report) -> Vec<GateResult> {
    let gate_rows = "the 16 000-row cells";
    let streaming = |r: &StreamingRun, min: f64| {
        let (inc, rec) = (r.incremental_ms, r.recompute_ms);
        let shown = format!(
            "{} rows: {inc:.1} ms vs {rec:.1} ms ({:.2} ×)",
            r.n, r.speedup
        );
        (r.speedup >= min, shown)
    };
    let pruning = &report.pruning;
    let pruning_at = |pct| {
        pruning
            .iter()
            .find(move |p| p.n == GATE_ROWS && p.sel_pct == pct)
    };
    let scaling_at = |i: usize| report.scaling.iter().find(move |s| s.n == SCALING_ROWS[i]);
    let append_at = |i: usize| report.append.iter().find(move |a| a.n == APPEND_ROWS[i]);
    let window_dup_at =
        |i: usize| (report.window_dup.iter()).find(move |w| w.0 == WINDOW_DUP_ROWS[i]);
    let window_at = |i: usize, partitioned: bool| {
        (report.window_scaling.iter())
            .find(move |w| w.n == WINDOW_SCALING_ROWS[i] && w.partitioned == partitioned)
    };
    vec![
        gate(
            "footprint",
            "sort_sel input: typed ≤ columnar ≤ row B/row".into(),
            false,
            "a sort_sel cell",
            (report.footprints.iter().filter(|f| f.op == "sort_sel")).map(|f| {
                let shown = format!(
                    "{} rows: {:.1} / {:.1} / {:.1}",
                    f.n, f.typed, f.columnar, f.row
                );
                (f.typed <= f.columnar && f.columnar <= f.row, shown)
            }),
        ),
        gate(
            "kernels",
            "typed ≥ generic lanes' cell-by-cell rows/s".into(),
            true,
            "a kernel sweep",
            report.kernels.iter().map(|k| {
                let (typed, generic) = (k.typed_rows_per_sec, k.generic_rows_per_sec);
                (
                    typed >= generic,
                    format!("{}: {typed:.0} vs {generic:.0}", k.kernel),
                )
            }),
        ),
        gate(
            "streaming",
            "incremental ≥ 1 × recompute at every size".into(),
            true,
            "a streaming cell",
            report.streaming.iter().map(|r| streaming(r, 1.0)),
        ),
        gate(
            "streaming-16k",
            format!("incremental ≥ {STREAMING_MIN_SPEEDUP} × recompute at {GATE_ROWS} rows"),
            true,
            gate_rows,
            (report.streaming.iter().filter(|r| r.n == GATE_ROWS))
                .map(|r| streaming(r, STREAMING_MIN_SPEEDUP)),
        ),
        gate(
            "streaming-topk",
            format!(
                "LIMIT 10: incremental ≥ {STREAMING_MIN_SPEEDUP} × recompute at {GATE_ROWS} rows"
            ),
            true,
            gate_rows,
            (report.streaming_topk.iter().filter(|r| r.n == GATE_ROWS))
                .map(|r| streaming(r, STREAMING_MIN_SPEEDUP)),
        ),
        gate(
            "pruning-skips",
            format!("batches skipped > 0 at 1 % past one {ZONE_ROWS}-row zone"),
            false,
            "a cell above one zone",
            (report
                .pruning
                .iter()
                .filter(|p| p.sel_pct == 1 && p.n > ZONE_ROWS))
            .map(|p| {
                let (skipped, scanned) = (p.batches_skipped, p.batches_scanned);
                (
                    skipped > 0,
                    format!("{} rows: {skipped} skipped / {scanned} scanned", p.n),
                )
            }),
        ),
        gate(
            "pruning-16k",
            format!("pruned ≥ {PRUNING_MIN_SPEEDUP} × unpruned at {GATE_ROWS} rows, 1 %"),
            true,
            gate_rows,
            pruning_at(1).into_iter().map(|p| {
                let shown = format!(
                    "{:.3} ms vs {:.3} ms ({:.2} ×)",
                    p.pruned_ms, p.unpruned_ms, p.speedup
                );
                (p.speedup >= PRUNING_MIN_SPEEDUP, shown)
            }),
        ),
        gate(
            "pruning-16k-share",
            format!("1 % statement × {PRUNING_MIN_SPREAD} < the 50 % one at {GATE_ROWS} rows"),
            true,
            gate_rows,
            (pruning_at(1).zip(pruning_at(50)).into_iter()).map(|(one, half)| {
                let (one, half) = (one.pruned_ms, half.pruned_ms);
                (
                    one * PRUNING_MIN_SPREAD < half,
                    format!("{one:.3} ms vs {half:.3} ms"),
                )
            }),
        ),
        gate(
            "sort-scaling",
            format!(
                "ns/row at {} ≤ {SCALING_MAX_RATIO} × ns/row at {}",
                SCALING_ROWS[1], SCALING_ROWS[0]
            ),
            true,
            "the sort/scaling block",
            (scaling_at(1).zip(scaling_at(0)).into_iter()).map(|(large, small)| {
                let (large, small) = (large.ns_per_row, small.ns_per_row);
                let shown = format!("{large:.1} vs {small:.1} ({:.2} ×)", large / small);
                (large <= SCALING_MAX_RATIO * small, shown)
            }),
        ),
        gate(
            "window-scaling",
            format!(
                "window ns/row at {} ≤ {WINDOW_SCALING_MAX_RATIO} × ns/row at {}",
                WINDOW_SCALING_ROWS[1], WINDOW_SCALING_ROWS[0]
            ),
            true,
            "the window/scaling block",
            [false, true].into_iter().filter_map(|partitioned| {
                let (large, small) = window_at(1, partitioned).zip(window_at(0, partitioned))?;
                let (large, small) = (large.ns_per_row, small.ns_per_row);
                let how = if partitioned { "partitioned" } else { "flat" };
                let shown = format!("{how}: {large:.1} vs {small:.1} ({:.2} ×)", large / small);
                Some((large <= WINDOW_SCALING_MAX_RATIO * small, shown))
            }),
        ),
        gate(
            "window-dup-scaling",
            format!(
                "duplicates and ranged g: ms at {} ≤ {WINDOW_DUP_MAX_RATIO} × ms at {}",
                WINDOW_DUP_ROWS[1], WINDOW_DUP_ROWS[0]
            ),
            true,
            "the window/dup-scaling block",
            (window_dup_at(1).zip(window_dup_at(0)).into_iter()).map(|(large, small)| {
                let (large, small) = (large.1, small.1);
                let shown = format!("{large:.2} ms vs {small:.2} ms ({:.2} ×)", large / small);
                (large <= WINDOW_DUP_MAX_RATIO * small, shown)
            }),
        ),
        gate(
            "append-flat",
            format!(
                "a {STREAM_BATCH}-row append onto {} rows ≤ {APPEND_MAX_RATIO} × one onto {}",
                APPEND_ROWS[1], APPEND_ROWS[0]
            ),
            true,
            "the append/flat block",
            (append_at(1).zip(append_at(0)).into_iter()).map(|(large, small)| {
                let (large, small) = (large.us, small.us);
                let shown = format!("{large:.1} µs vs {small:.1} µs ({:.2} ×)", large / small);
                (large <= APPEND_MAX_RATIO * small, shown)
            }),
        ),
    ]
}

/// Measure and print every block, then every gate of [`check`]. Returns
/// the process exit code: 1 when a gate [`GateResult::blocks`].
pub fn run(cfg: &BenchConfig) -> i32 {
    // First, on the heap of a fresh process — the one allocator state every
    // run shares, and where the block ran when its threshold was set. Run
    // after the default sweeps, glibc's adapted trim threshold sometimes
    // spares the 32 768-row sort its page faults (≈ 335 instead of ≈ 475 ns
    // per row) and the gated ratio read 2.2–2.7, not 1.5–2.2 (DESIGN.md §7).
    let scaling = measure_scaling(cfg);
    for s in &scaling {
        println!(
            "{:>7} rows  sort/scaling imp {:>10.3} ms  {:>8.1} ns/row",
            s.n, s.ms, s.ns_per_row
        );
    }
    let (cells, footprints) = measure(cfg);
    for m in &cells {
        let (ops, rows) = (1e3 / m.ms, m.n as f64 * 1e3 / m.ms);
        println!(
            "{:>7} rows  {:<8} {:<5} {:>10.3} ms  {:>10.2} ops/s  {:>11.0} rows/s",
            m.n, m.op, m.method, m.ms, ops, rows
        );
    }
    for f in &footprints {
        println!(
            "{:>7} rows  footprint {:<8} row {:>6.1}  columnar {:>6.1}  typed {:>6.1} B/row  lanes {:?}",
            f.n, f.op, f.row, f.columnar, f.typed, f.phys
        );
    }
    let kernels = measure_kernels(cfg);
    for k in &kernels {
        println!(
            "{:>7} rows  kernel {:<12} typed {:>12.0} rows/s  generic {:>12.0} rows/s",
            k.n, k.kernel, k.typed_rows_per_sec, k.generic_rows_per_sec
        );
    }
    let streaming = measure_streaming(cfg, STREAM_SQL, None);
    for r in &streaming {
        println!(
            "{:>7} rows  streaming {:>8.0} appends/s  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.2}x vs recompute",
            r.n, r.appends_per_sec, r.p50_us, r.p99_us, r.speedup
        );
    }
    let streaming_topk = measure_streaming(cfg, STREAM_TOPK_SQL, Some(TOPK_APPENDS));
    for r in &streaming_topk {
        println!(
            "{:>7} rows  streaming-topk {:>8.0} appends/s  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.2}x vs recompute",
            r.n, r.appends_per_sec, r.p50_us, r.p99_us, r.speedup
        );
    }
    let pruning = measure_pruning(cfg);
    for p in &pruning {
        println!(
            "{:>7} rows  pruning sel {:>3}%  pruned {:>8.3} ms  unpruned {:>8.3} ms  {:>6.2}x  ({} skipped / {} scanned)",
            p.n, p.sel_pct, p.pruned_ms, p.unpruned_ms, p.speedup, p.batches_skipped, p.batches_scanned
        );
    }
    let append = measure_append(cfg);
    for a in &append {
        println!(
            "{:>7} rows  append/flat {STREAM_BATCH}-row batch {:>10.1} µs",
            a.n, a.us
        );
    }
    for (n, what, ns) in measure_ingest(cfg) {
        println!("{n:>7} rows  ingest/csv {what:<8} {ns:>10.1} ns/row");
    }
    // The window cells time the production sweep, partitions in parallel.
    let threads = audb_par::num_threads();
    let window_scaling = measure_window_scaling(cfg);
    println!("window/scaling, threads: {threads}");
    for w in &window_scaling {
        let how = if w.partitioned { "partitioned" } else { "flat" };
        print!(
            "{:>7} rows  window/scaling {how:<11} {:>10.3} ms  {:>8.1} ns/row",
            w.n, w.ms, w.ns_per_row
        );
        match w.partitioned {
            false => println!("  pool at a close: mean {:.1}, max {}", w.pool.0, w.pool.1),
            true => println!(),
        }
    }
    let window_dup = measure_window_dup(cfg);
    for (n, ms) in &window_dup {
        println!("{n:>7} rows  window/dup-scaling {ms:>10.3} ms");
    }
    let (series_stages, (pool_mean, pool_max)) = measure_series_stages(cfg);
    let (iceberg_rows, iceberg_stages) = measure_iceberg_stages(cfg);
    let blocks = [
        ("sort/stages", STAGE_ROWS, measure_sort_stages(cfg, None)),
        (
            "sort/tied-stages",
            STAGE_ROWS,
            measure_sort_stages(cfg, Some(tied_lead)),
        ),
        (
            "sort/str-stages",
            STAGE_ROWS,
            measure_sort_stages(cfg, Some(string_lead)),
        ),
        ("sort/iceberg-stages", iceberg_rows, iceberg_stages),
        (
            "window/stages",
            WINDOW_STAGE_ROWS,
            measure_window_stages(cfg),
        ),
        ("window/series-stages", SERIES_STAGE_ROWS, series_stages),
        ("sort/cmp-semantics", CMP_ROWS, measure_cmp_semantics(cfg)),
        (
            "window/aggregates",
            AGGREGATE_ROWS,
            measure_window_aggregates(cfg),
        ),
    ];
    println!("stages, threads: {threads} (a window stage sums its partitions)");
    for (block, n, lines) in blocks {
        for (name, ms) in lines {
            println!("{n:>7} rows  {block:<18} {name:<12} {ms:>10.3} ms");
        }
    }
    println!(
        "{SERIES_STAGE_ROWS:>7} rows  window/series-stages pool at a close: mean {pool_mean:.1}, max {pool_max}"
    );
    for (name, ms) in measure_filter_stages(cfg) {
        println!("{FILTER_STAGE_ROWS:>7} rows  filter/stages      {name:<24} {ms:>10.3} ms");
    }
    let gates = check(&Report {
        cells,
        footprints,
        kernels,
        streaming,
        streaming_topk,
        pruning,
        scaling,
        append,
        window_scaling,
        window_dup,
    });
    for g in &gates {
        let verdict = match g.verdict {
            Verdict::Ok => "ok",
            Verdict::Fail if g.blocks() => "FAIL",
            Verdict::Fail => "FAIL (not enforced in a debug build)",
            Verdict::Skipped => "skipped",
        };
        println!("gate {:<18} {verdict}: {} — {}", g.gate, g.rule, g.measured);
    }
    i32::from(gates.iter().any(GateResult::blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built report inside every threshold, shaped like a default
    /// run on the reference container.
    fn passing() -> Report {
        let streaming = |n, incremental_ms, recompute_ms| StreamingRun {
            n,
            incremental_ms,
            recompute_ms,
            speedup: recompute_ms / incremental_ms,
            ..StreamingRun::default()
        };
        let pruning = |n, sel_pct, pruned_ms, unpruned_ms, batches_skipped| PruningRun {
            n,
            sel_pct,
            pruned_ms,
            unpruned_ms,
            speedup: unpruned_ms / pruned_ms,
            batches_skipped,
            batches_scanned: n.div_ceil(ZONE_ROWS) - batches_skipped,
        };
        let scaling = |n, ns_per_row| ScalingRun {
            n,
            ns_per_row,
            ..ScalingRun::default()
        };
        Report {
            cells: Vec::new(),
            footprints: vec![Footprint {
                op: "sort_sel",
                n: 16_000,
                row: 264.0,
                columnar: 96.0,
                typed: 48.0,
                phys: vec![PhysType::I64; 3],
            }],
            kernels: (["truth_batch", "eval_batch", "conjunction"].into_iter())
                .map(|kernel| KernelSweep {
                    kernel,
                    n: 16_000,
                    typed_rows_per_sec: 2e8,
                    generic_rows_per_sec: 5e7,
                })
                .collect(),
            streaming: vec![
                streaming(1_000, 2.0, 10.0),
                streaming(16_000, 35.0, 3_000.0),
            ],
            streaming_topk: vec![streaming(16_000, 40.0, 560.0)],
            pruning: vec![
                pruning(4_000, 1, 0.02, 0.04, 3),
                pruning(16_000, 1, 0.03, 0.17, 15),
                pruning(16_000, 50, 0.86, 0.96, 8),
            ],
            scaling: vec![scaling(32_768, 162.0), scaling(262_144, 222.0)],
            append: vec![
                AppendRun {
                    n: 16_384,
                    us: 150.0,
                },
                AppendRun {
                    n: 131_072,
                    us: 170.0,
                },
            ],
            window_scaling: [(16_384, 1_100.0), (131_072, 1_400.0)]
                .into_iter()
                .flat_map(|(n, ns_per_row)| {
                    [false, true].map(|partitioned| WindowScalingRun {
                        n,
                        partitioned,
                        ns_per_row,
                        ..WindowScalingRun::default()
                    })
                })
                .collect(),
            window_dup: vec![(2_048, 3.0), (16_384, 25.0)],
        }
    }

    #[test]
    fn a_passing_report_passes_every_gate() {
        let gates = check(&passing());
        assert_eq!(gates.len(), 12);
        for g in &gates {
            assert_eq!(g.verdict, Verdict::Ok, "{g:?}");
        }
    }

    #[test]
    fn gates_needing_16k_cells_are_skipped_without_them() {
        let mut report = passing();
        report.streaming.retain(|r| r.n != 16_000);
        report.streaming_topk.clear();
        report.pruning.retain(|p| p.n != 16_000);
        for g in check(&report) {
            let needs_16k = [
                "streaming-16k",
                "streaming-topk",
                "pruning-16k",
                "pruning-16k-share",
            ]
            .contains(&g.gate);
            let want = if needs_16k {
                Verdict::Skipped
            } else {
                Verdict::Ok
            };
            assert_eq!(g.verdict, want, "{g:?}");
            assert!(!g.blocks());
        }
    }

    /// `violate` a passing report; exactly `gate` must fail, and fail the
    /// run — in every build when it compares no times, else in release.
    fn fails_alone(gate: &str, timed: bool, violate: impl FnOnce(&mut Report)) {
        let mut report = passing();
        violate(&mut report);
        let failed: Vec<GateResult> = (check(&report).into_iter())
            .filter(|g| g.verdict == Verdict::Fail)
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!((failed[0].gate, failed[0].timed), (gate, timed));
        assert_eq!(failed[0].blocks(), !timed || !cfg!(debug_assertions));
    }

    #[test]
    fn footprint_gate_fails_alone() {
        fails_alone("footprint", false, |r| r.footprints[0].typed = 100.0);
    }

    #[test]
    fn kernels_gate_fails_alone() {
        fails_alone("kernels", true, |r| r.kernels[1].typed_rows_per_sec = 4e7);
    }

    #[test]
    fn streaming_gate_fails_alone() {
        fails_alone("streaming", true, |r| r.streaming[0].speedup = 0.5);
    }

    #[test]
    fn streaming_16k_gate_fails_alone() {
        fails_alone("streaming-16k", true, |r| r.streaming[1].speedup = 2.0);
    }

    #[test]
    fn streaming_topk_gate_fails_alone() {
        fails_alone("streaming-topk", true, |r| {
            r.streaming_topk[0].speedup = 2.0
        });
    }

    #[test]
    fn pruning_skips_gate_fails_alone() {
        fails_alone("pruning-skips", false, |r| r.pruning[0].batches_skipped = 0);
    }

    #[test]
    fn pruning_16k_gate_fails_alone() {
        fails_alone("pruning-16k", true, |r| r.pruning[1].speedup = 1.5);
    }

    #[test]
    fn pruning_16k_share_gate_fails_alone() {
        fails_alone("pruning-16k-share", true, |r| r.pruning[2].pruned_ms = 0.06);
    }

    #[test]
    fn sort_scaling_gate_fails_alone() {
        // 1.9 × the small cell: inside the 2.5 × this gate allowed until
        // PR 24, outside what it allows now.
        fails_alone("sort-scaling", true, |r| r.scaling[1].ns_per_row = 307.8);
    }

    #[test]
    fn window_scaling_gate_fails_alone() {
        // The partitioned cell alone: either shape past the ratio fails it.
        fails_alone("window-scaling", true, |r| {
            r.window_scaling[3].ns_per_row = 2_300.0
        });
    }

    #[test]
    fn window_dup_scaling_gate_fails_alone() {
        // 9.5 × the time for 8 × the rows.
        fails_alone("window-dup-scaling", true, |r| r.window_dup[1].1 = 28.5);
    }

    #[test]
    fn append_flat_gate_fails_alone() {
        fails_alone("append-flat", true, |r| r.append[1].us = 1_200.0);
    }

    /// A measured block holds its gate: the gate saw rows (it is not
    /// skipped) and nothing fails the run.
    fn assert_gate_holds(report: &Report, gate: &str) {
        let gates = check(report);
        let g = gates.iter().find(|g| g.gate == gate).expect("known gate");
        assert_ne!(g.verdict, Verdict::Skipped, "{g:?}");
        let blocking: Vec<_> = gates.iter().filter(|g| g.blocks()).collect();
        assert!(blocking.is_empty(), "{blocking:?}");
    }

    /// The `sort_sel` input's three layouts, measured on a real table
    /// (without running the timed sweep).
    #[test]
    fn sort_sel_typed_footprint_below_columnar_below_row() {
        let table = gen_sort_table(&SyntheticConfig::default().rows(500).seed(3));
        let fp = footprint("sort_sel", &table.to_au_relation().to_columns());
        // The sort workload's columns are all integer-classed, so every
        // lane should land typed.
        assert!(
            fp.phys.iter().all(|t| *t == PhysType::I64),
            "unexpected physical types: {:?}",
            fp.phys
        );
        let report = Report {
            footprints: vec![fp],
            ..Report::default()
        };
        assert_gate_holds(&report, "footprint");
    }

    #[test]
    fn typed_kernels_at_least_generic() {
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![4_000],
        };
        let kernels = measure_kernels(&cfg);
        assert_eq!(kernels.len(), 3);
        for s in &kernels {
            assert!(s.typed_rows_per_sec > 0.0 && s.generic_rows_per_sec > 0.0);
        }
        let report = Report {
            kernels,
            ..Report::default()
        };
        assert_gate_holds(&report, "kernels");
    }

    /// The streaming sweep must stay on the incremental path and report
    /// a coherent latency distribution.
    #[test]
    fn streaming_incremental_beats_recompute_within_run() {
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![1_000],
        };
        let streaming = measure_streaming(&cfg, STREAM_SQL, None);
        assert_eq!(streaming.len(), 1);
        let r = &streaming[0];
        assert_eq!((r.n, r.appends), (1_000, 1_000usize.div_ceil(STREAM_BATCH)));
        assert!(r.p50_us <= r.p99_us, "p50 {} > p99 {}", r.p50_us, r.p99_us);
        assert!(r.appends_per_sec > 0.0 && r.speedup > 0.0);
        let report = Report {
            streaming,
            ..Report::default()
        };
        assert_gate_holds(&report, "streaming");
    }

    /// The pruning sweep must actually skip batches on the clustered
    /// workload: the zone maps are disjoint, so a 1% predicate is
    /// provably-false on all but the first zone.
    #[test]
    fn pruning_sweep_skips_batches_within_run() {
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![4_096],
        };
        let pruning = measure_pruning(&cfg);
        let sels: Vec<u32> = pruning.iter().map(|p| p.sel_pct).collect();
        assert_eq!(sels, SELECTIVITIES);
        let p = &pruning[0];
        assert_eq!((p.n, p.sel_pct), (4_096, 1));
        // 4096 rows at the default 1024-row batch size: four source
        // batches, of which only the first can satisfy `t < 40`.
        assert_eq!(
            (p.batches_skipped, p.batches_scanned),
            (3, 1),
            "zone maps should prove 3 of 4 batches empty"
        );
        assert!(p.pruned_ms > 0.0 && p.unpruned_ms > 0.0);
        let report = Report {
            pruning,
            ..Report::default()
        };
        assert_gate_holds(&report, "pruning-skips");
    }
}
