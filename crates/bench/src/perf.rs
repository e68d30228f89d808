//! `repro bench` — the in-repo measuring stick beside the repo benchmark.
//!
//! End-to-end numbers that gate a PR come from the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`). This harness keeps what that benchmark
//! does not measure, and every comparison it makes is between two things
//! timed **within one run** (cross-run noise on a shared host is ±20 %).
//! Every statement it times is SQL text prepared once against a
//! registered table, as a client runs it:
//!
//! * **cells** — `det` (the native kernels on the most-likely world, lifted
//!   to a certain AU-DB), `imp` (the one-pass native algorithms) and `rewr`
//!   (the SQL-style rewrite) for sorting, windowed aggregation and a
//!   select/project-carrying ranking statement (`sort_sel`: `scan → select
//!   → project → sort`) at n ∈ {1k, 4k, 16k} by default (`--sizes`
//!   overrides);
//! * **footprints** — the measured per-row heap bytes of each cell's AU
//!   input in the row, generic-columnar and typed-columnar layouts;
//! * **kernel sweeps** — `truth_batch` / `eval_batch_column` on typed lanes against
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
//! * **scaling** — each shape of `SCALING` (the sort, the native window
//!   flat and partitioned, the partitioned window over duplicates and
//!   ranged partition values) over a smaller and a larger table, and far
//!   past cache while the pair is within its bound;
//! * **stages** — each SQL statement of `STAGE_BLOCKS`, by operator and
//!   kernel stage; **cmp-semantics** and **window aggregates** — ablations.
//!
//! The two arms every scaling gate compares — each `SCALING` shape, and
//! append — and those of each kernel sweep and pruning cell are one
//! [`Pair`] each: timed in alternating pairs, each arm's median printed,
//! the median per-pair ratio gated. The cells, the kernel sweeps and the
//! scaling shapes print their own lines; [`run`] prints the others.
//!
//! [`run`] prints every block, then one line per gate of [`check`] — the
//! only place a threshold is written (DESIGN.md §7 repeats them in prose)
//! — and returns the process exit code. `AUDB_THREADS` pins the worker
//! count here as it does everywhere else.

use audb_core::{
    AuColumns, AuRelation, AuRow, AuTuple, Mult3, PhysType, RangeExpr, RangeValue, ZONE_ROWS,
};
use audb_engine::{
    exec, CmpSemantics, Engine, Op, Plan, Prepared, Reference, Session, SharedCatalog,
};
// lint: allow(no-direct-backend-call) -- the residency lines read the pool of a sweep the kernel keeps to itself
use audb_native::WindowMaintain;
use audb_rel::{CmpOp, Schema, Value};
use audb_workloads::runner::selected_guess;
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
use audb_workloads::{iceberg, read_au_csv_columns};
use std::fmt::Write as _;
use std::time::Instant;

/// Row counts of the cell, streaming and pruning sweeps by default.
pub const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// Selectivities (percent of rows passing the clustered-key predicate)
/// the pruning sweep measures.
pub const SELECTIVITIES: [u32; 3] = [1, 10, 50];

/// Row counts of the `append/flat` block, whatever `--sizes` says: the
/// table a [`STREAM_BATCH`]-row batch is appended to.
pub const APPEND_ROWS: [usize; 2] = [16_384, 131_072];

/// Rows of the `ingest/csv` table: `serve_mix`'s registered `w`.
const INGEST_ROWS: usize = 16_384;

/// Rows of the `sort/cmp-semantics` (the quadratic reference backend) and
/// `window/aggregates` blocks.
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

/// Measured per-row heap footprint of one op's AU input table under the
/// three storage layouts.
#[derive(Clone, Debug)]
pub struct Footprint {
    /// The op whose input this is (see [`measure`]).
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

/// Wall milliseconds of one call of `f`.
fn wall_ms(f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall milliseconds of `runs` calls of `f`.
fn time_median(mut f: impl FnMut(), runs: usize) -> f64 {
    median((0..runs).map(|_| wall_ms(&mut f)).collect())
}

/// Pairs a [`Pair`] is timed over, in a full run and under `--quick`: 11
/// and 5, or 21 and 7 where an arm is `short`, well under a millisecond.
fn pairs(cfg: &BenchConfig, short: bool) -> usize {
    (if short { [21, 7] } else { [11, 5] })[usize::from(cfg.quick)]
}

/// Two arms timed in turn, `a` first in even pairs and `b` in odd ones, so
/// neither always runs on what the other left in the caches and the heap:
/// each arm's median, and the median of the per-pair ratios, which a slow
/// moment of the host moves far less than either median.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pair {
    /// Median wall milliseconds of arm a.
    pub a_ms: f64,
    /// Median wall milliseconds of arm b.
    pub b_ms: f64,
    /// Median over the pairs of b's time over a's.
    pub ratio: f64,
}

impl Pair {
    /// Time `pairs` pairs of `a` and `b`.
    pub fn time(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Pair {
        let samples: Vec<(f64, f64)> = (0..pairs)
            .map(|i| match i % 2 {
                0 => (wall_ms(&mut a), wall_ms(&mut b)),
                _ => {
                    let b_ms = wall_ms(&mut b);
                    (wall_ms(&mut a), b_ms)
                }
            })
            .collect();
        Pair::of(&samples)
    }

    /// The pair of `(a_ms, b_ms)` samples.
    pub fn of(samples: &[(f64, f64)]) -> Pair {
        let arm = |f: fn(&(f64, f64)) -> f64| median(samples.iter().map(f).collect());
        Pair {
            a_ms: arm(|s| s.0),
            b_ms: arm(|s| s.1),
            ratio: arm(|s| s.1 / s.0),
        }
    }

    /// Each arm's median beside the rows it ran over, `rows[0]` arm a's.
    fn cells(&self, rows: &[usize]) -> [(usize, f64); 2] {
        [(rows[0], self.a_ms), (rows[1], self.b_ms)]
    }
}

/// `sql` prepared on `engine` against `table`, registered as `t`: what a
/// client holds once it has prepared a statement.
fn statement(engine: Engine, table: AuRelation, sql: &str) -> (Session, Prepared) {
    let session = Session::new(engine);
    session.register("t", table);
    let prepared = session.prepare(sql).expect("bench statement compiles");
    (session, prepared)
}

fn execute(session: &Session, prepared: &Prepared) {
    std::hint::black_box(session.execute(prepared).expect("bench statement runs"));
}

/// `SELECT * FROM t ORDER BY a, b`: the sort of the cells, of `sort/scaling`
/// and of `sort/cmp-semantics`.
const SORT_SQL: &str = "SELECT * FROM t ORDER BY a, b";

/// Measure and print every (op, method, n) cell — `op` is `sort`,
/// `window` or `sort_sel` (select/project stages ahead of the sort, the
/// plan shape pipelining targets), `method` is `det`, `imp` or `rewr` —
/// and return every (op, n) input footprint. An op is one statement, so
/// only the physical operators differ between its cells: `det` runs it
/// natively over the table's selected-guess world (`runner::selected_guess`),
/// `imp` natively and `rewr` on the rewrite over the AU table.
pub fn measure(cfg: &BenchConfig) -> Vec<Footprint> {
    let runs = if cfg.quick { 3 } else { 7 };
    let cell = |op: &str, method: &str, n: usize, session: &Session, prepared: &Prepared| {
        let ms = time_median(|| execute(session, prepared), runs);
        let (ops, rows) = (1e3 / ms, n as f64 * 1e3 / ms);
        println!("{n:>7} rows  {op:<8} {method:<5} {ms:>10.3} ms  {ops:>10.2} ops/s  {rows:>11.0} rows/s");
    };
    let mut footprints = Vec::new();
    for &n in &cfg.sizes {
        let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
        let wtable = gen_window_table(&SyntheticConfig::default().rows(n).seed(4));
        // Streamable stages ahead of the breaker (≈50% selectivity on the
        // certain `b` attribute, then a computed projection): one fused
        // sweep in the pipeline executor. It has no `det` cell.
        let sort_sel = format!(
            "SELECT a, b + id AS bid FROM t WHERE b <= {} ORDER BY a, bid",
            n * 10
        );
        let ops = [
            ("sort", &table, SORT_SQL, true),
            ("sort_sel", &table, sort_sel.as_str(), false),
            ("window", &wtable, WINDOW_CELL_SQL, true),
        ];
        for (op, table, sql, det) in ops {
            if det {
                let (session, prepared) = statement(Engine::native(), selected_guess(table), sql);
                cell(op, "det", n, &session, &prepared);
            }
            let (imp, prepared) = statement(Engine::native(), table.to_au_relation(), sql);
            footprints.push(footprint(
                op,
                &prepared.plan().source_columns().contiguous(),
            ));
            let rewr = Session::with_catalog(Engine::rewrite(), imp.shared_catalog().clone());
            for (method, session) in [("imp", &imp), ("rewr", &rewr)] {
                cell(op, method, n, session, &prepared);
            }
        }
    }
    footprints
}

/// The window of the cells and of `window/aggregates`: `SUM` over the
/// two preceding rows and the current one, by `o`.
const WINDOW_CELL_SQL: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS x FROM t";

/// The kernel sweeps, each one [`Pair`] of typed lanes (arm a) against the
/// same columns demoted to generic `Value` lanes (arm b), where the typed
/// tier declines and the row semantics runs cell by cell: `truth_batch`
/// over the `sort_sel` plan's selection predicate, `eval_batch` —
/// `eval_batch_column` over every row — over its computed projection, and
/// `conjunction`, `filter_scan`'s two column-vs-column compares under
/// `AND`, per executor batch. Prints each arm's rows/s.
pub fn measure_kernels(cfg: &BenchConfig) -> Vec<(&'static str, Pair)> {
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
    let all: Vec<usize> = (0..n).collect();
    let sweep = |kernel: &'static str, f: &dyn Fn(&AuColumns)| {
        let pair = Pair::time(pairs(cfg, true), || f(&typed), || f(&generic));
        let [typed, generic] = [pair.a_ms, pair.b_ms].map(|ms| n as f64 * 1e3 / ms);
        println!("{n:>7} rows  kernel {kernel:<12} typed {typed:>12.0} rows/s  generic {generic:>12.0} rows/s");
        (kernel, pair)
    };
    vec![
        sweep("truth_batch", &|cols| {
            std::hint::black_box(pred.truth_batch(&cols.as_batch()));
        }),
        sweep("eval_batch", &|cols| {
            std::hint::black_box(proj.eval_batch_column(&cols.as_batch(), &all));
        }),
        sweep("conjunction", &|cols| {
            for b in cols.batches(exec::DEFAULT_BATCH_SIZE) {
                std::hint::black_box(conj.truth_batch(&b));
            }
        }),
    ]
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
    /// Median per-append latency of the incremental arm, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-append latency, microseconds.
    pub p99_us: f64,
    /// Wall total of the incremental arm, milliseconds.
    pub incremental_ms: f64,
    /// Wall total of the at-rest arm over the same batches: each appended
    /// to the catalog, and the statement prepared, executed and normalized.
    pub recompute_ms: f64,
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

/// Marsaglia's xorshift64 from `seed`: each call steps the state by the
/// `(13, 7, 17)` shifts and returns it — the raw word every table this
/// harness generates draws from.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
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
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let mut t = 0i64;
    let mut out = Vec::new();
    let mut rows = Vec::with_capacity(batch);
    for _ in 0..n {
        let state = next();
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
                p50_us,
                p99_us,
                incremental_ms,
                recompute_ms,
            }
        })
        .collect()
}

/// One zone-map pruning cell: a filter-scan statement
/// (`scan → select → project_exprs`) over a clustered certain key,
/// prepared and executed afresh per timed run with zone-map batch
/// skipping on and off, as one [`Pair`], at one selectivity.
#[derive(Clone, Debug)]
pub struct PruningRun {
    /// Input rows.
    pub n: usize,
    /// Percent of rows the predicate keeps.
    pub sel_pct: u32,
    /// Arm a with zone-map pruning (the default path), arm b with pruning
    /// disabled (`prune = false` to `exec::run_pipelined`) — same
    /// statement, same catalog, same path; the ratio is the speedup.
    pub pair: Pair,
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
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    AuRelation::from_rows(
        Schema::new(["t", "v"]),
        (0..n).map(|i| {
            let v = (next() % 1000) as i64;
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
/// same catalog, in interleaved pairs, and differ only in `prune`.
/// Deliberately no trailing breaker: a sort's cost scales with the
/// *surviving* rows, identical in both arms, and at 1% selectivity it
/// would dominate both sides and dilute the measured contrast into noise.
pub fn measure_pruning(cfg: &BenchConfig) -> Vec<PruningRun> {
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
            let timed = |prune| move || drop(std::hint::black_box(statement(prune)));
            out.push(PruningRun {
                n,
                sel_pct: pct,
                pair: Pair::time(pairs(cfg, true), timed(true), timed(false)),
                batches_skipped: trace.batches_skipped,
                batches_scanned: trace.batches_scanned,
            });
        }
    }
    out
}

/// The `append/flat` block: [`SharedCatalog::append`] of one
/// [`STREAM_BATCH`]-row batch onto a table registered with
/// `APPEND_ROWS[0]` rows (arm a) and onto one with `APPEND_ROWS[1]` (arm
/// b), 21 pairs (7 under `--quick`) — each table grows by the batches, the
/// open tail with it, and the registered rows are never touched, so the two
/// arms should read alike. Before the catalog stored segments an append
/// copied the table and re-swept its statistics: 8 × between these sizes.
/// Prints its cells.
pub fn measure_append(cfg: &BenchConfig) -> Pair {
    let batch = clustered_table(STREAM_BATCH);
    let [small, large] = APPEND_ROWS.map(|n| {
        let catalog = SharedCatalog::new();
        catalog.register("c", clustered_table(n));
        catalog
    });
    let append = |catalog: &SharedCatalog| {
        std::hint::black_box(catalog.append("c", &batch).expect("same schema"));
    };
    let pair = Pair::time(pairs(cfg, true), || append(&small), || append(&large));
    for (n, ms) in pair.cells(&APPEND_ROWS) {
        let us = ms * 1e3;
        println!("{n:>7} rows  append/flat {STREAM_BATCH}-row batch {us:>10.1} µs");
    }
    pair
}

/// `rows` of [`scan_table`] as the AU-CSV `serve_mix` registers and
/// appends: `o` and `v` with their bounds, `g` and `id` plain.
fn served_csv(rows: &[AuRow]) -> String {
    let mut out = String::from("o_lb,o,o_ub,g,v_lb,v,v_ub,id,mult_lb,mult_sg,mult_ub\n");
    for AuRow { tuple, mult } in rows {
        let [o, g, v, id] = [0, 1, 2, 3].map(|c| tuple.get(c));
        let cells = [&o.lb, &o.sg, &o.ub, &g.sg, &v.lb, &v.sg, &v.ub, &id.sg].map(Value::to_string);
        let mult = [mult.lb, mult.sg, mult.ub].map(|m| m.to_string());
        let _ = writeln!(out, "{},{}", cells.join(","), mult.join(","));
    }
    out
}

/// The `ingest/csv` block: `(rows, what, ns per row)` of
/// `read_au_csv_columns` over a 16 384-row table shaped like the repo
/// benchmark's served `w` (`load`), of `to_rows` over the columns it loads
/// — the within-run yardstick — and of `read_au_csv_columns` over the
/// [`STREAM_BATCH`] rows that follow, timed 100 loads at a time. Medians of
/// the runs.
pub fn measure_ingest(cfg: &BenchConfig) -> Vec<(usize, &'static str, f64)> {
    let runs = if cfg.quick { 5 } else { 21 };
    let load = |csv: &str| read_au_csv_columns(csv.as_bytes()).expect("generated AU-CSV loads");
    let series = scan_table(INGEST_ROWS + STREAM_BATCH, true);
    let (table, batch) = series.rows().split_at(INGEST_ROWS);
    let (table, batch) = (served_csv(table), served_csv(batch));
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

/// `gen_sort_table`'s `n` rows (`a`, `b`, `id`), as the cells draw them.
fn sort_table(n: usize) -> AuRelation {
    gen_sort_table(&SyntheticConfig::default().rows(n).seed(3)).to_au_relation()
}

/// `sort_table(n)` with a certain `g = lead(row)` put ahead of each row.
fn led(n: usize, lead: fn(usize) -> Value) -> AuRelation {
    let rel = sort_table(n);
    let rows = (rel.rows().iter().enumerate()).map(|(i, row)| {
        let g = RangeValue::certain(lead(i));
        let tuple = AuTuple::new(std::iter::once(g).chain(row.tuple.0.iter().cloned()));
        (tuple, row.mult)
    });
    AuRelation::from_rows(Schema::new(["g", "a", "b", "id"]), rows)
}

fn window_table(n: usize) -> AuRelation {
    gen_window_table(&SyntheticConfig::default().rows(n).seed(3)).to_au_relation()
}

/// Mean and maximum size of the possible-member pool where a window of
/// `plan` closes over its source — a window without partition its first
/// operator, an integer aggregate over integer lanes — and the members a
/// close that scans the pool visits, on average; `None` for other plans.
fn pool_residency(plan: &Plan) -> Option<(f64, usize, f64)> {
    let Some(Op::Window { spec, agg, .. }) = plan.ops().first() else {
        return None;
    };
    spec.partition.is_empty().then(|| {
        let mut sweep = WindowMaintain::<i64>::new(spec.clone(), *agg);
        (sweep.apply(&plan.source_columns().contiguous(), 0)).expect("small integers");
        sweep.pool_residency()
    })
}

/// A table `(o, g, v, id)` of `n` rows in the shape of the repo
/// benchmark's window tables: `o` in `[0, 200 n)` — row `i`'s in the
/// `i`-th stride of 200 if `in_order` (an append-only series:
/// `serve_mix`'s), anywhere otherwise (`window_scan`'s) —, `g` one of eight
/// certain values; one row in twenty has a range of `o` (the hull of four
/// draws in 1 000), one in a hundred — a fifth of those — may be absent,
/// and one in twenty has a range of `v`. Every possibly absent row widens
/// the position range of every row after it (DESIGN.md §13.1), so few
/// frames are full of certain members.
fn scan_table(n: usize, in_order: bool) -> AuRelation {
    let mut next = xorshift(0x005E_41E5);
    let mut draw = move |below: u64| (next() % below) as i64;
    let hull = |draw: &mut dyn FnMut(u64) -> i64, base: i64| {
        let alts = [0; 4].map(|_| base + draw(1_000));
        let (lo, hi) = (alts.iter().min(), alts.iter().max());
        RangeValue::new(*lo.expect("four"), alts[0], *hi.expect("four"))
    };
    let rows = (0..n as i64).map(|i| {
        let base = match in_order {
            true => 200 * i + draw(200),
            false => draw(200 * n as u64),
        };
        let uncertain_o = draw(20) == 0;
        let o = match uncertain_o {
            true => hull(&mut draw, base),
            false => RangeValue::certain(base),
        };
        let g = RangeValue::certain(draw(8));
        let v = draw(200 * n as u64);
        let v = match draw(20) {
            0 => hull(&mut draw, v),
            _ => RangeValue::certain(v),
        };
        let mult = match uncertain_o && draw(5) == 0 {
            true => Mult3::new(0, 1, 1),
            false => Mult3::ONE,
        };
        (AuTuple::new([o, g, v, RangeValue::certain(i)]), mult)
    });
    AuRelation::from_rows(Schema::new(["o", "g", "v", "id"]), rows)
}

/// `window_table(n)` with one row in a hundred annotated `(2,2,2)` and
/// another one in a hundred with `g = [g, g+1]`.
fn dup_table(n: usize) -> AuRelation {
    let mut table = window_table(n);
    for (i, row) in table.rows_mut().iter_mut().enumerate() {
        let g = row.tuple.get(1).sg.as_i64().expect("an integer g");
        match i % 100 {
            0 => row.mult = Mult3::certain(2),
            50 => row.tuple.0[1] = RangeValue::new(g, g, g + 1),
            _ => {}
        }
    }
    table
}

/// One paired scaling shape: `sql` over `table(rows[0])` (arm a) and
/// over `table(rows[1])` (arm b), each registered as `t` and prepared
/// once, timed as one [`Pair`] of `Session::execute` on the native engine;
/// then, without `--quick`, over `table(far)`, printed and not paired. Its
/// `gate` holds when arm b's time over arm a's — per row if `per_row`,
/// else in ms — is at most `bound`.
struct Scaling {
    gate: &'static str,
    shape: &'static str,
    rows: [usize; 2],
    far: Option<usize>,
    table: fn(usize) -> AuRelation,
    sql: &'static str,
    bound: f64,
    per_row: bool,
}

impl Scaling {
    /// The unit a [`pair_gate`] shows this shape's arms in.
    fn unit(&self) -> (&'static str, [f64; 2]) {
        match self.per_row {
            true => ("", [0, 1].map(|i| 1e6 / self.rows[i] as f64)),
            false => (" ms", [1.0; 2]),
        }
    }
}

/// Every paired scaling shape `repro bench` times, rows of one gate
/// adjacent. The native window sweeps its partitions in parallel, on
/// `AUDB_THREADS` workers.
const SCALING: [Scaling; 4] = [
    // Cache-resident, past cache and far past it: the rank sweep once fell
    // off a cache cliff between the first two sizes (32 → 72 → 113 ms from
    // 32k to 64k rows). The ratio reads 1.1–1.7 × since the sort stopped
    // building tuples (2.5 until then): the 1.5 × ROADMAP item 1 asked is
    // reached as a reading, and the bound keeps headroom above it.
    Scaling {
        gate: "sort-scaling",
        shape: "sort/scaling imp",
        rows: [32_768, 262_144],
        far: Some(1_048_576),
        table: sort_table,
        sql: SORT_SQL,
        bound: 1.7,
        per_row: true,
    },
    // ROADMAP item 2b; it read 1.25 × when the bound was set. The uncertain
    // order ranges are as wide at every size ([`SyntheticConfig::range`])
    // while the domain grows with the table, so the pool a closing window
    // scans — printed beside each partitionless cell — should not grow.
    Scaling {
        gate: "window-scaling",
        shape: "window/scaling flat",
        rows: [16_384, 131_072],
        far: Some(1_048_576),
        table: window_table,
        sql: "SELECT *, SUM(v) OVER (ORDER BY o ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s \
              FROM t",
        bound: 2.0,
        per_row: true,
    },
    Scaling {
        gate: "window-scaling",
        shape: "window/scaling partitioned",
        rows: [16_384, 131_072],
        far: Some(1_048_576),
        table: window_table,
        sql: "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s FROM t",
        bound: 2.0,
        per_row: true,
    },
    // Duplicates and ranged `g`: 8 × the rows in at most 9 × the time
    // (ROADMAP item 9; a cubic window would read 512).
    Scaling {
        gate: "window-dup-scaling",
        shape: "window/dup-scaling",
        rows: [2_048, 16_384],
        far: None,
        table: dup_table,
        sql: "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS x FROM t",
        bound: 9.0,
        per_row: false,
    },
];

/// Runs of a far scaling cell; the median is printed.
const FAR_RUNS: usize = 3;

/// Read one [`Scaling`] shape and print its cells, each partitionless
/// window's with the size of the possible-member pool where a window
/// closes (mean, maximum). The far cell runs only while the pair is within
/// its bound: past it, a superlinear operator would run for minutes before
/// the gate could fail.
fn read_scaling(s: &Scaling, cfg: &BenchConfig) -> Pair {
    let prepare = |n| statement(Engine::native(), (s.table)(n), s.sql);
    let line = |n: usize, ms: f64, prepared: &Prepared| {
        let mut line = format!("{n:>7} rows  {:<26} {ms:>10.3} ms", s.shape);
        if s.per_row {
            let _ = write!(line, "  {:>8.1} ns/row", ms * 1e6 / n as f64);
        }
        if let Some((mean, max, _)) = pool_residency(prepared.plan()) {
            let _ = write!(line, "  pool at a close: mean {mean:.1}, max {max}");
        }
        println!("{line}");
    };
    let [a, b] = s.rows.map(prepare);
    let pair = Pair::time(
        pairs(cfg, false),
        || execute(&a.0, &a.1),
        || execute(&b.0, &b.1),
    );
    for ((n, ms), (_, prepared)) in pair.cells(&s.rows).into_iter().zip([&a, &b]) {
        line(n, ms, prepared);
    }
    if let Some(n) = s.far.filter(|_| !cfg.quick) {
        drop((a, b));
        let (_, [to_a, to_b]) = s.unit();
        match pair.ratio * to_b / to_a <= s.bound {
            true => {
                let (session, prepared) = prepare(n);
                let ms = time_median(|| execute(&session, &prepared), FAR_RUNS);
                line(n, ms, &prepared);
            }
            false => println!("{n:>7} rows  {:<26} skipped (pair over its bound)", s.shape),
        }
    }
    pair
}

/// `filter_scan`'s table shape over `n` rows: a certain `id` in row order;
/// `a` and `b` over `[0, 20 n)`, each ranged (`[x, x + r, x + 999]`) on one
/// row in twenty; certain `c` over the lower six tenths and `d` over the
/// upper.
fn events_table(n: usize) -> AuRelation {
    let mut next = xorshift(42);
    let mut below = move |m: u64| next() % m;
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

/// A stage block: `(name, rows, table, operations)`. `table(rows)` is
/// registered as `t`; each operation is a SQL script, the statements one
/// call of a repo benchmark workload runs, whose rows [`read_stages`] sums.
type StageBlock = (
    &'static str,
    usize,
    fn(usize) -> AuRelation,
    &'static [&'static str],
);

/// Every stage block `repro bench` prints (DESIGN.md §3.3, §3.4, §10.3):
/// sorts, the second and third led by four integers (every key's prefix
/// tied with a quarter of the others') or by 4 096 strings sharing their
/// first ten key bytes, the fourth of Iceberg's sightings by date (the
/// figures' scale 0.1: about 15 to a date); one `window_scan` operation
/// over its table's shape; `serve_mix`'s window over an append-only
/// series; `filter_scan`'s three operations.
#[rustfmt::skip]
const STAGE_BLOCKS: [StageBlock; 7] = [
    ("sort/stages", 32_768, sort_table, &["SELECT * FROM t ORDER BY a, b"]),
    ("sort/tied-stages", 32_768, |n| led(n, |i| Value::Int(i as i64 % 4)),
        &["SELECT * FROM t ORDER BY g, b"]),
    ("sort/str-stages", 32_768, |n| led(n, |i| Value::str(format!("sensor-{:06}", i % 4096))),
        &["SELECT * FROM t ORDER BY g, b"]),
    ("sort/iceberg-stages", 16_700,
        |n| iceberg(n as f64 / 167e3, 123).window.table.to_au_relation(),
        &["SELECT * FROM t ORDER BY date"]),
    ("window/stages", 8_192, |n| scan_table(n, false),
        &["SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
           ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s FROM t; \
           SELECT *, SUM(v) OVER (ORDER BY o ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s \
           FROM t"]),
    ("window/series-stages", 2_048, |n| scan_table(n, true),
        &["SELECT *, SUM(v) OVER (ORDER BY o ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s \
           FROM t"]),
    ("filter/stages", 131_072, events_table, &[
        "SELECT * FROM t WHERE id < 1310 ORDER BY a, b AS pos LIMIT 10",
        "SELECT * FROM t WHERE id < 13107 ORDER BY a, b AS pos LIMIT 10",
        "SELECT id, a + b AS c FROM t WHERE a < c AND b > d ORDER BY c AS pos LIMIT 10",
    ]),
];

/// One stage block read as a SQL caller runs it: `table(rows)` registered
/// in a session, each statement prepared once, then `runs` times each run
/// by [`Engine::execute_traced`] — the runner behind `Session::execute` —
/// and its output turned to rows. Returns each row's median milliseconds,
/// first reported first: the trace's operators by label and kernel stages
/// by name, then `to_rows`, each summed over an operation's statements and
/// numbered by operation where there are several; and the pool at a close
/// of each partitionless window.
fn read_stages(
    &(_, _, table, operations): &StageBlock,
    rows: usize,
    runs: usize,
) -> (Vec<(String, f64)>, Vec<(f64, usize, f64)>) {
    let session = Session::new(Engine::native());
    session.register("t", table(rows));
    let prepared = (operations.iter()).map(|sql| session.prepare_script(sql));
    let operations: Result<Vec<Vec<Prepared>>, _> = prepared.collect();
    let operations = operations.expect("stage statements compile");
    let mut heard: Vec<(String, Vec<f64>)> = Vec::new();
    for run in 0..runs {
        for (i, statements) in operations.iter().enumerate() {
            let number = (operations.len() > 1).then(|| format!("{} ", i + 1));
            let number = number.unwrap_or_default();
            for prepared in statements {
                let traced = session.engine().execute_traced(prepared.plan());
                let (out, trace) = traced.expect("stage statement runs");
                let t = Instant::now();
                let _rows = std::hint::black_box(out.to_rows());
                let to_rows = ("to_rows", t.elapsed());
                // Past the scan, which hands the stored segments on.
                let ops = trace.ops.iter().skip(1);
                let ops = ops.map(|op| (op.label.as_str(), op.elapsed));
                for (name, elapsed) in ops.chain(trace.stages.iter().copied()).chain([to_rows]) {
                    let (name, ms) = (format!("{number}{name}"), elapsed.as_secs_f64() * 1e3);
                    match heard.iter_mut().find(|(row, _)| *row == name) {
                        Some((_, samples)) if samples.len() > run => samples[run] += ms,
                        Some((_, samples)) => samples.push(ms),
                        None => heard.push((name, vec![ms])),
                    }
                }
            }
        }
    }
    let pools = (operations.iter().flatten()).filter_map(|p| pool_residency(p.plan()));
    let medians = heard.into_iter().map(|(name, ms)| (name, median(ms)));
    (medians.collect(), pools.collect())
}

/// Ablation: exact interval-lex vs the paper's syntactic recursion in the
/// quadratic reference (DESIGN.md §3.2). Both run the same prepared plan
/// through the reference oracle's runner, differing only in the oracle's
/// comparison semantics.
pub fn measure_cmp_semantics(cfg: &BenchConfig) -> Vec<(&'static str, f64)> {
    let runs = if cfg.quick { 3 } else { 7 };
    let table = gen_sort_table(&SyntheticConfig::default().rows(CMP_ROWS).seed(4));
    let (_, prepared) = statement(Engine::reference(), table.to_au_relation(), SORT_SQL);
    [
        ("interval-lex", CmpSemantics::IntervalLex),
        ("syntactic", CmpSemantics::Syntactic),
    ]
    .into_iter()
    .map(|(name, semantics)| {
        let oracle = Reference { semantics };
        let run = || {
            let out = exec::run_materialized(&oracle, prepared.plan(), &());
            std::hint::black_box(out.expect("bench plan executes"));
        };
        (name, time_median(run, runs))
    })
    .collect()
}

/// `window/imp`, once per aggregate function: the cells' window with its
/// `SUM(v)` replaced.
pub fn measure_window_aggregates(cfg: &BenchConfig) -> Vec<(&'static str, f64)> {
    let runs = if cfg.quick { 3 } else { 7 };
    let table = gen_window_table(&SyntheticConfig::default().rows(AGGREGATE_ROWS).seed(3));
    [
        ("sum", "SUM(v)"),
        ("count", "COUNT(*)"),
        ("min", "MIN(v)"),
        ("max", "MAX(v)"),
        ("avg", "AVG(v)"),
    ]
    .into_iter()
    .map(|(name, call)| {
        let sql = WINDOW_CELL_SQL.replace("SUM(v)", call);
        let (session, prepared) = statement(Engine::native(), table.to_au_relation(), &sql);
        (name, time_median(|| execute(&session, &prepared), runs))
    })
    .collect()
}

/// One run's typed results, as [`check`] reads them.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The (op, n) input footprints.
    pub footprints: Vec<Footprint>,
    /// The typed-vs-generic kernel sweeps.
    pub kernels: Vec<(&'static str, Pair)>,
    /// The streaming block.
    pub streaming: Vec<StreamingRun>,
    /// The `streaming-topk` block.
    pub streaming_topk: Vec<StreamingRun>,
    /// The pruning block.
    pub pruning: Vec<PruningRun>,
    /// The pair of each shape of the scaling table (`SCALING`) read, in
    /// its order.
    pub scaling: Vec<Pair>,
    /// The `append/flat` block.
    pub append: Option<Pair>,
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

/// A gate over pairs: each row's arms shown in `unit` — arm b's
/// milliseconds times `scale[1]`, then arm a's times `scale[0]` — and
/// whether their median per-pair ratio b / a, in that unit, `holds`.
fn pair_gate<'a>(
    name: &'static str,
    rule: String,
    lacks: &str,
    (unit, scale): (&str, [f64; 2]),
    holds: impl Fn(f64) -> bool,
    rows: impl Iterator<Item = (String, &'a Pair)>,
) -> GateResult {
    gate(
        name,
        rule,
        true,
        lacks,
        rows.map(|(how, p)| {
            let (a, b) = (p.a_ms * scale[0], p.b_ms * scale[1]);
            let ratio = p.ratio * scale[1] / scale[0];
            let shown = format!("{how}{b:.3}{unit} vs {a:.3}{unit} ({ratio:.2} ×)");
            (holds(ratio), shown)
        }),
    )
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
            r.n,
            rec / inc
        );
        (rec / inc >= min, shown)
    };
    let pruning = &report.pruning;
    let pruning_at = |pct| {
        pruning
            .iter()
            .find(move |p| p.n == GATE_ROWS && p.sel_pct == pct)
    };
    let ms = (" ms", [1.0; 2]);
    let mut gates = vec![
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
        pair_gate(
            "kernels",
            "typed ≥ generic lanes' cell-by-cell rows/s".into(),
            "a kernel sweep",
            ms,
            |ratio| ratio >= 1.0,
            (report.kernels.iter()).map(|(kernel, p)| (format!("{kernel}: "), p)),
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
        pair_gate(
            "pruning-16k",
            format!("pruned ≥ {PRUNING_MIN_SPEEDUP} × unpruned at {GATE_ROWS} rows, 1 %"),
            gate_rows,
            ms,
            |ratio| ratio >= PRUNING_MIN_SPEEDUP,
            pruning_at(1).map(|p| (String::new(), &p.pair)).into_iter(),
        ),
        gate(
            "pruning-16k-share",
            format!("1 % statement × {PRUNING_MIN_SPREAD} < the 50 % one at {GATE_ROWS} rows"),
            true,
            gate_rows,
            (pruning_at(1).zip(pruning_at(50)).into_iter()).map(|(one, half)| {
                let (one, half) = (one.pair.a_ms, half.pair.a_ms);
                (
                    one * PRUNING_MIN_SPREAD < half,
                    format!("{one:.3} ms vs {half:.3} ms"),
                )
            }),
        ),
    ];
    // One gate per run of adjacent [`SCALING`] rows, named by their `gate`.
    let firsts =
        (SCALING.iter().enumerate()).filter(|&(i, s)| i == 0 || SCALING[i - 1].gate != s.gate);
    gates.extend(firsts.map(|(_, s)| {
        let what = if s.per_row { "ns/row" } else { "ms" };
        let [a, b] = s.rows;
        let rows = (SCALING.iter().zip(&report.scaling)).filter(|(row, _)| row.gate == s.gate);
        pair_gate(
            s.gate,
            format!("{what} at {b} ≤ {} × {what} at {a}", s.bound),
            &format!("the {} rows", s.gate),
            s.unit(),
            |ratio| ratio <= s.bound,
            rows.map(|(row, p)| (format!("{}: ", row.shape), p)),
        )
    }));
    gates.push(pair_gate(
        "append-flat",
        format!(
            "a {STREAM_BATCH}-row append onto {} rows ≤ {APPEND_MAX_RATIO} × one onto {}",
            APPEND_ROWS[1], APPEND_ROWS[0]
        ),
        "the append/flat block",
        (" µs", [1e3; 2]),
        |ratio| ratio <= APPEND_MAX_RATIO,
        report.append.iter().map(|p| (String::new(), p)),
    ));
    gates
}

/// Measure and print every block, then every gate of [`check`]. Returns
/// the process exit code: 1 when a gate [`GateResult::blocks`].
pub fn run(cfg: &BenchConfig) -> i32 {
    // The window shapes time the production sweep, partitions in parallel.
    let threads = audb_par::num_threads();
    println!("scaling, threads: {threads}");
    let scaling = SCALING.iter().map(|s| read_scaling(s, cfg)).collect();
    let footprints = measure(cfg);
    for f in &footprints {
        println!(
            "{:>7} rows  footprint {:<8} row {:>6.1}  columnar {:>6.1}  typed {:>6.1} B/row  lanes {:?}",
            f.n, f.op, f.row, f.columnar, f.typed, f.phys
        );
    }
    let kernels = measure_kernels(cfg);
    let streaming = measure_streaming(cfg, STREAM_SQL, None);
    let streaming_topk = measure_streaming(cfg, STREAM_TOPK_SQL, Some(TOPK_APPENDS));
    for (block, runs) in [
        ("streaming", &streaming),
        ("streaming-topk", &streaming_topk),
    ] {
        for r in runs {
            let (inc, rec) = (r.incremental_ms, r.recompute_ms);
            println!(
                "{:>7} rows  {block} {:>8.0} appends/s  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.2}x vs recompute",
                r.n, r.appends as f64 * 1e3 / inc, r.p50_us, r.p99_us, rec / inc
            );
        }
    }
    let pruning = measure_pruning(cfg);
    for p in &pruning {
        println!(
            "{:>7} rows  pruning sel {:>3}%  pruned {:>8.3} ms  unpruned {:>8.3} ms  {:>6.2}x  ({} skipped / {} scanned)",
            p.n, p.sel_pct, p.pair.a_ms, p.pair.b_ms, p.pair.ratio, p.batches_skipped, p.batches_scanned
        );
    }
    let append = measure_append(cfg);
    for (n, what, ns) in measure_ingest(cfg) {
        println!("{n:>7} rows  ingest/csv {what:<8} {ns:>10.1} ns/row");
    }
    println!("stages, threads: {threads} (a window stage sums its partitions)");
    let line = |n: usize, block: &str, name: &str, ms: f64| {
        println!("{n:>7} rows  {block:<18} {name:<12} {ms:>10.3} ms");
    };
    for block @ (name, n, ..) in &STAGE_BLOCKS {
        let (heard, pools) = read_stages(block, *n, if cfg.quick { 5 } else { 21 });
        heard.iter().for_each(|(row, ms)| line(*n, name, row, *ms));
        for (mean, max, visits) in pools {
            println!("{n:>7} rows  {name} pool at a close: mean {mean:.1}, max {max}, visited per scanning close {visits:.2}");
        }
    }
    let cmp_semantics = measure_cmp_semantics(cfg);
    cmp_semantics
        .iter()
        .for_each(|(row, ms)| line(CMP_ROWS, "sort/cmp-semantics", row, *ms));
    let aggregates = measure_window_aggregates(cfg);
    aggregates
        .iter()
        .for_each(|(row, ms)| line(AGGREGATE_ROWS, "window/aggregates", row, *ms));
    let gates = check(&Report {
        footprints,
        kernels,
        streaming,
        streaming_topk,
        pruning,
        scaling,
        append: Some(append),
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
            ..StreamingRun::default()
        };
        let pair = |a_ms, b_ms| Pair::of(&[(a_ms, b_ms)]);
        let pruning = |n, sel_pct, pruned_ms, unpruned_ms, batches_skipped| PruningRun {
            n,
            sel_pct,
            pair: pair(pruned_ms, unpruned_ms),
            batches_skipped,
            batches_scanned: n.div_ceil(ZONE_ROWS) - batches_skipped,
        };
        Report {
            footprints: vec![Footprint {
                op: "sort_sel",
                n: 16_000,
                row: 264.0,
                columnar: 96.0,
                typed: 48.0,
                phys: vec![PhysType::I64; 3],
            }],
            kernels: ["truth_batch", "eval_batch", "conjunction"]
                .map(|kernel| (kernel, pair(0.08, 0.32)))
                .into(),
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
            // `SCALING`'s rows: 162 and 222 ns/row; 1 100 and 1 400 ns/row
            // flat and partitioned; 8.3 × the time for 8 × the rows.
            scaling: vec![
                pair(5.3, 58.2),
                pair(18.0, 183.5),
                pair(18.0, 183.5),
                pair(3.0, 25.0),
            ],
            append: Some(pair(0.150, 0.170)),
        }
    }

    #[test]
    fn a_pair_is_the_median_of_its_ratios_not_the_ratio_of_its_medians() {
        let pair = Pair::of(&[(1.0, 10.0), (2.0, 4.0), (10.0, 5.0)]);
        let want = Pair {
            a_ms: 2.0,
            b_ms: 5.0,
            ratio: 2.0,
        };
        assert_eq!(pair, want, "the ratio of the medians is 2.5");
    }

    #[test]
    fn odd_pairs_run_arm_b_first() {
        let calls = std::cell::RefCell::new(String::new());
        let arm = |name| {
            let calls = &calls;
            move || calls.borrow_mut().push(name)
        };
        Pair::time(4, arm('a'), arm('b'));
        assert_eq!(calls.into_inner(), "abbaabba");
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
        fails_alone("kernels", true, |r| r.kernels[1].1.ratio = 0.8);
    }

    #[test]
    fn streaming_gate_fails_alone() {
        fails_alone("streaming", true, |r| r.streaming[0].recompute_ms = 1.0);
    }

    #[test]
    fn streaming_16k_gate_fails_alone() {
        fails_alone("streaming-16k", true, |r| {
            r.streaming[1].recompute_ms = 70.0
        });
    }

    #[test]
    fn streaming_topk_gate_fails_alone() {
        fails_alone("streaming-topk", true, |r| {
            r.streaming_topk[0].recompute_ms = 80.0
        });
    }

    #[test]
    fn pruning_skips_gate_fails_alone() {
        fails_alone("pruning-skips", false, |r| r.pruning[0].batches_skipped = 0);
    }

    #[test]
    fn pruning_16k_gate_fails_alone() {
        fails_alone("pruning-16k", true, |r| r.pruning[1].pair.ratio = 1.5);
    }

    #[test]
    fn pruning_16k_share_gate_fails_alone() {
        fails_alone("pruning-16k-share", true, |r| r.pruning[2].pair.a_ms = 0.06);
    }

    #[test]
    fn sort_scaling_gate_fails_alone() {
        // 1.9 × the small cell's ns/row: inside the 2.5 × this gate allowed
        // until PR 24, outside what it allows now.
        fails_alone("sort-scaling", true, |r| r.scaling[0].ratio = 15.2);
    }

    #[test]
    fn window_scaling_gate_fails_alone() {
        // The partitioned cell alone: either shape past the ratio fails it.
        fails_alone("window-scaling", true, |r| r.scaling[2].ratio = 18.0);
    }

    #[test]
    fn window_dup_scaling_gate_fails_alone() {
        // 9.5 × the time for 8 × the rows.
        fails_alone("window-dup-scaling", true, |r| r.scaling[3].ratio = 9.5);
    }

    #[test]
    fn append_flat_gate_fails_alone() {
        fails_alone("append-flat", true, |r| {
            r.append.as_mut().expect("passing").ratio = 8.0
        });
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
        for (_, pair) in &kernels {
            assert!(pair.a_ms > 0.0 && pair.b_ms > 0.0);
        }
        let report = Report {
            kernels,
            ..Report::default()
        };
        assert_gate_holds(&report, "kernels");
    }

    /// Every [`SCALING`] statement, read once over an eighth of its arm a's
    /// rows, binds to the plan its gate timed before the shapes were SQL:
    /// `runner::sort_plan`'s sort, the window built through `Query` without
    /// and with a partition by `g`, and the dup statement's text.
    #[test]
    fn scaling_statements_bind_to_the_plans_the_gates_timed() {
        use audb_core::WinAgg;
        use audb_engine::{Query, WindowSpec};
        use audb_workloads::runner::sort_plan;
        let window = |rel: AuRelation, partition: Option<usize>| {
            let spec = WindowSpec::rows(-2, 0)
                .order_by([0])
                .partition_by(partition);
            let query = Query::scan(rel).window(spec.aggregate(WinAgg::Sum(2)).output("s"));
            query.build().expect("a valid window")
        };
        let dup_sql = "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS x FROM t";
        for s in &SCALING {
            let n = s.rows[0] / 8;
            let (session, prepared) = statement(Engine::native(), (s.table)(n), s.sql);
            execute(&session, &prepared);
            let want = match s.shape {
                "sort/scaling imp" => sort_plan(sort_table(n), &[0, 1], None),
                "window/scaling flat" => window(window_table(n), None),
                "window/scaling partitioned" => window(window_table(n), Some(1)),
                _ => statement(Engine::native(), dup_table(n), dup_sql)
                    .1
                    .plan()
                    .clone(),
            };
            assert_eq!(prepared.plan().ops(), want.ops(), "{}", s.shape);
        }
    }

    /// The cells' and `window/aggregates`' statements bind to the plans
    /// they were built as through `runner::{sort_plan, window_plan}` and
    /// `Query`.
    #[test]
    fn cell_statements_bind_to_the_plans_they_replaced() {
        use audb_core::WinAgg;
        use audb_engine::Query;
        use audb_workloads::runner::{sort_plan, window_plan};
        let (sort, window) = (sort_table(1_000), window_table(1_000));
        let sort_sel = Query::scan(sort.clone())
            .select(RangeExpr::col(1).le(RangeExpr::lit(10_000i64)))
            .project_exprs([
                (RangeExpr::col(0), "a".to_string()),
                (
                    RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::col(2))),
                    "bid".to_string(),
                ),
            ])
            .sort_by(["a", "bid"]);
        let sort_sel_sql = "SELECT a, b + id AS bid FROM t WHERE b <= 10000 ORDER BY a, bid";
        let aggs = [
            (WinAgg::Sum(2), "SUM(v)"),
            (WinAgg::Count, "COUNT(*)"),
            (WinAgg::Min(2), "MIN(v)"),
            (WinAgg::Max(2), "MAX(v)"),
            (WinAgg::Avg(2), "AVG(v)"),
        ];
        let windows = aggs.map(|(agg, call)| {
            let plan = window_plan(window.clone(), &[0], agg, -2, 0);
            (
                window.clone(),
                WINDOW_CELL_SQL.replace("SUM(v)", call),
                plan,
            )
        });
        let sorts = [
            (
                sort.clone(),
                SORT_SQL.to_string(),
                sort_plan(sort.clone(), &[0, 1], None),
            ),
            (
                sort,
                sort_sel_sql.to_string(),
                sort_sel.build().expect("a valid plan"),
            ),
        ];
        for (table, sql, want) in sorts.into_iter().chain(windows) {
            let (_, prepared) = statement(Engine::native(), table, &sql);
            assert_eq!(prepared.plan().ops(), want.ops(), "{sql}");
        }
    }

    /// Every stage block, read once over an eighth of its rows, reports
    /// the rows DESIGN.md cites: a sort's stages (§3.3), a window's (§3.4),
    /// `filter_scan`'s fused stage and the predicate sweeps inside it
    /// (§10.3) — each beside its operator and `to_rows` — and each
    /// partitionless window its pool.
    #[test]
    fn stage_blocks_report_their_stages() {
        let sort = [
            "sort",
            "encode",
            "rank",
            "merge",
            "sweep",
            "materialise",
            "to_rows",
        ];
        let window = [
            "window",
            "partition",
            "rank",
            "items",
            "selected-guess",
            "sweep",
            "order",
            "materialise",
            "to_rows",
        ];
        // At an eighth of `filter/stages`' rows, 16 384, each `id <` bound
        // still falls inside a batch, so the zone maps leave a
        // `truth_batch` to run; each top-k reports its band and the encode
        // of the band's rows.
        let filter = ["fuse(", "truth_batch", "topk", "band", "encode", "to_rows"];
        for block @ (name, rows, ..) in &STAGE_BLOCKS {
            let (heard, pools) = read_stages(block, rows / 8, 1);
            let names: Vec<&str> = heard.iter().map(|(row, _)| row.as_str()).collect();
            let want: Vec<String> = match name.split('/').next() {
                Some("sort") => sort.map(String::from).into(),
                Some("window") => window.map(String::from).into(),
                _ => (1..=3)
                    .flat_map(|i| filter.map(|row| format!("{i} {row}")))
                    .collect(),
            };
            for row in &want {
                let reported = names.iter().any(|name| name.starts_with(row.as_str()));
                assert!(reported, "{name} lacks {row}: {names:?}");
            }
            let windows = usize::from(name.starts_with("window"));
            assert_eq!(pools.len(), windows, "{name}");
        }
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
        assert!(r.incremental_ms > 0.0 && r.recompute_ms > 0.0);
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
        assert!(p.pair.a_ms > 0.0 && p.pair.b_ms > 0.0);
        let report = Report {
            pruning,
            ..Report::default()
        };
        assert_gate_holds(&report, "pruning-skips");
    }
}
