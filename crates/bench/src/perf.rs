//! Tracked performance artifact: `BENCH_sort_window.json`.
//!
//! `repro bench --json` measures ops/sec of the three methods (`det` — the
//! deterministic engine on the most-likely world; `imp` — the one-pass
//! native algorithms; `rewr` — the SQL-style rewrite) for sorting, windowed
//! aggregation, and a select/project-carrying ranking plan (`sort_sel`:
//! `scan → select → project → sort`) at n ∈ {1k, 4k, 16k} by default
//! (`--sizes` overrides), and writes them as JSON so the perf trajectory is
//! tracked in-repo from PR to PR.
//!
//! Every AU cell runs the way its backend runs plans (`imp` and `rewr`
//! pipelined). `--threads N` pins `AUDB_THREADS` for reproducible
//! parallelism and is recorded in the artifact. End-to-end numbers that gate a PR come from
//! the repo benchmark (`benchmark/`, `BENCHMARK.json`); this artifact
//! keeps what that benchmark does not measure: the size sweep, storage
//! footprints, and the within-run kernel, streaming and pruning ratios.
//!
//! Schema v3 (the columnar-storage PR) adds two columns per run:
//! `rows_per_sec` (input rows over median wall time) and `bytes_per_row`
//! — the **measured** per-row heap footprint of the cell's AU input table
//! in both layouts (`{"row": …, "columnar": …}`), so the saving from the
//! struct-of-arrays layout and its certain-column fast path is tracked
//! in-repo. CI asserts columnar ≤ row on the `sort_sel` workload.
//!
//! Schema v4 (the typed-physical-columns PR) extends each run with the
//! **typed** layout: `bytes_per_row` gains a `"typed"` entry (the
//! monomorphic `i64`/`f64`/dictionary lanes `to_columns()` now builds;
//! `"columnar"` is the same relation demoted to generic `Value` lanes —
//! PR 5's layout) and a `"phys"` summary counting the input's columns per
//! physical type. A separate `"kernel_sweeps"` section times the
//! vectorized expression kernels (`truth_batch` / `eval_batch`) on the
//! typed lanes against the same columns demoted to generic, as
//! rows-per-second pairs. CI asserts typed ≤ columnar ≤ row on
//! `sort_sel` and typed ≥ generic within each sweep.
//!
//! Schema v6 (the incremental-maintenance PR) adds a `"streaming"`
//! section: per size, an in-order sensor stream is pushed through a
//! `Session::subscribe` window subscription in 64-row appends on **both
//! strategy arms within the same run** — the incremental sweep (live
//! `ConnectedHeap` state, per-append p50/p99 and sustained appends/sec)
//! and a forced full recompute per batch (`with_cutoff(usize::MAX)`).
//! The `streaming_16k_speedup` headline is their within-run ratio; only
//! within-run pairs are gated (cross-run noise on this container is
//! ±20%). CI asserts incremental ≥ recompute on every row and ≥ 5× when
//! the 16k row is present.
//!
//! Schema v8 drops what the repo benchmark superseded: the per-run `exec`
//! column and its materialized twin cells, the frozen pre-optimization
//! baseline block with its headline, and the `server` section.

use audb_core::{AuRelation, AuTuple, Mult3, PhysType, RangeExpr, RangeValue, WinAgg};
use audb_engine::{Engine, MaintainedQuery, Plan, Query, Session, SharedCatalog};
use audb_rel::Schema;
use audb_workloads::runner::{sort_plan, window_plan};
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Row counts tracked in the artifact by default.
pub const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// Selectivities (percent of rows passing the clustered-key predicate)
/// the pruning sweep measures by default; `--sel PCT` narrows to one.
pub const SELECTIVITIES: [u32; 3] = [1, 10, 50];

/// Benchmark configuration (the `repro bench` flags).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Halve the per-cell run count (smoke runs).
    pub quick: bool,
    /// Row counts to measure.
    pub sizes: Vec<usize>,
    /// Pinned worker-thread count (`--threads N`); `None` records "auto".
    pub threads: Option<usize>,
    /// `--sel PCT`: pin the pruning sweep to a single selectivity
    /// (percent); `None` sweeps [`SELECTIVITIES`].
    pub sel: Option<u32>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            quick: false,
            sizes: SIZES.to_vec(),
            threads: None,
            sel: None,
        }
    }
}

impl BenchConfig {
    /// The thread count the measured cells actually ran under: the
    /// `--threads` pin when given, otherwise an ambient `AUDB_THREADS`
    /// (which `audb_par` honors even without the flag). `None` means the
    /// run genuinely auto-scaled — that's what the artifact must record,
    /// or the PR-to-PR trajectory compares pinned runs against parallel
    /// ones without saying so.
    pub fn effective_threads(&self) -> Option<usize> {
        self.threads.or_else(|| {
            std::env::var("AUDB_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
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
    /// Runs per second (1000 / ms).
    pub ops_per_sec: f64,
    /// Input rows processed per second (`n · ops_per_sec`).
    pub rows_per_sec: f64,
    /// Measured heap footprint of the cell's AU input table in the **row**
    /// layout (`AuRelation::heap_bytes`), per row.
    pub bytes_per_row_row: f64,
    /// Same footprint in the **generic columnar** layout (struct-of-arrays
    /// `Value` lanes — PR 5's layout, measured by demoting the typed
    /// columns), per row.
    pub bytes_per_row_columnar: f64,
    /// Same footprint in the **typed** columnar layout (monomorphic
    /// `i64`/`f64`/dictionary lanes + certainty bitmaps — what
    /// `to_columns()` now builds), per row. CI asserts
    /// typed ≤ columnar ≤ row on the `sort_sel` workload.
    pub bytes_per_row_typed: f64,
    /// Physical layout of each input column (the per-op type summary the
    /// artifact renders as per-type counts).
    pub phys: Vec<PhysType>,
}

/// Per-row heap footprint of an AU relation under the three storage
/// layouts, plus the typed layout's per-column physical types.
struct Footprint {
    row: f64,
    columnar: f64,
    typed: f64,
    phys: Vec<PhysType>,
}

fn footprint(rel: &audb_core::AuRelation) -> Footprint {
    let n = rel.len().max(1) as f64;
    let typed = rel.to_columns();
    Footprint {
        row: rel.heap_bytes() as f64 / n,
        columnar: typed.to_generic().heap_bytes() as f64 / n,
        typed: typed.heap_bytes() as f64 / n,
        phys: typed.col_phys_types(),
    }
}

fn time_median(mut f: impl FnMut(), budget_runs: usize) -> f64 {
    let mut samples = Vec::with_capacity(budget_runs);
    for _ in 0..budget_runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measure one cell: the median of `runs` calls of `f`. The
/// storage-footprint columns describe the op's **AU** input table for
/// every method (`det` included), so every row of one (op, n) group
/// reports the same footprint.
fn cell(
    out: &mut Vec<Measurement>,
    op: &'static str,
    method: &'static str,
    n: usize,
    au_input: &AuRelation,
    f: impl FnMut(),
    runs: usize,
) {
    let fp = footprint(au_input);
    let ms = time_median(f, runs);
    out.push(Measurement {
        op,
        method,
        n,
        ms,
        ops_per_sec: 1e3 / ms,
        rows_per_sec: n as f64 * 1e3 / ms,
        bytes_per_row_row: fp.row,
        bytes_per_row_columnar: fp.columnar,
        bytes_per_row_typed: fp.typed,
        phys: fp.phys,
    });
}

/// Scoped `AUDB_THREADS` pin: restores the previous value (or absence) on
/// drop, so a `--threads` pin does not leak into other `repro` targets of
/// the same invocation.
struct ThreadPin(Option<String>);

impl ThreadPin {
    fn set(threads: Option<usize>) -> ThreadPin {
        let previous = std::env::var("AUDB_THREADS").ok();
        if let Some(t) = threads {
            std::env::set_var("AUDB_THREADS", t.to_string());
        }
        ThreadPin(previous)
    }
}

impl Drop for ThreadPin {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("AUDB_THREADS", v),
            None => std::env::remove_var("AUDB_THREADS"),
        }
    }
}

/// Measure every (op, method, n) cell.
pub fn measure(cfg: &BenchConfig) -> Vec<Measurement> {
    let _pin = ThreadPin::set(cfg.threads);
    let runs = if cfg.quick { 3 } else { 7 };
    let mut out = Vec::new();
    // One logical plan per op, two engine backends: only the physical
    // operators differ between the timed AU cells.
    let au_cells = |out: &mut Vec<Measurement>, op, n, plan: &Plan| {
        for (method, engine) in [("imp", Engine::native()), ("rewr", Engine::rewrite())] {
            let run = || {
                std::hint::black_box(engine.execute(plan).expect("bench plan executes"));
            };
            cell(out, op, method, n, plan.source(), run, runs);
        }
    };
    for &n in &cfg.sizes {
        let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
        let world = table.most_likely_world();
        let order = [0usize, 1];
        let plan = sort_plan(&table, &order, None);
        cell(
            &mut out,
            "sort",
            "det",
            n,
            plan.source(),
            || {
                std::hint::black_box(audb_rel::sort_to_pos(&world, &order, "pos"));
            },
            runs,
        );
        au_cells(&mut out, "sort", n, &plan);

        // Streamable stages ahead of the breaker (≈50% selectivity on the
        // certain `b` attribute, then a computed projection): one fused
        // sweep in the pipeline executor.
        let au = table.to_au_relation();
        let mid = (n as i64 * 20) / 2;
        let sel_plan = Query::scan(au)
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
        au_cells(&mut out, "sort_sel", n, &sel_plan);

        let wtable = gen_window_table(&SyntheticConfig::default().rows(n).seed(4));
        let wworld = wtable.most_likely_world();
        let wplan = window_plan(&wtable, &[0], WinAgg::Sum(2), -2, 0);
        cell(
            &mut out,
            "window",
            "det",
            n,
            wplan.source(),
            || {
                std::hint::black_box(audb_rel::window_rows(
                    &wworld,
                    &audb_rel::WindowSpec::rows(vec![0], -2, 0),
                    audb_rel::AggFunc::Sum(2),
                    "x",
                ));
            },
            runs,
        );
        au_cells(&mut out, "window", n, &wplan);
    }
    out
}

/// One typed-vs-generic vectorized kernel sweep: the same expression over
/// the same columns, once on the typed lanes and once after demoting them
/// to generic `Value` lanes.
#[derive(Clone, Debug)]
pub struct KernelSweep {
    /// `truth_batch` (the `sort_sel` selection predicate) or `eval_batch`
    /// (its computed projection).
    pub kernel: &'static str,
    /// Input rows per sweep.
    pub n: usize,
    /// Rows per second on the typed lanes.
    pub typed_rows_per_sec: f64,
    /// Rows per second on the demoted generic lanes (CI asserts
    /// typed ≥ generic).
    pub generic_rows_per_sec: f64,
}

/// Time the vectorized kernels of the `sort_sel` plan's expressions —
/// the selection predicate through `truth_batch` and the computed
/// projection through `eval_batch` — on typed vs demoted-generic columns
/// of the same relation.
pub fn measure_kernels(cfg: &BenchConfig) -> Vec<KernelSweep> {
    let runs = if cfg.quick { 5 } else { 15 };
    let n = cfg.sizes.iter().copied().max().unwrap_or(16_000);
    let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
    let typed = table.to_au_relation().to_columns();
    let generic = typed.to_generic();
    let mid = (n as i64 * 20) / 2;
    let pred = RangeExpr::col(1).le(RangeExpr::lit(mid));
    let proj = RangeExpr::Add(Box::new(RangeExpr::col(1)), Box::new(RangeExpr::col(2)));
    let mut out = Vec::new();
    let mut sweep = |kernel: &'static str, f: &mut dyn FnMut(&audb_core::AuColumns)| {
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
    out
}

/// One streaming cell: `n` rows pushed through a window subscription in
/// `batch`-row appends, measured on both strategy arms within one run so
/// the speedup is immune to cross-run noise.
#[derive(Clone, Debug)]
pub struct StreamingRun {
    /// Total rows streamed.
    pub n: usize,
    /// Rows per append.
    pub batch: usize,
    /// Number of appends (`ceil(n / batch)`).
    pub appends: usize,
    /// Sustained append rate of the incremental arm.
    pub appends_per_sec: f64,
    /// Median per-append latency of the incremental arm, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-append latency, microseconds.
    pub p99_us: f64,
    /// Wall total of the incremental arm, milliseconds.
    pub incremental_ms: f64,
    /// Wall total of the forced-recompute arm over the same batches.
    pub recompute_ms: f64,
    /// `recompute_ms / incremental_ms` — the within-run gate CI reads.
    pub speedup: f64,
}

/// Rows per streaming append; small enough that per-append latency is
/// dominated by the maintenance work, large enough to amortize the
/// batch-side sort.
const STREAM_BATCH: usize = 64;

const STREAM_SQL: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
                          ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS roll FROM s";

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

fn stream_subscription(cutoff: usize) -> MaintainedQuery {
    let catalog = SharedCatalog::new();
    catalog.register("s", AuRelation::empty(stream_schema()));
    Session::with_catalog(Engine::native(), catalog)
        .subscribe(STREAM_SQL)
        .expect("streaming SQL compiles")
        .with_cutoff(cutoff)
}

/// Measure the streaming section: the same append sequence absorbed
/// incrementally and by full recompute, per configured size.
pub fn measure_streaming(cfg: &BenchConfig) -> Vec<StreamingRun> {
    let _pin = ThreadPin::set(cfg.threads);
    cfg.sizes
        .iter()
        .map(|&n| {
            let batches = stream_batches(n, STREAM_BATCH);

            let mut q = stream_subscription(STREAM_BATCH);
            let mut lat = Vec::with_capacity(batches.len());
            let started = Instant::now();
            for b in &batches {
                let t = Instant::now();
                std::hint::black_box(q.append(b).expect("in-order append"));
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let incremental_ms = started.elapsed().as_secs_f64() * 1e3;
            let (incr, _) = q.strategy_counts();
            assert!(incr > 0, "streaming bench fell off the incremental path");
            lat.sort_by(f64::total_cmp);
            let p50_us = lat[lat.len() / 2];
            let p99_us = lat[(lat.len() - 1) * 99 / 100];

            // Same batches, strategy forced to recompute: the cutoff is
            // never reached, so every append re-runs the full plan.
            let mut q = stream_subscription(usize::MAX);
            let started = Instant::now();
            for b in &batches {
                std::hint::black_box(q.append(b).expect("in-order append"));
            }
            let recompute_ms = started.elapsed().as_secs_f64() * 1e3;

            StreamingRun {
                n,
                batch: STREAM_BATCH,
                appends: batches.len(),
                appends_per_sec: batches.len() as f64 * 1e3 / incremental_ms,
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
    /// Median wall milliseconds with pruning disabled
    /// (`Engine::with_pruning(false)`) — same statement, same catalog.
    pub unpruned_ms: f64,
    /// `unpruned_ms / pruned_ms` — the within-run gate CI reads at 1%.
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
/// key at each configured selectivity, on a pruned and a
/// `with_pruning(false)` engine over the same catalog within one run.
/// Deliberately no trailing breaker: a sort's cost scales with the
/// *surviving* rows, identical in both arms, and at 1% selectivity it
/// would dominate both sides and dilute the measured contrast into noise.
pub fn measure_pruning(cfg: &BenchConfig) -> Vec<PruningRun> {
    let _pin = ThreadPin::set(cfg.threads);
    let runs = if cfg.quick { 7 } else { 21 };
    let sels: Vec<u32> = match cfg.sel {
        Some(pct) => vec![pct],
        None => SELECTIVITIES.to_vec(),
    };
    let mut out = Vec::new();
    for &n in &cfg.sizes {
        let catalog = SharedCatalog::new();
        catalog.register("c", clustered_table(n));
        let pruned = Session::with_catalog(Engine::native(), catalog.clone());
        let unpruned = Session::with_catalog(Engine::native().with_pruning(false), catalog);
        for &pct in &sels {
            let threshold = (n as i64 * pct as i64) / 100;
            let sql = format!("SELECT t, v + 1 AS v1 FROM c WHERE t < {threshold}");
            // One traced statement collects the skip counters.
            let prepared = pruned.prepare(&sql).expect("pruning statement compiles");
            let (_, trace) = pruned
                .engine()
                .execute_traced(prepared.plan())
                .expect("pruning statement executes");
            let statement_ms = |session: &Session| {
                time_median(
                    || {
                        std::hint::black_box(session.sql(&sql).expect("pruning statement runs"));
                    },
                    runs,
                )
            };
            let pruned_ms = statement_ms(&pruned);
            let unpruned_ms = statement_ms(&unpruned);
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

/// Render the per-column physical-type counts of one run's input.
fn phys_counts(phys: &[PhysType]) -> String {
    let count = |t: PhysType| phys.iter().filter(|p| **p == t).count();
    format!(
        "{{\"i64\": {}, \"f64\": {}, \"str\": {}, \"generic\": {}}}",
        count(PhysType::I64),
        count(PhysType::F64),
        count(PhysType::Str),
        count(PhysType::Generic)
    )
}

/// Render the artifact JSON (no serde in this workspace; the structure is
/// flat enough to emit by hand).
pub fn render_json(
    measurements: &[Measurement],
    kernels: &[KernelSweep],
    streaming: &[StreamingRun],
    pruning: &[PruningRun],
    cfg: &BenchConfig,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"artifact\": \"BENCH_sort_window\",\n");
    // v4: per-run typed `bytes_per_row` + `phys`, the `kernel_sweeps`
    // section; v6: `streaming`; v7: `pruning`; v8: no `exec` column, no
    // frozen baseline block, no `server` section (module docs).
    s.push_str("  \"schema_version\": 8,\n");
    let sizes = cfg
        .sizes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "  \"sizes\": [{sizes}],");
    // Record what the cells actually ran under: the --threads pin or an
    // ambient AUDB_THREADS both pin parallelism; only their absence is
    // honestly "auto".
    match cfg.effective_threads() {
        Some(t) => {
            let _ = writeln!(s, "  \"threads\": {t},");
        }
        None => s.push_str("  \"threads\": \"auto\",\n"),
    }
    s.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"op\": \"{}\", \"method\": \"{}\", \"n\": {}, \"ms\": {:.3}, \"ops_per_sec\": {:.3}, \"rows_per_sec\": {:.0}, \"bytes_per_row\": {{\"row\": {:.1}, \"columnar\": {:.1}, \"typed\": {:.1}}}, \"phys\": {}}}",
            m.op, m.method, m.n, m.ms, m.ops_per_sec, m.rows_per_sec, m.bytes_per_row_row, m.bytes_per_row_columnar, m.bytes_per_row_typed, phys_counts(&m.phys)
        );
        s.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"kernel_sweeps\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"typed_rows_per_sec\": {:.0}, \"generic_rows_per_sec\": {:.0}}}",
            k.kernel, k.n, k.typed_rows_per_sec, k.generic_rows_per_sec
        );
        s.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"streaming\": [\n");
    for (i, r) in streaming.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n\": {}, \"batch\": {}, \"appends\": {}, \"appends_per_sec\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"incremental_ms\": {:.3}, \"recompute_ms\": {:.3}, \"speedup\": {:.2}}}",
            r.n, r.batch, r.appends, r.appends_per_sec, r.p50_us, r.p99_us, r.incremental_ms, r.recompute_ms, r.speedup
        );
        s.push_str(if i + 1 < streaming.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"pruning\": [\n");
    for (i, p) in pruning.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n\": {}, \"sel_pct\": {}, \"pruned_ms\": {:.3}, \"unpruned_ms\": {:.3}, \"speedup\": {:.2}, \"batches_skipped\": {}, \"batches_scanned\": {}}}",
            p.n, p.sel_pct, p.pruned_ms, p.unpruned_ms, p.speedup, p.batches_skipped, p.batches_scanned
        );
        s.push_str(if i + 1 < pruning.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    // v6 headline: the within-run incremental-vs-recompute ratio at 16k.
    match streaming.iter().find(|r| r.n == 16_000) {
        Some(r) => {
            let _ = writeln!(s, "  \"streaming_16k_speedup\": {:.2},", r.speedup);
        }
        None => s.push_str("  \"streaming_16k_speedup\": null,\n"),
    }
    // v7 headline: the within-run pruned-vs-unpruned ratio at 16k rows
    // and 1% selectivity (the most prunable sweep point).
    match pruning.iter().find(|p| p.n == 16_000 && p.sel_pct == 1) {
        Some(p) => {
            let _ = writeln!(s, "  \"pruning_16k_speedup_at_1pct\": {:.2}", p.speedup);
        }
        None => s.push_str("  \"pruning_16k_speedup_at_1pct\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// Run the tracked benchmark and write `path`.
pub fn run_json(path: &str, cfg: &BenchConfig) {
    let measurements = measure(cfg);
    for m in &measurements {
        println!(
            "{:>6} rows  {:<8} {:<5} {:>10.3} ms  {:>10.2} ops/s",
            m.n, m.op, m.method, m.ms, m.ops_per_sec
        );
    }
    let kernels = measure_kernels(cfg);
    for k in &kernels {
        println!(
            "{:>6} rows  kernel {:<12} typed {:>12.0} rows/s  generic {:>12.0} rows/s",
            k.n, k.kernel, k.typed_rows_per_sec, k.generic_rows_per_sec
        );
    }
    let streaming = measure_streaming(cfg);
    for r in &streaming {
        println!(
            "{:>6} rows  streaming {:>8.0} appends/s  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.2}x vs recompute",
            r.n, r.appends_per_sec, r.p50_us, r.p99_us, r.speedup
        );
    }
    let pruning = measure_pruning(cfg);
    for p in &pruning {
        println!(
            "{:>6} rows  pruning sel {:>3}%  pruned {:>8.3} ms  unpruned {:>8.3} ms  {:>6.2}x  ({} skipped / {} scanned)",
            p.n, p.sel_pct, p.pruned_ms, p.unpruned_ms, p.speedup, p.batches_skipped, p.batches_scanned
        );
    }
    let json = render_json(&measurements, &kernels, &streaming, &pruning, cfg);
    std::fs::write(path, &json).expect("write bench artifact");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes every test that touches `AUDB_THREADS`. Mutating the
    /// process environment while another thread reads it is UB
    /// (setenv/getenv), so the writer *and* every reader (anything calling
    /// `effective_threads`, e.g. via `render_json` on a config without a
    /// pinned count) must hold this.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn cell(op: &'static str, method: &'static str, n: usize, ms: f64) -> Measurement {
        Measurement {
            op,
            method,
            n,
            ms,
            ops_per_sec: 1e3 / ms,
            rows_per_sec: n as f64 * 1e3 / ms,
            bytes_per_row_row: 264.0,
            bytes_per_row_columnar: 96.0,
            bytes_per_row_typed: 48.0,
            phys: vec![PhysType::I64, PhysType::I64, PhysType::Generic],
        }
    }

    fn sweep(kernel: &'static str) -> KernelSweep {
        KernelSweep {
            kernel,
            n: 16_000,
            typed_rows_per_sec: 2e8,
            generic_rows_per_sec: 5e7,
        }
    }

    #[test]
    fn render_is_valid_shaped_json() {
        // render_json on a default config reads AUDB_THREADS via
        // effective_threads — serialize against the env-mutating test.
        let _guard = ENV_LOCK.lock().unwrap();
        let ms = vec![
            cell("sort", "imp", 16_000, 20.0),
            cell("sort", "rewr", 16_000, 21.0),
            cell("window", "det", 1_000, 1.0),
        ];
        let sweeps = vec![sweep("truth_batch"), sweep("eval_batch")];
        let streaming = vec![StreamingRun {
            n: 16_000,
            batch: 64,
            appends: 250,
            appends_per_sec: 4000.0,
            p50_us: 210.0,
            p99_us: 900.0,
            incremental_ms: 62.5,
            recompute_ms: 500.0,
            speedup: 8.0,
        }];
        let pruning = vec![PruningRun {
            n: 16_000,
            sel_pct: 1,
            pruned_ms: 0.5,
            unpruned_ms: 2.0,
            speedup: 4.0,
            batches_skipped: 15,
            batches_scanned: 1,
        }];
        let json = render_json(&ms, &sweeps, &streaming, &pruning, &BenchConfig::default());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema_version\": 8"));
        // The v7 pruning section and its within-run headline.
        assert!(json.contains(
            "{\"n\": 16000, \"sel_pct\": 1, \"pruned_ms\": 0.500, \"unpruned_ms\": 2.000, \
             \"speedup\": 4.00, \"batches_skipped\": 15, \"batches_scanned\": 1}"
        ));
        assert!(json.contains("\"pruning_16k_speedup_at_1pct\": 4.00"));
        // The v6 streaming section and its within-run headline.
        assert!(json.contains(
            "{\"n\": 16000, \"batch\": 64, \"appends\": 250, \"appends_per_sec\": 4000, \
             \"p50_us\": 210.0, \"p99_us\": 900.0, \"incremental_ms\": 62.500, \
             \"recompute_ms\": 500.000, \"speedup\": 8.00}"
        ));
        assert!(json.contains("\"streaming_16k_speedup\": 8.00"));
        // The v3 columns render per run, with the v4 typed layout added.
        assert_eq!(json.matches("\"rows_per_sec\"").count(), 3);
        assert_eq!(
            json.matches(
                "\"bytes_per_row\": {\"row\": 264.0, \"columnar\": 96.0, \"typed\": 48.0}"
            )
            .count(),
            3
        );
        // Each run carries its physical-type counts.
        assert_eq!(
            json.matches("\"phys\": {\"i64\": 2, \"f64\": 0, \"str\": 0, \"generic\": 1}")
                .count(),
            3
        );
        // The v4 kernel sweeps render as typed/generic rows-per-second pairs.
        assert!(json.contains("\"kernel_sweeps\": ["));
        assert!(json.contains(
            "{\"kernel\": \"truth_batch\", \"n\": 16000, \
             \"typed_rows_per_sec\": 200000000, \"generic_rows_per_sec\": 50000000}"
        ));
        assert_eq!(json.matches("\"kernel\"").count(), 2);
        // ("auto" vs a number depends on the ambient AUDB_THREADS — the
        // env-sensitive assertions live in thread_pin_scopes_and_records,
        // which owns the variable.)
        assert!(json.contains("\"threads\": "));
        assert_eq!(json.matches("\"op\"").count(), 3);
        // One cell per (op, method, n): no execution-mode column.
        assert!(
            json.contains("{\"op\": \"sort\", \"method\": \"imp\", \"n\": 16000, \"ms\": 20.000,")
        );
        assert!(!json.contains("\"exec\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn thread_pin_scopes_and_records() {
        let _guard = ENV_LOCK.lock().unwrap();
        // The flag wins over the ambient variable and is restored after.
        std::env::set_var("AUDB_THREADS", "3");
        let cfg = BenchConfig {
            threads: Some(5),
            ..BenchConfig::default()
        };
        assert_eq!(cfg.effective_threads(), Some(5));
        {
            let _pin = ThreadPin::set(cfg.threads);
            assert_eq!(std::env::var("AUDB_THREADS").unwrap(), "5");
        }
        assert_eq!(std::env::var("AUDB_THREADS").unwrap(), "3");
        // Without the flag, the ambient pin is what the artifact records.
        let cfg = BenchConfig::default();
        assert_eq!(cfg.effective_threads(), Some(3));
        assert!(render_json(&[], &[], &[], &[], &cfg).contains("\"threads\": 3"));
        std::env::remove_var("AUDB_THREADS");
        assert_eq!(cfg.effective_threads(), None);
        assert!(render_json(&[], &[], &[], &[], &cfg).contains("\"threads\": \"auto\""));
    }

    /// The typed layout must strictly beat the generic columnar layout,
    /// which must not regress past the row layout, on the `sort_sel`
    /// workload's input (the CI bench-smoke assertion, pinned here
    /// without running the timed sweep).
    #[test]
    fn sort_sel_typed_footprint_below_columnar_below_row() {
        let table = gen_sort_table(&SyntheticConfig::default().rows(500).seed(3));
        let au = table.to_au_relation();
        let fp = footprint(&au);
        assert!(
            fp.columnar <= fp.row,
            "columnar {:.1} B/row > row {:.1} B/row",
            fp.columnar,
            fp.row
        );
        assert!(
            fp.typed < fp.columnar,
            "typed {:.1} B/row not below columnar {:.1} B/row",
            fp.typed,
            fp.columnar
        );
        // The sort workload's columns are all integer-classed, so every
        // lane should land typed.
        assert!(
            fp.phys.iter().all(|t| *t == PhysType::I64),
            "unexpected physical types: {:?}",
            fp.phys
        );
    }

    /// The monomorphic kernels must not lose to the generic sweep they
    /// replace (the within-run CI gate, pinned at test scale). The
    /// throughput ordering is a property of the *optimized* build — the
    /// artifact is always produced by a release binary — so debug builds
    /// (bounds checks, no autovectorization) only check the sweep shape.
    #[test]
    fn typed_kernels_at_least_generic() {
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![4_000],
            threads: Some(1),
            sel: None,
        };
        let sweeps = measure_kernels(&cfg);
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            assert!(s.typed_rows_per_sec > 0.0 && s.generic_rows_per_sec > 0.0);
            if !cfg!(debug_assertions) {
                assert!(
                    s.typed_rows_per_sec >= s.generic_rows_per_sec,
                    "{}: typed {:.0} rows/s < generic {:.0} rows/s",
                    s.kernel,
                    s.typed_rows_per_sec,
                    s.generic_rows_per_sec
                );
            }
        }
    }

    #[test]
    fn headline_is_null_without_a_16k_cell() {
        let ms = vec![cell("sort", "imp", 1_000, 1.0)];
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![1_000],
            threads: Some(2),
            sel: None,
        };
        let json = render_json(&ms, &[], &[], &[], &cfg);
        assert!(json.contains("\"streaming_16k_speedup\": null"));
        assert!(json.contains("\"pruning_16k_speedup_at_1pct\": null"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"sizes\": [1000]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The streaming sweep must stay on the incremental path, report a
    /// coherent latency distribution, and — in release builds, where the
    /// artifact is actually produced — beat the forced-recompute arm
    /// within the same run.
    #[test]
    fn streaming_incremental_beats_recompute_within_run() {
        let _guard = ENV_LOCK.lock().unwrap();
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![1_000],
            threads: Some(1),
            sel: None,
        };
        let runs = measure_streaming(&cfg);
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!((r.n, r.batch), (1_000, STREAM_BATCH));
        assert_eq!(r.appends, 1_000usize.div_ceil(STREAM_BATCH));
        assert!(r.p50_us <= r.p99_us, "p50 {} > p99 {}", r.p50_us, r.p99_us);
        assert!(r.appends_per_sec > 0.0 && r.speedup > 0.0);
        if !cfg!(debug_assertions) {
            assert!(
                r.speedup >= 1.0,
                "incremental arm slower than recompute within one run: {:.2}x",
                r.speedup
            );
        }
    }

    /// The pruning sweep must actually skip batches on the clustered
    /// workload (the zone maps are disjoint, so a 1% predicate is
    /// provably-false on all but the first zone) and — in release builds,
    /// where the artifact is produced — not lose to the unpruned arm.
    #[test]
    fn pruning_sweep_skips_batches_within_run() {
        let _guard = ENV_LOCK.lock().unwrap();
        let cfg = BenchConfig {
            quick: true,
            sizes: vec![4_096],
            threads: Some(1),
            sel: Some(1),
        };
        let runs = measure_pruning(&cfg);
        assert_eq!(runs.len(), 1);
        let p = &runs[0];
        assert_eq!((p.n, p.sel_pct), (4_096, 1));
        // 4096 rows at the default 1024-row batch size: four source
        // batches, of which only the first can satisfy `t < 40`.
        assert_eq!(
            (p.batches_skipped, p.batches_scanned),
            (3, 1),
            "zone maps should prove 3 of 4 batches empty"
        );
        assert!(p.pruned_ms > 0.0 && p.unpruned_ms > 0.0);
        if !cfg!(debug_assertions) {
            assert!(
                p.speedup >= 1.0,
                "pruned arm slower than unpruned within one run: {:.2}x",
                p.speedup
            );
        }
    }
}
