//! Traced side of the repo benchmark: the only source of per-layer
//! numbers, and the only file that calls below `Session::sql` and the
//! HTTP surface. It times calls into each layer's public functions *from
//! outside* — no span lives inside the engine.
//!
//! ```text
//! bench-trace --workload W [--seed N] [--seconds S] [--trace 1] [--quick]
//! ```
//!
//! Three things happen, in this order:
//!
//! 1. **Replay.** A quarter of the end-to-end operation count, run twice
//!    over: untraced through the adapter exactly as `bench-e2e` does, and
//!    *decomposed* into the calls the engine makes on that path
//!    (`audb::parse` → `Session::prepare[_cached]` →
//!    `Engine::execute_traced` → `wire::relation_body`, with
//!    `read_au_csv` and `SharedCatalog::append` ahead of them on the
//!    served path), each call in a span. The two alternate, so drift hits
//!    both alike. `serve_mix` adds a third replay through `wire::handle`
//!    with no socket.
//! 2. **Probes.** Single calls into `core`, `native`, `conheap`, `rel` and
//!    `workloads` on the workload's tables, a few repetitions each.
//! 3. **Report.** Every per-layer metric (the median over operations of
//!    the per-operation sum of the spans of that name), the spans as
//!    `trace-<workload>.jsonl`, and the result line.

use audb::conheap::ConnectedHeap;
use audb::core::{AuRelation, AuWindowSpec, SortKey, TableStats, WinAgg};
use audb::engine::{Op, PlanCache};
use audb::native::{sort_native, topk_native, window_native};
use audb::rel::ops::sort::topk_with_pos;
use audb::rel::{project, select, sort_to_pos, window_rows, AggFunc, CmpOp, Expr, Relation};
use audb::server::http::Request;
use audb::server::{wire, ConnState, ServerState};
use audb::workloads::read_au_csv;
use audb::{Engine, Session, SharedCatalog};
use audb_benchmark::cli::RunArgs;
use audb_benchmark::driver::Bench;
use audb_benchmark::gen::{Rng, Table};
use audb_benchmark::json::Json;
use audb_benchmark::report::{result_line, PER_LAYER};
use audb_benchmark::workload::{self, Inputs, Round, Sizes};
use audb_benchmark::{adapter, oracle, stats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------- spans

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op_id: u32,
}

/// Spans held in memory until the run ends. `op_id` groups the spans of
/// one operation (or of one repetition of a probe).
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Start the next operation: spans recorded from here on belong to it.
    fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Run `work` inside a span named `name`, a child of the open span.
    fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let out = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Add a span measured elsewhere (an `ExecTrace` operator, a request
    /// the driver timed) as a child of the open span.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
    }

    /// Per operation that has a span named `name`: their summed
    /// milliseconds.
    fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op_id).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        sums.into_values().collect()
    }

    /// Median over operations of [`Tracer::per_op_ms`]; 0 when the
    /// workload never made the call.
    fn p50_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.per_op_ms(name))
    }

    /// Like [`Tracer::p50_ms`], of the spans' self time: each span minus
    /// its direct children.
    fn p50_self_ms(&self, name: &str) -> f64 {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            if s.name == name {
                *sums.entry(s.op_id).or_default() += ms;
            } else if s.parent.is_some_and(|p| self.spans[p].name == name) {
                *sums.entry(s.op_id).or_default() -= ms;
            }
        }
        median_or_zero(&sums.into_values().collect::<Vec<_>>())
    }

    /// One JSON object per span; `self_ns` is the span minus its children.
    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
            )?;
        }
        out.flush()
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

// --------------------------------------------------- decomposed replay

/// The engine as the traced replay drives it: the calls `Session::sql`
/// and `wire::handle` make, made one by one.
struct Direct {
    engine: Engine,
    catalog: SharedCatalog,
    session: Session,
    /// The served path prepares through the shared plan cache.
    cache: Option<PlanCache>,
    batches_skipped: usize,
    batches_scanned: usize,
}

impl Direct {
    fn new(inputs: &Inputs, served: bool) -> Result<Direct, String> {
        let engine = Engine::native();
        let catalog = SharedCatalog::new();
        for (table, csv) in inputs.tables.iter().zip(&inputs.csvs) {
            let rel = read_au_csv(csv.as_slice()).map_err(|e| e.to_string())?;
            catalog.register(table.name, rel);
        }
        Ok(Direct {
            engine,
            session: Session::with_catalog(engine, catalog.clone()),
            catalog,
            cache: served.then(PlanCache::default),
            batches_skipped: 0,
            batches_scanned: 0,
        })
    }

    /// One statement, call by call. Returns its result rows and the
    /// milliseconds from the first call to the last (what the untraced
    /// path's clock covers).
    fn statement(
        &mut self,
        t: &mut Tracer,
        sql: &str,
        encode: bool,
    ) -> Result<(usize, f64), String> {
        let begin = Instant::now();
        t.span("sql.parse", |_| audb::parse(sql).map(drop))
            .map_err(|e| e.to_string())?;
        let prepared = t
            .span("engine.prepare", |_| match &self.cache {
                Some(cache) => self.session.prepare_cached(cache, sql).map(|(p, _)| p),
                None => self.session.prepare(sql),
            })
            .map_err(|e| e.to_string())?;
        let (rel, trace) = t
            .span("engine.exec", |t| {
                let start = Instant::now();
                let out = self.engine.execute_traced(prepared.plan());
                if let Ok((_, trace)) = &out {
                    // The executor reports durations, not instants: lay its
                    // operators end to end from the call's start. What is
                    // left of the span is glue (lowering, hand-offs).
                    let mut at = t.ns(start);
                    for op in &trace.ops {
                        let end = at + op.elapsed.as_nanos() as u64;
                        t.record(exec_class(&op.label), at, end);
                        at = end;
                    }
                }
                out
            })
            .map_err(|e| e.to_string())?;
        self.batches_skipped += trace.batches_skipped;
        self.batches_scanned += trace.batches_scanned;
        let rows = rel.len();
        if encode {
            t.span("server.encode", |_| {
                black_box(wire::relation_body(rel).to_string().len())
            });
        }
        Ok((rows, begin.elapsed().as_secs_f64() * 1e3))
    }

    /// One `serve_mix` round without the server: what `wire::handle` does
    /// for its requests, call by call.
    fn round(
        &mut self,
        t: &mut Tracer,
        inputs: &Inputs,
        round: &Round,
    ) -> Result<Vec<usize>, String> {
        if round.reset {
            let base = t
                .span("workloads.csv_load", |_| {
                    read_au_csv(inputs.csvs[1].as_slice())
                })
                .map_err(|e| e.to_string())?;
            t.span("engine.catalog_register", |_| {
                self.catalog.register("w", base)
            });
        }
        let batch = t
            .span("workloads.csv_parse", |_| {
                read_au_csv(inputs.batches[round.batch].as_slice())
            })
            .map_err(|e| e.to_string())?;
        t.span("engine.catalog_append", |_| {
            self.catalog.append("w", &batch)
        })
        .map_err(|e| e.to_string())?;
        round
            .queries
            .iter()
            .map(|q| self.statement(t, &q.sql, true).map(|(rows, _)| rows))
            .collect()
    }
}

fn exec_class(label: &str) -> &'static str {
    if label == "scan" {
        "engine.exec_scan"
    } else if label.starts_with("fuse(") {
        "engine.exec_fused"
    } else {
        "engine.exec_breaker"
    }
}

/// The same round through `wire::handle`, no socket and no serialising.
fn handle_round(
    t: &mut Tracer,
    state: &ServerState,
    conn: &mut ConnState,
    inputs: &Inputs,
    round: &Round,
) -> Result<(), String> {
    let mut call = |path: &str, name: Option<&str>, body: &[u8]| {
        let request = Request {
            method: "POST".into(),
            path: path.into(),
            query: name
                .map(|n| ("name".into(), n.into()))
                .into_iter()
                .collect(),
            body: body.to_vec(),
            keep_alive: true,
        };
        let (status, reply) = t.span("server.handle", |_| wire::handle(state, conn, &request));
        (status == 200)
            .then_some(())
            .ok_or_else(|| format!("{path}: status {status}: {reply}"))
    };
    if round.reset {
        call("/register", Some("w"), &inputs.csvs[1])?;
    }
    call("/append", Some("w"), &inputs.batches[round.batch])?;
    for q in &round.queries {
        call("/query", None, q.sql.as_bytes())?;
    }
    Ok(())
}

// --------------------------------------------------------------- probes

/// `reps` repetitions of `work`, each in its own span and operation.
fn probe<T>(t: &mut Tracer, name: &'static str, reps: usize, mut work: impl FnMut() -> T) {
    for _ in 0..reps {
        t.next_op();
        t.span(name, |_| black_box(work()));
    }
}

/// Order-by columns of a generated table: `(a, b)` or `(o)`.
fn order_cols(table: &Table) -> Vec<usize> {
    if table.cols.iter().any(|c| c.name == "a") {
        vec![table.col_index("a"), table.col_index("b")]
    } else {
        vec![table.col_index("o")]
    }
}

fn window_spec(table: &Table, partitioned: bool) -> (AuWindowSpec, WinAgg) {
    let spec = AuWindowSpec::rows(vec![table.col_index("o")], -(oracle::PRECEDING as i64), 0);
    let spec = if partitioned {
        spec.partition_by(vec![table.col_index("g")])
    } else {
        spec
    };
    (spec, WinAgg::Sum(table.col_index("v")))
}

/// The workload's script on the selected-guess world through the
/// deterministic engine (`audb::rel`) — the paper's `Det` baseline.
fn det_script(
    name: &str,
    inputs: &Inputs,
    round0: Option<&Round>,
) -> Result<Box<dyn Fn() -> usize>, String> {
    let sg = |table: usize, rows: usize| -> Result<Relation, String> {
        audb::rel::read_csv(inputs.tables[table].sg_csv(0..rows).as_slice())
            .map_err(|e| e.to_string())
    };
    let rows = inputs.base_rows[0];
    let rolling = |w: &Relation, partitioned: bool| {
        let spec = audb::rel::WindowSpec::rows(vec![0], -(oracle::PRECEDING as i64), 0);
        let spec = if partitioned {
            spec.partition_by(vec![1])
        } else {
            spec
        };
        window_rows(w, &spec, AggFunc::Sum(2), "s").len()
    };
    let lit = |v: usize| Expr::lit(v as i64);
    Ok(match name {
        "rank_scan" => {
            let r = sg(0, rows)?;
            Box::new(move || sort_to_pos(&r, &[0, 1], "pos").len())
        }
        "window_scan" => {
            let w = sg(0, rows)?;
            Box::new(move || rolling(&w, true) + rolling(&w, false))
        }
        "filter_scan" => {
            let e = sg(0, rows)?;
            Box::new(move || {
                let narrow = select(&e, &Expr::col(0).lt(lit(rows / 100)));
                let wide = select(&e, &Expr::col(0).lt(lit(rows / 10)));
                let crossed = select(
                    &e,
                    &Expr::col(1)
                        .lt(Expr::col(3))
                        .and(Expr::col(2).cmp(CmpOp::Gt, Expr::col(4))),
                );
                let summed = project(
                    &crossed,
                    &[(Expr::col(0), "id"), (Expr::col(1).add(Expr::col(2)), "c")],
                );
                topk_with_pos(&narrow, &[1, 2], 10).len()
                    + topk_with_pos(&wide, &[1, 2], 10).len()
                    + topk_with_pos(&summed, &[1], 10).len()
            })
        }
        "serve_mix" => {
            let round = round0.expect("serve_mix has rounds");
            let (r, w) = (sg(0, rows)?, sg(1, round.w_rows)?);
            let (w_rows, w_base) = (round.w_rows, inputs.base_rows[1]);
            Box::new(move || {
                let page = select(&r, &Expr::col(1).lt(lit(rows * 20 / 2)));
                let recent = select(&w, &Expr::col(3).cmp(CmpOp::Ge, lit(w_rows - w_base / 8)));
                2 * topk_with_pos(&r, &[0, 1], 10).len()
                    + sort_to_pos(&page, &[0, 1], "pos").len()
                    + rolling(&recent, false)
            })
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Insert `n` records into a three-order connected heap, then pop them
/// all from the first order; nanoseconds per insert + pop.
fn conheap_cycle_ns(n: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let items: Vec<[u64; 3]> = (0..n)
        .map(|_| std::array::from_fn(|_| rng.next_u64()))
        .collect();
    let start = Instant::now();
    let mut heap =
        ConnectedHeap::with_capacity(3, n, |h, a: &[u64; 3], b: &[u64; 3]| a[h].cmp(&b[h]));
    for item in &items {
        heap.insert(*item);
    }
    let mut popped = 0u64;
    while let Some(item) = heap.pop(0) {
        popped = popped.wrapping_add(item[1]);
    }
    black_box(popped);
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Everything timed on the tables alone. `rank_on` is the table the
/// workload ranks, `window_on` the one it runs windows over, `stored` the
/// one whose storage costs matter most (the last registered).
fn probes(
    t: &mut Tracer,
    name: &str,
    inputs: &Inputs,
    direct: &Direct,
    statements: &[&str],
    reps: usize,
    seed: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut extra = BTreeMap::new();
    let load = |table: usize| read_au_csv(inputs.csvs[table].as_slice()).map_err(|e| e.to_string());
    let stored_index = inputs.tables.len() - 1;
    let stored: Arc<AuRelation> = Arc::new(load(stored_index)?);
    let stored_name = inputs.tables[stored_index].name;

    probe(t, "workloads.csv_load", reps, || {
        load(stored_index).map(|r| r.len())
    });
    probe(t, "engine.catalog_register", reps, || {
        SharedCatalog::new().register(stored_name, Arc::clone(&stored))
    });
    probe(t, "core.stats", reps, || TableStats::of_relation(&stored));
    probe(t, "core.to_columns", reps, || stored.to_columns());
    let cols = stored.to_columns();
    probe(t, "core.sortkey", reps, || SortKey::of_columns(&cols));
    for _ in 0..reps {
        let copy = (*stored).clone();
        t.next_op();
        t.span("core.normalize", |_| black_box(copy.normalize()));
    }
    extra.insert(
        "core.bytes_per_row",
        (stored.heap_bytes() + cols.heap_bytes()) as f64 / stored.len() as f64,
    );

    // The leading selections of the script's plans, over every batch of
    // their source at the batch size the engine would pick.
    let mut sweeps = Vec::new();
    for sql in statements {
        let prepared = direct.session.prepare(sql).map_err(|e| e.to_string())?;
        let batch_size = direct.engine.choose_exec(prepared.plan()).batch_size;
        let preds: Vec<_> = prepared
            .plan()
            .ops()
            .iter()
            .map_while(|op| match op {
                Op::Select { pred } => Some(pred.clone()),
                _ => None,
            })
            .collect();
        if !preds.is_empty() {
            sweeps.push((prepared, preds, batch_size));
        }
    }
    if !sweeps.is_empty() {
        probe(t, "core.truth", reps, || {
            let mut rows = 0;
            for (prepared, preds, batch_size) in &sweeps {
                for batch in prepared.plan().source_columns().batches(*batch_size) {
                    for pred in preds {
                        rows += pred.truth_batch(&batch).len();
                    }
                }
            }
            rows
        });
    }

    let rank_index = inputs
        .tables
        .iter()
        .position(|table| table.cols.iter().any(|c| c.name == "a"))
        .unwrap_or(stored_index);
    let ranked = load(rank_index)?;
    let order = order_cols(&inputs.tables[rank_index]);
    probe(t, "native.sort", reps, || {
        sort_native(&ranked, &order, "pos")
    });
    probe(t, "native.topk", reps, || {
        topk_native(&ranked, &order, 10, "pos")
    });
    extra.insert(
        "conheap.cycle_ns",
        stats::median(
            &(0..reps)
                .map(|_| conheap_cycle_ns(ranked.len(), seed))
                .collect::<Vec<_>>(),
        ),
    );

    if let Some(window_index) = inputs
        .tables
        .iter()
        .position(|table| table.cols.iter().any(|c| c.name == "o"))
    {
        let table = &inputs.tables[window_index];
        let windowed = load(window_index)?;
        let (part, agg) = window_spec(table, true);
        let (flat, _) = window_spec(table, false);
        probe(t, "native.window_flat", reps, || {
            window_native(&windowed, &flat, agg, "s")
        });
        // Partition sweeps are the one place `par` fans out: the same call
        // on one thread and on two. The process is single-threaded here
        // (the server is gone), so changing the variable races nothing.
        let threads = std::env::var("AUDB_THREADS").ok();
        adapter::set_engine_threads(1);
        probe(t, "native.window_part_1t", reps, || {
            window_native(&windowed, &part, agg, "s")
        });
        adapter::set_engine_threads(2);
        probe(t, "native.window_part", reps, || {
            window_native(&windowed, &part, agg, "s")
        });
        match threads {
            Some(n) => std::env::set_var("AUDB_THREADS", n),
            None => std::env::remove_var("AUDB_THREADS"),
        }
        extra.insert(
            "par.speedup_2t",
            t.p50_ms("native.window_part_1t") / t.p50_ms("native.window_part"),
        );
    }

    let round0 = (name == "serve_mix").then(|| workload::round(inputs, 0));
    let det = det_script(name, inputs, round0.as_ref())?;
    probe(t, "rel.det", reps, &det);
    Ok(extra)
}

// ------------------------------------------------------------------ main

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs::default();
    let mut rest = std::env::args().skip(1);
    while let Some(flag) = rest.next() {
        if !args.take(&flag, &mut rest, "1")? {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench-trace: {message}");
            ExitCode::from(2)
        }
    }
}

/// Where the spans go, from the working directory (the repo root).
const OUT_DIR: &str = "benchmark/out";

fn run(args: &RunArgs) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("give --workload")?;
    let sizes = workload::sizes(name, args.seconds, args.quick)?;
    let served = name == "serve_mix";
    adapter::cap_engine_threads();
    // The traced run replays a quarter of the operations.
    let ops = (sizes.ops / 4).max(4);
    let reps = if args.quick { 2 } else { 5 };
    let (mut bench, _) = Bench::set_up(name, args.seed, &Sizes { setups: 1, ..sizes })?;
    let mut direct = Direct::new(&bench.inputs, served)?;
    let mut t = Tracer::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let (mut untraced_ms, mut traced_ms) = (Vec::with_capacity(ops), Vec::with_capacity(ops));

    if served {
        // Three replays of every round, side by side so that the machine's
        // drift hits them alike: through the socket (the server cannot be
        // traced from outside, so the spans are the client's view of each
        // request, recorded once its clock has stopped — the overhead
        // figure compares odd rounds with even ones and can only read
        // noise), decomposed into direct calls, and through `wire::handle`
        // with no socket.
        const REQUESTS: [&str; 6] = [
            "server.req_append",
            "server.req_top_miss",
            "server.req_top_hit",
            "server.req_page",
            "server.req_window",
            "server.req_register",
        ];
        let state = ServerState::new(Engine::native(), SharedCatalog::new(), 1);
        let mut conn = ConnState::default();
        for (table, csv) in bench.inputs.tables.iter().zip(&bench.inputs.csvs) {
            state.catalog.register(
                table.name,
                read_au_csv(csv.as_slice()).map_err(|e| e.to_string())?,
            );
        }
        // Bring the two socket-less replays to the round of the cycle the
        // set-up's warm-up left the server at.
        let mut unrecorded = Tracer::new();
        for index in 0..sizes.warmup {
            let round = workload::round(&bench.inputs, index);
            direct.round(&mut unrecorded, &bench.inputs, &round)?;
            handle_round(&mut unrecorded, &state, &mut conn, &bench.inputs, &round)?;
        }
        let wire_before = bench.wire_counters();
        for i in 0..ops {
            let timed = bench.timed_op();
            failures.extend(timed.failure);
            let side = if i % 2 == 0 {
                &mut untraced_ms
            } else {
                &mut traced_ms
            };
            side.push(timed.latency_ms);
            t.next_op();
            for (part, request) in timed.parts.iter().zip(REQUESTS) {
                let start = t.ns(part.start);
                t.record(request, start, start + (part.ms * 1e6) as u64);
            }
            let round = workload::round(&bench.inputs, sizes.warmup + i);
            t.next_op();
            match t.span("direct.round", |t| direct.round(t, &bench.inputs, &round)) {
                Ok(rows) if rows == bench.expected_rows() => {}
                Ok(rows) => failures.push(format!("decomposed round returned {rows:?} rows")),
                Err(e) => failures.push(e),
            }
            t.next_op();
            let handled = t.span("handle.round", |t| {
                handle_round(t, &state, &mut conn, &bench.inputs, &round)
            });
            failures.extend(handled.err());
            attempted += 3;
        }
        let wire_after = bench.wire_counters();
        let per_op = |after: u64, before: u64| (after - before) as f64 / ops as f64;
        values.insert(
            "server.bytes_out_per_op",
            per_op(wire_after.0, wire_before.0),
        );
        values.insert(
            "server.bytes_in_per_op",
            per_op(wire_after.1, wire_before.1),
        );
        values.insert(
            "server.reconnects_per_op",
            per_op(wire_after.2, wire_before.2),
        );
        let server_stats = Json::parse(&bench.get("/stats")?.body)?;
        let counter = |key: &str| {
            server_stats
                .get("plan_cache")
                .and_then(|c| c.get(key))
                .and_then(Json::as_i64)
                .ok_or(format!("/stats has no plan_cache.{key}"))
        };
        let (hits, misses) = (counter("hits")? as f64, counter("misses")? as f64);
        values.insert("engine.plancache_hit_frac", hits / (hits + misses));
    } else {
        let script = workload::script(name, &bench.inputs);
        let mut unrecorded = Tracer::new();
        for index in 0..2 + ops {
            let recorded = index >= 2;
            if recorded {
                let timed = bench.timed_op();
                attempted += 1;
                failures.extend(timed.failure);
                untraced_ms.push(timed.latency_ms);
            }
            let tracer = if recorded { &mut t } else { &mut unrecorded };
            tracer.next_op();
            let mut op_ms = 0.0;
            for (stmt, &want) in script.iter().zip(bench.expected_rows()) {
                match direct.statement(tracer, &stmt.sql, false) {
                    Ok((rows, ms)) => {
                        op_ms += ms;
                        if rows != want && recorded {
                            failures.push(format!("{rows} rows, expected {want}: {}", stmt.sql));
                        }
                    }
                    Err(e) => failures.push(e),
                }
            }
            if recorded {
                attempted += 1;
                traced_ms.push(op_ms);
            }
        }
    }

    // The last operation against the oracle, as in the end-to-end run.
    let (agreed, bound_width_rel, certain_frac) = bench.checked_tightness();
    values.insert("quality.bound_width_rel", bound_width_rel);
    values.insert("quality.certain_frac", certain_frac);
    let inputs = bench.into_inputs(); // the server, if any, is gone from here on

    let round0 = served.then(|| workload::round(&inputs, 0));
    let statements: Vec<String> = match &round0 {
        Some(round) => round.queries.iter().map(|q| q.sql.clone()).collect(),
        None => workload::script(name, &inputs)
            .into_iter()
            .map(|s| s.sql)
            .collect(),
    };
    let statements: Vec<&str> = statements.iter().map(String::as_str).collect();
    values.extend(probes(
        &mut t,
        name,
        &inputs,
        &direct,
        &statements,
        reps,
        args.seed,
    )?);

    // A timing metric is the median over operations of the per-operation
    // sum of the spans named like it, less the unit. Those that are
    // computed otherwise have no such span and are set below.
    for (metric, unit) in PER_LAYER {
        let scale = match unit {
            "ms" => 1.0,
            "us" => 1e3,
            _ => continue,
        };
        let span = metric.rsplit_once('_').expect("unit suffix").0;
        values.insert(metric, t.p50_ms(span) * scale);
    }
    // Glue is what `execute_traced` spends outside its operators: the
    // self time of its span.
    values.insert("engine.exec_glue_ms", t.p50_self_ms("engine.exec"));
    let batches = (direct.batches_skipped + direct.batches_scanned) as f64;
    values.insert(
        "engine.batches_skipped_frac",
        if batches > 0.0 {
            direct.batches_skipped as f64 / batches
        } else {
            0.0
        },
    );
    let load_ms = t.p50_ms("workloads.csv_load");
    values.insert(
        "workloads.csv_load_rows_per_s",
        inputs.base_rows[inputs.tables.len() - 1] as f64 / (load_ms / 1e3),
    );
    let untraced_p50 = stats::median(&untraced_ms);
    let traced_p50 = stats::median(&traced_ms);
    values.insert("trace.op_p50_ms", traced_p50);
    values.insert("trace.overhead_rel", traced_p50 / untraced_p50 - 1.0);
    values.insert("rel.overhead_vs_det", untraced_p50 / values["rel.det_ms"]);
    if served {
        let round_ms = median_or_zero(
            &untraced_ms
                .iter()
                .chain(&traced_ms)
                .copied()
                .collect::<Vec<_>>(),
        );
        values.insert("server.transport_ms", round_ms - values["server.handle_ms"]);
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    for failure in failures.iter().take(3) {
        eprintln!("failed operation: {failure}");
    }
    eprintln!(
        "{name}: seed {} · input checksum {:016x} · {ops} operations replayed, traced and untraced · {} spans in {}{}",
        args.seed,
        inputs.checksum,
        t.spans.len(),
        path.display(),
        if args.quick { " · QUICK: numbers are not comparable" } else { "" },
    );
    eprintln!("  untraced op_p50_ms {untraced_p50:.4}");
    for (metric, unit) in PER_LAYER {
        eprintln!(
            "  {metric:<30} {:>14.4} {unit}",
            values.get(metric).copied().unwrap_or(0.0)
        );
    }
    let correct = failures.is_empty() && agreed;
    println!(
        "{}",
        result_line(correct, attempted, failures.len(), &PER_LAYER, |m| {
            values.get(m).copied().unwrap_or(0.0)
        })
    );
    Ok(correct)
}
