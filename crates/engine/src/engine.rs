//! The [`Engine`]: the method a plan runs on, per-query [`Explain`]
//! output, and cross-method [`Engine::run_all`] agreement runs.

use crate::backend::{Reference, Rewrite};
use crate::error::EngineError;
use crate::exec::{self, ExecTrace, OpTiming, Recorder, DEFAULT_BATCH_SIZE};
use crate::plan::{Op, Plan};
use audb_core::AuColumns;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// The single entry point for every method: an engine *is* the method a
/// plan runs on, and nothing else. It executes validated [`Plan`]s,
/// explains them, and cross-checks all methods against each other.
///
/// ```
/// use audb_engine::{Engine, Query};
/// use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
/// use audb_rel::Schema;
///
/// let rel = AuRelation::from_rows(
///     Schema::new(["term", "sales"]),
///     [
///         (AuTuple::from([RangeValue::certain(1i64), RangeValue::new(2, 2, 3)]), Mult3::ONE),
///         (AuTuple::from([RangeValue::certain(2i64), RangeValue::new(2, 3, 3)]), Mult3::ONE),
///     ],
/// );
/// let plan = Query::scan(rel).sort_by(["sales"]).topk(1).build()?;
/// let engine = Engine::native();
/// let top = engine.execute(&plan)?;                // one method: columns
/// let agreed = engine.run_all(&plan)?;             // all three + agreement
/// assert!(top.to_rows().bag_eq(&agreed.output.to_rows()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Quadratic Defs. 2–3 reference semantics (`audb-core`), under
    /// interval-lex comparison.
    Reference,
    /// One-pass Sec. 8 algorithms (`audb-native`) — the paper's `Imp`, and
    /// the usual production choice.
    #[default]
    Native,
    /// Sec. 7 SQL-style rewrites over the relational encoding
    /// (`audb-rewrite`) — the paper's `Rewr`. Its window self-join always
    /// probes the interval index; the paper's plain nested loop is run by
    /// the figure code that reports it ([`crate::Rewrite`] with a
    /// strategy, through [`crate::exec::run_materialized`]).
    Rewrite,
}

/// At and above this many source rows batches widen to
/// [`LARGE_BATCH_SIZE`] (fewer dispatches; the working set no longer fits
/// in cache either way).
const LARGE_ROWS: usize = 65_536;

/// Batch size for [`LARGE_ROWS`]-sized inputs.
const LARGE_BATCH_SIZE: usize = 4096;

/// What [`Engine::choose_exec`] decides for one plan.
#[derive(Clone, Copy, Debug)]
pub struct ExecChoice {
    /// Rows per batch of the pipelined executor.
    pub batch_size: usize,
}

impl Engine {
    /// All methods, in baseline-first order (used by [`Engine::run_all`]).
    pub const ALL: [Engine; 3] = [Engine::Reference, Engine::Native, Engine::Rewrite];

    /// The quadratic reference method.
    pub fn reference() -> Self {
        Engine::Reference
    }

    /// The one-pass native method (the usual production choice).
    pub fn native() -> Self {
        Engine::Native
    }

    /// The SQL-rewrite method.
    pub fn rewrite() -> Self {
        Engine::Rewrite
    }

    /// Stable method name (used in explain output, disagreement reports
    /// and the `--backend` flags; [`Engine::from_str`] is its inverse).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Native => "native",
            Engine::Rewrite => "rewrite",
        }
    }

    /// How this method runs plans, as traces and `explain` report it: the
    /// native method pipelines, the row oracles materialize.
    pub fn mode(self) -> &'static str {
        match self {
            Engine::Native => "pipelined",
            Engine::Reference | Engine::Rewrite => "materialized",
        }
    }

    /// The batch size this plan runs at: 4 096 from 65 536 source rows up,
    /// else [`DEFAULT_BATCH_SIZE`].
    pub fn choose_exec(self, plan: &Plan) -> ExecChoice {
        let batch_size = if plan.source_columns().len() >= LARGE_ROWS {
            LARGE_BATCH_SIZE
        } else {
            DEFAULT_BATCH_SIZE
        };
        ExecChoice { batch_size }
    }

    /// One-line cost/strategy note of this method for a step of a plan
    /// (`None`: its scan), shown by [`Engine::explain`]. Selection and
    /// projection are the shared operators on every method.
    fn note(self, step: Option<&Op>) -> String {
        use Engine::{Native, Reference, Rewrite};
        match (self, step) {
            (_, Some(Op::Select { .. } | Op::Project { .. })) => {
                "shared AU-DB operator ([24] semantics)".into()
            }
            (Native, None) => "read the stored columnar segments in place".into(),
            (Native, Some(Op::Sort { limit: None, .. })) => {
                "one-pass corner sweep (Algorithm 1), O(n log n)".into()
            }
            (Native, Some(Op::Sort { .. })) => {
                "one-pass sweep with early termination at rank↓ ≥ k (Algorithm 1)".into()
            }
            (Native, Some(Op::Window { .. })) => {
                "one-pass sweep (Algorithm 3): windows close in one τ↑ order, the pool is two rankings, no heap".into()
            }
            (Reference, None) => {
                "rebuild rows from the stored columns (the row operators' form)".into()
            }
            (Reference, Some(Op::Sort { limit: None, .. })) => {
                "Def. 2 pairwise position bounds, O(n²), IntervalLex comparison".into()
            }
            (Reference, Some(Op::Sort { .. })) => {
                "Def. 2 sort + σ_{τ<k}, positions capped at k".into()
            }
            (Reference, Some(Op::Window { .. })) => {
                "Def. 3 per-target membership scan, O(n²)–O(n³)".into()
            }
            (Rewrite, None) => "relational-encoding round-trip (3·arity + 3 flat columns)".into(),
            (Rewrite, Some(Op::Sort { limit: None, .. })) => {
                "Fig. 7 endpoint union + running sums over the encoding".into()
            }
            (Rewrite, Some(Op::Sort { .. })) => {
                "Fig. 7 endpoint rewrite + σ_{τ<k}, positions capped at k".into()
            }
            (Rewrite, Some(Op::Window { .. })) => format!(
                "Fig. 8 range-overlap self-join ({:?} strategy)",
                crate::JoinStrategy::default()
            ),
        }
    }

    /// Execute a plan on this method (through the physical execution
    /// layer, the one way the method runs plans). The result is columnar;
    /// [`AuColumns::to_rows`] is the door for a caller that wants tuples.
    /// It reads no clock.
    pub fn execute(self, plan: &Plan) -> Result<AuColumns, EngineError> {
        self.run(plan, &())
    }

    /// Execute a plan, also returning what the executor's [`Recorder`]
    /// heard: per-operator wall times and batch counts, and the native
    /// kernels' stage times.
    pub fn execute_traced(self, plan: &Plan) -> Result<(AuColumns, ExecTrace), EngineError> {
        let recorder = Recorder::default();
        let out = self.run(plan, &recorder)?;
        Ok((out, recorder.finish()))
    }

    /// The native method is the pipelined executor, the row oracles go
    /// through the row loop.
    fn run(self, plan: &Plan, stages: &impl exec::Stages) -> Result<AuColumns, EngineError> {
        let batch_size = self.choose_exec(plan).batch_size;
        match self {
            Engine::Native => exec::run_pipelined(plan, batch_size, true, stages),
            Engine::Reference => exec::run_materialized(&Reference::default(), plan, stages),
            Engine::Rewrite => exec::run_materialized(&Rewrite::default(), plan, stages),
        }
    }

    /// Describe how this method would run the plan: operator chain,
    /// per-operator schemas and cost notes, and the lowered pipelines.
    pub fn explain(self, plan: &Plan) -> Explain {
        let mut steps = Vec::with_capacity(plan.ops().len() + 1);
        steps.push(ExplainStep {
            op: format!("scan [{} rows]", plan.source_columns().len()),
            schema: plan.schemas()[0].to_string(),
            note: self.note(None),
        });
        for (op, schema) in plan.ops().iter().zip(&plan.schemas()[1..]) {
            steps.push(ExplainStep {
                op: op.to_string(),
                schema: schema.to_string(),
                note: self.note(Some(op)),
            });
        }
        let pipelines = match self {
            Engine::Native => exec::lower(plan).iter().map(|p| p.describe(plan)).collect(),
            _ => Vec::new(),
        };
        Explain {
            backend: self,
            sql: plan.sql().map(str::to_string),
            steps,
            batch_size: self.choose_exec(plan).batch_size,
            pipelines,
        }
    }

    /// Execute the plan on **every** method, timing each run, and assert
    /// that all outputs agree bag-wise — the cross-implementation
    /// invariant the paper's evaluation rests on. Returns the agreed
    /// output plus per-method timings; disagreement is an
    /// [`EngineError::BackendDisagreement`], and an output whose identical
    /// rows add up past `u64` an [`EngineError::MultiplicityOverflow`].
    pub fn run_all(self, plan: &Plan) -> Result<RunAll, EngineError> {
        // Compared as rows in canonical order — `bag_eq` is theirs; putting
        // them there refuses a merge past `u64` — and kept as columns.
        let mut output = None;
        let mut runs = Vec::with_capacity(Engine::ALL.len());
        for method in Engine::ALL {
            let start = std::time::Instant::now();
            let (out, trace) = method.execute_traced(plan)?;
            let elapsed = start.elapsed();
            runs.push(BackendRun {
                backend: method,
                elapsed,
                rows: out.len(),
                ops: trace.ops,
            });
            let rows = out.clone().normalize()?.to_rows();
            match &output {
                None => output = Some((out, rows)),
                Some((_, baseline)) => {
                    if !baseline.bag_eq(&rows) {
                        return Err(EngineError::BackendDisagreement {
                            baseline: "reference",
                            other: method.name(),
                            baseline_output: baseline.to_string(),
                            other_output: rows.to_string(),
                        });
                    }
                }
            }
        }
        let (output, _) = output.expect("at least one method ran");
        Ok(RunAll { output, runs })
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    /// The method named `s`, as [`Engine::name`] spells it.
    fn from_str(s: &str) -> Result<Engine, String> {
        (Engine::ALL.into_iter())
            .find(|method| method.name() == s)
            .ok_or_else(|| format!("unknown method {s:?} (reference|native|rewrite)"))
    }
}

/// One method's timing in a [`RunAll`].
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Which method ran (its [`Engine::mode`] is how).
    pub backend: Engine,
    /// Wall-clock execution time of the whole plan.
    pub elapsed: Duration,
    /// Output rows produced (pre-normalization).
    pub rows: usize,
    /// Per-operator wall times and batch counts, in execution order (the
    /// first entry is the scan).
    pub ops: Vec<OpTiming>,
}

/// Result of [`Engine::run_all`]: the agreed output and per-method
/// timings.
#[derive(Clone, Debug)]
pub struct RunAll {
    /// The (bag-equal) output, as produced by the reference method.
    pub output: AuColumns,
    /// Per-method wall-clock timings, in [`Engine::ALL`] order.
    pub runs: Vec<BackendRun>,
}

impl RunAll {
    /// The timing entry for one method.
    pub fn run(&self, backend: Engine) -> &BackendRun {
        self.runs
            .iter()
            .find(|r| r.backend == backend)
            .expect("run_all executes every method")
    }
}

/// The stable `run_all` report format (golden-tested in
/// `run_all_report_format_is_stable`):
///
/// ```text
/// all backends agree (N output rows):
///   <backend>  <mode>  <total>
///     · <op label>  <elapsed>  <batches> batches  <rows> rows
/// ```
impl fmt::Display for RunAll {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "all backends agree ({} output rows):", self.output.len())?;
        for r in &self.runs {
            writeln!(
                f,
                "  {:<9} {:<12} {:>12.3?}",
                r.backend.name(),
                r.backend.mode(),
                r.elapsed
            )?;
            for op in &r.ops {
                writeln!(
                    f,
                    "    · {:<26} {:>12.3?}  {:>4} batches {:>7} rows",
                    op.label, op.elapsed, op.batches, op.rows_out
                )?;
            }
        }
        Ok(())
    }
}

/// One step of an [`Explain`].
#[derive(Clone, Debug)]
pub struct ExplainStep {
    /// Operator description.
    pub op: String,
    /// Output schema of the step.
    pub schema: String,
    /// Method cost/strategy note.
    pub note: String,
}

/// Human-readable plan explanation: originating SQL (when the plan came
/// through the SQL frontend), the method, and the operator chain with
/// schemas and cost notes.
///
/// The rendered format is stable (tested in `explain_format_is_stable`):
///
/// ```text
/// query:   <sql, whitespace-flattened to one line>       (only when present)
/// backend: <method>
///  0. scan [N rows]
///       schema: (...)
///       note:   ...
/// exec:    pipelined · batch 1024 · 2 pipelines          (or `materialized (operator-at-a-time)`)
///       p0: fuse(select · project) ⇒ breaker sort
///       p1: passthrough ⇒ output
/// ```
#[derive(Clone, Debug)]
pub struct Explain {
    /// The method that executes (its [`Engine::mode`] is how).
    pub backend: Engine,
    /// The SQL text the plan was compiled from, when it came through the
    /// SQL frontend.
    pub sql: Option<String>,
    /// Scan + one step per operator.
    pub steps: Vec<ExplainStep>,
    /// Batch size of the pipeline executor.
    pub batch_size: usize,
    /// The lowered physical pipelines (fused stages + breaker
    /// annotations), one rendered line per pipeline; empty under
    /// materialized execution and for scan-only plans.
    pub pipelines: Vec<String>,
}

/// Collapse whitespace runs so a line-wrapped statement renders as one
/// `query:` line (display only — the plan keeps its raw text).
fn one_line(sql: &str) -> String {
    sql.split_whitespace().collect::<Vec<_>>().join(" ")
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(sql) = &self.sql {
            writeln!(f, "query:   {}", one_line(sql))?;
        }
        writeln!(f, "backend: {}", self.backend)?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "{:>2}. {}", i, step.op)?;
            writeln!(f, "      schema: {}", step.schema)?;
            writeln!(f, "      note:   {}", step.note)?;
        }
        if self.backend != Engine::Native {
            return writeln!(f, "exec:    materialized (operator-at-a-time)");
        }
        writeln!(
            f,
            "exec:    pipelined · batch {} · {} pipeline{}",
            self.batch_size,
            self.pipelines.len(),
            if self.pipelines.len() == 1 { "" } else { "s" }
        )?;
        for (i, p) in self.pipelines.iter().enumerate() {
            writeln!(f, "      p{i}: {p}")?;
        }
        Ok(())
    }
}
