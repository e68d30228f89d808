//! The [`Engine`] handle: backend selection, per-query [`Explain`] output,
//! and cross-backend [`Engine::run_all`] agreement runs.

use crate::backend::{Reference, Rewrite};
use crate::error::EngineError;
use crate::exec::{self, ExecMode, ExecTrace, OpTiming, DEFAULT_BATCH_SIZE};
use crate::optimize::OptInfo;
use crate::plan::{Op, Plan};
use audb_core::{AuColumns, CmpSemantics};
use std::fmt;
use std::time::Duration;

/// Which physical implementation executes plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// Quadratic Defs. 2–3 reference semantics (`audb-core`).
    Reference,
    /// One-pass Sec. 8 algorithms (`audb-native`) — the paper's `Imp`.
    Native,
    /// Sec. 7 SQL-style rewrites over the relational encoding
    /// (`audb-rewrite`) — the paper's `Rewr`.
    Rewrite,
}

impl BackendChoice {
    /// All backends, in baseline-first order (used by
    /// [`Engine::run_all`]).
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Reference,
        BackendChoice::Native,
        BackendChoice::Rewrite,
    ];

    /// Stable backend name (used in explain output and disagreement
    /// reports).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Reference => "reference",
            BackendChoice::Native => "native",
            BackendChoice::Rewrite => "rewrite",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The single entry point for every method: owns backend selection (with
/// the documented fallback rules), executes validated [`Plan`]s, explains
/// them, and cross-checks all backends against each other.
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
/// let top = engine.execute(&plan)?;                // one backend: columns
/// let agreed = engine.run_all(&plan)?;             // all three + agreement
/// assert!(top.to_rows().bag_eq(&agreed.output.to_rows()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Engine {
    choice: BackendChoice,
    semantics: CmpSemantics,
    /// `Some` once [`Engine::with_batch_size`] pinned a size.
    batch_size: Option<usize>,
    pub(crate) pruning: bool,
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

impl Default for Engine {
    /// The native backend with default settings — the usual production
    /// choice (used by `Session::default()`).
    fn default() -> Self {
        Engine::native()
    }
}

impl Engine {
    /// An engine executing on the given backend with default settings
    /// (interval-lex comparison). The rewrite backend always probes the
    /// interval index in its window self-join; the paper's plain `Rewr`
    /// nested loop is run by the figure code that reports it
    /// ([`crate::Rewrite`] with a strategy, through
    /// [`crate::exec::run_materialized`]).
    pub fn new(choice: BackendChoice) -> Self {
        Engine {
            choice,
            semantics: CmpSemantics::default(),
            batch_size: None,
            pruning: true,
        }
    }

    /// The quadratic reference backend.
    pub fn reference() -> Self {
        Engine::new(BackendChoice::Reference)
    }

    /// The one-pass native backend (the usual production choice).
    pub fn native() -> Self {
        Engine::new(BackendChoice::Native)
    }

    /// The SQL-rewrite backend.
    pub fn rewrite() -> Self {
        Engine::new(BackendChoice::Rewrite)
    }

    /// Override the uncertain-comparison semantics. Only the reference
    /// implements [`CmpSemantics::Syntactic`]; requesting it reroutes every
    /// plan to the reference backend (a fallback visible in
    /// [`Engine::explain`]).
    pub fn with_semantics(mut self, semantics: CmpSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Pin the pipeline executor's batch size (unpinned, the engine picks
    /// per plan: see [`Engine::choose_exec`]). Any batch size produces the
    /// same bounds — this knob trades per-batch dispatch against cache
    /// residency, and lets tests pin degenerate sizes (1, n, > n).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Enable or disable zone-map batch pruning (default: enabled). The
    /// disabled engine is the within-run comparison baseline of
    /// `repro bench` and the pruned ≡ unpruned property test.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// The batch size this plan runs at: a size pinned with
    /// [`Engine::with_batch_size`] wins, else 4 096 from 65 536 source
    /// rows up, else [`DEFAULT_BATCH_SIZE`].
    pub fn choose_exec(&self, plan: &Plan) -> ExecChoice {
        let batch_size = self.batch_size.unwrap_or_else(|| {
            if plan.source_columns().len() >= LARGE_ROWS {
                LARGE_BATCH_SIZE
            } else {
                DEFAULT_BATCH_SIZE
            }
        });
        ExecChoice { batch_size }
    }

    /// The backend the engine was asked for.
    pub fn requested(&self) -> BackendChoice {
        self.choice
    }

    /// The backend that will actually run, after fallback rules: syntactic
    /// comparison semantics exist only in the reference implementation.
    pub fn effective(&self) -> BackendChoice {
        if self.semantics != CmpSemantics::IntervalLex {
            BackendChoice::Reference
        } else {
            self.choice
        }
    }

    /// Why the effective backend differs from the requested one, if it
    /// does — the reason string `explain()` renders.
    pub fn fallback_reason(&self) -> Option<String> {
        if self.effective() != self.choice {
            Some(format!(
                "{:?} comparison semantics are implemented by the reference backend only",
                self.semantics
            ))
        } else {
            None
        }
    }

    /// The reference oracle under this engine's comparison semantics.
    fn reference_oracle(&self) -> Reference {
        Reference {
            semantics: self.semantics,
        }
    }

    /// Run `plan` the one way `choice` runs plans: the native method is
    /// the pipelined executor, the two row oracles go through the row loop.
    fn run(
        &self,
        choice: BackendChoice,
        plan: &Plan,
    ) -> Result<(AuColumns, ExecTrace), EngineError> {
        let batch_size = self.choose_exec(plan).batch_size;
        match choice {
            BackendChoice::Native => exec::run_pipelined(plan, batch_size, self.pruning),
            BackendChoice::Reference => {
                exec::run_materialized(&self.reference_oracle(), plan, batch_size)
            }
            BackendChoice::Rewrite => exec::run_materialized(&Rewrite::default(), plan, batch_size),
        }
    }

    /// One-line cost/strategy note of `method` for a step of a plan (`None`:
    /// its scan), shown by [`Engine::explain`]. Selection and projection
    /// are the shared operators on every method.
    fn note(&self, method: BackendChoice, step: Option<&Op>) -> String {
        use BackendChoice::{Native, Reference, Rewrite};
        match (method, step) {
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
            (Native, Some(Op::Window { .. })) => "connected-heap sweep (Algorithm 3), \
                 O(N·n log n); falls back to reference on uncertain PARTITION BY \
                 or duplicate multiplicities"
                .into(),
            (Reference, None) => {
                "rebuild rows from the stored columns (the row operators' form)".into()
            }
            (Reference, Some(Op::Sort { limit: None, .. })) => format!(
                "Def. 2 pairwise position bounds, O(n²), {:?} comparison",
                self.semantics
            ),
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

    /// Execute a plan on the effective backend (through the physical
    /// execution layer, the one way that backend runs plans). The result
    /// is columnar; [`AuColumns::to_rows`] is the door for a caller that
    /// wants tuples.
    pub fn execute(&self, plan: &Plan) -> Result<AuColumns, EngineError> {
        self.execute_traced(plan).map(|(cols, _)| cols)
    }

    /// Execute a plan, also returning the executor's per-operator wall
    /// times and batch counts.
    pub fn execute_traced(&self, plan: &Plan) -> Result<(AuColumns, ExecTrace), EngineError> {
        self.run(self.effective(), plan)
    }

    /// Describe how this engine would run the plan: chosen backend (after
    /// fallbacks), operator chain, per-operator schemas and cost notes.
    pub fn explain(&self, plan: &Plan) -> Explain {
        let effective = self.effective();
        let mut steps = Vec::with_capacity(plan.ops().len() + 1);
        steps.push(ExplainStep {
            op: format!("scan [{} rows]", plan.source_columns().len()),
            schema: plan.schemas()[0].to_string(),
            note: self.note(effective, None),
        });
        for (op, schema) in plan.ops().iter().zip(&plan.schemas()[1..]) {
            steps.push(ExplainStep {
                op: op.to_string(),
                schema: schema.to_string(),
                note: self.note(effective, Some(op)),
            });
        }
        let (mode, pipelines) = match effective {
            BackendChoice::Native => (
                ExecMode::Pipelined,
                exec::lower(plan).iter().map(|p| p.describe(plan)).collect(),
            ),
            _ => (ExecMode::Materialized, Vec::new()),
        };
        Explain {
            requested: self.choice,
            backend: effective,
            fallback: self.fallback_reason(),
            sql: plan.sql().map(str::to_string),
            steps,
            opt: plan.opt().cloned(),
            mode,
            batch_size: self.choose_exec(plan).batch_size,
            pipelines,
        }
    }

    /// Execute the plan on **every** backend, timing each run, and assert
    /// that all outputs agree bag-wise — the cross-implementation
    /// invariant the paper's evaluation rests on. Returns the agreed
    /// output plus per-backend timings; disagreement is an
    /// [`EngineError::BackendDisagreement`], and an output whose identical
    /// rows add up past `u64` an [`EngineError::MultiplicityOverflow`].
    ///
    /// The invariant is defined under [`CmpSemantics::IntervalLex`] — the
    /// only semantics all three methods implement — so `run_all` pins the
    /// reference to it regardless of [`Engine::with_semantics`] (under
    /// `Syntactic`, every backend reroutes to the same reference run and
    /// there would be nothing cross-implementation to compare).
    pub fn run_all(&self, plan: &Plan) -> Result<RunAll, EngineError> {
        let comparable = Engine {
            semantics: CmpSemantics::IntervalLex,
            ..*self
        };
        // Compared as rows in canonical order — `bag_eq` is theirs; putting
        // them there refuses a merge past `u64` — and kept as columns.
        let mut output = None;
        let mut runs = Vec::with_capacity(BackendChoice::ALL.len());
        for choice in BackendChoice::ALL {
            let start = std::time::Instant::now();
            let (out, trace) = comparable.run(choice, plan)?;
            let elapsed = start.elapsed();
            runs.push(BackendRun {
                backend: choice,
                mode: trace.mode,
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
                            other: choice.name(),
                            baseline_output: baseline.to_string(),
                            other_output: rows.to_string(),
                        });
                    }
                }
            }
        }
        let (output, _) = output.expect("at least one backend ran");
        Ok(RunAll { output, runs })
    }
}

/// One backend's timing in a [`RunAll`].
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Which backend ran.
    pub backend: BackendChoice,
    /// Execution mode the backend ran under.
    pub mode: ExecMode,
    /// Wall-clock execution time of the whole plan.
    pub elapsed: Duration,
    /// Output rows produced (pre-normalization).
    pub rows: usize,
    /// Per-operator wall times and batch counts, in execution order (the
    /// first entry is the scan).
    pub ops: Vec<OpTiming>,
}

/// Result of [`Engine::run_all`]: the agreed output and per-backend
/// timings.
#[derive(Clone, Debug)]
pub struct RunAll {
    /// The (bag-equal) output, as produced by the reference backend.
    pub output: AuColumns,
    /// Per-backend wall-clock timings, in [`BackendChoice::ALL`] order.
    pub runs: Vec<BackendRun>,
}

impl RunAll {
    /// The timing entry for one backend.
    pub fn run(&self, backend: BackendChoice) -> &BackendRun {
        self.runs
            .iter()
            .find(|r| r.backend == backend)
            .expect("run_all executes every backend")
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
                r.backend.to_string(),
                r.mode.to_string(),
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
    /// Backend cost/strategy note.
    pub note: String,
}

/// Human-readable plan explanation: originating SQL (when the plan came
/// through the SQL frontend), chosen backend with any fallback reason, and
/// the operator chain with schemas and cost notes.
///
/// The rendered format is stable (tested in `explain_format_is_stable`):
///
/// ```text
/// query:   <sql, whitespace-flattened to one line>       (only when present)
/// backend: <effective>                                   (no fallback)
/// backend: <effective> (requested <requested>; rerouted: <reason>)
///  0. scan [N rows]
///       schema: (...)
///       note:   ...
/// exec:    pipelined · batch 1024 · 2 pipelines          (or `materialized (operator-at-a-time)`)
///       p0: fuse(select · project) ⇒ breaker sort
///       p1: passthrough ⇒ output
/// ```
#[derive(Clone, Debug)]
pub struct Explain {
    /// Backend the engine was configured with.
    pub requested: BackendChoice,
    /// Backend that actually executes (after fallback rules).
    pub backend: BackendChoice,
    /// Why `backend` differs from `requested`, when it does.
    pub fallback: Option<String>,
    /// The SQL text the plan was compiled from, when it came through the
    /// SQL frontend.
    pub sql: Option<String>,
    /// Scan + one step per operator.
    pub steps: Vec<ExplainStep>,
    /// Optimizer provenance when the plan was rewritten: the
    /// pre-optimization operator chain and the applied rules.
    pub opt: Option<OptInfo>,
    /// Execution mode the effective backend runs plans in.
    pub mode: ExecMode,
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
        match &self.fallback {
            None => writeln!(f, "backend: {}", self.backend)?,
            Some(reason) => writeln!(
                f,
                "backend: {} (requested {}; rerouted: {reason})",
                self.backend, self.requested
            )?,
        }
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "{:>2}. {}", i, step.op)?;
            writeln!(f, "      schema: {}", step.schema)?;
            writeln!(f, "      note:   {}", step.note)?;
        }
        if let Some(opt) = &self.opt {
            writeln!(
                f,
                "opt:     {} rewrite{} applied",
                opt.rules.len(),
                if opt.rules.len() == 1 { "" } else { "s" }
            )?;
            writeln!(f, "      before: {}", opt.before.join("  |  "))?;
            let after: Vec<String> = self.steps[1..].iter().map(|s| s.op.clone()).collect();
            writeln!(f, "      after:  {}", after.join("  |  "))?;
            for rule in &opt.rules {
                writeln!(f, "      · {}: {}", rule.rule, rule.reason)?;
            }
        }
        match self.mode {
            ExecMode::Materialized => {
                writeln!(f, "exec:    materialized (operator-at-a-time)")?;
            }
            ExecMode::Pipelined => {
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
            }
        }
        Ok(())
    }
}
