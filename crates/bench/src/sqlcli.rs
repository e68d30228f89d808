//! `repro sql` — drive the engine with textual queries, batch or REPL.
//!
//! ```text
//! repro sql [SCRIPT.sql] [--data DIR] [--table name=path.csv]...
//!           [--backend reference|native|rewrite] [--explain] [--repl]
//! ```
//!
//! Tables come from every `*.csv` in `--data` (default `workloads/`,
//! registered under their file stems; see `audb_workloads::csvload` for
//! the `_lb`/`_ub` + `mult_*` header convention) plus explicit `--table`
//! pairs. With a script (or piped stdin) each `;`-separated statement is
//! executed and its certain/possible bounds table printed — normalized, so
//! the output is deterministic and CI can diff it against a golden file.
//! `--repl` reads statements interactively instead.

use audb_engine::{Engine, Session, SharedCatalog};
use audb_workloads::csvload;
use std::fs::File;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Options of the `repro sql` subcommand.
pub struct SqlOptions {
    /// Script path (`None` = read stdin to EOF, or REPL with `repl`).
    pub script: Option<String>,
    /// Directory scanned for `*.csv` tables (missing dir = no tables).
    pub data_dir: String,
    /// Extra `(name, csv path)` registrations.
    pub tables: Vec<(String, String)>,
    /// Method executing the statements.
    pub backend: Engine,
    /// Print `EXPLAIN` output before each result.
    pub explain: bool,
    /// Interactive line-by-line mode.
    pub repl: bool,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            script: None,
            data_dir: "workloads".to_string(),
            tables: Vec::new(),
            backend: Engine::Native,
            explain: false,
            repl: false,
        }
    }
}

/// The catalog `repro sql` and `repro serve` start from — every `*.csv` in
/// `dir` (a missing directory holds none) under its file stem, then each
/// `(name, path)` of `tables` — and its listing: `name (N rows)` per table,
/// or `(none)`.
pub fn load_catalog(dir: &str, tables: &[(String, String)]) -> io::Result<(SharedCatalog, String)> {
    let catalog = SharedCatalog::new();
    if Path::new(dir).is_dir() {
        for (name, cols) in csvload::load_au_dir(dir)? {
            catalog.register_columns(name, cols);
        }
    }
    for (name, path) in tables {
        let cols = csvload::read_au_csv_columns(File::open(path)?)?;
        catalog.register_columns(name.clone(), cols);
    }
    let snapshot = catalog.snapshot();
    let listing: Vec<_> = snapshot
        .iter()
        .map(|(n, r)| format!("{n} ({} rows)", r.len()))
        .collect();
    let listing = Some(listing.join(", ")).filter(|listing| !listing.is_empty());
    Ok((catalog, listing.unwrap_or_else(|| "(none)".into())))
}

/// A `--table name=path.csv` value as `(name, path)`.
pub fn table_arg(spec: &str) -> Result<(String, String), String> {
    let (name, path) =
        (spec.split_once('=')).ok_or_else(|| format!("--table {spec:?} is not name=path.csv"))?;
    Ok((name.to_string(), path.to_string()))
}

fn build_session(opts: &SqlOptions, out: &mut dyn Write) -> io::Result<Session> {
    let (catalog, listing) = load_catalog(&opts.data_dir, &opts.tables)?;
    writeln!(out, "-- backend: {}; tables: {listing}", opts.backend)?;
    Ok(Session::with_catalog(opts.backend, catalog))
}

/// One `-- <sql>` echo line: whitespace-flattened so line-wrapped
/// statements stay a single comment line.
fn echo(sql: &str) -> String {
    sql.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Execute one already-compiled statement, printing its (normalized,
/// hence deterministic) bounds table or its error.
fn run_prepared(
    session: &Session,
    prepared: &audb_engine::Prepared,
    explain: bool,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "\n-- {}", echo(prepared.sql()))?;
    if explain {
        write!(out, "{}", session.engine().explain(prepared.plan()))?;
    }
    match session
        .execute(prepared)
        .and_then(|result| Ok(result.normalize()?))
    {
        Ok(result) => write!(out, "{}", result.to_rows())?,
        Err(e) => writeln!(out, "error: {e}")?,
    }
    Ok(())
}

/// Compile-then-run one statement from text (REPL, and the per-statement
/// error path of scripts).
fn run_statement(
    session: &Session,
    sql: &str,
    explain: bool,
    out: &mut dyn Write,
) -> io::Result<()> {
    match session.prepare(sql) {
        Ok(prepared) => run_prepared(session, &prepared, explain, out),
        Err(e) => {
            writeln!(out, "\n-- {}", echo(sql))?;
            writeln!(out, "error: {e}")
        }
    }
}

/// Run a whole script against a fresh session, writing results to `out`.
/// The entry point the golden-file test drives directly.
pub fn run_script(opts: &SqlOptions, script: &str, out: &mut dyn Write) -> io::Result<()> {
    let session = build_session(opts, out)?;
    // Compile the whole script up front so a late syntax error aborts
    // before any statement ran; each statement then executes
    // independently.
    match session.prepare_script(script) {
        Ok(prepared) => {
            for p in &prepared {
                run_prepared(&session, p, opts.explain, out)?;
            }
        }
        Err(e) => {
            // Statement-level (binding) errors should not hide the other
            // statements: fall back to statement-at-a-time on the raw text
            // only when it parses; otherwise report the script error.
            match audb_sql::parse_script(script) {
                Ok(stmts) => {
                    for s in &stmts {
                        run_statement(&session, &s.text, opts.explain, out)?;
                    }
                }
                Err(_) => writeln!(out, "error: {e}")?,
            }
        }
    }
    Ok(())
}

fn repl(opts: &SqlOptions, out: &mut dyn Write) -> io::Result<()> {
    let session = build_session(opts, out)?;
    writeln!(
        out,
        "-- interactive; end statements with ';', ctrl-d to quit"
    )?;
    let stdin = io::stdin();
    let mut buf = String::new();
    for line in stdin.lock().lines() {
        buf.push_str(&line?);
        buf.push('\n');
        if buf.trim_end().ends_with(';') || buf.trim() == "" {
            let stmt = std::mem::take(&mut buf);
            if !stmt.trim().is_empty() {
                run_statement(&session, &stmt, opts.explain, out)?;
            }
        }
    }
    if !buf.trim().is_empty() {
        run_statement(&session, &buf, opts.explain, out)?;
    }
    Ok(())
}

/// Parse `repro sql` arguments and run. Returns an error message for bad
/// usage.
pub fn cli(args: &[String]) -> Result<(), String> {
    let mut opts = SqlOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data" => opts.data_dir = it.next().ok_or("--data needs a directory")?.clone(),
            "--table" => {
                let spec = it.next().ok_or("--table needs name=path.csv")?;
                opts.tables.push(table_arg(spec)?);
            }
            "--backend" => opts.backend = it.next().ok_or("--backend needs a method")?.parse()?,
            "--explain" => opts.explain = true,
            "--repl" => opts.repl = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro sql [SCRIPT.sql] [--data DIR] [--table name=path.csv]... \
                     [--backend reference|native|rewrite] [--explain] [--repl]"
                );
                return Ok(());
            }
            path if !path.starts_with('-') && opts.script.is_none() => {
                opts.script = Some(path.to_string())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let mut stdout = io::stdout();
    let result = if opts.repl {
        repl(&opts, &mut stdout)
    } else {
        let script = match &opts.script {
            Some(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?
            }
            None => {
                let mut s = String::new();
                io::Read::read_to_string(&mut io::stdin(), &mut s)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                s
            }
        };
        run_script(&opts, &script, &mut stdout)
    };
    result.map_err(|e| e.to_string())
}
