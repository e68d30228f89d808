//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [targets...] [--scale X] [--quick] [--json [PATH]]
//!       [--sizes N,N,...] [--threads N] [--sel PCT]
//! repro sql [SCRIPT.sql] [--data DIR] [--table name=path.csv]...
//!           [--backend reference|native|rewrite] [--explain] [--repl]
//! repro serve [--data DIR] [--table name=path.csv]... [--port P]
//!           [--threads N] [--backend B] [--port-file PATH]
//! repro lint [--json] [--rule ID] [--root PATH] [--list]
//!
//! targets: heaps fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
//!          bench all
//! --scale  multiply the paper's data sizes (default 0.1)
//! --quick  endpoint-only sweeps (smoke run)
//! --json   with the `bench` target: write the tracked perf artifact
//!          (default BENCH_sort_window.json)
//! --sizes  with the `bench` target: comma-separated row counts
//!          (default 1000,4000,16000)
//! --threads  with the `bench` target: pin the worker-thread count
//!          (sets AUDB_THREADS; recorded in the artifact)
//! --sel    with the `bench` target: pin the pruning sweep to one
//!          selectivity percentage (default sweeps 1,10,50)
//!
//! The `sql` subcommand loads every `*.csv` in the data directory
//! (default `workloads/`) as catalog tables and executes textual
//! ranking/window queries — batch scripts, piped stdin, or `--repl`.
//!
//! `serve` exposes the same catalog over HTTP/JSON (see `audb-server`).
//!
//! `lint` runs the workspace invariant checker (see `audb-lint` and
//! DESIGN.md §12); exit code 1 means diagnostics were found.
//! ```
//!
//! Absolute times will differ from the paper's Postgres-on-Opteron testbed;
//! the shapes (method ordering, growth rates, quality relationships) are
//! the reproduction target. See EXPERIMENTS.md for a captured run.

use audb_bench::figures::{self, ReproOptions};

/// Names `main`'s target dispatch understands.
fn is_target(s: &str) -> bool {
    matches!(s, "heaps" | "bench" | "all")
        || matches!(
            s,
            "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17" | "fig18" | "fig19"
        )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The SQL subcommand has its own argument grammar; hand everything
    // after `sql` to it.
    if raw.first().map(String::as_str) == Some("sql") {
        if let Err(e) = audb_bench::sqlcli::cli(&raw[1..]) {
            eprintln!("repro sql: {e}");
            std::process::exit(1);
        }
        return;
    }
    if raw.first().map(String::as_str) == Some("serve") {
        if let Err(e) = audb_bench::serve::serve_cli(&raw[1..]) {
            eprintln!("repro serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    if raw.first().map(String::as_str) == Some("lint") {
        match audb_lint::cli(&raw[1..]) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("repro lint: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut opts = ReproOptions::default();
    let mut bench_cfg = audb_bench::perf::BenchConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = raw.into_iter().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                opts.scale = v.parse().expect("--scale must be a float");
            }
            "--quick" => opts.quick = true,
            "--sizes" => {
                let v = args.next().expect("--sizes needs a comma-separated list");
                bench_cfg.sizes = v
                    .split(',')
                    .map(|n| n.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
            }
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                bench_cfg.threads = Some(v.parse().expect("--threads must be an integer"));
            }
            "--sel" => {
                let v = args.next().expect("--sel needs a percentage");
                bench_cfg.sel = Some(v.parse().expect("--sel must be an integer percentage"));
            }
            "--json" => {
                // Optional value. Only consume the next token as a path if
                // it can't be a target name (`repro --json bench` must keep
                // `bench` as the target, not write a file called "bench").
                json_path = Some(match args.peek() {
                    Some(p) if !p.starts_with('-') && !is_target(p) => args.next().unwrap(),
                    _ => "BENCH_sort_window.json".to_string(),
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [heaps|fig11..fig19|bench|all]... [--scale X] [--quick] [--json [PATH]] \
                     [--sizes N,N,...] [--threads N] [--sel PCT]\n\
                     \x20      repro sql [SCRIPT.sql] [--data DIR] [--table name=path.csv]... \
                     [--backend B] [--explain] [--repl]\n\
                     \x20      repro serve [--data DIR] [--table name=path.csv]... [--port P] \
                     [--threads N] [--backend B] [--port-file PATH]\n\
                     \x20      repro lint [--json] [--rule ID] [--root PATH] [--list]"
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push(if json_path.is_some() { "bench" } else { "all" }.into());
    }
    println!(
        "# audb repro — scale {} ({}), targets: {}",
        opts.scale,
        if opts.quick { "quick" } else { "full sweeps" },
        targets.join(" ")
    );
    for t in &targets {
        match t.as_str() {
            "heaps" => figures::heaps_table(opts),
            "fig11" => figures::fig11(opts),
            "fig12" => figures::fig12(opts),
            "fig13" => figures::fig13(opts),
            "fig14" => figures::fig14(opts),
            "fig15" => figures::fig15(opts),
            "fig16" => figures::fig16(opts),
            "fig17" => figures::fig17(opts),
            "fig18" => figures::fig18(opts),
            "fig19" => figures::fig19(opts),
            "bench" => {
                bench_cfg.quick = opts.quick;
                audb_bench::perf::run_json(
                    json_path.as_deref().unwrap_or("BENCH_sort_window.json"),
                    &bench_cfg,
                );
            }
            "all" => figures::run_all(opts),
            other => eprintln!("unknown target {other:?} (try --help)"),
        }
    }
}
