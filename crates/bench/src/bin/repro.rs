//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [targets...] [--scale X] [--quick] [--sizes N,N,...]
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
//! --sizes  with the `bench` target: comma-separated row counts
//!          (default 1000,4000,16000)
//!
//! `bench` is the self-checking harness (`audb_bench::perf`): it prints
//! every block, then one line per within-run gate, and exits 1 when a gate
//! fails. `AUDB_THREADS` pins its worker count, as for every other target.
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
//! the reproduction target: `repro all` prints the paper's numbers beside
//! ours (committing that record is ROADMAP item 1).

use audb_bench::figures::{self, ReproOptions};

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
    let mut args = raw.into_iter();
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
            "--help" | "-h" => {
                println!(
                    "usage: repro [heaps|fig11..fig19|bench|all]... [--scale X] [--quick] \
                     [--sizes N,N,...]\n\
                     \x20      repro sql [SCRIPT.sql] [--data DIR] [--table name=path.csv]... \
                     [--backend B] [--explain] [--repl]\n\
                     \x20      repro serve [--data DIR] [--table name=path.csv]... [--port P] \
                     [--threads N] [--backend B] [--port-file PATH]\n\
                     \x20      repro lint [--json] [--rule ID] [--root PATH] [--list]"
                );
                return;
            }
            // A flag this binary does not (or no longer) have must not
            // read as accepted.
            flag if flag.starts_with('-') => {
                eprintln!("repro: unknown flag {flag:?} (try --help)");
                std::process::exit(2);
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    println!(
        "# audb repro — scale {} ({}), targets: {}",
        opts.scale,
        if opts.quick { "quick" } else { "full sweeps" },
        targets.join(" ")
    );
    let mut exit_code = 0;
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
                exit_code = audb_bench::perf::run(&bench_cfg);
            }
            "all" => figures::run_all(opts),
            other => eprintln!("unknown target {other:?} (try --help)"),
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
