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

/// The figure targets and what runs each; `bench` is the one other target.
const FIGURES: [(&str, fn(ReproOptions)); 11] = [
    ("heaps", figures::heaps_table),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
    ("fig19", figures::fig19),
    ("all", figures::run_all),
];

/// Refuse the command line before anything runs: a flag, value or target
/// this binary does not have must not read as accepted.
fn refuse(why: &str) -> ! {
    eprintln!("repro: {why} (try --help)");
    std::process::exit(2);
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
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| refuse("--scale needs a value"));
                opts.scale = match v.parse::<f64>() {
                    Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
                    _ => refuse(&format!("--scale must be a finite number > 0, not {v:?}")),
                };
            }
            "--quick" => opts.quick = true,
            "--sizes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| refuse("--sizes needs a value"));
                let sizes: Result<Vec<_>, _> = v.split(',').map(|n| n.trim().parse()).collect();
                bench_cfg.sizes = sizes.unwrap_or_else(|_| {
                    refuse(&format!(
                        "--sizes must be comma-separated integers, not {v:?}"
                    ))
                });
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
            flag if flag.starts_with('-') => refuse(&format!("unknown flag {flag:?}")),
            t if t == "bench" || FIGURES.iter().any(|(name, _)| *name == t) => {
                targets.push(t.to_string())
            }
            t => refuse(&format!("unknown target {t:?}")),
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
        match FIGURES.iter().find(|(name, _)| name == t) {
            Some((_, run)) => run(opts),
            None => {
                bench_cfg.quick = opts.quick;
                exit_code = audb_bench::perf::run(&bench_cfg);
            }
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
