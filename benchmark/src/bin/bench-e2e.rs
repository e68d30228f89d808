//! End-to-end side of the repo benchmark (tracing off). Reaches the engine
//! only through `audb_benchmark::adapter`.
//!
//! ```text
//! bench-e2e --workload W [--seed N] [--seconds S] [--trace 0] [--quick]
//! bench-e2e all        [--seed N] [--seconds S] [--quick]
//! bench-e2e selfcheck  [--runs N] [--seed N] [--seconds S]     (from the repo root: reads BENCHMARK.json, writes benchmark/NOISE.md)
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, the result object of the benchmark
//! contract. `all` and `selfcheck` start one fresh process per run.

use audb_benchmark::calib::{self, Reference};
use audb_benchmark::cli::{self, RunArgs};
use audb_benchmark::driver::Bench;
use audb_benchmark::json::Json;
use audb_benchmark::report::{parse_result_line, result_line, RunResult, END_TO_END};
use audb_benchmark::{adapter, stats, workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Passes of the reference kernel that follow a set-up to scale it.
const SETUP_PASSES: usize = 15;

struct Args {
    command: Option<String>,
    run: RunArgs,
    /// `selfcheck`: runs per set.
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        run: RunArgs::default(),
        runs: 5,
    };
    let mut rest = std::env::args().skip(1);
    while let Some(flag) = rest.next() {
        if args.run.take(&flag, &mut rest, "0")? {
            continue;
        }
        match flag.as_str() {
            "--runs" => args.runs = cli::number(&flag, &mut rest)?.max(2) as usize,
            "all" | "selfcheck" if args.command.is_none() => args.command = Some(flag),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.command.as_deref() {
        Some("all") => all(&args.run),
        Some("selfcheck") => selfcheck(&args.run, args.runs),
        _ => match &args.run.workload {
            Some(w) => run_one(w, &args.run),
            None => Err("give --workload, or one of: all, selfcheck".into()),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload here. `Ok(false)` means the run completed but an
/// operation failed or the oracle was violated.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let sizes = workload::sizes(name, args.seconds, args.quick)?;
    adapter::cap_engine_threads();

    // Every time below is divided by how much slower than the reference
    // box the machine ran while it was taken (`calib`).
    let mut reference = Reference::new();
    let set_up = |reference: &mut Reference| -> Result<(Bench, f64), String> {
        let (bench, seconds) = Bench::set_up(name, args.seed, &sizes)?;
        Ok((bench, seconds / reference.slowdown_now(SETUP_PASSES)))
    };
    let (mut bench, first_setup_s) = set_up(&mut reference)?;

    // Per block of operations: median and 90th-percentile latency,
    // operations per second of summed latency, CPU milliseconds per
    // operation.
    let mut latencies = Vec::with_capacity(sizes.ops);
    let mut passes = Vec::with_capacity(sizes.ops);
    let (mut p50s, mut p90s, mut rates, mut cpus, mut slowdowns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let wire_before = bench.wire_counters();
    let started = Instant::now();
    for block in stats::blocks(sizes.ops) {
        let mut cpu_ms = 0.0;
        for _ in block.clone() {
            passes.push(reference.pass_ms());
            let cpu_before = stats::process_cpu_ms();
            let timed = bench.timed_op();
            cpu_ms += stats::process_cpu_ms() - cpu_before;
            latencies.push(timed.latency_ms);
            failures.extend(timed.failure);
        }
        let slowdown = calib::slowdown(&passes[block.clone()]);
        let block_ms = &latencies[block.clone()];
        p50s.push(stats::percentile(block_ms, 0.5) / slowdown);
        p90s.push(stats::percentile(block_ms, 0.9) / slowdown);
        rates.push(block.len() as f64 / (block_ms.iter().sum::<f64>() / 1e3) * slowdown);
        cpus.push(cpu_ms / block.len() as f64 / slowdown);
        slowdowns.push(slowdown);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let wire_after = bench.wire_counters();

    // The last operation, untimed, against the oracle.
    let (agreed, bound_width_rel, certain_frac) = bench.checked_tightness();
    let checksum = bench.inputs.checksum;
    // The peak is read before the repeated set-ups: loading the tables
    // again into a used heap moves it by several percent from run to run.
    let peak_rss_mb = stats::peak_rss_mb();
    drop(bench);
    let mut setups = vec![first_setup_s];
    for _ in 1..sizes.setups {
        setups.push(set_up(&mut reference)?.1);
    }

    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&setups)),
        ("op_p50_ms", stats::quiet_quartile(&p50s, true)),
        ("op_p90_ms", stats::quiet_quartile(&p90s, true)),
        ("ops_per_s", stats::quiet_quartile(&rates, false)),
        ("cpu_ms_per_op", stats::quiet_quartile(&cpus, true)),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into();

    let failed = failures.len();
    for failure in failures.iter().take(3) {
        eprintln!("failed operation: {failure}");
    }
    eprintln!(
        "{name}: seed {} · input checksum {checksum:016x} · {} rows · {} ops measured in {wall_s:.1} s \
         ({} latency samples in {} blocks, {} beyond p90; over all samples, as clocked, p50 {:.3} ms, \
         p90 {:.3} ms) · machine at {:.3}–{:.3} × the reference box's kernel time · {} set-ups{}",
        args.seed,
        sizes.rows,
        sizes.ops,
        latencies.len(),
        p50s.len(),
        latencies.len() / 10,
        stats::percentile(&latencies, 0.5),
        stats::percentile(&latencies, 0.9),
        stats::percentile(&slowdowns, 0.0),
        stats::percentile(&slowdowns, 1.0),
        sizes.setups,
        if args.quick { " · QUICK: numbers are not comparable" } else { "" },
    );
    for (metric, unit) in END_TO_END {
        eprintln!("  {metric:<16} {:>12.4} {unit}", values[metric]);
    }
    eprintln!(
        "  {:<16} {:>12.4} ratio ({failed} failed of {} attempted)",
        "fail_frac",
        failed as f64 / sizes.ops as f64,
        sizes.ops
    );
    eprintln!("  {:<16} {bound_width_rel:>12.9} ratio", "bound_width_rel");
    eprintln!("  {:<16} {certain_frac:>12.9} ratio", "certain_frac");
    if name == "serve_mix" {
        let per_op = |after: u64, before: u64| (after - before) as f64 / sizes.ops as f64;
        eprintln!(
            "  wire per op: {:.0} B out, {:.0} B in, {:.3} reconnects",
            per_op(wire_after.0, wire_before.0),
            per_op(wire_after.1, wire_before.1),
            per_op(wire_after.2, wire_before.2),
        );
    }

    let correct = failed == 0 && agreed;
    println!(
        "{}",
        result_line(correct, sizes.ops, failed, &END_TO_END, |m| values[m])
    );
    Ok(correct)
}

/// One run made in a fresh process of this executable. Its `correct` also
/// covers the exit status.
fn spawn_run(name: &str, seed: u64, args: &RunArgs) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: the run printed no result ({})", output.status))?;
    let mut run = parse_result_line(line)?;
    run.correct &= run.failed == 0 && output.status.success();
    Ok(run)
}

/// Every workload once, each in a fresh process; one table.
fn all(args: &RunArgs) -> Result<bool, String> {
    let mut table = String::new();
    let mut correct = true;
    for name in workload::NAMES {
        let run = spawn_run(name, args.seed, args)?;
        correct &= run.correct;
        for ((metric, value), (_, unit)) in run.metrics.iter().zip(END_TO_END) {
            let _ = writeln!(table, "{name:<12} {metric:<16} {value:>14.4} {unit}");
        }
        let _ = writeln!(
            table,
            "{name:<12} {:<16} {:>14} of {} operations; correct: {}",
            "failed", run.failed, run.attempted, run.correct
        );
    }
    print!("{table}");
    if args.quick {
        println!(
            "QUICK mode: same code paths on an eighth of the data; numbers are not comparable"
        );
    }
    Ok(correct)
}

/// Bound and direction (is lower better?) of every end-to-end metric, from
/// the manifest in the working directory.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = "BENCHMARK.json";
    let text = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = Json::parse(&text)?;
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path} has no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = match m.get("bound") {
                Some(Json::Float(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                _ => return Err(format!("{name} has no bound")),
            };
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            Ok((name.to_string(), (bound, lower)))
        })
        .collect()
}

/// Two interleaved sets of runs of this one executable, judged by the
/// rule the benchmark is itself accepted by: each set's inter-quartile
/// spread over `--runs` seeds within the metric's bound (`setup_s`
/// exempt), and the second set's median not worse than the first's by
/// more than the bound. Writes the table to `benchmark/NOISE.md`.
fn selfcheck(args: &RunArgs, runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Run-to-run noise of the benchmark\n\n\
         Written by `bench-e2e selfcheck --runs {} --seconds {}`: two sets of {} runs of one\n\
         executable, interleaved (A B A B …), run `i` of either set on seed `{} + i`; available\n\
         parallelism {}. `spread` is the distance between the first and third quartile of a\n\
         set's values as a share of their median; `shift` is how much worse the second set's\n\
         median is than the first's. PASS needs both spreads (except `setup_s`'s) and the shift\n\
         within the bound; `steady` marks spreads below a third of it.\n",
        runs,
        args.seconds,
        runs,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let _ = writeln!(
        report,
        "| workload | metric | median A | median B | spread A | spread B | shift | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|"
    );
    let mut pass = true;
    let mut drift = String::new();
    for name in workload::NAMES {
        // sets[set][metric] = values over the seeds.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for run in 0..2 * runs {
            let result = spawn_run(name, args.seed + (run / 2) as u64, args)?;
            pass &= result.correct;
            for (metric, value) in result.metrics {
                sets[run % 2].entry(metric).or_default().push(value);
            }
        }
        let in_run_order: Vec<String> = (0..2 * runs)
            .map(|run| format!("{:.1}", sets[run % 2]["op_p50_ms"][run / 2]))
            .collect();
        let _ = writeln!(drift, "- `{name}`: {}", in_run_order.join(" "));
        for (metric, _) in END_TO_END {
            let (a, b) = (&sets[0][metric], &sets[1][metric]);
            let (bound, lower_is_better) = bounds[metric];
            let (median_a, median_b) = (stats::median(a), stats::median(b));
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            let shift = if lower_is_better {
                median_b / median_a - 1.0
            } else {
                1.0 - median_b / median_a
            };
            let widest = spread_a.max(spread_b);
            let ok = shift <= bound && (metric == "setup_s" || widest <= bound);
            pass &= ok;
            let verdict = match (ok, widest < bound / 3.0) {
                (false, _) => "FAIL",
                (true, true) => "PASS steady",
                (true, false) => "PASS",
            };
            let _ = writeln!(
                report,
                "| {name} | {metric} | {median_a:.4} | {median_b:.4} | {:.2} % | {:.2} % | {:+.2} % | {:.0} % | {verdict} |",
                spread_a * 100.0,
                spread_b * 100.0,
                shift * 100.0,
                bound * 100.0,
            );
        }
    }
    let _ = writeln!(
        report,
        "\nOverall: {}\n\n\
         `op_p50_ms` of every run in the order made (A B A B …, about 25 s apart; the two runs\n\
         of a pair share a seed), at reference speed: what is left of the host's drift, which\n\
         is slower than a run lasts, and of the seed.\n\n{drift}",
        if pass { "PASS" } else { "FAIL" }
    );
    print!("{report}");
    let out = "benchmark/NOISE.md";
    std::fs::write(out, &report).map_err(|e| format!("{out}: {e}"))?;
    Ok(pass)
}
