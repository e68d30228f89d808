//! The checked-in SQL demo script must keep producing the checked-in
//! bounds and plans — the same invariant CI enforces by diffing `repro
//! sql`'s stdout against `workloads/demo.golden` (and, with `--explain`,
//! `workloads/demo_explain.golden`), here exercised through the library so
//! plain `cargo test` covers it too.

use audb_bench::sqlcli::{run_script, SqlOptions};
use std::path::PathBuf;

fn workloads_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads")
}

/// `repro sql workloads/demo.sql [--explain]`'s stdout, through the library.
fn demo_output(explain: bool) -> String {
    let dir = workloads_dir();
    let script = std::fs::read_to_string(dir.join("demo.sql")).expect("demo.sql exists");
    let opts = SqlOptions {
        data_dir: dir.to_string_lossy().into_owned(),
        explain,
        ..SqlOptions::default()
    };
    let mut out = Vec::new();
    run_script(&opts, &script, &mut out).expect("script runs");
    String::from_utf8(out).expect("utf8 output")
}

#[test]
fn demo_script_matches_golden_output() {
    let golden =
        std::fs::read_to_string(workloads_dir().join("demo.golden")).expect("demo.golden exists");
    assert_eq!(
        demo_output(false),
        golden,
        "repro sql output drifted from workloads/demo.golden — \
         if the change is intended, regenerate it with\n  \
         cargo run --release -p audb-bench --bin repro -- sql workloads/demo.sql > workloads/demo.golden"
    );
}

/// The plan each demo statement runs, as `explain` renders it: the bound
/// chain, each step's schema and note, and the lowered pipelines.
#[test]
fn demo_script_explains_as_golden() {
    let golden = std::fs::read_to_string(workloads_dir().join("demo_explain.golden"))
        .expect("demo_explain.golden exists");
    assert_eq!(
        demo_output(true),
        golden,
        "repro sql --explain output drifted from workloads/demo_explain.golden — \
         if the change is intended, regenerate it with\n  \
         cargo run --release -p audb-bench --bin repro -- sql workloads/demo.sql --explain \
         > workloads/demo_explain.golden"
    );
}

/// Every backend produces the same bounds for the demo script (modulo the
/// header line naming the backend).
#[test]
fn demo_script_agrees_across_backends() {
    let dir = workloads_dir();
    let script = std::fs::read_to_string(dir.join("demo.sql")).expect("demo.sql exists");
    let strip_header = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
    let mut outputs = Vec::new();
    for backend in audb_engine::Engine::ALL {
        let opts = SqlOptions {
            data_dir: dir.to_string_lossy().into_owned(),
            backend,
            ..SqlOptions::default()
        };
        let mut out = Vec::new();
        run_script(&opts, &script, &mut out).expect("script runs");
        outputs.push(strip_header(&String::from_utf8(out).unwrap()));
    }
    assert_eq!(outputs[0], outputs[1], "reference vs native");
    assert_eq!(outputs[0], outputs[2], "reference vs rewrite");
}
