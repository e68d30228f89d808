//! `repro` refuses a command line it cannot run — an unknown target, or a
//! `--scale` / `--sizes` value that is missing or malformed — with exit
//! code 2 and a one-line message, before it prints or runs anything.

use std::process::Command;

/// Run `repro` on `args` and hold it to the refusal contract.
fn refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed {stdout}");
}

#[test]
fn an_unknown_target_is_refused() {
    refused(&["fig20", "--quick"]);
}

/// Each value follows a small target: one let through would run Fig. 18 at
/// that scale.
#[test]
fn a_missing_malformed_or_unbounded_scale_is_refused() {
    refused(&["fig18", "--quick", "--scale"]);
    for scale in ["abc", "inf", "0", "-1"] {
        refused(&["fig18", "--quick", "--scale", scale]);
    }
}

#[test]
fn malformed_sizes_are_refused() {
    refused(&["bench", "--quick", "--sizes", "1,x"]);
}
