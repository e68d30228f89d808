//! Golden tests: every rule fires on its deliberately-violating fixture
//! with the expected span, and the workspace itself comes back clean.
//!
//! Each fixture under `tests/fixtures/` opens with a `//@path:` (or
//! `#@path:` for manifests) line naming the workspace-relative path the
//! snippet pretends to live at — rule scoping is path-driven, so the
//! same code is a violation at `crates/core/src/physical.rs` and legal
//! at `crates/bench/src/figures.rs`. Expected output lives next to the
//! fixture in `<name>.golden`; regenerate with
//! `UPDATE_LINT_GOLDENS=1 cargo test -p audb-lint --test lint_fixtures`
//! and review the diff like any other code change.

use audb_lint::rules::check_workspace;
use audb_lint::scan::{Manifest, SourceFile, Workspace};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Build a one-file workspace from a fixture, honoring its `@path:` header.
fn fixture_workspace(file_name: &str) -> Workspace {
    let full = fixtures_dir().join(file_name);
    let source = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", full.display()));
    let first = source.lines().next().unwrap_or_default();
    let rel_path = first
        .trim_start_matches("//")
        .trim_start_matches('#')
        .trim()
        .strip_prefix("@path:")
        .unwrap_or_else(|| panic!("fixture {file_name} must start with an @path: header"))
        .trim()
        .to_string();
    if file_name.ends_with(".toml") {
        Workspace {
            files: Vec::new(),
            manifests: vec![Manifest { rel_path, source }],
        }
    } else {
        Workspace {
            files: vec![SourceFile::parse(&rel_path, &source)],
            manifests: Vec::new(),
        }
    }
}

/// Render the fixture's diagnostics and compare against its golden file.
fn check_golden(file_name: &str) {
    let ws = fixture_workspace(file_name);
    let diags = check_workspace(&ws);
    let mut got = diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    if !got.is_empty() {
        got.push('\n');
    }
    let stem = file_name.rsplit_once('.').map_or(file_name, |(s, _)| s);
    let golden_path = fixtures_dir().join(format!("{stem}.golden"));
    if std::env::var_os("UPDATE_LINT_GOLDENS").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", golden_path.display()));
    assert_eq!(
        got, want,
        "fixture {file_name} diagnostics diverged from {stem}.golden \
         (regenerate with UPDATE_LINT_GOLDENS=1 and review)"
    );
}

#[test]
fn fires_no_panic_hot_path() {
    check_golden("no_panic_hot_path.rs");
}

#[test]
fn fires_atomic_ordering_justified() {
    check_golden("atomic_ordering.rs");
}

#[test]
fn fires_unsafe_safety_comment() {
    check_golden("unsafe_safety.rs");
}

#[test]
fn fires_no_raw_spawn() {
    check_golden("raw_spawn.rs");
}

#[test]
fn fires_no_direct_backend_call() {
    check_golden("backend_call.rs");
}

#[test]
fn fires_no_wallclock_in_kernels() {
    check_golden("wallclock.rs");
}

#[test]
fn fires_no_transpose_between_operators() {
    check_golden("transpose.rs");
}

#[test]
fn fires_error_impls_std_error() {
    check_golden("error_impl.rs");
}

#[test]
fn fires_zero_dep_crates() {
    check_golden("zero_dep.toml");
}

#[test]
fn allow_with_reason_suppresses() {
    check_golden("allow_ok.rs");
}

#[test]
fn allow_without_reason_is_reported() {
    check_golden("allow_missing_reason.rs");
}

#[test]
fn allow_of_unknown_rule_is_reported() {
    check_golden("allow_unknown_rule.rs");
}

/// The real workspace must be lint-clean. Running under `cargo test`
/// puts the linter in the tier-1 gate without any CI-side wiring.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let ws = Workspace::collect(&root).expect("collect workspace");
    assert!(
        ws.files.len() > 50,
        "workspace scan looks truncated: only {} files",
        ws.files.len()
    );
    let diags = check_workspace(&ws);
    assert!(
        diags.is_empty(),
        "workspace has {} lint diagnostic(s); run `repro lint`:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
