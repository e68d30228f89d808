//! The rule catalog. Every rule is a short token-pattern match over
//! [`SourceFile`]s (or a line scan over `Cargo.toml`s), scoped by
//! workspace-relative path. Rules are deliberately *narrow*: each one
//! machine-checks exactly one invariant the codebase previously enforced
//! by convention, and the catalog in DESIGN.md §12 records why.

use crate::scan::{Manifest, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`no-panic-hot-path`, ...).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong, specifically.
    pub message: String,
    /// How to fix it (or how to justify it).
    pub hint: &'static str,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.col, self.rule, self.message, self.hint
        )
    }
}

/// A catalog entry.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// Every rule the linter knows, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-panic-hot-path",
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in audb_core kernels \
                  (physical, columns, sortkey, expr, batch) or the audb-server request path",
        hint: "return a structured error (kernels: propagate; server: SessionError -> \
               HTTP status), or justify with `// lint: allow(no-panic-hot-path) -- reason`",
    },
    Rule {
        id: "atomic-ordering-justified",
        summary: "every atomic Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst} literal \
                  carries a nearby comment mentioning `ordering`",
        hint: "add a comment within 3 lines explaining why this memory ordering is \
               sufficient (what publishes/observes what)",
    },
    Rule {
        id: "unsafe-safety-comment",
        summary: "every `unsafe` block/impl is directly preceded by a `// SAFETY:` comment",
        hint: "state the proof obligation: which invariant makes this sound, and what \
               maintains it",
    },
    Rule {
        id: "no-raw-spawn",
        summary: "std::thread::{spawn,Builder} only inside audb-par and crates/server",
        hint: "use audb_par::par_map/par_run (deterministic, AUDB_THREADS-bounded) or \
               justify with `// lint: allow(no-raw-spawn) -- reason`",
    },
    Rule {
        id: "no-direct-backend-call",
        summary: "backend entry points (sort_ref/sort_native/rewr_* and the audb_native/\
                  audb_rewrite crates) are only called from the engine's runners and \
                  Backend impls",
        hint: "go through Engine/Session (`Query...` plans or SQL) so plan validation, \
               normalization and fallback rerouting stay in force",
    },
    Rule {
        id: "zero-dep-crates",
        summary: "per-crate external-dependency allowlist (audb-sql, audb-server, \
                  audb-par, audb-lint stay std-only)",
        hint: "drop the dependency or extend the allowlist in crates/lint/src/rules.rs \
               (a deliberate, reviewed act)",
    },
    Rule {
        id: "no-wallclock-in-kernels",
        summary: "no Instant::now/SystemTime inside audb_core, audb_native or the \
                  fused-stage builders (a kernel reports its stages to a Stages sink)",
        hint: "end a stage with `stages.stage(mark, name)` on the sink the kernel is \
               handed; the engine's Recorder is the one sink that reads a clock",
    },
    Rule {
        id: "error-impls-std-error",
        summary: "every `pub ... Error` type implements std::error::Error",
        hint: "add `impl std::error::Error for ... {}` (and Display) so callers can \
               box/`?` it uniformly",
    },
    Rule {
        id: "no-transpose-between-operators",
        summary: "no `.to_rows()` / `.to_columns()` in the executor (engine exec/), the \
                  native sort and window kernels or the wire encoder: a result is \
                  columns from the scan to the reply",
        hint: "keep the value columnar (AuColumns in, AuColumns out) and transpose at the \
               caller's door, or justify with \
               `// lint: allow(no-transpose-between-operators) -- reason`",
    },
    Rule {
        id: "allow-malformed",
        summary: "`lint: allow(...)` directives must name a known rule and carry a \
                  ` -- reason`",
        hint: "write `// lint: allow(rule-id) -- why this is sound`",
    },
];

/// Whether `id` names a rule in the catalog.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

fn hint_for(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.hint)
        .unwrap_or("")
}

/// Run every rule over the workspace. Diagnostics come back sorted by
/// `(file, line, col, rule)`; suppressed ones are already filtered out.
pub fn check_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        check_no_panic_hot_path(file, &mut out);
        check_atomic_ordering(file, &mut out);
        check_unsafe_safety(file, &mut out);
        check_no_raw_spawn(file, &mut out);
        check_no_direct_backend_call(file, &mut out);
        check_no_wallclock(file, &mut out);
        check_no_transpose(file, &mut out);
        for (line, col, message) in &file.bad_allows {
            out.push(Diagnostic {
                rule: "allow-malformed",
                file: file.rel_path.clone(),
                line: *line,
                col: *col,
                message: message.clone(),
                hint: hint_for("allow-malformed"),
            });
        }
    }
    check_error_impls(&ws.files, &mut out);
    for m in &ws.manifests {
        check_manifest(m, &mut out);
    }
    // Apply `// lint: allow` suppression (allow-malformed is exempt: the
    // escape hatch cannot excuse its own misuse).
    let by_path: BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    out.retain(|d| {
        d.rule == "allow-malformed"
            || by_path
                .get(d.file.as_str())
                .map(|f| !f.allowed(d.rule, d.line))
                .unwrap_or(true)
    });
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

fn push(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    file: &SourceFile,
    line: u32,
    col: u32,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        file: file.rel_path.clone(),
        line,
        col,
        message,
        hint: hint_for(rule),
    });
}

// ------------------------------------------------------------------ scopes

/// The files whose panics would kill a query or a worker thread: the
/// typed-kernel layer of `audb_core` (storage, keys, and the expression
/// kernels behind every fused select and project) and the whole server
/// request path.
fn in_panic_scope(path: &str) -> bool {
    path.starts_with("crates/server/src/")
        || matches!(
            path,
            "crates/core/src/physical.rs"
                | "crates/core/src/columns.rs"
                | "crates/core/src/sortkey.rs"
                | "crates/core/src/expr.rs"
                | "crates/core/src/batch.rs"
        )
}

/// Crates allowed to create raw threads: the deterministic parallel
/// helpers and the server's worker pool.
fn in_spawn_scope(path: &str) -> bool {
    path.starts_with("crates/par/") || path.starts_with("crates/server/")
}

/// Files allowed to name backend entry points: the backends themselves,
/// the engine's row-oracle Backend impls, its pipelined runner (exec/run.rs
/// *is* the native method: its breakers call `audb_native`'s columnar
/// kernels), and the incremental-maintenance layer
/// (maintain.rs holds live `audb_native` sweep state between appends —
/// stateful by design, so it cannot route through `Engine::execute`).
fn in_backend_scope(path: &str) -> bool {
    path.starts_with("crates/core/")
        || path.starts_with("crates/native/")
        || path.starts_with("crates/rewrite/")
        || path == "crates/engine/src/backend.rs"
        || path == "crates/engine/src/exec/run.rs"
        || path == "crates/engine/src/maintain.rs"
}

/// Files where wall-clock reads would distort kernels: all of
/// `audb_core` and `audb_native` plus the fused-stage builders.
fn in_kernel_clock_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/native/src/")
        || path == "crates/engine/src/exec/lower.rs"
}

/// Where a result must stay columnar: the executor, the two one-shot
/// kernels and the reply encoder. (`native/src/maintain.rs` is out: a
/// subscription's drained rows are tuples by contract — `Delta`.)
fn in_columnar_scope(path: &str) -> bool {
    path.starts_with("crates/engine/src/exec/")
        || matches!(
            path,
            "crates/native/src/sort.rs"
                | "crates/native/src/window.rs"
                | "crates/server/src/wire.rs"
        )
}

// ------------------------------------------------------------------- rules

/// Rule 1: `no-panic-hot-path`.
fn check_no_panic_hot_path(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_panic_scope(&file.rel_path) {
        return;
    }
    let toks = &file.code;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| toks[j].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        match t.text.as_str() {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                push(
                    out,
                    "no-panic-hot-path",
                    file,
                    t.line,
                    t.col,
                    format!("`.{}()` on the hot path can panic", t.text),
                );
            }
            "panic" | "todo" | "unimplemented" if next == Some("!") && prev != Some("fn") => {
                push(
                    out,
                    "no-panic-hot-path",
                    file,
                    t.line,
                    t.col,
                    format!("`{}!` on the hot path", t.text),
                );
            }
            _ => {}
        }
    }
}

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule 2: `atomic-ordering-justified`.
fn check_atomic_ordering(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.code;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "Ordering" {
            continue;
        }
        // `Ordering :: Relaxed` — two `:` puncts then the variant.
        let variant = match (
            toks.get(i + 1).map(|t| t.text.as_str()),
            toks.get(i + 2).map(|t| t.text.as_str()),
            toks.get(i + 3),
        ) {
            (Some(":"), Some(":"), Some(v)) if ATOMIC_ORDERINGS.contains(&v.text.as_str()) => v,
            _ => continue,
        };
        let justified =
            file.comment_near(t.line, 3, |c| c.to_ascii_lowercase().contains("ordering"));
        if !justified {
            push(
                out,
                "atomic-ordering-justified",
                file,
                variant.line,
                variant.col,
                format!(
                    "atomic `Ordering::{}` without a nearby justification comment \
                     (mention `ordering` within 3 lines)",
                    variant.text
                ),
            );
        }
    }
}

/// Rule 3: `unsafe-safety-comment`.
fn check_unsafe_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &file.code {
        if t.text != "unsafe" {
            continue;
        }
        if !file.adjacent_comment(t.line, |c| c.starts_with("SAFETY:")) {
            push(
                out,
                "unsafe-safety-comment",
                file,
                t.line,
                t.col,
                "`unsafe` without a directly preceding `// SAFETY:` comment".to_string(),
            );
        }
    }
}

/// Rule 4: `no-raw-spawn`.
fn check_no_raw_spawn(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if in_spawn_scope(&file.rel_path) {
        return;
    }
    let toks = &file.code;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "thread" {
            continue;
        }
        let path_next = match (
            toks.get(i + 1).map(|t| t.text.as_str()),
            toks.get(i + 2).map(|t| t.text.as_str()),
            toks.get(i + 3),
        ) {
            (Some(":"), Some(":"), Some(n)) => n,
            _ => continue,
        };
        if path_next.text == "spawn" || path_next.text == "Builder" {
            push(
                out,
                "no-raw-spawn",
                file,
                path_next.line,
                path_next.col,
                format!(
                    "raw `thread::{}` outside audb-par / crates/server",
                    path_next.text
                ),
            );
        }
    }
}

/// Backend entry points reachable by bare name (via `use`).
const BACKEND_FNS: &[&str] = &[
    "sort_ref",
    "topk_ref",
    "window_ref",
    "sort_native",
    "sort_columns_native",
    "topk_native",
    "window_native",
    "window_columns_native",
];

/// Rule 5: `no-direct-backend-call`.
fn check_no_direct_backend_call(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if in_backend_scope(&file.rel_path) {
        return;
    }
    let toks = &file.code;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| toks[j].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let text = t.text.as_str();
        if text == "audb_native" || text == "audb_rewrite" {
            push(
                out,
                "no-direct-backend-call",
                file,
                t.line,
                t.col,
                format!(
                    "direct reference to backend crate `{text}` outside the engine's runners and \
                     Backend impls"
                ),
            );
        } else if BACKEND_FNS.contains(&text) && prev != Some("fn") {
            push(
                out,
                "no-direct-backend-call",
                file,
                t.line,
                t.col,
                format!("direct reference to backend entry point `{text}`"),
            );
        } else if text.starts_with("rewr_") && next == Some("(") && prev != Some("fn") {
            push(
                out,
                "no-direct-backend-call",
                file,
                t.line,
                t.col,
                format!("direct call to rewrite backend entry point `{text}`"),
            );
        }
    }
}

/// Rule 7: `no-wallclock-in-kernels`.
fn check_no_wallclock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_kernel_clock_scope(&file.rel_path) {
        return;
    }
    for t in &file.code {
        if t.text == "Instant" || t.text == "SystemTime" {
            push(
                out,
                "no-wallclock-in-kernels",
                file,
                t.line,
                t.col,
                format!("wall-clock type `{}` inside a kernel layer", t.text),
            );
        }
    }
}

/// Rule 9: `no-transpose-between-operators`.
fn check_no_transpose(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_columnar_scope(&file.rel_path) {
        return;
    }
    let toks = &file.code;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| toks[j].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if matches!(t.text.as_str(), "to_rows" | "to_columns")
            && prev == Some(".")
            && next == Some("(")
        {
            push(
                out,
                "no-transpose-between-operators",
                file,
                t.line,
                t.col,
                format!("`.{}()` between the scan and the reply", t.text),
            );
        }
    }
}

/// Rule 8: `error-impls-std-error` (workspace-aggregated).
fn check_error_impls(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    // (name -> first declaration site); names implementing Error anywhere.
    let mut decls: BTreeMap<String, (usize, u32, u32)> = BTreeMap::new();
    let mut impls: BTreeSet<String> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        let toks = &file.code;
        for (i, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "pub"
                    if matches!(
                        toks.get(i + 1).map(|t| t.text.as_str()),
                        Some("enum") | Some("struct")
                    ) =>
                {
                    if let Some(name) = toks.get(i + 2) {
                        if name.text.ends_with("Error") {
                            decls
                                .entry(name.text.clone())
                                .or_insert((fi, name.line, name.col));
                        }
                    }
                }
                "for" if i >= 1 && toks[i - 1].text == "Error" => {
                    if let Some(name) = toks.get(i + 1) {
                        impls.insert(name.text.clone());
                    }
                }
                _ => {}
            }
        }
    }
    for (name, (fi, line, col)) in decls {
        if !impls.contains(&name) {
            push(
                out,
                "error-impls-std-error",
                &files[fi],
                line,
                col,
                format!("public error type `{name}` does not implement std::error::Error"),
            );
        }
    }
}

/// External (non-`audb-*`) dependencies each crate may declare, normal
/// and dev alike. Crates not listed here may declare none — in
/// particular `audb-sql`, `audb-server`, `audb-par` and `audb-lint` stay
/// std-only, which is what keeps the SQL frontend, the service layer and
/// this linter trivially auditable and offline-buildable.
const EXTERNAL_DEP_ALLOWLIST: &[(&str, &[&str])] = &[
    ("audb", &["proptest", "rand"]),
    ("audb-competitors", &["rand"]),
    ("audb-conheap", &["proptest"]),
    ("audb-core", &["proptest"]),
    ("audb-native", &["proptest"]),
    ("audb-rel", &["proptest"]),
    ("audb-workloads", &["rand"]),
    ("audb-worlds", &["rand"]),
];

/// Rule 6: `zero-dep-crates` — a line-oriented scan of one manifest.
fn check_manifest(m: &Manifest, out: &mut Vec<Diagnostic>) {
    let mut crate_name = String::new();
    for line in m.source.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                crate_name = rest.trim().trim_matches('"').to_string();
                break;
            }
        }
    }
    let allowed: &[&str] = EXTERNAL_DEP_ALLOWLIST
        .iter()
        .find(|(n, _)| *n == crate_name)
        .map(|(_, deps)| *deps)
        .unwrap_or(&[]);

    let mut in_dep_section = false;
    for (lineno, raw) in m.source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // Only plain [dependencies] / [dev-dependencies] — not
            // [workspace.dependencies], which *defines* the shared set.
            in_dep_section = line == "[dependencies]" || line == "[dev-dependencies]";
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
            .collect();
        if name.is_empty() || name == "audb" || name.starts_with("audb-") {
            continue;
        }
        if !allowed.contains(&name.as_str()) {
            out.push(Diagnostic {
                rule: "zero-dep-crates",
                file: m.rel_path.clone(),
                line: lineno as u32 + 1,
                col: 1,
                message: format!(
                    "crate `{crate_name}` declares external dependency `{name}` \
                     not on its allowlist"
                ),
                hint: hint_for("zero-dep-crates"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn diags_for(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![SourceFile::parse(path, src)],
            manifests: vec![],
        };
        check_workspace(&ws)
    }

    #[test]
    fn panic_rule_fires_only_in_scope() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(diags_for("crates/server/src/wire.rs", src).len(), 1);
        assert_eq!(diags_for("crates/core/src/physical.rs", src).len(), 1);
        assert_eq!(diags_for("crates/core/src/expr.rs", src).len(), 1);
        assert!(diags_for("crates/bench/src/perf.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_spares_method_definitions_and_similar_names() {
        // Defining a method *named* expect, or calling unwrap_or, is fine.
        let src =
            "impl P { fn expect(&mut self, b: u8) {} }\nfn g(o: Option<u8>) { o.unwrap_or(0); }";
        assert!(diags_for("crates/server/src/json.rs", src).is_empty());
    }

    #[test]
    fn unreachable_is_deliberately_legal() {
        // `unreachable!` marks proven-dead arms; unlike unwrap/expect it
        // cannot be reached by bad input if the proof holds, and the
        // proof is what the adjacent match is for.
        let src = "fn f(x: u8) { match x { 0 => {} _ => unreachable!() } }";
        assert!(diags_for("crates/core/src/columns.rs", src).is_empty());
    }

    #[test]
    fn atomic_rule_wants_ordering_comment() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        let good = "fn f(a: &AtomicU64) {\n    // Relaxed ordering: monotonic counter, no publication.\n    a.load(Ordering::Relaxed);\n}";
        let d = diags_for("crates/x/src/lib.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "atomic-ordering-justified");
        assert!(diags_for("crates/x/src/lib.rs", good).is_empty());
        // std::cmp::Ordering is not an atomic ordering.
        let cmp = "fn f() { let _ = Ordering::Equal; }";
        assert!(diags_for("crates/x/src/lib.rs", cmp).is_empty());
    }

    #[test]
    fn spawn_rule_scopes_to_par_and_server() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(diags_for("crates/bench/src/serve.rs", src).len(), 1);
        assert!(diags_for("crates/par/src/lib.rs", src).is_empty());
        assert!(diags_for("crates/server/src/server.rs", src).is_empty());
        let builder = "fn f() { std::thread::Builder::new(); }";
        assert_eq!(diags_for("crates/bench/src/serve.rs", builder).len(), 1);
    }

    #[test]
    fn backend_rule_catches_crates_and_bare_names() {
        let d = diags_for(
            "crates/workloads/src/runner.rs",
            "use audb_rewrite::rewr_sort;\nfn f() { sort_native(&r, &o, \"p\"); }",
        );
        assert_eq!(d.len(), 2);
        assert!(diags_for(
            "crates/engine/src/backend.rs",
            "fn f() { audb_native::sort_native(); }"
        )
        .is_empty());
        // Defining a fn with a backend-ish name is not a call.
        assert!(diags_for("crates/x/src/lib.rs", "pub fn rewrite_sort() {}").is_empty());
    }

    /// The backend-call scope names engine files one by one: the pipelined
    /// runner is inside it, its neighbors are not — the scope must not leak.
    #[test]
    fn backend_rule_scope_stops_at_named_files() {
        let src = "fn f() { let s = sort_ref(&r, &o, \"p\", sem); }";
        assert_eq!(diags_for("crates/engine/src/plan.rs", src).len(), 1);
        assert!(diags_for("crates/engine/src/exec/run.rs", src).is_empty());
        assert_eq!(diags_for("crates/engine/src/exec/lower.rs", src).len(), 1);
    }

    #[test]
    fn wallclock_rule_scopes_to_kernels() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(diags_for("crates/core/src/expr.rs", src).len(), 1);
        assert_eq!(diags_for("crates/engine/src/exec/lower.rs", src).len(), 1);
        assert_eq!(diags_for("crates/native/src/window.rs", src).len(), 1);
        assert!(diags_for("crates/engine/src/exec/run.rs", src).is_empty());
    }

    #[test]
    fn transpose_rule_scopes_to_executor_kernels_and_encoder() {
        let src = "fn f(c: &AuColumns) { let r = c.to_rows(); r.to_columns(); }";
        for path in [
            "crates/engine/src/exec/run.rs",
            "crates/native/src/sort.rs",
            "crates/native/src/window.rs",
            "crates/server/src/wire.rs",
        ] {
            assert_eq!(diags_for(path, src).len(), 2, "{path}");
        }
        // The doors: the session, the row oracles, a subscription.
        for path in [
            "crates/engine/src/session.rs",
            "crates/engine/src/backend.rs",
            "crates/native/src/maintain.rs",
        ] {
            assert!(diags_for(path, src).is_empty(), "{path}");
        }
        // Tests compare rows; defining such a method is not calling it.
        let tests =
            "#[cfg(test)]\nmod tests { fn t(c: &AuColumns) { c.to_rows(); } }\nfn to_rows() {}";
        assert!(diags_for("crates/server/src/wire.rs", tests).is_empty());
    }

    #[test]
    fn error_impl_rule_aggregates_across_files() {
        let decl = SourceFile::parse("crates/x/src/error.rs", "pub enum FooError { A }");
        let imp = SourceFile::parse(
            "crates/x/src/lib.rs",
            "impl std::error::Error for FooError {}",
        );
        let missing = check_workspace(&Workspace {
            files: vec![SourceFile::parse(
                "crates/x/src/error.rs",
                "pub enum FooError { A }",
            )],
            manifests: vec![],
        });
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, "error-impls-std-error");
        let ok = check_workspace(&Workspace {
            files: vec![decl, imp],
            manifests: vec![],
        });
        assert!(ok.is_empty());
    }

    #[test]
    fn manifest_rule_enforces_allowlist() {
        let m = Manifest {
            rel_path: "crates/sql/Cargo.toml".into(),
            source: "[package]\nname = \"audb-sql\"\n[dependencies]\naudb-rel.workspace = true\nrand.workspace = true\n".into(),
        };
        let ws = Workspace {
            files: vec![],
            manifests: vec![m],
        };
        let d = check_workspace(&ws);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "zero-dep-crates");
        assert_eq!(d[0].line, 5);
        assert!(d[0].message.contains("rand"));
    }

    #[test]
    fn workspace_dependencies_section_is_not_a_dep_section() {
        let m = Manifest {
            rel_path: "Cargo.toml".into(),
            source: "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n[package]\nname = \"audb\"\n".into(),
        };
        let d = check_workspace(&Workspace {
            files: vec![],
            manifests: vec![m],
        });
        assert!(d.is_empty());
    }

    #[test]
    fn allow_suppresses_and_malformed_allow_reports() {
        let src = "\
fn f(o: Option<u8>) {\n\
    // lint: allow(no-panic-hot-path) -- bound checked two lines up\n\
    o.unwrap();\n\
    o.unwrap(); // lint: allow(no-panic-hot-path)\n\
}";
        let d = diags_for("crates/server/src/wire.rs", src);
        // Line 3 suppressed; line 4's allow is missing its reason, so both
        // the violation and the malformed directive report.
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|d| d.rule == "no-panic-hot-path" && d.line == 4));
        assert!(d.iter().any(|d| d.rule == "allow-malformed" && d.line == 4));
    }

    #[test]
    fn diagnostics_are_sorted_and_spanned() {
        let src = "fn f(o: Option<u8>) { o.unwrap(); o.expect(\"x\"); }";
        let d = diags_for("crates/server/src/wire.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d[0].col < d[1].col);
        assert_eq!(d[0].line, 1);
        let rendered = d[0].to_string();
        assert!(rendered.starts_with("crates/server/src/wire.rs:1:"));
        assert!(rendered.contains("hint:"));
    }
}
