//! # audb-lint — the workspace invariant checker
//!
//! A dependency-free, token-level Rust source scanner (same hand-rolled
//! discipline as `audb-sql`'s lexer and `audb-server`'s HTTP layer) that
//! walks the workspace and enforces the repo's correctness conventions
//! as structured, spanned diagnostics. The paper's value proposition is
//! *guaranteed* under/over-approximation of certain and possible
//! answers; the invariants below are what keep that guarantee true as
//! the code grows, and until this crate existed they were enforced only
//! by convention:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-hot-path` | kernels and the server request path return errors, never panic |
//! | `atomic-ordering-justified` | every atomic ordering literal is argued for in a comment |
//! | `unsafe-safety-comment` | every `unsafe` carries an adjacent `// SAFETY:` proof |
//! | `no-raw-spawn` | threads come from `audb-par` or the server pool, nowhere else |
//! | `no-direct-backend-call` | all execution flows through `Engine`/`Session` (PR 2) |
//! | `zero-dep-crates` | per-crate external-dependency allowlist (sql/server/par/lint std-only) |
//! | `no-wallclock-in-kernels` | kernels read no clock; they report stages to a `Stages` sink |
//! | `error-impls-std-error` | every public error type is a real `std::error::Error` |
//!
//! Escape hatch: `// lint: allow(rule-id) -- reason` on (or directly
//! above) the offending line. The reason is mandatory — a reasonless or
//! unknown-rule allow is itself reported (`allow-malformed`).
//!
//! Run it as `repro lint [--json] [--rule ID] [--list]`; the workspace
//! must come back clean (`cargo test -p audb-lint` enforces this, which
//! puts the linter in the tier-1 gate). See DESIGN.md §12 for the rule
//! catalog rationale and how to add a rule.

pub mod cli;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use cli::{cli, render_json, run, LintArgs, Report};
pub use rules::{Diagnostic, Rule, RULES};
pub use scan::{Manifest, SourceFile, Workspace};
