//! # audb-bench — the evaluation harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (Sec. 8.2 + Sec. 9): the `repro` binary prints the paper's numbers
//! beside ours (`cargo run --release -p audb-bench --bin repro -- all`;
//! committing that record is ROADMAP item 1). `repro bench` ([`perf`]) is
//! the in-repo performance harness: it measures what the repo benchmark
//! (`benchmark/`) does not, checks its within-run gates and fails on them.

pub mod figures;
pub mod heaps;
pub mod perf;
pub mod serve;
pub mod sqlcli;
pub mod table;
