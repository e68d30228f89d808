//! The repo benchmark: generated inputs, an independent oracle, four
//! work-boxed workloads, and — in `bench-trace` only — spans around the
//! calls into each layer. `README.md` in this directory is the manual.

pub mod adapter;
pub mod calib;
pub mod cli;
pub mod driver;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod workload;
