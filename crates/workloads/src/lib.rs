//! # audb-workloads — workload generators, method drivers, quality metrics
//!
//! Everything the evaluation harness (crate `audb-bench`) consumes:
//!
//! * [`synthetic`] — the Sec. 9.1 microbenchmark generator (`n` rows, `u`%
//!   uncertainty, attribute range `r`; defaults 50k / 5% / 1k);
//! * [`real`] — statistical simulators of the Iceberg / Crimes / Healthcare
//!   datasets with the six Sec. 9.2 queries (substitutions documented in
//!   DESIGN.md §2);
//! * [`runner`] — uniform timed drivers for every compared method (`Det`,
//!   `Imp`, `Rewr`, `Rewr(index)`, `MCDB`, `Symb`, `PT-k`) producing
//!   per-input-tuple bounds;
//! * [`metrics`] — recall / accuracy / estimated-range (Sec. 9 formulas);
//! * [`convert`] — AU-relation ⇄ x-tuple bridging for pre-aggregated
//!   queries;
//! * [`csvload`] — CSV → AU-relation loading (the `_lb`/`_ub` + `mult_*`
//!   header convention behind `repro sql`).

pub mod convert;
pub mod csvload;
pub mod metrics;
pub mod real;
pub mod runner;
pub mod synthetic;

pub use convert::xtuple_from_au;
pub use csvload::{load_au_csv, load_au_dir, read_au_csv, read_au_csv_columns};
pub use metrics::{aggregate_quality, bound_quality, BoundQuality, QualityStats};
pub use real::{all_datasets, crimes, healthcare, iceberg, RankQuery, RealDataset, WindowQuery};
pub use synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};
