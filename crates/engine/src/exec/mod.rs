//! The physical execution layer between [`Plan`](crate::Plan) and the
//! methods. One way to run a plan per method — nothing selects between
//! them — and one relation form per runner:
//!
//! * The row oracles ([`Reference`](crate::Reference),
//!   [`Rewrite`](crate::Rewrite)) run [`run_materialized`]: the
//!   operator-at-a-time loop over the Defs. 2–3 row operators of
//!   `audb-core` and the oracle's own breaker hooks, a full
//!   [`AuRelation`](audb_core::AuRelation) between steps. It shares no
//!   select/project code with what it checks.
//! * The native method is [`run_pipelined`], the batch-streaming executor
//!   at every input size: a [`lower`] pass splits the chain into
//!   [`Pipeline`]s, fusing adjacent `select`/`project` operators into a
//!   single per-batch closure chain, and marking the order-based
//!   operators (`sort` — limited or not — and `window`:
//!   [`Op::is_breaker`](crate::Op::is_breaker)) as **pipeline breakers** —
//!   the only points where state is materialized. Each fused stage's
//!   input is columns ([`audb_core::AuColumns`] — the table's stored
//!   segments when the stage reads the scan source unchanged) and
//!   streamed as cache-sized zero-copy
//!   column-slice [`AuBatch`](audb_core::AuBatch) morsels through the
//!   fused chain in parallel (via `audb-par`, with deterministic output
//!   order) as vectorized column sweeps; the single materialized build
//!   side goes to `audb-native`'s columnar kernel.
//!
//! What varies within a method is an argument of its runner:
//! `run_materialized(backend, plan, stages)` takes the oracle — and with
//! it the reference's comparison semantics or the rewrite's join
//! strategy — and `run_pipelined(plan, batch_size, prune, stages)` the
//! batch size and zone-map pruning. An [`Engine`](crate::Engine) passes
//! the defaults; the ablations, within-run baselines and tests that vary
//! one call the runner themselves.
//!
//! Both report each operator — and the native kernels their stages — to
//! the one generic sink they take ([`Stages`]): `Engine::execute` hands
//! them `()`, for which no clock is read and nothing is recorded;
//! `Engine::execute_traced` the [`Recorder`], whose [`ExecTrace`]
//! `Engine::run_all` and `repro bench` read.
//!
//! The semantic contract, property-tested in
//! `tests/pipeline_equivalence.rs`: for every plan and batch size, the
//! native method and `Rewrite` are bag-equal to `Reference`.

mod lower;
mod run;

pub use lower::{lower, Pipeline};
pub(crate) use run::{check_output_rows, count_output_rows};
pub use run::{run_materialized, run_pipelined, ExecTrace, OpTiming, DEFAULT_BATCH_SIZE};
pub use run::{Recorder, Stages};
