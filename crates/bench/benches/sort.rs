//! Criterion microbenchmarks for uncertain sorting and top-k
//! (statistically robust counterpart of Figs. 11 and 14; the `repro`
//! binary prints the full paper-style tables). The AU-DB methods are
//! driven through the unified engine: one plan per input, one backend per
//! measured cell.

use audb_engine::{CmpSemantics, Engine, Query};
use audb_native::sort_native_staged;
use audb_workloads::runner::{self, sort_plan};
use audb_workloads::synthetic::{gen_sort_table, SyntheticConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};

fn bench_sort_methods(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/methods");
    g.sample_size(10);
    let table = gen_sort_table(&SyntheticConfig::default().rows(4_000).seed(1));
    let order = [0usize, 1];
    let plan = sort_plan(&table, &order, None);
    let world = table.most_likely_world();

    g.bench_function("det", |b| {
        b.iter(|| audb_rel::sort_to_pos(&world, &order, "pos"))
    });
    g.bench_function("imp", |b| {
        b.iter(|| Engine::native().execute(&plan).unwrap())
    });
    g.bench_function("rewr", |b| {
        b.iter(|| Engine::rewrite().execute(&plan).unwrap())
    });
    g.bench_function("mcdb10", |b| {
        b.iter(|| audb_competitors::mcdb_sort_bounds(&table, &order, 10, 1))
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/topk");
    g.sample_size(10);
    let table = gen_sort_table(&SyntheticConfig::default().rows(4_000).seed(2));
    let order = [0usize, 1];
    for k in [2u64, 10, 100] {
        let plan = sort_plan(&table, &order, Some(k));
        g.bench_with_input(BenchmarkId::new("imp", k), &k, |b, _| {
            b.iter(|| Engine::native().execute(&plan).unwrap())
        });
    }
    g.finish();
}

/// Rows per size of `sort/scaling`, cache-resident to far past cache; CI
/// holds the per-row cost at 262 144 rows against the 32 768-row one of
/// the same run.
const SCALING_ROWS: [usize; 6] = [1_000, 4_000, 16_000, 32_768, 262_144, 1_048_576];

fn bench_sort_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/scaling");
    g.sample_size(10);
    for n in SCALING_ROWS {
        g.throughput(Throughput::Elements(n as u64));
        // Generated inside the closure: a filtered-out size costs nothing.
        g.bench_with_input(BenchmarkId::new("imp", n), &n, |b, &n| {
            let table = gen_sort_table(&SyntheticConfig::default().rows(n).seed(3));
            let plan = sort_plan(&table, &[0, 1], None);
            b.iter(|| Engine::native().execute(&plan).unwrap())
        });
    }
    g.finish();
}

/// Where one native sort of 32 768 rows spends its time: each cell charges
/// one stage of `sort_native_staged` (DESIGN.md §3.3 has the table).
fn bench_sort_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/stages");
    g.sample_size(10);
    for stage in ["encode", "rank", "merge", "sweep", "materialise"] {
        g.bench_function(stage, |b| {
            let table = gen_sort_table(&SyntheticConfig::default().rows(32_768).seed(3));
            let rel = table.to_au_relation();
            b.iter_custom(|iters| {
                let mut charged = Duration::ZERO;
                for _ in 0..iters {
                    let mut last = Instant::now();
                    let sorted = sort_native_staged(&rel, &[0, 1], "pos", None, &mut |ended| {
                        let now = Instant::now();
                        if ended == stage {
                            charged += now - last;
                        }
                        last = now;
                    });
                    black_box(sorted);
                }
                charged
            })
        });
    }
    g.finish();
}

fn bench_cmp_semantics(c: &mut Criterion) {
    // Ablation: exact interval-lex vs the paper's syntactic recursion in
    // the quadratic reference (DESIGN.md §3.2). Both run the same plan on
    // the reference backend, differing only in the comparison semantics.
    let mut g = c.benchmark_group("sort/cmp-semantics");
    g.sample_size(10);
    let table = gen_sort_table(&SyntheticConfig::default().rows(600).seed(4));
    let plan = Query::scan(table.to_au_relation())
        .sort_by([0usize, 1])
        .build()
        .expect("ablation sort plan");
    g.bench_function("interval-lex", |b| {
        b.iter(|| Engine::reference().execute(&plan).unwrap())
    });
    g.bench_function("syntactic", |b| {
        b.iter(|| {
            Engine::reference()
                .with_semantics(CmpSemantics::Syntactic)
                .execute(&plan)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_exact_competitors(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/exact-competitors");
    g.sample_size(10);
    let table = gen_sort_table(&SyntheticConfig::default().rows(1_000).seed(5));
    let order = [0usize, 1];
    g.bench_function("symb", |b| {
        b.iter(|| audb_competitors::symb_sort_bounds(&table, &order))
    });
    g.bench_function("ptk_k10", |b| {
        b.iter(|| audb_competitors::ptk_topk_probs(&table, &order, 10))
    });
    let _ = runner::det_sort(&table, &order, None); // keep runner linked
    g.finish();
}

criterion_group!(
    benches,
    bench_sort_methods,
    bench_topk,
    bench_sort_scaling,
    bench_sort_stages,
    bench_cmp_semantics,
    bench_exact_competitors
);
criterion_main!(benches);
