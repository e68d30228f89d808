//! Concurrency stress: many sessions over one `SharedCatalog` and one
//! `PlanCache`, racing queries against catalog publications, must return
//! exactly what a single-threaded session returns.
//!
//! The invariant under test is the service layer's snapshot rule: a query
//! binds against the snapshot current when it starts and finishes on that
//! snapshot, so concurrent re-registrations of *identical* table contents
//! (which bump the catalog version and invalidate the plan cache, but not
//! the semantics) can never change any result. Every result from every
//! thread is checked bag-equal to the single-threaded reference.

use audb::core::AuRelation;
use audb::engine::{Engine, Session};
use audb::workloads::csvload;
use audb::{PlanCache, SharedCatalog};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const ITERS: usize = 40;

/// The mixed workload: ranking, filters, windows, subqueries — the same
/// statement shapes the demo script exercises.
const QUERIES: &[&str] = &[
    "SELECT * FROM products ORDER BY price AS rank LIMIT 2",
    "SELECT sku, price FROM products WHERE price < RANGE(9, 9, 16) ORDER BY price",
    "SELECT sku, price * 2 AS doubled FROM products ORDER BY doubled LIMIT 3",
    "SELECT *, SUM(temp) OVER (PARTITION BY site ORDER BY t \
     ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS rolling FROM readings",
    "SELECT t, site, MIN(temp) OVER (ORDER BY t ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS low \
     FROM (SELECT * FROM readings WHERE temp <= 30)",
    "SELECT site, temp FROM readings WHERE site < 2 ORDER BY temp LIMIT 4",
];

fn load_catalog() -> (SharedCatalog, Arc<AuRelation>, Arc<AuRelation>) {
    let products = Arc::new(csvload::load_au_csv("workloads/products.csv").unwrap());
    let readings = Arc::new(csvload::load_au_csv("workloads/readings.csv").unwrap());
    let catalog = SharedCatalog::new();
    catalog.register("products", Arc::clone(&products));
    catalog.register("readings", Arc::clone(&readings));
    (catalog, products, readings)
}

#[test]
fn concurrent_sessions_match_single_threaded_reference() {
    let (catalog, products, readings) = load_catalog();
    let cache = Arc::new(PlanCache::new(32));

    // Single-threaded reference, computed up front on a private session.
    let reference: Vec<AuRelation> = {
        let session = Session::with_catalog(Engine::native(), catalog.clone());
        QUERIES
            .iter()
            .map(|q| session.sql(q).unwrap().normalize())
            .collect()
    };

    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));

    // A publisher thread churns the catalog the whole time: re-registers
    // the same table contents (version bumps, cache invalidation) and
    // registers/deregisters a scratch table queries never touch.
    let publisher = {
        let catalog = catalog.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                catalog.register("products", Arc::clone(&products));
                catalog.register("readings", Arc::clone(&readings));
                catalog.register(format!("scratch_{}", round % 4), Arc::clone(&products));
                catalog.deregister(&format!("scratch_{}", (round + 2) % 4));
                round += 1;
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let catalog = catalog.clone();
            let cache = Arc::clone(&cache);
            let reference = reference.clone();
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let session = Session::with_catalog(Engine::native(), catalog);
                for i in 0..ITERS {
                    let pick = (tid + i) % QUERIES.len();
                    let sql = QUERIES[pick];
                    // Rotate through the three client paths the server uses.
                    let got = match i % 3 {
                        0 => session.sql(sql).unwrap(),
                        1 => {
                            let prepared = session.prepare(sql).unwrap();
                            session.execute(&prepared).unwrap()
                        }
                        _ => {
                            let (prepared, _hit) = session.prepare_cached(&cache, sql).unwrap();
                            session.execute(&prepared).unwrap()
                        }
                    };
                    assert!(
                        got.bag_eq(&reference[pick]),
                        "thread {tid} iter {i}: divergent result for {sql:?}"
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    for worker in workers {
        worker.join().expect("worker thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().expect("publisher thread panicked");

    assert_eq!(checked.load(Ordering::Relaxed), (THREADS * ITERS) as u64);
    // The cache saw real traffic; invalidation-by-version kept it bounded.
    let stats = cache.stats();
    assert!(stats.hits + stats.misses > 0, "plan cache never consulted");
    assert!(stats.len <= 32, "plan cache exceeded its capacity");
    // The publisher actually churned versions while queries ran.
    assert!(catalog.version() > 2, "publisher never published");
}

#[test]
fn prepared_statements_survive_concurrent_republication() {
    let (catalog, products, _readings) = load_catalog();
    let session = Session::with_catalog(Engine::native(), catalog.clone());
    let prepared = session
        .prepare("SELECT * FROM products ORDER BY price AS rank LIMIT 2")
        .unwrap();
    let expected = session.execute(&prepared).unwrap();

    let publisher = {
        let catalog = catalog.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                catalog.register("products", Arc::clone(&products));
            }
        })
    };
    // The prepared plan is pinned to its bind-time snapshot: concurrent
    // publication of the same contents never perturbs its output.
    for _ in 0..200 {
        let got = session.execute(&prepared).unwrap();
        assert!(got.bag_eq(&expected));
    }
    publisher.join().unwrap();
}

/// Readers racing an appender on the shared columnar form: eight threads
/// issue one filtered top-k text from the moment version 1 is published —
/// all of them reach the table's not-yet-built columns together — while a
/// ninth appends rows that enter the answer. Every answer is the
/// single-threaded answer for the version its plan bound to, and all plans
/// of one version read one columnar form.
#[test]
fn racing_readers_share_one_columnar_form_per_version() {
    use audb::core::{AuTuple, Mult3, RangeValue};
    use audb::rel::Schema;
    use std::collections::BTreeMap;
    use std::sync::Barrier;

    const BASE_ROWS: i64 = 1500;
    const APPENDS: i64 = 24;
    const BATCH: i64 = 4;
    const SQL: &str = "SELECT id, v FROM t WHERE id < 700 ORDER BY v, id AS pos LIMIT 5";

    let schema = Schema::new(["id", "v"]);
    let base = AuRelation::from_rows(
        schema.clone(),
        (0..BASE_ROWS).map(|id| {
            let v = 1000 + (id * 7919) % BASE_ROWS;
            (
                AuTuple::new([RangeValue::certain(id), RangeValue::new(v - 1, v, v + 2)]),
                Mult3::ONE,
            )
        }),
    );
    // Batch `j` passes the filter (negative ids) and undercuts every `v`
    // stored before it, so each version has its own top 5.
    let batch_schema = schema.clone();
    let batch = move |j: i64| {
        AuRelation::from_rows(
            batch_schema.clone(),
            (0..BATCH).map(|i| {
                let n = j * BATCH + i;
                (
                    AuTuple::new([RangeValue::certain(-n - 1), RangeValue::certain(900 - n)]),
                    Mult3::ONE,
                )
            }),
        )
    };

    // The single-threaded answer per version, keyed by the version's row
    // count (which a plan reports through its pinned source).
    let expected: BTreeMap<usize, AuRelation> = {
        let catalog = SharedCatalog::new();
        catalog.register("t", base.clone());
        let session = Session::with_catalog(Engine::native(), catalog.clone());
        let mut answers = BTreeMap::new();
        for j in 0..=APPENDS {
            if j > 0 {
                catalog.append("t", &batch(j - 1)).unwrap();
            }
            let rows = catalog.snapshot().get("t").unwrap().len();
            answers.insert(rows, session.sql(SQL).unwrap().normalize());
        }
        answers
    };
    assert_eq!(expected.len() as i64, APPENDS + 1);

    let catalog = SharedCatalog::new();
    catalog.register("t", base);
    let start = Arc::new(Barrier::new(THREADS + 1));
    let done = Arc::new(AtomicBool::new(false));

    let appender = {
        let (catalog, start, done) = (catalog.clone(), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            for j in 0..APPENDS {
                catalog.append("t", &batch(j)).unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        })
    };
    let readers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (catalog, start, done) = (catalog.clone(), Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                let session = Session::with_catalog(Engine::native(), catalog);
                let mut seen = Vec::new();
                start.wait();
                // At least once after the last append, so the final
                // version is read too.
                loop {
                    let last = done.load(Ordering::Acquire);
                    let prepared = session.prepare(SQL).unwrap();
                    let answer = session.execute(&prepared).unwrap();
                    seen.push((prepared, answer));
                    if last {
                        return seen;
                    }
                }
            })
        })
        .collect();

    appender.join().expect("appender panicked");
    // Every plan is kept until here, so one version's handle cannot be
    // freed and its address reused while the comparison runs.
    let seen: Vec<_> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader panicked"))
        .collect();
    let mut forms: BTreeMap<usize, *const audb::core::AuColumns> = BTreeMap::new();
    for (prepared, answer) in &seen {
        let rows = prepared.plan().source().len();
        assert!(
            answer.bag_eq(&expected[&rows]),
            "divergent answer on the {rows}-row version"
        );
        let form: *const _ = prepared.plan().source_columns();
        assert_eq!(
            *forms.entry(rows).or_insert(form),
            form,
            "two columnar forms for the {rows}-row version"
        );
    }
    // Each reader's last statement started after the last append.
    assert!(forms.contains_key(&((BASE_ROWS + APPENDS * BATCH) as usize)));
}

/// Appenders racing each other (and a re-registration of another table):
/// an append builds its grown table outside the catalog's write lock and
/// publishes only if the table is still the version it grew, so racing
/// appends must neither lose a batch nor publish one twice, and a table
/// no publication names must keep its handle — and the columnar form
/// hanging off it — throughout.
#[test]
fn racing_appenders_lose_no_batch() {
    use audb::core::{AuTuple, Mult3, RangeValue};
    use audb::rel::{Schema, Value};
    use std::sync::Barrier;

    const APPENDERS: i64 = 4;
    const APPENDS: i64 = 50;
    const BATCH: i64 = 3;
    const BASE_ROWS: i64 = 1500;

    // Base ids are negative; appended ids count up from 0.
    let rows = |ids: std::ops::Range<i64>| {
        AuRelation::from_rows(
            Schema::new(["id"]),
            ids.map(|id| (AuTuple::new([RangeValue::certain(id)]), Mult3::ONE)),
        )
    };
    let catalog = SharedCatalog::new();
    catalog.register("t", rows(-BASE_ROWS..0));
    catalog.register("other", rows(0..8));
    catalog.register("untouched", rows(0..8));
    let session = Session::with_catalog(Engine::native(), catalog.clone());
    let before = session.prepare("SELECT id FROM untouched").unwrap();

    let start = Arc::new(Barrier::new(APPENDERS as usize + 1));
    let done = Arc::new(AtomicBool::new(false));
    let appenders: Vec<_> = (0..APPENDERS)
        .map(|a| {
            let (catalog, start) = (catalog.clone(), Arc::clone(&start));
            let batches: Vec<AuRelation> = (a * APPENDS..(a + 1) * APPENDS)
                .map(|j| rows(j * BATCH..(j + 1) * BATCH))
                .collect();
            std::thread::spawn(move || {
                start.wait();
                let appended = batches.iter().map(|b| catalog.append("t", b).unwrap());
                appended.collect::<Vec<(usize, u64)>>()
            })
        })
        .collect();
    let publisher = {
        let (catalog, start, done) = (catalog.clone(), Arc::clone(&start), Arc::clone(&done));
        let other = Arc::new(rows(0..8));
        std::thread::spawn(move || {
            start.wait();
            while !done.load(Ordering::Acquire) {
                catalog.register("other", Arc::clone(&other));
                std::thread::yield_now();
            }
        })
    };
    for appender in appenders {
        // Each appender sees the catalog version strictly increase.
        let published = appender.join().expect("appender panicked");
        assert!(published.windows(2).all(|w| w[0].1 < w[1].1));
    }
    done.store(true, Ordering::Release);
    publisher.join().expect("publisher panicked");

    // The final table holds the base and every appended id exactly once.
    let snapshot = catalog.snapshot();
    let mut ids: Vec<i64> = (snapshot.get("t").unwrap().rows().iter())
        .map(|row| match row.tuple.0[0].sg {
            Value::Int(id) => id,
            ref other => panic!("non-integer id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (-BASE_ROWS..APPENDERS * APPENDS * BATCH).collect::<Vec<_>>()
    );
    assert_eq!(snapshot.stats("t").unwrap().rows, ids.len());

    // `before` is still alive, so its form's address cannot be reused.
    let after = session.prepare("SELECT id FROM untouched").unwrap();
    assert!(std::ptr::eq(
        before.plan().source_columns(),
        after.plan().source_columns()
    ));
}
