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
    let cache = Arc::new(PlanCache::default());

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
                // Queries start once the publisher has published: on a busy
                // host the workers could otherwise finish before it ran.
                while catalog.version() <= 2 {
                    std::thread::yield_now();
                }
                let session = Session::with_catalog(Engine::native(), catalog);
                for i in 0..ITERS {
                    let pick = (tid + i) % QUERIES.len();
                    let sql = QUERIES[pick];
                    // Rotate through the three client paths the server uses.
                    let got = match i % 3 {
                        0 => session.sql(sql).unwrap(),
                        1 => {
                            let prepared = session.prepare(sql).unwrap();
                            session.execute(&prepared).unwrap().to_rows()
                        }
                        _ => {
                            let (prepared, _hit) = session.prepare_cached(&cache, sql).unwrap();
                            session.execute(&prepared).unwrap().to_rows()
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
    let expected = session.execute(&prepared).unwrap().to_rows();

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
        let got = session.execute(&prepared).unwrap().to_rows();
        assert!(got.bag_eq(&expected));
    }
    publisher.join().unwrap();
}

/// Readers racing an appender on the stored columnar form: eight threads
/// issue one filtered top-k text from the moment version 1 is published,
/// while a ninth appends rows that enter the answer. Every answer is the
/// single-threaded answer for the version its plan bound to; all plans of
/// one version read one handle; and across versions the segments are
/// shared, the tail is per version — every version holds the registered
/// segment itself and a tail of exactly the rows appended up to it.
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
    let registered = Arc::clone(&catalog.snapshot().get("t").unwrap().segments()[0]);
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
                    let answer = session.execute(&prepared).unwrap().to_rows();
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
    let mut forms: BTreeMap<usize, &Arc<audb::engine::Table>> = BTreeMap::new();
    for (prepared, answer) in &seen {
        let table = prepared.plan().source_columns();
        let rows = table.len();
        assert!(
            answer.bag_eq(&expected[&rows]),
            "divergent answer on the {rows}-row version"
        );
        assert!(
            Arc::ptr_eq(forms.entry(rows).or_insert(table), table),
            "two handles for the {rows}-row version"
        );
    }
    let mut tails: Vec<*const audb::engine::Segment> = Vec::new();
    for (&rows, table) in &forms {
        let segments = table.segments();
        assert!(Arc::ptr_eq(&segments[0], &registered), "{rows}-row version");
        let appended = rows - BASE_ROWS as usize;
        match segments {
            [_] => assert_eq!(appended, 0),
            [_, tail] => {
                assert_eq!(tail.columns().len(), appended);
                tails.push(Arc::as_ptr(tail));
            }
            more => panic!("{} segments under the seal", more.len()),
        }
    }
    tails.sort_unstable();
    tails.dedup();
    assert_eq!(
        tails.len(),
        forms.len() - usize::from(forms.contains_key(&(BASE_ROWS as usize)))
    );
    // Each reader's last statement started after the last append.
    assert!(forms.contains_key(&((BASE_ROWS + APPENDS * BATCH) as usize)));
}

/// Appenders racing each other (and a re-registration of another table):
/// an append builds its grown table outside the catalog's write lock and
/// publishes only if the table is still the version it grew, so racing
/// appends must neither lose a batch nor publish one twice, and a table
/// no publication names must keep its handle throughout.
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
    let table = snapshot.get("t").unwrap();
    let mut ids: Vec<i64> = (table.contiguous().to_rows().rows().iter())
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
    assert_eq!(table.len(), ids.len());
    let swept: usize = table.segments().iter().map(|s| s.stats().rows).sum();
    assert_eq!(swept, ids.len());

    // `before` is still alive, so its form's address cannot be reused.
    let after = session.prepare("SELECT id FROM untouched").unwrap();
    assert!(Arc::ptr_eq(
        before.plan().source_columns(),
        after.plan().source_columns()
    ));
}

/// A statement pinned to one version keeps answering with exactly that
/// version's rows — its open tail included — while an appender grows the
/// table past two seals; and what the appender publishes shares: between
/// consecutive versions every segment but the old open tail is the same
/// object, exactly one segment is new, and the registered segment is the
/// same object throughout.
#[test]
fn a_pinned_version_keeps_its_rows_while_appends_seal_segments() {
    use audb::core::{AuTuple, Mult3, RangeValue};
    use audb::engine::SEGMENT_ROWS;
    use audb::rel::Schema;

    const BASE_ROWS: usize = 300;
    const BATCH: usize = 257;
    const APPENDS: usize = 2 * SEGMENT_ROWS / BATCH + 3;
    const SQL: &str = "SELECT id FROM t WHERE id >= 200 ORDER BY id AS pos";

    let rows = |from: usize, n: usize| {
        AuRelation::from_rows(
            Schema::new(["id"]),
            (from..from + n).map(|id| (AuTuple::new([RangeValue::certain(id as i64)]), Mult3::ONE)),
        )
    };
    let catalog = SharedCatalog::new();
    catalog.register("t", rows(0, BASE_ROWS));
    // The pinned version has an open tail of its own.
    catalog.append("t", &rows(BASE_ROWS, 5)).unwrap();
    let session = Session::with_catalog(Engine::native(), catalog.clone());
    let pinned = session.prepare(SQL).unwrap();
    let expected = session.execute(&pinned).unwrap().to_rows();
    assert_eq!(expected.len(), BASE_ROWS + 5 - 200);
    let first = catalog.snapshot();

    let done = Arc::new(AtomicBool::new(false));
    let appender = {
        let (catalog, done) = (catalog.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            // The only writer: each snapshot is the version its append made.
            let versions: Vec<_> = (0..APPENDS)
                .map(|j| {
                    let from = BASE_ROWS + 5 + j * BATCH;
                    catalog.append("t", &rows(from, BATCH)).unwrap();
                    catalog.snapshot()
                })
                .collect();
            done.store(true, Ordering::Release);
            versions
        })
    };
    loop {
        let last = done.load(Ordering::Acquire);
        assert!(session
            .execute(&pinned)
            .unwrap()
            .to_rows()
            .bag_eq(&expected));
        if last {
            break;
        }
    }
    let mut versions = vec![first];
    versions.extend(appender.join().expect("appender panicked"));

    let registered = &versions[0].get("t").unwrap().segments()[0];
    for pair in versions.windows(2) {
        let (old, new) = (pair[0].get("t").unwrap(), pair[1].get("t").unwrap());
        assert_eq!(new.len(), old.len() + BATCH);
        assert!(Arc::ptr_eq(&new.segments()[0], registered));
        let (old, new) = (old.segments(), new.segments());
        let is_old = |s: &Arc<audb::engine::Segment>| old.iter().any(|o| Arc::ptr_eq(o, s));
        assert_eq!(new.iter().filter(|s| !is_old(s)).count(), 1);
        // Whatever the old version had sealed sits where it sat.
        let open = old.len() > 1 && old[old.len() - 1].columns().len() < SEGMENT_ROWS;
        let sealed = old.len() - usize::from(open);
        assert!(old[..sealed]
            .iter()
            .zip(new)
            .all(|(o, n)| Arc::ptr_eq(o, n)));
        assert_eq!(new.len(), sealed + 1);
    }
    let last = versions[APPENDS].get("t").unwrap();
    assert_eq!(last.len(), BASE_ROWS + 5 + APPENDS * BATCH);
    let sealed = (last.segments()[1..].iter())
        .filter(|s| s.columns().len() >= SEGMENT_ROWS)
        .count();
    assert!(sealed >= 2, "{sealed} sealed appended segments");
    // A fresh statement reads them all; the pinned one never did.
    assert_eq!(session.sql(SQL).unwrap().len(), last.len() - 200);
    assert!(session
        .execute(&pinned)
        .unwrap()
        .to_rows()
        .bag_eq(&expected));
}
