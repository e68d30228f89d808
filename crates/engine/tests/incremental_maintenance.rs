//! Property tests for the incremental-maintenance layer: under random
//! interleaved append/query sequences, [`MaintainedQuery`]'s value must
//! stay bag-equal to a full recompute of the same plan over the
//! accumulated rows — on all three backends, from the value `subscribe`
//! reads off the state it builds onward — and replaying the emitted deltas
//! must reconstruct the value exactly. The generators cover in-order
//! streams (incremental fast path), out-of-order batches (rebuild),
//! partition churn, duplicate multiplicities, an uncertain partition value
//! (a rebuild, then incremental again) and a top-k and a window the engine
//! refuses.

use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
use audb_engine::{Catalog, Delta, Engine, Session, SharedCatalog, Strategy, SEGMENT_ROWS};
use audb_rel::Schema;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic xorshift64* stream — tests must not depend on ambient
/// randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn sensor_schema() -> Schema {
    Schema::new(["g", "o", "v"])
}

/// One reading: certain partition `g`, uncertain order key around `t`,
/// uncertain value. `tight` keeps the order-key spread below the stride so
/// consecutive rows never overlap in ORDER BY.
fn reading(rng: &mut Rng, g: i64, t: i64, tight: bool) -> (AuTuple, Mult3) {
    let spread = if tight { rng.below(3) as i64 } else { 6 };
    let v = rng.below(40) as i64 - 20;
    let vs = rng.below(4) as i64;
    let mult = if rng.below(4) == 0 {
        Mult3::new(0, 1, 1)
    } else {
        Mult3::ONE
    };
    (
        AuTuple::new([
            RangeValue::certain(g),
            RangeValue::new(t, t + spread / 2, t + spread),
            RangeValue::new(v, v + vs / 2, v + vs),
        ]),
        mult,
    )
}

fn session_with(sql_table: &AuRelation) -> Session {
    let catalog = SharedCatalog::new();
    catalog.register("s", sql_table.clone());
    Session::with_catalog(Engine::native(), catalog)
}

/// Full recompute of the subscription's plan on `method` over `fed` — the
/// subscribed rows and every batch appended since — the ground truth the
/// maintained value is pinned against.
fn recompute_on(q: &audb_engine::MaintainedQuery, fed: &AuRelation, method: Engine) -> AuRelation {
    let mut catalog = Catalog::new();
    catalog.register("s", fed.clone());
    let plan = q
        .plan()
        .with_table(Arc::clone(catalog.get("s").unwrap()))
        .expect("the rows fed match the plan schema");
    method.execute(&plan).unwrap().to_rows().normalize()
}

fn assert_matches_all_backends(q: &audb_engine::MaintainedQuery, fed: &AuRelation, ctx: &str) {
    let value = q.value().normalize();
    for method in Engine::ALL {
        let truth = recompute_on(q, fed, method);
        assert!(
            value.clone().bag_eq(&truth),
            "{ctx}: maintained value diverged from {method} recompute\n\
             maintained:\n{value}\ntruth:\n{truth}"
        );
    }
}

/// [`assert_matches_all_backends`], and the deltas replayed so far
/// reconstruct the value.
fn assert_exact(q: &audb_engine::MaintainedQuery, fed: &AuRelation, replay: &Replay, ctx: &str) {
    assert_matches_all_backends(q, fed, ctx);
    let value = q.value().normalize();
    assert!(
        replay.value(value.schema.clone()).bag_eq(&value),
        "{ctx}: delta replay diverged from value()"
    );
}

/// Replays deltas over a snapshot: `value_after = value_before − removed +
/// added`, keyed on the row's full triple-of-bounds identity.
#[derive(Default)]
struct Replay(BTreeMap<String, (AuTuple, Mult3)>);

impl Replay {
    fn from_value(rel: &AuRelation) -> Replay {
        let mut map = BTreeMap::new();
        for row in rel.clone().normalize().rows() {
            map.insert(format!("{:?}", row.tuple), (row.tuple.clone(), row.mult));
        }
        Replay(map)
    }
    fn apply(&mut self, delta: &Delta) {
        for (tuple, mult) in &delta.removed {
            let key = format!("{tuple:?}");
            let (_, have) = self.0.remove(&key).unwrap_or_else(|| {
                panic!("delta removed a row the replay does not have: {tuple:?}")
            });
            assert_eq!(
                (have.lb, have.sg, have.ub),
                (mult.lb, mult.sg, mult.ub),
                "delta removed {tuple:?} with the wrong old multiplicity"
            );
        }
        for (tuple, mult) in &delta.added {
            let prev = self.0.insert(format!("{tuple:?}"), (tuple.clone(), *mult));
            assert!(
                prev.is_none(),
                "delta added {tuple:?} on top of an existing entry (missing removal)"
            );
        }
    }
    fn value(&self, schema: Schema) -> AuRelation {
        AuRelation::from_rows(schema, self.0.values().cloned())
    }
}

const ROLLING: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
                       ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS roll FROM s";
const PARTITIONED: &str = "SELECT *, COUNT(*) OVER (PARTITION BY g ORDER BY o \
                           ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c FROM s";
const TOPK: &str = "SELECT g, v FROM s ORDER BY v AS pos LIMIT 4";

#[test]
fn in_order_stream_stays_incremental_and_exact() {
    let mut rng = Rng::new(0xA11CE);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(ROLLING).unwrap();
    assert_matches_all_backends(&q, &fed, "rolling at subscribe");
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for step in 0..40 {
        let rows: Vec<_> = (0..1 + rng.below(6))
            .map(|_| {
                t += 4; // stride 4 > max tight spread 2: strictly in order
                reading(&mut rng, 0, t, true)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        fed.append(&mut batch.clone());
        replay.apply(&delta);
        // Interleave full checks with cheap delta-only steps so the test
        // also covers appends nobody queries between.
        if rng.below(3) == 0 || step > 35 {
            assert_exact(&q, &fed, &replay, &format!("rolling step {step}"));
        }
    }
    assert_eq!(
        q.strategy_counts(),
        (40, 0),
        "an in-order stream never recomputes"
    );
    let explain = q.explain();
    assert!(
        explain.contains("maintain: window incremental\n"),
        "{explain}"
    );
    assert!(
        explain.contains("appends: 40 incremental, 0 recompute"),
        "{explain}"
    );
}

#[test]
fn out_of_order_and_in_order_interleave_exactly() {
    let mut rng = Rng::new(0xB0B);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(ROLLING).unwrap();
    assert_matches_all_backends(&q, &fed, "interleaved at subscribe");
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for step in 0..30 {
        let out_of_order = rng.below(4) == 0 && t > 20;
        let rows: Vec<_> = (0..1 + rng.below(4))
            .map(|_| {
                let at = if out_of_order {
                    // Land strictly inside the accumulated range: forces a
                    // frontier overlap, a recompute, and a state rebuild.
                    rng.below(t.max(1) as u64) as i64
                } else {
                    t += 4;
                    t
                };
                reading(&mut rng, 0, at, true)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        fed.append(&mut batch.clone());
        if out_of_order {
            assert_eq!(
                delta.strategy,
                Strategy::Recompute,
                "step {step}: an overlapping batch must recompute"
            );
        }
        replay.apply(&delta);
        assert_exact(&q, &fed, &replay, &format!("interleaved step {step}"));
    }
    let (incr, _) = q.strategy_counts();
    assert!(incr > 0, "in-order stretches should resume maintenance");
}

#[test]
fn partition_churn_stays_exact() {
    let mut rng = Rng::new(0x5EED);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(PARTITIONED).unwrap();
    assert_matches_all_backends(&q, &fed, "churn at subscribe");
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for step in 0..30 {
        // Partitions appear over time: step 10 has seen up to 4 groups,
        // step 29 up to 10 — each batch may open brand-new sweeps.
        let live = 2 + (step as u64) / 3;
        let rows: Vec<_> = (0..1 + rng.below(5))
            .map(|_| {
                t += 4;
                let g = rng.below(live) as i64;
                reading(&mut rng, g, t, true)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        fed.append(&mut batch.clone());
        replay.apply(&delta);
        if rng.below(2) == 0 || step > 25 {
            assert_exact(&q, &fed, &replay, &format!("churn step {step}"));
        }
    }
    let (incr, _) = q.strategy_counts();
    assert!(
        incr > 0,
        "partition churn alone must not disable maintenance"
    );
}

/// A batch carrying duplicate multiplicities (`k↑ > 1`) is absorbed like
/// any other: the copies of a row rank with no order between them.
#[test]
fn duplicate_multiplicities_stay_incremental() {
    let mut rng = Rng::new(0xD0D0);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(ROLLING).unwrap();
    assert_matches_all_backends(&q, &fed, "dup-mult at subscribe");
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for step in 0..20 {
        let rows: Vec<_> = (0..2)
            .map(|i| {
                t += 4;
                let (tuple, mut mult) = reading(&mut rng, 0, t, true);
                if (step + i) % 3 == 0 {
                    mult = [Mult3::new(0, 1, 2), Mult3::new(2, 2, 2)][step % 2];
                }
                (tuple, mult)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        fed.append(&mut batch.clone());
        assert_eq!(delta.strategy, Strategy::Incremental, "step {step}");
        replay.apply(&delta);
        assert_exact(&q, &fed, &replay, &format!("dup-mult step {step}"));
    }
    assert!(
        q.explain().contains("window incremental"),
        "{}",
        q.explain()
    );
}

/// An uncertain `PARTITION BY` value arriving while the sweep is live
/// rebuilds it once: the row may join every group its range overlaps.
/// Batches of point values that no range overlaps are absorbed by the live
/// sweep again; a point value the range overlaps rebuilds once more, and
/// maintenance resumes after it too.
#[test]
fn a_ranged_partition_value_rebuilds_and_maintenance_resumes() {
    let mut rng = Rng::new(0x6A0);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(PARTITIONED).unwrap();
    assert_matches_all_backends(&q, &fed, "partition at subscribe");
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for batch in 0..14 {
        // `g` ∈ 0..3 until the range `[0, 1]` arrives in batch 5, then
        // 2..5, which it does not overlap — but for batch 10's `g = 1`.
        let mut rows: Vec<_> = (0..3)
            .map(|_| {
                t += 4;
                let g = match batch {
                    ..5 => rng.below(3),
                    10 => 1,
                    _ => 2 + rng.below(3),
                };
                reading(&mut rng, g as i64, t, true)
            })
            .collect();
        if batch == 5 {
            rows[1].0 .0[0] = RangeValue::new(0, 0, 1);
        }
        let rows = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&rows).unwrap();
        fed.append(&mut rows.clone());
        let want = match batch {
            5 | 10 => Strategy::Recompute,
            _ => Strategy::Incremental,
        };
        assert_eq!(delta.strategy, want, "batch {batch}");
        replay.apply(&delta);
        assert_exact(&q, &fed, &replay, &format!("partition batch {batch}"));
    }
    let explain = q.explain();
    assert!(
        explain.contains("maintain: window incremental\n"),
        "{explain}"
    );
    assert!(
        explain.contains("appends: 12 incremental, 2 recompute"),
        "{explain}"
    );
}

/// Rows appended again are the same keys at new multiplicities: the delta
/// removes each old entry and adds the merged one. (A selection recomputes
/// every append, so this is the diff of the whole answer.)
#[test]
fn a_repeated_row_is_removed_and_added_at_its_new_multiplicity() {
    let mut rng = Rng::new(0x2E9);
    let rows: Vec<_> = (0..4).map(|i| reading(&mut rng, 0, 4 * i, true)).collect();
    let mut fed = AuRelation::from_rows(sensor_schema(), rows.clone());
    let session = session_with(&fed);
    let mut q = session.subscribe("SELECT * FROM s WHERE v < 100").unwrap();
    assert_matches_all_backends(&q, &fed, "repeated rows at subscribe");
    let mut replay = Replay::from_value(&q.value());
    let again = AuRelation::from_rows(sensor_schema(), rows[1..3].iter().cloned());
    let delta = q.append(&again).unwrap();
    fed.append(&mut again.clone());
    assert_eq!(
        (delta.removed.len(), delta.added.len()),
        (2, 2),
        "{delta:?}"
    );
    replay.apply(&delta);
    assert_exact(&q, &fed, &replay, "repeated rows");
}

#[test]
fn topk_subscription_is_exact_in_any_order() {
    let mut rng = Rng::new(0x70CC);
    let mut fed = AuRelation::empty(sensor_schema());
    let session = session_with(&fed);
    let mut q = session.subscribe(TOPK).unwrap();
    assert_matches_all_backends(&q, &fed, "topk at subscribe");
    let mut replay = Replay::from_value(&q.value());

    for step in 0..30 {
        // No order discipline at all: top-k maintenance accepts any
        // arrival order, including duplicates of earlier rows.
        let rows: Vec<_> = (0..1 + rng.below(5))
            .map(|_| {
                let t = rng.below(200) as i64;
                let g = rng.below(3) as i64;
                reading(&mut rng, g, t, false)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        fed.append(&mut batch.clone());
        replay.apply(&delta);
        if rng.below(2) == 0 || step > 25 {
            assert_exact(&q, &fed, &replay, &format!("topk step {step}"));
        }
    }
    assert_eq!(q.strategy_counts(), (30, 0), "top-k never recomputes");
    assert!(q.explain().contains("maintain: top-k incremental\n"));
}

/// Subscribing to the already-grown table must equal, row for row, the
/// value carried by a subscription that lived through every append: small
/// batches, then uneven pieces that cross the segment seal (the
/// `appended_in_pieces` property, for subscriptions) — on a statement that
/// is never maintained (an unlimited sort), whose table grows as the
/// catalog's tables do (`maintain`'s unit tests check its segments), and on
/// one that is, which keeps no table.
#[test]
fn maintained_value_matches_a_fresh_subscription_midstream() {
    let mut rng = Rng::new(0xCAFE);
    let sizes: Vec<usize> = (0..15)
        .map(|_| 2 + rng.below(3) as usize)
        .chain([1, 700, SEGMENT_ROWS - 600, SEGMENT_ROWS + 1, 3, 64])
        .collect();
    let mut t = 0i64;
    let pieces: Vec<AuRelation> = (sizes.iter())
        .map(|&n| {
            let mut next = || {
                t += 4;
                reading(&mut rng, 0, t, true)
            };
            AuRelation::from_rows(sensor_schema(), (0..n).map(|_| next()))
        })
        .collect();

    let session = session_with(&AuRelation::empty(sensor_schema()));
    let recomputed = session
        .subscribe("SELECT g, v FROM s ORDER BY v AS pos")
        .unwrap();
    let maintained = session.subscribe(ROLLING).unwrap();
    for (mut live, want) in [
        (recomputed, Strategy::Recompute),
        (maintained, Strategy::Incremental),
    ] {
        let mut fed = AuRelation::empty(sensor_schema());
        assert_matches_all_backends(&live, &fed, &format!("{want} at subscribe"));
        for (i, piece) in pieces.iter().enumerate() {
            let delta = live.append(piece).unwrap();
            fed.append(&mut piece.clone());
            assert_eq!(delta.strategy, want, "piece {i}");
        }
        let fresh = session_with(&fed)
            .subscribe(live.plan().sql().unwrap())
            .unwrap();
        assert_eq!(
            live.value().rows(),
            fresh.value().rows(),
            "{want}: live subscription diverged from a fresh one over the same rows"
        );
    }
}

/// A subscription over a table grown past the segment seal starts from the
/// state `subscribe` built over both segments: its value is the engine's,
/// and every append after it maintains.
#[test]
fn a_subscription_over_a_sealed_table_maintains_from_subscribe() {
    let mut rng = Rng::new(0x5EA1);
    let mut t = 0i64;
    let mut rows = |n: usize| {
        let rows: Vec<_> = (0..n)
            .map(|_| {
                t += 4;
                reading(&mut rng, 0, t, true)
            })
            .collect();
        AuRelation::from_rows(sensor_schema(), rows)
    };
    let mut subscribed = rows(SEGMENT_ROWS - 3);
    let session = session_with(&subscribed);
    let mut tail = rows(10);
    session.shared_catalog().append("s", &tail).unwrap();
    subscribed.append(&mut tail);
    let table = Arc::clone(session.catalog().get("s").unwrap());
    assert_eq!(table.segments().len(), 2, "the seal was crossed");
    // The selection keeps the oracles' windows small (≈ 1 row in 8).
    let rolling = format!("{ROLLING} WHERE v > 15");
    for sql in [&rolling, TOPK] {
        let mut q = session.subscribe(sql).unwrap();
        let mut fed = subscribed.clone();
        assert_matches_all_backends(&q, &fed, &format!("{sql} at subscribe"));
        let mut replay = Replay::from_value(&q.value());
        for step in 0..3 {
            let batch = rows(5);
            let delta = q.append(&batch).unwrap();
            fed.append(&mut batch.clone());
            assert_eq!(delta.strategy, Strategy::Incremental, "{sql} step {step}");
            replay.apply(&delta);
            assert_exact(&q, &fed, &replay, &format!("{sql} step {step}"));
        }
    }
}

/// A top-k subscription refuses what the engine refuses — a sort that would
/// emit more rows than the kernels' row index holds — at subscribe and at
/// append, and an append it refuses changes nothing: the next one goes on
/// from the state before it.
#[test]
fn a_topk_past_the_row_index_is_refused_and_changes_nothing() {
    const SQL: &str = "SELECT * FROM s ORDER BY a AS pos LIMIT 1000000000000";
    let schema = Schema::new(["a"]);
    let row = |a: i64, mult| (AuTuple::new([RangeValue::certain(a)]), mult);
    let certain: Vec<_> = (10..20).map(|a| row(a, Mult3::ONE)).collect();
    let huge = row(0, Mult3::new(0, 0, 1 << 40));

    let held = certain.iter().cloned().chain([huge.clone()]);
    let refused = session_with(&AuRelation::from_rows(schema.clone(), held)).subscribe(SQL);
    assert_eq!(refused.unwrap_err().kind(), "result_too_large");

    let mut fed = AuRelation::from_rows(schema.clone(), certain);
    let session = session_with(&fed);
    let mut q = session.subscribe(SQL).unwrap();
    assert_matches_all_backends(&q, &fed, "ten certain rows");
    let mut replay = Replay::from_value(&q.value());
    let value = q.value();
    let e = q
        .append(&AuRelation::from_rows(schema.clone(), [huge]))
        .unwrap_err();
    assert_eq!(e.kind(), "result_too_large");
    assert_eq!(q.value().rows(), value.rows());
    assert_eq!(q.strategy_counts(), (0, 0));

    let mut next = AuRelation::from_rows(schema, [row(5, Mult3::ONE)]);
    let delta = q.append(&next).unwrap();
    fed.append(&mut next);
    assert_eq!(delta.strategy, Strategy::Incremental);
    replay.apply(&delta);
    assert_exact(&q, &fed, &replay, "after the refused append");
}

/// A window subscription refuses what the engine refuses of the window over
/// every row fed — more output rows than the kernels' row index holds — at
/// subscribe and at append, before the sort under the sweep is asked to
/// rank them, and an append it refuses changes nothing: the next one is
/// absorbed by the sweep as it was.
#[test]
fn a_window_past_the_row_index_is_refused_and_changes_nothing() {
    const SQL: &str = "SELECT *, COUNT(*) OVER (ORDER BY a \
                       ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS c FROM s";
    let schema = Schema::new(["a"]);
    let row = |a: i64, mult| (AuTuple::new([RangeValue::certain(a)]), mult);
    let certain: Vec<_> = (10..20).map(|a| row(a, Mult3::ONE)).collect();
    let huge = row(30, Mult3::new(0, 0, 1 << 32));

    let held = certain.iter().cloned().chain([huge.clone()]);
    let too_large = session_with(&AuRelation::from_rows(schema.clone(), held));
    assert_eq!(too_large.sql(SQL).unwrap_err().kind(), "result_too_large");
    assert_eq!(
        too_large.subscribe(SQL).unwrap_err().kind(),
        "result_too_large"
    );

    let mut fed = AuRelation::from_rows(schema.clone(), certain);
    let session = session_with(&fed);
    let mut q = session.subscribe(SQL).unwrap();
    assert_matches_all_backends(&q, &fed, "ten certain rows");
    let mut replay = Replay::from_value(&q.value());
    let value = q.value();
    let e = q
        .append(&AuRelation::from_rows(schema.clone(), [huge]))
        .unwrap_err();
    assert_eq!(e.kind(), "result_too_large");
    assert_eq!(q.value().rows(), value.rows());
    assert_eq!(q.strategy_counts(), (0, 0));

    let mut next = AuRelation::from_rows(schema, [row(40, Mult3::ONE)]);
    let delta = q.append(&next).unwrap();
    fed.append(&mut next);
    assert_eq!(delta.strategy, Strategy::Incremental);
    replay.apply(&delta);
    assert_exact(&q, &fed, &replay, "after the refused append");
}
