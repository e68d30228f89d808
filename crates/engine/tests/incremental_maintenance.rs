//! Property tests for the incremental-maintenance layer: under random
//! interleaved append/query sequences, [`MaintainedQuery`]'s value must
//! stay bag-equal to a full recompute of the same plan over the
//! accumulated rows — on all three backends — and replaying the emitted
//! deltas must reconstruct the value exactly. The generators cover
//! in-order streams (incremental fast path), out-of-order batches
//! (rebuild and recompute), partition churn, and duplicate multiplicities
//! (permanent fallback).

use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
use audb_engine::{Delta, Engine, Session, SharedCatalog, Strategy, SEGMENT_ROWS};
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

/// Full recompute of the subscription's plan over its accumulated rows on
/// `method` — the ground truth the maintained value is pinned against.
fn recompute_on(q: &audb_engine::MaintainedQuery, method: Engine) -> AuRelation {
    let plan = q
        .plan()
        .with_table(Arc::clone(q.accumulated()))
        .expect("accumulated rows always match the plan schema");
    method.execute(&plan).unwrap().to_rows().normalize()
}

fn assert_matches_all_backends(q: &audb_engine::MaintainedQuery, ctx: &str) {
    let value = q.value().normalize();
    for method in Engine::ALL {
        let truth = recompute_on(q, method);
        assert!(
            value.clone().bag_eq(&truth),
            "{ctx}: maintained value diverged from {method} recompute\n\
             maintained:\n{value}\ntruth:\n{truth}"
        );
    }
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
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(ROLLING).unwrap().with_cutoff(8);
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
        replay.apply(&delta);
        // Interleave full checks with cheap delta-only steps so the test
        // also covers appends nobody queries between.
        if rng.below(3) == 0 || step > 35 {
            assert_matches_all_backends(&q, &format!("rolling step {step}"));
            assert!(
                replay
                    .value(q.value().schema.clone())
                    .bag_eq(&q.value().normalize()),
                "rolling step {step}: delta replay diverged from value()"
            );
        }
    }
    let (incr, rec) = q.strategy_counts();
    assert!(
        incr > rec,
        "an in-order stream over the cutoff should mostly maintain ({incr} incremental, {rec} recompute)"
    );
    assert!(
        q.explain().contains("window incremental"),
        "{}",
        q.explain()
    );
}

#[test]
fn out_of_order_and_in_order_interleave_exactly() {
    let mut rng = Rng::new(0xB0B);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(ROLLING).unwrap().with_cutoff(4);
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
        if out_of_order {
            assert_eq!(
                delta.strategy,
                Strategy::Recompute,
                "step {step}: an overlapping batch must recompute"
            );
        }
        replay.apply(&delta);
        assert_matches_all_backends(&q, &format!("interleaved step {step}"));
        assert!(
            replay
                .value(q.value().schema.clone())
                .bag_eq(&q.value().normalize()),
            "interleaved step {step}: delta replay diverged"
        );
    }
    let (incr, _) = q.strategy_counts();
    assert!(incr > 0, "in-order stretches should resume maintenance");
}

#[test]
fn partition_churn_stays_exact() {
    let mut rng = Rng::new(0x5EED);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(PARTITIONED).unwrap().with_cutoff(6);
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
        replay.apply(&delta);
        if rng.below(2) == 0 || step > 25 {
            assert_matches_all_backends(&q, &format!("churn step {step}"));
            assert!(
                replay
                    .value(q.value().schema.clone())
                    .bag_eq(&q.value().normalize()),
                "churn step {step}: delta replay diverged"
            );
        }
    }
    let (incr, _) = q.strategy_counts();
    assert!(
        incr > 0,
        "partition churn alone must not disable maintenance"
    );
}

#[test]
fn duplicate_multiplicities_fall_back_for_good() {
    let mut rng = Rng::new(0xD0D0);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(ROLLING).unwrap().with_cutoff(4);
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for step in 0..20 {
        let poison = step == 7; // one batch with k↑ > 1
        let rows: Vec<_> = (0..2)
            .map(|_| {
                t += 4;
                let (tuple, mut mult) = reading(&mut rng, 0, t, true);
                if poison {
                    mult = Mult3::new(0, 1, 2);
                }
                (tuple, mult)
            })
            .collect();
        let batch = AuRelation::from_rows(sensor_schema(), rows);
        let delta = q.append(&batch).unwrap();
        if step >= 7 {
            assert_eq!(
                delta.strategy,
                Strategy::Recompute,
                "step {step}: duplicate multiplicities disable maintenance permanently"
            );
        }
        replay.apply(&delta);
        assert_matches_all_backends(&q, &format!("dup-mult step {step}"));
        assert!(
            replay
                .value(q.value().schema.clone())
                .bag_eq(&q.value().normalize()),
            "dup-mult step {step}: delta replay diverged"
        );
    }
    assert!(q.explain().contains("always recompute"), "{}", q.explain());
}

/// An uncertain `PARTITION BY` value arriving while the sweep is live ends
/// maintenance for good: the sweep cannot place the row, and the value
/// stays in the data.
#[test]
fn an_uncertain_partition_value_falls_back_for_good() {
    let mut rng = Rng::new(0x6A0);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(PARTITIONED).unwrap().with_cutoff(6);
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for batch in 0..10 {
        let mut rows: Vec<_> = (0..3)
            .map(|_| {
                t += 4;
                let g = rng.below(3) as i64;
                reading(&mut rng, g, t, true)
            })
            .collect();
        if batch == 5 {
            rows[1].0 .0[0] = RangeValue::new(0, 0, 1);
        }
        let delta = q
            .append(&AuRelation::from_rows(sensor_schema(), rows))
            .unwrap();
        let want = match batch {
            2..=4 => Strategy::Incremental,
            _ => Strategy::Recompute,
        };
        assert_eq!(delta.strategy, want, "batch {batch}");
        replay.apply(&delta);
        assert_matches_all_backends(&q, &format!("partition batch {batch}"));
        assert!(
            replay
                .value(q.value().schema.clone())
                .bag_eq(&q.value().normalize()),
            "partition batch {batch}: delta replay diverged"
        );
    }
    let explain = q.explain();
    assert!(
        explain.contains("always recompute — appended rows carry an uncertain PARTITION BY"),
        "{explain}"
    );
}

/// Raising the cutoff past the accumulated rows drops the live sweep: every
/// later append recomputes, and the answer the sweep held is the one the
/// deltas go on from.
#[test]
fn raising_the_cutoff_midstream_drops_the_live_state() {
    let mut rng = Rng::new(0xC07);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(ROLLING).unwrap().with_cutoff(4);
    let mut replay = Replay::from_value(&q.value());

    let mut t = 0i64;
    for batch in 0..12 {
        if batch == 6 {
            q = q.with_cutoff(usize::MAX);
        }
        let rows: Vec<_> = (0..3)
            .map(|_| {
                t += 4;
                reading(&mut rng, 0, t, true)
            })
            .collect();
        let delta = q
            .append(&AuRelation::from_rows(sensor_schema(), rows))
            .unwrap();
        let want = match batch {
            2..=5 => Strategy::Incremental,
            _ => Strategy::Recompute,
        };
        assert_eq!(delta.strategy, want, "batch {batch}");
        replay.apply(&delta);
        assert_matches_all_backends(&q, &format!("cutoff batch {batch}"));
        assert!(
            replay
                .value(q.value().schema.clone())
                .bag_eq(&q.value().normalize()),
            "cutoff batch {batch}: delta replay diverged"
        );
    }
}

/// Rows appended again are the same keys at new multiplicities: the delta
/// removes each old entry and adds the merged one. (A selection recomputes
/// every append, so this is the diff of the whole answer.)
#[test]
fn a_repeated_row_is_removed_and_added_at_its_new_multiplicity() {
    let mut rng = Rng::new(0x2E9);
    let rows: Vec<_> = (0..4).map(|i| reading(&mut rng, 0, 4 * i, true)).collect();
    let session = session_with(&AuRelation::from_rows(sensor_schema(), rows.clone()));
    let mut q = session.subscribe("SELECT * FROM s WHERE v < 100").unwrap();
    let mut replay = Replay::from_value(&q.value());
    let again = AuRelation::from_rows(sensor_schema(), rows[1..3].iter().cloned());
    let delta = q.append(&again).unwrap();
    assert_eq!(
        (delta.removed.len(), delta.added.len()),
        (2, 2),
        "{delta:?}"
    );
    replay.apply(&delta);
    assert_matches_all_backends(&q, "repeated rows");
    assert!(
        replay
            .value(q.value().schema.clone())
            .bag_eq(&q.value().normalize()),
        "repeated rows: delta replay diverged"
    );
}

#[test]
fn topk_subscription_is_exact_in_any_order() {
    let mut rng = Rng::new(0x70CC);
    let session = session_with(&AuRelation::empty(sensor_schema()));
    let mut q = session.subscribe(TOPK).unwrap().with_cutoff(6);
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
        replay.apply(&delta);
        if rng.below(2) == 0 || step > 25 {
            assert_matches_all_backends(&q, &format!("topk step {step}"));
            assert!(
                replay
                    .value(q.value().schema.clone())
                    .bag_eq(&q.value().normalize()),
                "topk step {step}: delta replay diverged"
            );
        }
    }
    let (incr, _) = q.strategy_counts();
    assert!(
        incr > 0,
        "top-k over the cutoff should maintain incrementally"
    );
}

/// Subscribing to the already-grown table must equal, row for row, the
/// value carried by a subscription that lived through every append: small
/// batches, then uneven pieces that take the accumulator across the
/// segment seal (the `appended_in_pieces` property, for subscriptions) —
/// on the recompute strategy and on the incremental one. And the
/// accumulator grows the way the catalog's tables do: an append shares
/// every sealed segment and makes one new one (the open tail plus the
/// batch), and a recompute binds the plan to the accumulator's own handle.
#[test]
fn maintained_value_matches_a_fresh_subscription_midstream() {
    let mut rng = Rng::new(0xCAFE);
    let sizes: Vec<usize> = (0..15)
        .map(|_| 2 + rng.below(3) as usize)
        .chain([1, 700, SEGMENT_ROWS - 600, SEGMENT_ROWS + 1, 3, 64])
        .collect();
    let mut t = 0i64;
    let pieces: Vec<Vec<(AuTuple, Mult3)>> = (sizes.iter())
        .map(|&n| {
            let mut next = || {
                t += 4;
                reading(&mut rng, 0, t, true)
            };
            (0..n).map(|_| next()).collect()
        })
        .collect();

    let session = session_with(&AuRelation::empty(sensor_schema()));
    // The top-k stays below its cutoff: every append recomputes.
    let recomputed = session.subscribe(TOPK).unwrap().with_cutoff(usize::MAX);
    let maintained = session.subscribe(ROLLING).unwrap().with_cutoff(4);
    for (mut live, want) in [
        (recomputed, Strategy::Recompute),
        (maintained, Strategy::Incremental),
    ] {
        let mut all: Vec<(AuTuple, Mult3)> = Vec::new();
        for (i, piece) in pieces.iter().enumerate() {
            let before = Arc::clone(live.accumulated());
            let delta = live
                .append(&AuRelation::from_rows(sensor_schema(), piece.clone()))
                .unwrap();
            all.extend(piece.iter().cloned());
            // (The append that crosses the cutoff seeds the live state.)
            assert!(
                delta.strategy == want || i < 2,
                "piece {i}: {}",
                delta.strategy
            );
            let after = live.accumulated();
            assert_eq!(after.len(), all.len());
            let sealed = after.segments().len() - 1;
            assert!(sealed + 1 >= before.segments().len());
            for (old, new) in before.segments().iter().zip(&after.segments()[..sealed]) {
                assert!(Arc::ptr_eq(old, new), "piece {i} copied a sealed segment");
            }
        }
        let grown = live.accumulated();
        assert!(grown.segments().len() >= 4, "the seal was crossed");
        let bound = live.plan().with_table(Arc::clone(grown)).unwrap();
        assert!(Arc::ptr_eq(bound.source_columns(), grown));

        let whole = session_with(&AuRelation::from_rows(sensor_schema(), all));
        let fresh = whole.subscribe(live.plan().sql().unwrap()).unwrap();
        assert_eq!(
            live.value().rows(),
            fresh.value().rows(),
            "{want}: live subscription diverged from a fresh one over the same rows"
        );
    }
}
