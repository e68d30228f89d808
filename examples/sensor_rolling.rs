//! Rolling aggregates over noisy sensor data — the paper's motivating
//! windowed-aggregation use case, fed as a **live stream**. Readings
//! arrive with calibration uncertainty (a declared error band around each
//! measurement); the rolling aggregates must bound every world the bands
//! admit, and a subscription keeps them current as batches arrive instead
//! of recomputing the day from scratch.
//!
//! The printout is golden-tested (`workloads/sensor_rolling.golden`), so
//! everything here is deterministic.
//!
//! ```sh
//! cargo run --example sensor_rolling
//! ```

use audb::core::AuRelation;
use audb::engine::{Engine, Session};
use audb::rel::{Schema, Tuple, Value};
use audb::worlds::{Alternative, XTuple, XTupleTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let n = 48; // 48 measurements = one day of half-hourly readings

    // Each reading: a timestamp and a temperature in deci-degrees. Roughly
    // one in six sensors drifts, widening its declared error band.
    let tuples: Vec<XTuple> = (0..n)
        .map(|ts| {
            let true_temp =
                180 + ((ts as f64 / 5.0).sin() * 40.0) as i64 + rng.gen_range(-3i64..=3);
            let drifting = rng.gen_range(0..6) == 0;
            let band = if drifting { 25 } else { 4 };
            // The measured alternatives sit inside the declared band.
            let alts: Vec<i64> = (0..3)
                .map(|_| true_temp + rng.gen_range(-band..=band))
                .collect();
            let p = 1.0 / alts.len() as f64;
            XTuple::new(
                alts.iter()
                    .map(|&t| Alternative {
                        tuple: Tuple::from([ts as i64, t]),
                        prob: p,
                    })
                    .collect(),
            )
            .with_declared(vec![
                (Value::Int(ts as i64), Value::Int(ts as i64)),
                (Value::Int(true_temp - band), Value::Int(true_temp + band)),
            ])
        })
        .collect();
    let day = XTupleTable::new(Schema::new(["ts", "temp"]), tuples).to_au_relation();

    // The table starts empty; readings stream in below.
    let session = Session::new(Engine::native());
    session.register("readings", AuRelation::empty(day.schema.clone()));

    // Subscribe to the one-hour rolling max (current + 1 preceding
    // reading): the statement compiles and its sweep is built once, and
    // each in-order batch extends the sweep and re-emits only the output
    // rows whose bounds changed.
    let mut live = session
        .subscribe(
            "SELECT *, MAX(temp) OVER (ORDER BY ts \
             ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS x FROM readings",
        )
        .expect("subscription compiles");

    // Stream the day in six-hour batches. Appends go to the shared
    // catalog too (the server's `POST /append` path), so the at-rest SQL
    // below sees the same grown table the subscription maintains.
    println!("streaming 4 batches of 12 readings into the subscription:");
    for (i, chunk) in day.rows().chunks(12).enumerate() {
        let batch = AuRelation::from_rows(
            day.schema.clone(),
            chunk.iter().map(|r| (r.tuple.clone(), r.mult)),
        );
        session
            .shared_catalog()
            .append("readings", &batch)
            .expect("schema matches");
        let delta = live.append(&batch).expect("in-order append");
        println!(
            "  batch {i}: +12 readings -> {} rows retracted, {} emitted ({})",
            delta.removed.len(),
            delta.added.len(),
            delta.strategy
        );
    }

    // The subscription's value is exactly the full recompute — show the
    // last hour's maintained bounds straight from the live result.
    println!("\nlive rolling max, last 3 readings:");
    let value = live.value().normalize();
    let mut rows: Vec<_> = value.rows().iter().collect();
    rows.sort_by_key(|r| r.tuple.get(0).sg.as_i64());
    for row in rows.iter().rev().take(3).rev() {
        let ts = row.tuple.get(0).sg.as_i64().unwrap();
        let x = row.tuple.get(2);
        println!(
            "  t={ts:>2}: max in [{:.1}°, {:.1}°]",
            x.lb.as_i64().unwrap() as f64 / 10.0,
            x.ub.as_i64().unwrap() as f64 / 10.0
        );
    }
    let full = session
        .sql(
            "SELECT *, MAX(temp) OVER (ORDER BY ts \
             ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS x FROM readings",
        )
        .expect("recompute runs");
    assert!(
        value.bag_eq(&full.normalize()),
        "maintained value must equal the full recompute"
    );
    println!("  (verified equal to a full recompute of the grown table)");

    // The rest of the dashboard works off the grown catalog. Each query is
    // one line of SQL, executed on every backend with bound agreement
    // asserted (`run_all_sql`).
    let rolling = |agg: &str| {
        session
            .run_all_sql(&format!(
                "SELECT *, {agg}(temp) OVER (ORDER BY ts \
                 ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS x FROM readings"
            ))
            .expect("backends agree")
            .output
            .to_rows()
    };
    println!();
    for (name, agg) in [
        ("rolling max", "MAX"),
        ("rolling min", "MIN"),
        ("rolling avg envelope", "AVG"),
    ] {
        let out = rolling(agg);
        // Report the widest bound of the day — where drift hurts the most.
        let mut worst: Option<(i64, i64, i64)> = None;
        for row in out.rows() {
            let ts = row.tuple.get(0).sg.as_i64().unwrap();
            let x = row.tuple.get(2);
            let (lo, hi) = (
                x.lb.as_f64().unwrap_or(0.0) as i64,
                x.ub.as_f64().unwrap_or(0.0) as i64,
            );
            if worst.is_none_or(|(_, a, b)| hi - lo > b - a) {
                worst = Some((ts, lo, hi));
            }
        }
        let (ts, lo, hi) = worst.unwrap();
        println!(
            "{name:22} widest bound at t={ts:>2}: [{:.1}°, {:.1}°]",
            lo as f64 / 10.0,
            hi as f64 / 10.0
        );
    }

    // Alarm logic on guarantees, not guesses: a certain alarm fires only if
    // even the lower bound of the rolling max exceeds the threshold; a
    // possible alarm if the upper bound does.
    let out = rolling("MAX");
    let threshold = 215;
    let certain = out
        .rows()
        .iter()
        .filter(|r| r.tuple.get(2).lb > Value::Int(threshold))
        .count();
    let possible = out
        .rows()
        .iter()
        .filter(|r| r.tuple.get(2).ub > Value::Int(threshold))
        .count();
    println!(
        "\nalarm > {:.1}°: {certain} readings certainly alarm, {possible} possibly alarm",
        threshold as f64 / 10.0
    );
    println!("(a dashboard built on point estimates would show exactly one number — and be wrong in some worlds)");
}
