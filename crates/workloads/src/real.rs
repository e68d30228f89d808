//! Simulators of the paper's three real-world datasets (Sec. 9.2).
//!
//! The originals (NSIDC Iceberg sightings, Chicago Crimes, Medicare
//! Hospital Compare) are cleaned with entity-resolution / imputation lenses
//! whose output is an uncertain database. We reproduce their statistical
//! shape — row counts, uncertainty rates, schemas — and the *exact six
//! queries* of Sec. 9.2, per the substitution policy of DESIGN.md §2:
//!
//! | dataset | rows | uncertainty | rank query | window query |
//! |---|---|---|---|---|
//! | Iceberg | 167 K | 1.1 % | top-3 sizes by `count(*)` | rolling `sum(number)` per date, `[0, +3]` |
//! | Crimes | 1.45 M | 0.1 % | top-3 days by `count(*)` | `min(year)` over latitude order, `[-1, +1]`, year = 2016 |
//! | Healthcare | 171 K | 1.0 % | top-5 facilities by score | in-line rank: `count(*)` over score desc (unbounded preceding) |
//!
//! A `scale` factor shrinks row counts proportionally (wall-clock budgets;
//! `repro` prints the scale in effect above every table).

use crate::convert::xtuple_from_au;
use audb_core::{au_aggregate, au_project, RangeExpr, WinAgg};
use audb_rel::{Schema, Tuple, Value};
use audb_worlds::{Alternative, XTuple, XTupleTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ranking workload instance: a sort, or a top-k.
pub struct RankQuery {
    /// The (possibly pre-aggregated) input.
    pub table: XTupleTable,
    /// Order-by attribute indices (ascending; descending queries negate).
    pub order: Vec<usize>,
    /// The `k` of a top-k; `None` sorts the whole input.
    pub k: Option<u64>,
}

/// A windowed-aggregation workload instance.
pub struct WindowQuery {
    /// The input table.
    pub table: XTupleTable,
    /// Order-by attribute indices.
    pub order: Vec<usize>,
    /// The aggregate.
    pub agg: WinAgg,
    /// Window offsets `[l, u]`.
    pub l: i64,
    /// Window upper offset.
    pub u: i64,
}

impl WindowQuery {
    /// Whether the frame reaches at most 8 rows either side: the reach of
    /// `Symb`'s local enumeration, which an unbounded frame blows.
    pub fn is_local(&self) -> bool {
        self.l.abs() <= 8 && self.u <= 8
    }
}

/// One simulated dataset with its two Sec. 9.2 queries.
pub struct RealDataset {
    /// Dataset name as in the paper's tables.
    pub name: &'static str,
    /// Base-table row count after scaling.
    pub rows: usize,
    /// Fraction of uncertain rows.
    pub uncertainty: f64,
    /// The rank query (pre-aggregated where the paper pre-aggregates).
    pub rank: RankQuery,
    /// The window query.
    pub window: WindowQuery,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(64)
}

/// NSIDC iceberg sightings: `(date, size, number, id)`.
pub fn iceberg(scale: f64, seed: u64) -> RealDataset {
    let rows = scaled(167_000, scale);
    let uncertainty = 0.011;
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples: Vec<XTuple> = (0..rows)
        .map(|id| {
            let date = rng.gen_range(0..1095i64);
            let number = rng.gen_range(1..50i64);
            let sizes: Vec<i64> = if rng.gen_bool(uncertainty) {
                // Extraction ambiguity: two or three adjacent size classes.
                let s = rng.gen_range(0..8i64);
                (s..=s + rng.gen_range(1i64..=2)).collect()
            } else {
                vec![rng.gen_range(0..10i64)]
            };
            let p = 1.0 / sizes.len() as f64;
            XTuple::new(
                sizes
                    .into_iter()
                    .map(|s| Alternative {
                        tuple: Tuple::new([
                            Value::Int(date),
                            Value::Int(s),
                            Value::Int(number),
                            Value::Int(id as i64),
                        ]),
                        prob: p,
                    })
                    .collect(),
            )
        })
        .collect();
    let base = XTupleTable::new(Schema::new(["date", "size", "number", "id"]), tuples);

    // Rank: SELECT size, count(*) GROUP BY size ORDER BY ct DESC LIMIT 3 —
    // pre-aggregate in the AU model, negate for descending order.
    let au = base.to_au_relation();
    let agg = au_aggregate(&au, &[1], &[(WinAgg::Count, "ct")]);
    let ranked = au_project(
        &agg,
        &[
            (RangeExpr::col(0), "size"),
            (RangeExpr::Neg(Box::new(RangeExpr::col(1))), "neg_ct"),
        ],
    );
    let rank = RankQuery {
        table: xtuple_from_au(&ranked),
        order: vec![1],
        k: Some(3),
    };

    // Window: rolling sum of `number` over date order, current + 3 following.
    let window = WindowQuery {
        table: base,
        order: vec![0],
        agg: WinAgg::Sum(2),
        l: 0,
        u: 3,
    };
    RealDataset {
        name: "Iceberg",
        rows,
        uncertainty,
        rank,
        window,
    }
}

/// Chicago crimes: `(date, year, latitude, id)`; the window query runs on
/// the year-2016 slice, as in the paper's SQL.
pub fn crimes(scale: f64, seed: u64) -> RealDataset {
    let rows = scaled(1_450_000, scale);
    let uncertainty = 0.001;
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_lat = |rng: &mut StdRng| rng.gen_range(41_640_000..42_030_000i64);
    let tuples: Vec<XTuple> = (0..rows)
        .map(|id| {
            let date = rng.gen_range(0..5844i64);
            let year = 2001 + date / 366;
            // Geocoding ambiguity: candidate latitudes inside a declared
            // uncertainty region reported by the geocoder.
            let (lats, declared) = if rng.gen_bool(uncertainty) {
                let l0 = gen_lat(&mut rng);
                let spread = rng.gen_range(5_000..40_000i64);
                (
                    vec![l0, l0 + spread / 2, l0 + spread],
                    Some((l0 - spread / 4, l0 + spread + spread / 4)),
                )
            } else {
                (vec![gen_lat(&mut rng)], None)
            };
            let p = 1.0 / lats.len() as f64;
            let xt = XTuple::new(
                lats.into_iter()
                    .map(|lat| Alternative {
                        tuple: Tuple::new([
                            Value::Int(date),
                            Value::Int(year),
                            Value::Int(lat),
                            Value::Int(id as i64),
                        ]),
                        prob: p,
                    })
                    .collect(),
            );
            if let Some((lo, hi)) = declared {
                xt.with_declared(vec![
                    (Value::Int(date), Value::Int(date)),
                    (Value::Int(year), Value::Int(year)),
                    (Value::Int(lo), Value::Int(hi)),
                    (Value::Int(id as i64), Value::Int(id as i64)),
                ])
            } else {
                xt
            }
        })
        .collect();
    let base = XTupleTable::new(Schema::new(["date", "year", "lat", "id"]), tuples);

    // Rank: top-3 days by incident count.
    let au = base.to_au_relation();
    let agg = au_aggregate(&au, &[0], &[(WinAgg::Count, "ct")]);
    let ranked = au_project(
        &agg,
        &[
            (RangeExpr::col(0), "date"),
            (RangeExpr::Neg(Box::new(RangeExpr::col(1))), "neg_ct"),
        ],
    );
    let rank = RankQuery {
        table: xtuple_from_au(&ranked),
        order: vec![1],
        k: Some(3),
    };

    // Window: year-2016 slice, min(year) over latitude neighbours. Year is
    // the *imputed* attribute there (missing-value repair): uncertain rows
    // may be 2015–2017.
    let rows_2016 = scaled(rows / 16, 1.0);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let tuples: Vec<XTuple> = (0..rows_2016)
        .map(|id| {
            let lat = gen_lat(&mut rng);
            let years: Vec<i64> = if rng.gen_bool(uncertainty * 10.0) {
                vec![2015, 2016, 2017]
            } else {
                vec![2016]
            };
            let p = 1.0 / years.len() as f64;
            XTuple::new(
                years
                    .into_iter()
                    .map(|y| Alternative {
                        tuple: Tuple::new([Value::Int(lat), Value::Int(y), Value::Int(id as i64)]),
                        prob: p,
                    })
                    .collect(),
            )
        })
        .collect();
    let window = WindowQuery {
        table: XTupleTable::new(Schema::new(["lat", "year", "id"]), tuples),
        order: vec![0],
        agg: WinAgg::Min(1),
        l: -1,
        u: 1,
    };
    RealDataset {
        name: "Crimes",
        rows,
        uncertainty,
        rank,
        window,
    }
}

/// Medicare hospital compare: `(score, id)`, restricted to one measure
/// (MRSA Bacteremia), as the paper's WHERE clause does — roughly 1/40 of
/// the 171 K base rows survive the filter.
pub fn healthcare(scale: f64, seed: u64) -> RealDataset {
    let base_rows = scaled(171_000, scale);
    let rows = (base_rows / 40).max(64);
    let uncertainty = 0.01;
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples: Vec<XTuple> = (0..rows)
        .map(|id| {
            // Imputed scores: plausible values inside a declared band that
            // the imputation lens reports wider than the realizations.
            let (scores, declared) = if rng.gen_bool(uncertainty) {
                let s = rng.gen_range(100..1700i64);
                let band = rng.gen_range(50..250i64);
                (
                    vec![s, s + band / 3, s + band / 2],
                    Some((s - band / 4, s + band)),
                )
            } else {
                (vec![rng.gen_range(0..2000i64)], None)
            };
            let p = 1.0 / scores.len() as f64;
            let xt = XTuple::new(
                scores
                    .into_iter()
                    .map(|s| Alternative {
                        tuple: Tuple::new([Value::Int(s), Value::Int(id as i64)]),
                        prob: p,
                    })
                    .collect(),
            );
            if let Some((lo, hi)) = declared {
                xt.with_declared(vec![
                    (Value::Int(lo), Value::Int(hi)),
                    (Value::Int(id as i64), Value::Int(id as i64)),
                ])
            } else {
                xt
            }
        })
        .collect();
    let table = XTupleTable::new(Schema::new(["score", "id"]), tuples);

    // Rank: ORDER BY score LIMIT 5 — directly on the filtered rows.
    let rank = RankQuery {
        table: table.clone(),
        order: vec![0],
        k: Some(5),
    };
    // Window: in-line rank = count(*) OVER (ORDER BY score DESC), i.e. an
    // unbounded-preceding window on the negated score.
    let mut neg = table.clone();
    for xt in &mut neg.tuples {
        for alt in &mut xt.alternatives {
            let s = alt.tuple.get(0).as_i64().unwrap();
            alt.tuple.0[0] = Value::Int(-s);
        }
        if let Some(d) = &mut xt.declared {
            let (lo, hi) = (d[0].0.as_i64().unwrap(), d[0].1.as_i64().unwrap());
            d[0] = (Value::Int(-hi), Value::Int(-lo));
        }
    }
    let n = neg.len() as i64;
    let window = WindowQuery {
        table: neg,
        order: vec![0],
        agg: WinAgg::Count,
        l: -n,
        u: 0,
    };
    RealDataset {
        name: "Healthcare",
        rows: base_rows,
        uncertainty,
        rank,
        window,
    }
}

/// All three simulators at a common scale.
pub fn all_datasets(scale: f64, seed: u64) -> Vec<RealDataset> {
    vec![
        iceberg(scale, seed),
        crimes(scale, seed.wrapping_add(100)),
        healthcare(scale, seed.wrapping_add(200)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Method;

    #[test]
    fn iceberg_rank_is_preaggregated() {
        let ds = iceberg(0.005, 1);
        // At most 10 size classes + spill from uncertain rows.
        assert!(ds.rank.table.len() <= 12, "{}", ds.rank.table.len());
        // Counts are negative (descending order trick).
        let any = &ds.rank.table.tuples[0].alternatives[0].tuple;
        assert!(any.get(1).as_i64().unwrap() <= 0);
    }

    #[test]
    fn rank_queries_run_end_to_end() {
        for ds in all_datasets(0.002, 7) {
            let imp = Method::Imp.sort(&ds.rank);
            let mc = Method::Mcdb { samples: 5 }.sort(&ds.rank);
            let tight = Method::Symb.sort(&ds.rank);
            assert_eq!(mc.value.len(), tight.value.len());
            // Top-k keeps at most a few answers per method.
            let answers = imp.value.iter().flatten().count();
            let k = ds.rank.k.expect("a top-k");
            assert!(answers >= k as usize, "{}: {answers}", ds.name);
        }
    }

    #[test]
    fn window_queries_run_end_to_end() {
        for ds in all_datasets(0.002, 3) {
            let w = &ds.window;
            let imp = Method::Imp.window(w).expect("Imp windows");
            let produced = imp.value.iter().flatten().count();
            assert_eq!(produced, w.table.len(), "{}", ds.name);
        }
    }

    #[test]
    fn healthcare_window_is_inline_rank() {
        let ds = healthcare(0.02, 5);
        let w = &ds.window;
        let imp = Method::Imp.window(w).expect("Imp windows").value;
        // Ranks are within [1, n].
        let n = w.table.len() as f64;
        for b in imp.iter().flatten() {
            assert!(b.0 >= 1.0 && b.1 <= n);
        }
    }
}
