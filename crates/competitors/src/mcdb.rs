//! The MCDB baseline \[34\]: Monte-Carlo evaluation over sampled worlds.
//!
//! MCDB samples `S` possible worlds, runs the *deterministic* query on each
//! (here: the `audb-rel` engine — the same substrate the `Det` baseline
//! uses), and reports per-input-tuple result envelopes: the smallest and
//! largest answer observed across samples. As in the paper's evaluation,
//! these envelopes *under-approximate* the tight bounds (a sample may miss
//! extreme worlds), which is exactly what the recall metrics of Figs. 12/13
//! and 18/19 measure. `MCDB10` / `MCDB20` are `S = 10` / `S = 20`.
//!
//! Worlds are independent, so sampling is embarrassingly parallel: each
//! sample gets its own generator deterministically derived from `(seed,
//! sample index)` (`audb_par::par_run` fans the samples out across cores),
//! and the per-tuple envelopes are merged with commutative min/max folds —
//! results are identical regardless of thread count or schedule.

use audb_core::WinAgg;
use audb_rel::{sort_to_pos, window_rows, Relation, Tuple, Value, WindowSpec};
use audb_worlds::XTupleTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-input-tuple observed `[min, max]` sort positions across `samples`
/// sampled worlds (`None` = the tuple never appeared in any sample).
pub fn mcdb_sort_bounds(
    table: &XTupleTable,
    order: &[usize],
    samples: usize,
    seed: u64,
) -> Vec<Option<(u64, u64)>> {
    let id_col = table.schema.arity(); // provenance appended after the data
    let per_sample = audb_par::par_run(samples, |s| {
        let world = tagged_world(table, sample_rng(seed, s));
        let sorted = sort_to_pos(&world, order, "pos");
        let pos_col = sorted.schema.arity() - 1;
        sorted
            .rows
            .iter()
            .map(|row| {
                let id = row.tuple.get(id_col).as_i64().expect("provenance") as usize;
                let p = row.tuple.get(pos_col).as_i64().expect("position") as u64;
                (id, p)
            })
            .collect::<Vec<_>>()
    });
    let mut bounds: Vec<Option<(u64, u64)>> = vec![None; table.len()];
    for obs in per_sample {
        for (id, p) in obs {
            bounds[id] = Some(match bounds[id] {
                None => (p, p),
                Some((lo, hi)) => (lo.min(p), hi.max(p)),
            });
        }
    }
    bounds
}

/// Per-input-tuple observed `[min, max]` windowed aggregates across samples.
pub fn mcdb_window_bounds(
    table: &XTupleTable,
    order: &[usize],
    agg: WinAgg,
    l: i64,
    u: i64,
    samples: usize,
    seed: u64,
) -> Vec<Option<(Value, Value)>> {
    let id_col = table.schema.arity();
    let per_sample = audb_par::par_run(samples, |s| {
        let world = tagged_world(table, sample_rng(seed, s));
        let spec = WindowSpec::rows(order.to_vec(), l, u);
        let out = window_rows(&world, &spec, agg, "x");
        let x_col = out.schema.arity() - 1;
        out.rows
            .iter()
            .map(|row| {
                let id = row.tuple.get(id_col).as_i64().expect("provenance") as usize;
                (id, row.tuple.get(x_col).clone())
            })
            .collect::<Vec<_>>()
    });
    let mut bounds: Vec<Option<(Value, Value)>> = vec![None; table.len()];
    for obs in per_sample {
        for (id, v) in obs {
            bounds[id] = Some(match bounds[id].take() {
                None => (v.clone(), v),
                Some((lo, hi)) => (lo.min(v.clone()), hi.max(v)),
            });
        }
    }
    bounds
}

/// The generator for sample `s`: derived from the user seed and the sample
/// index so every sample is reproducible independently of which thread
/// draws it (and of how many samples precede it).
fn sample_rng(seed: u64, s: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Realize one world with a trailing provenance column. The provenance sits
/// *after* every data attribute, so order-by indices are unchanged (it only
/// participates in the final tie-break, where it is harmless: distinct ids
/// only break ties between otherwise identical tuples).
fn tagged_world(table: &XTupleTable, mut rng: StdRng) -> Relation {
    let schema = table.schema.with("__xid");
    let rows = table
        .sample_world_tagged(&mut rng)
        .into_iter()
        .map(|(id, t)| (t.with(Value::Int(id as i64)), 1))
        .collect::<Vec<(Tuple, u64)>>();
    Relation::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::Schema;
    use audb_worlds::{exact_position_bounds, XTuple};

    fn table() -> XTupleTable {
        XTupleTable::new(
            Schema::new(["k", "v"]),
            vec![
                XTuple::certain(Tuple::from([10i64, 1])),
                XTuple::uniform([Tuple::from([5i64, 2]), Tuple::from([25i64, 2])]),
                XTuple::certain(Tuple::from([20i64, 3])),
            ],
        )
    }

    /// MCDB envelopes are always contained in the exact tight bounds.
    #[test]
    fn sampled_positions_within_exact_bounds() {
        let t = table();
        let exact = exact_position_bounds(&t, &[0]);
        let mc = mcdb_sort_bounds(&t, &[0], 20, 7);
        for (i, b) in mc.iter().enumerate() {
            let (elo, ehi) = exact[i].unwrap();
            if let Some((lo, hi)) = b {
                assert!(
                    *lo >= elo && *hi <= ehi,
                    "tuple {i}: [{lo},{hi}] ⊄ [{elo},{ehi}]"
                );
            }
        }
    }

    /// With enough samples the envelope of a 2-alternative tuple converges
    /// to the exact bounds.
    #[test]
    fn envelopes_converge() {
        let t = table();
        let exact = exact_position_bounds(&t, &[0]);
        let mc = mcdb_sort_bounds(&t, &[0], 500, 3);
        assert_eq!(mc[1].unwrap(), exact[1].unwrap());
    }

    #[test]
    fn window_bounds_are_observed_values() {
        let t = table();
        let mc = mcdb_window_bounds(&t, &[0], WinAgg::Sum(1), -1, 0, 50, 11);
        // The certain tuple (k=10) has windows {1} (x2 at 25) or {2+1}
        // (x2 at 5): sums 1 or 3.
        let (lo, hi) = mc[0].clone().unwrap();
        assert_eq!(lo, Value::Int(1));
        assert_eq!(hi, Value::Int(3));
    }
}
