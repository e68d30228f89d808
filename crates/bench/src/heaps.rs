//! The Sec. 8.2 preliminary experiment: connected heaps (back pointers)
//! versus unconnected heaps (linear-search deletion), replaying the exact
//! pool-operation pattern of the windowed-aggregation algorithm.
//!
//! The paper's table (50k tuples, 1–5% uncertainty, aggregation-attribute
//! ranges 2k–30k) shows 1.25×–10× speedups; the decisive factor is heap
//! residency, which grows with range width and uncertainty. We generate the
//! same workloads, derive the real position intervals via the native sort,
//! and drive both structures through the identical insert / close / evict
//! trace; only the deletion mechanics differ.

use audb_conheap::{ConnectedHeap, Heaps, UnconnectedHeaps};
use audb_workloads::synthetic::{gen_window_table, SyntheticConfig};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One pool record: position interval and aggregation-value bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rec {
    tlo: i64,
    thi: i64,
    alo: i64,
    ahi: i64,
    id: usize,
}

/// The three pool orders, called through a function pointer by both arms.
type Cmp = fn(usize, &Rec, &Rec) -> Ordering;

fn cmp3(h: usize, a: &Rec, b: &Rec) -> Ordering {
    match h {
        0 => (a.thi, a.id).cmp(&(b.thi, b.id)),
        1 => (a.alo, a.id).cmp(&(b.alo, b.id)),
        _ => (b.ahi, b.id).cmp(&(a.ahi, a.id)),
    }
}

/// Derive the pool records (position intervals) of a window workload.
pub fn make_records(rows: usize, uncertainty: f64, range: i64, seed: u64) -> Vec<Rec> {
    let cfg = SyntheticConfig {
        rows,
        uncertainty,
        range,
        seed,
        ..SyntheticConfig::default()
    };
    let table = gen_window_table(&cfg);
    let plan = audb_engine::Query::scan(table.to_au_relation())
        .sort_by_as([0usize], "tau")
        .build()
        .expect("heap-trace sort plan");
    let sorted = audb_engine::Engine::native()
        .execute(&plan)
        .expect("native sort")
        .to_rows();
    let pos_col = sorted.schema.arity() - 1;
    let mut recs: Vec<Rec> = sorted
        .rows()
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let (tlo, _, thi) = r.tuple.get(pos_col).as_i64_triple();
            let v = r.tuple.get(2);
            Rec {
                tlo,
                thi,
                alo: v.lb.as_i64().unwrap_or(0),
                ahi: v.ub.as_i64().unwrap_or(0),
                id,
            }
        })
        .collect();
    recs.sort_by_key(|r| (r.tlo, r.thi));
    recs
}

/// Replay the window sweep's pool trace (window `[-n_prec, 0]`): per closing
/// window, `k` min-k pops from the `A↓` order and `k` max-k pops from the
/// `A↑` order (each a *non-root deletion* in the other heaps — the paper's
/// point), reinsertions, and watermark evictions from the `τ↑` order.
fn replay<const CONNECTED: bool>(
    pool: &mut Heaps<Rec, Cmp, CONNECTED>,
    recs: &[Rec],
    n_prec: i64,
    k: usize,
) -> usize {
    let mut open: VecDeque<(i64, i64)> = VecDeque::new(); // (thi, tlo), FIFO-ish
    let mut work = 0usize;
    let mut scratch: Vec<Rec> = Vec::with_capacity(2 * k);
    for r in recs {
        // Close windows no longer reachable.
        while let Some(&(thi, tlo)) = open.front() {
            if thi >= r.tlo {
                break;
            }
            open.pop_front();
            // min-k / max-k pool scans.
            scratch.clear();
            for h in [1usize, 2] {
                for _ in 0..k {
                    match pool.pop(h) {
                        Some(rec) => scratch.push(rec),
                        None => break,
                    }
                }
            }
            work += scratch.len();
            for rec in scratch.drain(..) {
                pool.insert(rec);
            }
            // Evict records below the closing window.
            let watermark = tlo - n_prec;
            while pool.peek(0).is_some_and(|r| r.thi < watermark) {
                pool.pop(0);
                work += 1;
            }
        }
        pool.insert(*r);
        open.push_back((r.thi, r.tlo));
    }
    work + pool.len()
}

/// Replays per arm. The arms alternate, so a drift of the host's speed
/// falls on both.
pub const REPLAYS: usize = 5;

/// Timings of the two structures on one workload configuration.
pub struct HeapExperiment {
    /// Connected (back pointers) replay times, fastest first.
    pub connected: Vec<Duration>,
    /// Unconnected (linear search) replay times, fastest first.
    pub unconnected: Vec<Duration>,
    /// Work-unit checksum — must be identical for both replays.
    pub checksum: usize,
}

/// Run the Sec. 8.2 experiment for one `(rows, uncertainty, range)` cell:
/// [`REPLAYS`] replays per arm, connected and unconnected in turn.
pub fn heaps_experiment(rows: usize, uncertainty: f64, range: i64, seed: u64) -> HeapExperiment {
    let recs = make_records(rows, uncertainty, range, seed);
    let (n_prec, k) = (3, 4);
    let (mut connected, mut unconnected, mut checksum) = (Vec::new(), Vec::new(), 0);
    for _ in 0..REPLAYS {
        let mut con: ConnectedHeap<Rec, Cmp> = ConnectedHeap::new(3, cmp3);
        let t0 = Instant::now();
        let w1 = replay(&mut con, &recs, n_prec, k);
        connected.push(t0.elapsed());

        let mut unc: UnconnectedHeaps<Rec, Cmp> = UnconnectedHeaps::new(3, cmp3);
        let t0 = Instant::now();
        let w2 = replay(&mut unc, &recs, n_prec, k);
        unconnected.push(t0.elapsed());

        assert_eq!(w1, w2, "replays must perform identical logical work");
        checksum = w1;
    }
    connected.sort();
    unconnected.sort();
    HeapExperiment {
        connected,
        unconnected,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_do_identical_work() {
        let e = heaps_experiment(2_000, 0.05, 2_000, 1);
        assert!(e.checksum > 0);
        for arm in [&e.connected, &e.unconnected] {
            assert_eq!(arm.len(), REPLAYS);
            assert!(arm.is_sorted(), "fastest first: {arm:?}");
        }
    }

    #[test]
    fn records_reflect_uncertainty() {
        let certain = make_records(500, 0.0, 1000, 2);
        assert!(certain.iter().all(|r| r.tlo == r.thi));
        let uncertain = make_records(500, 0.5, 100_000, 2);
        assert!(uncertain.iter().any(|r| r.thi > r.tlo));
    }
}
