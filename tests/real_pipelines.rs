//! End-to-end sanity over the real-world dataset simulators (Sec. 9.2):
//! every method runs on every query, the structural quality relationships
//! hold (AU bounds cover the exact truth; MCDB envelopes sit inside it),
//! and the pre-aggregation pipeline is consistent across representations.

use audb::competitors::ptk_possible;
use audb::engine::JoinStrategy;
use audb::workloads::metrics::aggregate_quality;
use audb::workloads::runner::{Bounds, Method};
use audb::workloads::{all_datasets, iceberg, RankQuery};

fn pairs(approx: &Bounds, tight: &Bounds) -> Vec<((f64, f64), (f64, f64))> {
    approx
        .iter()
        .zip(tight)
        .filter_map(|(a, t)| Some(((*a)?, (*t)?)))
        .collect()
}

#[test]
fn rank_quality_relationships_hold_on_all_datasets() {
    for ds in all_datasets(0.004, 42) {
        let rq = &RankQuery { k: None, ..ds.rank };
        let tight = Method::Symb.sort(rq).value;
        let imp = Method::Imp.sort(rq).value;
        let rewr = Method::Rewr(JoinStrategy::IntervalIndex).sort(rq).value;
        let mc = Method::Mcdb { samples: 20 }.sort(rq).value;

        assert_eq!(imp, rewr, "{}: Imp and Rewr must agree", ds.name);
        let qi = aggregate_quality(pairs(&imp, &tight));
        assert!(qi.recall > 0.999, "{}: AU recall {qi:?}", ds.name);
        let qm = aggregate_quality(pairs(&mc, &tight));
        assert!(
            qm.accuracy > 0.999,
            "{}: MCDB under-approximates, so full precision: {qm:?}",
            ds.name
        );
        assert!(qm.recall <= 1.0 + 1e-9);
    }
}

#[test]
fn window_queries_cover_truth_where_computable() {
    for ds in all_datasets(0.004, 11) {
        let wq = &ds.window;
        if wq.l.abs() > 8 {
            continue; // unbounded healthcare rank window: no local truth
        }
        let tight = Method::Symb.window(wq).expect("Symb windows").value;
        let imp = Method::Imp.window(wq).expect("Imp windows").value;
        let q = aggregate_quality(pairs(&imp, &tight));
        assert!(q.recall > 0.999, "{}: {q:?}", ds.name);
    }
}

/// The pre-aggregated iceberg rank input is consistent: the AU relation
/// derived from the converted x-tuples bounds the conversion's most likely
/// world, and PT-k's possible answers are covered by the AU top-k's
/// possible answers.
#[test]
fn preaggregation_representations_are_consistent() {
    let ds = iceberg(0.004, 3);
    let rq = &ds.rank;
    let au = rq.table.to_au_relation();
    assert!(audb::worlds::bounds_world(
        &au,
        &rq.table.most_likely_world()
    ));

    let possible = ptk_possible(&rq.table, &rq.order, rq.k.expect("a top-k"));
    let imp = Method::Imp.sort(rq).value;
    for idx in possible {
        assert!(
            imp[idx].is_some(),
            "PT-k possible answer {idx} missing from the AU top-k"
        );
    }
}

#[test]
fn healthcare_inline_rank_bounds_are_ranks() {
    let ds = audb::workloads::healthcare(0.02, 5);
    let wq = &ds.window;
    let imp = Method::Imp.window(wq).expect("Imp windows").value;
    let n = wq.table.len() as f64;
    let mut covered = 0;
    for b in imp.iter().flatten() {
        assert!(b.0 >= 1.0 && b.1 <= n, "rank bounds out of [1, n]");
        covered += 1;
    }
    assert_eq!(covered, wq.table.len());
}
