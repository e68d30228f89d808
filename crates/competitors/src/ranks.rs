//! The uncertain top-k semantics zoo of the paper's introduction and
//! related work (Fig. 1b–1e): U-Top \[56\], U-Rank \[56\], Global-Topk \[64\] and
//! Expected Rank \[19\]. Each picks a different trade-off; none simultaneously
//! reports certain *and* possible answers — the motivation for AU-DBs.

use crate::ptk::ptk_topk_probs;
use audb_rel::ops::sort::{topk_with_pos, total_order};
use audb_rel::Tuple;
use audb_worlds::{enumerate_worlds, XTupleTable};
use std::collections::HashMap;

/// U-Top \[56\]: the most likely top-k *sequence* (Fig. 1b). Computed exactly
/// by world enumeration — use only on small inputs (`cap` worlds).
pub fn utop(table: &XTupleTable, order: &[usize], k: u64, cap: u128) -> Vec<Tuple> {
    let worlds = enumerate_worlds(table, cap);
    let mut weights: HashMap<Vec<Tuple>, f64> = HashMap::new();
    for w in &worlds {
        let top = topk_with_pos(&w.relation, order, k);
        let arity = w.relation.schema.arity();
        let seq: Vec<Tuple> = top
            .rows
            .iter()
            .map(|r| r.tuple.project(&(0..arity).collect::<Vec<_>>()))
            .collect();
        *weights.entry(seq).or_insert(0.0) += w.prob;
    }
    // Exact weight ties happen (e.g. two coin-flip alternatives splitting a
    // podium); break them toward the lexicographically smallest sequence so
    // the answer doesn't depend on HashMap iteration order.
    weights
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(seq, _)| seq)
        .unwrap_or_default()
}

/// U-Rank \[56\]: for each rank `i < k`, the tuple most likely to occupy it
/// (Fig. 1c) — the same tuple may win several ranks. Exact `O(n² k A)` via
/// the Poisson-binomial DP (`Pr[t at rank i] = Pr[exactly i others precede]`).
pub fn urank(table: &XTupleTable, order: &[usize], k: u64) -> Vec<Option<usize>> {
    let total_idxs = total_order(table.schema.arity(), order);
    let n = table.len();
    let alt_keys: Vec<Vec<Tuple>> = table
        .tuples
        .iter()
        .map(|t| {
            t.alternatives
                .iter()
                .map(|a| a.tuple.project(&total_idxs))
                .collect()
        })
        .collect();

    // rank_prob[t][i] = Pr[t exists and exactly i others precede].
    let k = k as usize;
    let mut winners: Vec<Option<(usize, f64)>> = vec![None; k];
    for ti in 0..n {
        let mut at_rank = vec![0.0f64; k];
        for (ai, alt) in table.tuples[ti].alternatives.iter().enumerate() {
            if alt.prob <= 0.0 {
                continue;
            }
            let key = (&alt_keys[ti][ai], ti);
            let mut dp = vec![0.0f64; k + 1];
            dp[0] = 1.0;
            for u in 0..n {
                if u == ti {
                    continue;
                }
                let q: f64 = table.tuples[u]
                    .alternatives
                    .iter()
                    .zip(&alt_keys[u])
                    .filter(|&(_, uk)| (uk, u) < key)
                    .map(|(ua, _)| ua.prob)
                    .sum();
                if q <= 0.0 {
                    continue;
                }
                for j in (0..=k).rev() {
                    let from_prev = if j > 0 { dp[j - 1] * q } else { 0.0 };
                    dp[j] = if j == k {
                        dp[k] + from_prev
                    } else {
                        dp[j] * (1.0 - q) + from_prev
                    };
                }
            }
            for (i, r) in at_rank.iter_mut().enumerate() {
                *r += alt.prob * dp[i];
            }
        }
        for (i, &p) in at_rank.iter().enumerate() {
            if winners[i].is_none_or(|(_, best)| p > best) {
                winners[i] = Some((ti, p));
            }
        }
    }
    winners.into_iter().map(|w| w.map(|(t, _)| t)).collect()
}

/// Global-Topk \[64\]: the `k` tuples with the highest `Pr[t ∈ top-k]`
/// (ties broken by index).
pub fn global_topk(table: &XTupleTable, order: &[usize], k: u64) -> Vec<usize> {
    let probs = ptk_topk_probs(table, order, k);
    let mut idx: Vec<usize> = (0..table.len()).collect();
    idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]).then(a.cmp(&b)));
    idx.truncate(k as usize);
    idx
}

/// Expected rank \[19\] (conditional on existence): `Σ_u Pr[u precedes t]`,
/// averaged over `t`'s alternatives. Returns the per-tuple expected rank;
/// the expected-rank top-k are the `k` smallest.
pub fn expected_ranks(table: &XTupleTable, order: &[usize]) -> Vec<f64> {
    let total_idxs = total_order(table.schema.arity(), order);
    let n = table.len();
    let alt_keys: Vec<Vec<Tuple>> = table
        .tuples
        .iter()
        .map(|t| {
            t.alternatives
                .iter()
                .map(|a| a.tuple.project(&total_idxs))
                .collect()
        })
        .collect();
    (0..n)
        .map(|ti| {
            let presence = table.tuples[ti].presence_prob();
            if presence <= 0.0 {
                return f64::INFINITY;
            }
            let mut er = 0.0;
            for (ai, alt) in table.tuples[ti].alternatives.iter().enumerate() {
                let key = (&alt_keys[ti][ai], ti);
                let preceding: f64 = (0..n)
                    .filter(|&u| u != ti)
                    .map(|u| {
                        table.tuples[u]
                            .alternatives
                            .iter()
                            .zip(&alt_keys[u])
                            .filter(|&(_, uk)| (uk, u) < key)
                            .map(|(ua, _)| ua.prob)
                            .sum::<f64>()
                    })
                    .sum();
                er += (alt.prob / presence) * preceding;
            }
            er
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::Schema;
    use audb_worlds::XTuple;

    fn certain_table() -> XTupleTable {
        XTupleTable::new(
            Schema::new(["s"]),
            (0..4)
                .map(|i: i64| XTuple::certain(Tuple::from([i * 10])))
                .collect(),
        )
    }

    #[test]
    fn all_semantics_agree_on_certain_data() {
        let t = certain_table();
        assert_eq!(global_topk(&t, &[0], 2), vec![0, 1]);
        assert_eq!(expected_ranks(&t, &[0]), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(urank(&t, &[0], 2), vec![Some(0), Some(1)]);
        let seq = utop(&t, &[0], 2, 10);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], Tuple::from([0i64]));
    }

    #[test]
    fn urank_can_repeat_a_tuple() {
        // Paper Fig. 1c: the same element may be the most likely at several
        // ranks. x0 is very likely tiny; x1 certainly 5; x2 mostly absent.
        let t = XTupleTable::new(
            Schema::new(["s"]),
            vec![
                XTuple::uniform([Tuple::from([1i64]), Tuple::from([9i64])]),
                XTuple::new(vec![audb_worlds::Alternative {
                    tuple: Tuple::from([5i64]),
                    prob: 0.4,
                }]),
            ],
        );
        let r = urank(&t, &[0], 2);
        // Rank 0: x0 (prob 0.5·1 + ... ≥ x1's 0.4·0.5); rank 1 contested.
        assert_eq!(r[0], Some(0));
    }

    #[test]
    fn expected_ranks_order_by_dominance() {
        let t = XTupleTable::new(
            Schema::new(["s"]),
            vec![
                XTuple::uniform([Tuple::from([1i64]), Tuple::from([3i64])]),
                XTuple::certain(Tuple::from([10i64])),
            ],
        );
        let er = expected_ranks(&t, &[0]);
        assert!(er[0] < er[1]);
        assert_eq!(er[1], 1.0);
    }
}
