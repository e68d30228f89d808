//! Probabilistic Threshold Top-k (PT-k, Hua et al. \[32\]).
//!
//! PT-k returns every tuple whose probability of being among the top-k
//! exceeds a threshold `p`. With `p = 1` this is the set of *certain*
//! answers, with `p → 0` the set of *possible* answers (paper Fig. 1d/1e) —
//! the configuration used as the exact competitor in Sec. 9.
//!
//! For a block-independent table, `Pr[t ∈ top-k]` decomposes over `t`'s
//! alternatives: conditioned on `t` realizing alternative `a`, every other
//! x-tuple independently precedes `t` with probability `q_u(a)` (the mass
//! of `u`'s alternatives ordered before `a`), and `t` is in the top-k iff
//! fewer than `k` others precede it — a Poisson-binomial tail evaluated by
//! the standard `O(n·k)` dynamic program. Total cost `O(n² · k · A)`:
//! exact, and deliberately expensive (this is the slow exact baseline of
//! Figs. 14/17).

use crate::{alt_keys, preceding};
use audb_worlds::XTupleTable;

/// `Pr[tuple ∈ top-k]` for every x-tuple, ascending order on `order`.
pub fn ptk_topk_probs(table: &XTupleTable, order: &[usize], k: u64) -> Vec<f64> {
    let (n, k) = (table.len(), k as usize);
    let alt_keys = alt_keys(table, order);

    (0..n)
        .map(|ti| {
            let mut prob = 0.0;
            for (ai, alt) in table.tuples[ti].alternatives.iter().enumerate() {
                if alt.prob <= 0.0 {
                    continue;
                }
                let qs = preceding(table, &alt_keys, (&alt_keys[ti][ai], ti));
                prob += alt.prob * poisson_binomial(qs, k)[..k].iter().sum::<f64>();
            }
            prob
        })
        .collect()
}

/// `dp[j] = Pr[exactly j of the given independent events occur]` for
/// `j < k`; `dp[k]` is `Pr[k or more]` (once k others precede, the tuple is
/// out regardless of the rest).
pub(crate) fn poisson_binomial(qs: impl Iterator<Item = f64>, k: usize) -> Vec<f64> {
    let mut dp = vec![0.0f64; k + 1];
    dp[0] = 1.0;
    for q in qs {
        if q <= 0.0 {
            continue;
        }
        for j in (0..=k).rev() {
            let from_prev = if j > 0 { dp[j - 1] * q } else { 0.0 };
            dp[j] = if j == k {
                dp[k] + from_prev // the ≥k bucket absorbs and never leaves
            } else {
                dp[j] * (1.0 - q) + from_prev
            };
        }
    }
    dp
}

/// The PT-k answer: indices of tuples with `Pr[t ∈ top-k] ≥ threshold`.
pub fn ptk_query(table: &XTupleTable, order: &[usize], k: u64, threshold: f64) -> Vec<usize> {
    ptk_topk_probs(table, order, k)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p >= threshold)
        .map(|(i, _)| i)
        .collect()
}

/// Certain top-k answers (`PT(1)`, numerically `p ≥ 1 − ε`).
pub fn ptk_certain(table: &XTupleTable, order: &[usize], k: u64) -> Vec<usize> {
    ptk_query(table, order, k, 1.0 - 1e-9)
}

/// Possible top-k answers (`PT(0⁺)`).
pub fn ptk_possible(table: &XTupleTable, order: &[usize], k: u64) -> Vec<usize> {
    ptk_query(table, order, k, 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::{ops::sort::topk_with_pos, Schema, Tuple, Value};
    use audb_worlds::{enumerate_worlds, XTuple};

    fn table() -> XTupleTable {
        // Fig. 1-like: three uncertain terms racing for the top.
        XTupleTable::new(
            Schema::new(["score"]),
            vec![
                XTuple::uniform([Tuple::from([2i64]), Tuple::from([3i64])]),
                XTuple::certain(Tuple::from([5i64])),
                XTuple::uniform([Tuple::from([1i64]), Tuple::from([6i64])]),
            ],
        )
    }

    /// The DP must agree with brute-force world enumeration.
    #[test]
    fn probabilities_match_enumeration() {
        let t = table();
        for k in 1..=3u64 {
            let probs = ptk_topk_probs(&t, &[0], k);
            let worlds = enumerate_worlds(&t, 1000);
            for (i, p) in probs.iter().enumerate() {
                let mut truth = 0.0;
                for w in &worlds {
                    let Some(ai) = w.choices[i] else { continue };
                    let realized = &t.tuples[i].alternatives[ai].tuple;
                    let top = topk_with_pos(&w.relation, &[0], k);
                    let hit = top.rows.iter().any(|r| &r.tuple.project(&[0]) == realized);
                    if hit {
                        truth += w.prob;
                    }
                }
                assert!(
                    (p - truth).abs() < 1e-9,
                    "tuple {i}, k={k}: dp={p} enum={truth}"
                );
            }
        }
    }

    #[test]
    fn thresholds_generalize_certain_and_possible() {
        let t = table();
        // k=1 ascending: the winner is whoever has the smallest score.
        let certain = ptk_certain(&t, &[0], 1);
        let possible = ptk_possible(&t, &[0], 1);
        // No tuple is certainly rank-0 (x0 at 2/3, x2 at 1/6 compete).
        assert!(certain.is_empty(), "{certain:?}");
        // x0 (score ≤ 3 < 5) and x2 (score 1) can be first; x1 (5) can be
        // first only if... x0 always exists with score ≤ 3 < 5, so never.
        assert_eq!(possible, vec![0, 2]);
    }

    #[test]
    fn certain_table_degenerates_to_deterministic_topk() {
        let t = XTupleTable::new(
            Schema::new(["s"]),
            (0..5)
                .map(|i| XTuple::certain(Tuple::new([Value::Int(i * 10)])))
                .collect(),
        );
        let certain = ptk_certain(&t, &[0], 2);
        assert_eq!(certain, vec![0, 1]);
        assert_eq!(ptk_possible(&t, &[0], 2), vec![0, 1]);
    }
}
