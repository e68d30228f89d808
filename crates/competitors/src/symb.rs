//! The `Symb` baseline: exact certain/possible bounds from a symbolic-style
//! computation.
//!
//! The paper encodes ranks and aggregates as symbolic expressions and asks
//! Z3 for tight bounds — exact, but orders of magnitude slower than the
//! AU-DB operators, and infeasible beyond ~1k rows for windows. Our
//! stand-in preserves both properties (DESIGN.md §2):
//!
//! * [`symb_sort_bounds`] reasons per tuple over all pairwise precedence
//!   possibilities — a generic `O(n²·A²)` computation that yields *tight*
//!   position bounds (the same values as the closed form in
//!   `audb_worlds::exact`, which is what we test it against);
//! * the window side is the capped local enumeration of
//!   [`audb_worlds::exact_window_bounds`], called as it stands (the
//!   workloads' `runner::Method::Symb`) — exact, exponential in local
//!   uncertainty, and prone to blowing its budget exactly like Z3 blew its
//!   stack in the paper's Fig. 15 setup.

use crate::alt_keys;
use audb_worlds::XTupleTable;

/// Tight `[pos_min, pos_max]` per tuple by pairwise precedence reasoning
/// (deliberately generic and quadratic — the exact-competitor cost profile).
pub fn symb_sort_bounds(table: &XTupleTable, order: &[usize]) -> Vec<Option<(u64, u64)>> {
    let n = table.len();
    let alt_keys = alt_keys(table, order);

    (0..n)
        .map(|ti| {
            if alt_keys[ti].is_empty() {
                return None;
            }
            let (mut lo, mut hi) = (0u64, 0u64);
            for u in 0..n {
                if u == ti {
                    continue;
                }
                if alt_keys[u].is_empty() {
                    continue;
                }
                // u unavoidably precedes ti iff u always exists and every
                // (u-alt, ti-alt) pair orders u strictly first; u possibly
                // precedes iff some pair does. Key ties count as neither
                // (consistent with the strict corner comparisons of the
                // interval-lex semantics and `exact_position_bounds`).
                let mut always = table.tuples[u].certainly_exists();
                let mut sometimes = false;
                for (uai, uk) in alt_keys[u].iter().enumerate() {
                    let up = table.tuples[u].alternatives[uai].prob;
                    if up <= 0.0 {
                        continue;
                    }
                    for tk in &alt_keys[ti] {
                        if uk < tk {
                            sometimes = true;
                        } else {
                            always = false;
                        }
                    }
                }
                if always {
                    lo += 1;
                }
                if sometimes {
                    hi += 1;
                }
            }
            Some((lo, hi))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::{Schema, Tuple};
    use audb_worlds::{exact_position_bounds, XTuple};

    fn table() -> XTupleTable {
        XTupleTable::new(
            Schema::new(["k"]),
            vec![
                XTuple::certain(Tuple::from([10i64])),
                XTuple::uniform([Tuple::from([5i64]), Tuple::from([15i64])]),
                XTuple::new(vec![audb_worlds::Alternative {
                    tuple: Tuple::from([12i64]),
                    prob: 0.5,
                }]),
                XTuple::certain(Tuple::from([20i64])),
            ],
        )
    }

    /// The pairwise symbolic computation reproduces the closed-form tight
    /// bounds exactly.
    #[test]
    fn agrees_with_closed_form() {
        let t = table();
        assert_eq!(symb_sort_bounds(&t, &[0]), exact_position_bounds(&t, &[0]));
    }
}
