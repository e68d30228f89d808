//! Bounds on a tuple's sort position (paper Sec. 5, Equations (1)–(3)).
//!
//! The lowest possible position of the first duplicate of `t` is the total
//! certain multiplicity of tuples that *certainly* precede it; the greatest
//! possible position is the total possible multiplicity of tuples that
//! *possibly* precede it; the selected-guess position counts selected-guess
//! multiplicities of selected-guess predecessors. The `i`-th duplicate adds
//! `i` to all three (Def. 2). The sums range over tuples *other than* `t`
//! itself (paper Example 6 confirms self-exclusion): over one row per
//! hypercube, as the sort ranks, duplicate self-interleaving is entirely
//! captured by `i`. In an expanded relation, as the window ranks, the
//! copies of one hypercube are separate rows with no order between them —
//! in a world either may come first — so each counts toward every other
//! copy's possible position and never toward its certain one.

use crate::cmp::{tuple_lt, CmpSemantics};
use crate::relation::AuRelation;

/// Position bounds `(pos↓, pos_sg, pos↑)` of duplicate 0 of each row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PosBounds {
    /// Lowest possible position.
    pub lb: u64,
    /// Position in the selected-guess world.
    pub sg: u64,
    /// Greatest possible position.
    pub ub: u64,
}

impl PosBounds {
    /// Bounds of the `i`-th duplicate: all components shift by `i`.
    pub fn shift(self, i: u64) -> PosBounds {
        PosBounds {
            lb: self.lb + i,
            sg: self.sg + i,
            ub: self.ub + i,
        }
    }
}

/// Compute Equations (1)–(3) for duplicate 0 of row `target` by scanning the
/// whole relation — the quadratic reference used by the Def. 2 sort operator
/// and by tests that validate the one-pass native algorithm.
///
/// `total_idxs` must already realize `<total_O` (order-by attributes extended
/// by the remaining schema attributes).
pub fn pos_bounds(
    rel: &AuRelation,
    total_idxs: &[usize],
    target: usize,
    sem: CmpSemantics,
) -> PosBounds {
    let t = &rel.rows()[target].tuple;
    let (mut lb, mut sg, mut ub) = (0u64, 0u64, 0u64);
    for (j, row) in rel.rows().iter().enumerate() {
        if j == target {
            continue;
        }
        let mut r = tuple_lt(&row.tuple, t, total_idxs, sem);
        // Another copy of `t` possibly precedes it (module docs).
        r.ub |= row.tuple == *t;
        if r.lb {
            lb += row.mult.lb;
        }
        if r.sg {
            sg += row.mult.sg;
        }
        if r.ub {
            ub += row.mult.ub;
        }
    }
    // ⟦t' < t⟧↓ ⇒ ⟦t' < t⟧sg ⇒ ⟦t' < t⟧↑ and mult.lb ≤ mult.sg ≤ mult.ub,
    // so the bounds are ordered by construction.
    debug_assert!(lb <= sg && sg <= ub);
    PosBounds { lb, sg, ub }
}

/// All rows' duplicate-0 position bounds (still O(n²); convenience for the
/// reference operators).
pub fn all_pos_bounds(rel: &AuRelation, total_idxs: &[usize], sem: CmpSemantics) -> Vec<PosBounds> {
    (0..rel.rows().len())
        .map(|i| pos_bounds(rel, total_idxs, i, sem))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::range_value::RangeValue;
    use crate::tuple::AuTuple;
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// Paper Example 6 input; expected duplicate-0 bounds:
    /// t1 = (1, [1/1/3])  ×(1,1,2) → pos [0/0/1]
    /// t2 = ([2/3/3], 15) ×(0,1,1) → pos [2/2/3]
    /// t3 = ([1/1/2], 2)  ×(1,1,1) → pos [0/1/2]
    fn example6() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3)]),
                    Mult3::new(1, 1, 2),
                ),
                (
                    AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64)]),
                    Mult3::new(0, 1, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64)]),
                    Mult3::new(1, 1, 1),
                ),
            ],
        )
    }

    #[test]
    fn example_6_position_bounds_interval_lex() {
        let rel = example6();
        let idxs = [0usize, 1];
        let p1 = pos_bounds(&rel, &idxs, 0, CmpSemantics::IntervalLex);
        assert_eq!(
            p1,
            PosBounds {
                lb: 0,
                sg: 0,
                ub: 1
            }
        );
        let p2 = pos_bounds(&rel, &idxs, 1, CmpSemantics::IntervalLex);
        assert_eq!(
            p2,
            PosBounds {
                lb: 2,
                sg: 2,
                ub: 3
            }
        );
        let p3 = pos_bounds(&rel, &idxs, 2, CmpSemantics::IntervalLex);
        assert_eq!(
            p3,
            PosBounds {
                lb: 0,
                sg: 1,
                ub: 2
            }
        );
    }

    #[test]
    fn syntactic_bounds_are_looser_but_contain_exact() {
        let rel = example6();
        let idxs = [0usize, 1];
        for i in 0..rel.rows().len() {
            let exact = pos_bounds(&rel, &idxs, i, CmpSemantics::IntervalLex);
            let syn = pos_bounds(&rel, &idxs, i, CmpSemantics::Syntactic);
            assert!(syn.lb <= exact.lb, "row {i}");
            assert!(syn.ub >= exact.ub, "row {i}");
            assert_eq!(syn.sg, exact.sg, "row {i}");
        }
    }

    #[test]
    fn duplicate_shift() {
        let p = PosBounds {
            lb: 1,
            sg: 2,
            ub: 4,
        };
        assert_eq!(
            p.shift(3),
            PosBounds {
                lb: 4,
                sg: 5,
                ub: 7
            }
        );
    }
}
