//! One-pass non-deterministic sort and top-k (paper Algorithm 1 + the
//! `split` of Algorithm 2).
//!
//! The input is scanned in ascending order of the *lower-bound corner* of
//! the order-by key (`O↓`); a min-heap `todo` keyed on the upper-bound
//! corner (`O↑`) holds tuples whose position upper bound is not yet known.
//! When an incoming tuple's `O↓` exceeds a heap tuple's `O↑`, that heap
//! tuple's window of possible predecessors is complete and it is *emitted*:
//!
//! * its position lower bound was fixed at insertion time (`rank↓` = total
//!   certain multiplicity of tuples emitted before it — exactly the tuples
//!   `u` with `u.O↑ <lex t.O↓`, i.e. Equation (1));
//! * its position upper bound is derived from `rank↑` (total possible
//!   multiplicity processed so far). Unlike the paper's pseudocode, which
//!   over-counts by the tuple's own multiplicity and by processed tuples
//!   whose `O↓` *equals* the emitted tuple's `O↑` (not strict predecessors),
//!   we subtract both — tracked per distinct lower-bound key — so the
//!   emitted bound equals Equation (3) exactly. The result is
//!   property-tested to be *identical* to the Def. 2 reference.
//!
//! Selected-guess positions are deterministic and computed by a sorting
//! pre-pass over the selected-guess corners (Equation (2)).
//!
//! With `k` given, the scan stops once `rank↓ ≥ k` (all further tuples are
//! certainly out of the top-k); position bounds of survivors are capped at
//! `k` as in the paper's `emit` (both are applied to the reference, too,
//! when comparing). Uses the exact interval-lexicographic comparison
//! semantics ([`audb_core::CmpSemantics::IntervalLex`]).
//!
//! ## Zero-allocation keys
//!
//! All corner projections (`O↓`, `O↑`, selected guess) are encoded **once
//! per row** into memcmp-comparable [`SortKey`]s
//! ([`audb_core::sortkey`]). Every comparison in the pre-pass sorts, the
//! `todo` heap and the per-key bucket map is a plain byte compare — the
//! previous implementation materialized corner `Tuple`s and compared
//! `Vec<Value>` element-wise. Already-normalized inputs skip the
//! normalization pass entirely via [`AuRelation::normalized`].

use audb_core::{AuRelation, AuRow, Corner, Mult3, RangeValue, SortKey};
use audb_rel::ops::sort::total_order;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Heap entry: `(O↑ dense rank, insertion seq, row, rank↓ at insertion)`.
/// Ordered by the first two fields (`seq` is unique, so the trailing
/// payload never participates) — a total order, so pops are deterministic
/// and FIFO among equal `O↑` keys, exactly like the previous
/// byte-key + seq ordering. `Copy`: pushing allocates nothing.
type Pending = (u32, u32, u32, u64);

/// One output row of the sweep before it is materialised: which input row
/// backs it, which of that row's possible duplicates it is (`split`,
/// Algorithm 2), its position bounds and its own multiplicity triple.
/// [`sort_native`] / [`topk_native`] append the position to a copy of the
/// tuple; the window sweep ([`crate::maintain`]) consumes these directly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Position {
    /// Index into the input rows of the (first stored copy of the) row.
    pub row: u32,
    /// Duplicate index within the row's merged possible multiplicity
    /// (`> 0` only where the fused normalisation found `k↑ > 1`).
    pub dup: u32,
    pub tau_lb: u64,
    pub tau_sg: u64,
    pub tau_ub: u64,
    pub mult: Mult3,
}

/// `sort_{O→τ}(R)` — one-pass equivalent of [`audb_core::sort_ref`] under
/// interval-lex comparison. The input is normalized first (identical
/// hypercubes must be merged for duplicate offsets to be meaningful);
/// already-normalized inputs are borrowed, not copied.
pub fn sort_native(rel: &AuRelation, order: &[usize], pos_name: &str) -> AuRelation {
    materialise(rel, order, pos_name, None)
}

/// Top-k: sort + AU-selection `σ_{τ < k}` fused into the scan with early
/// termination; position bounds capped at `k` (paper Algorithm 1, `emit`).
pub fn topk_native(rel: &AuRelation, order: &[usize], k: u64, pos_name: &str) -> AuRelation {
    materialise(rel, order, pos_name, Some(k))
}

fn materialise(rel: &AuRelation, order: &[usize], pos_name: &str, k: Option<u64>) -> AuRelation {
    let rows = rel.rows();
    let positions = sort_positions(rows, rel.schema.arity(), order, rel.is_normalized(), k);
    AuRelation::from_rows(
        rel.schema.with(pos_name),
        positions.iter().map(|p| {
            let pos = RangeValue::from_i64s(p.tau_lb as i64, p.tau_sg as i64, p.tau_ub as i64);
            (rows[p.row as usize].tuple.with(pos), p.mult)
        }),
    )
}

/// The rank computation of Algorithm 1 + `split` over `rows` (owned rows
/// or references to them — a partition of a relation is a `&[&AuRow]`), in
/// emission order. `normalized` asserts the rows are distinct and
/// zero-free, which skips the fused normalisation.
pub(crate) fn sort_positions<R: Borrow<AuRow>>(
    rows: &[R],
    arity: usize,
    order: &[usize],
    normalized: bool,
    k: Option<u64>,
) -> Vec<Position> {
    let total_idxs = total_order(arity, order);
    let nrows = rows.len();
    let mut out: Vec<Position> = Vec::with_capacity(nrows);
    let corner_keys = |corner: Corner| -> Vec<SortKey> {
        rows.iter()
            .map(|r| SortKey::of_corner(&r.borrow().tuple, corner, &total_idxs))
            .collect()
    };

    // Per-row corner keys over `<total_O`, each encoded exactly once.
    let lb_keys = corner_keys(Corner::Lb);
    let ub_keys = corner_keys(Corner::Ub);
    let sg_keys = corner_keys(Corner::Sg);

    // Normalization, fused: identical hypercubes must be merged for
    // duplicate offsets to be meaningful (see `sort_ref`). `total_idxs` is
    // a permutation of *all* columns, so the corner-key triple determines
    // the tuple up to value equality — merging hashes the keys we already
    // hold instead of cloning and canonically sorting the whole relation.
    // `live[j]` is the original row backing logical row `j`; `mult[j]` its
    // merged annotation. Normalized inputs skip the pass (rows are already
    // distinct and zero-free).
    let mut live: Vec<usize> = Vec::with_capacity(nrows);
    let mut mult: Vec<Mult3> = Vec::with_capacity(nrows);
    if normalized {
        live.extend(0..nrows);
        mult.extend(rows.iter().map(|r| r.borrow().mult));
    } else {
        let mut seen: HashMap<(&SortKey, &SortKey, &SortKey), usize> =
            HashMap::with_capacity(nrows);
        for r in 0..nrows {
            let rmult = rows[r].borrow().mult;
            if rmult.is_zero() {
                continue;
            }
            match seen.entry((&lb_keys[r], &ub_keys[r], &sg_keys[r])) {
                Entry::Occupied(e) => {
                    let j = *e.get();
                    mult[j] = mult[j] + rmult;
                }
                Entry::Vacant(v) => {
                    v.insert(live.len());
                    live.push(r);
                    mult.push(rmult);
                }
            }
        }
    }
    let n = live.len();
    if n == 0 {
        return out;
    }

    // Densify the corner keys of live rows into one shared integer rank
    // space: `rank(x) < rank(y)` iff the byte keys (hence the corner
    // values) compare that way, across both corners. Every comparison in
    // the sweep below is then a plain integer compare, and the per-key
    // bucket map becomes a flat vector.
    let (lb_rank, ub_rank, rank_count) = {
        let mut refs: Vec<(&SortKey, usize)> = Vec::with_capacity(2 * n);
        refs.extend(live.iter().enumerate().map(|(j, &r)| (&lb_keys[r], j)));
        refs.extend(live.iter().enumerate().map(|(j, &r)| (&ub_keys[r], n + j)));
        refs.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        let mut rank = vec![0u32; 2 * n];
        let mut r = 0u32;
        for j in 0..refs.len() {
            if j > 0 && refs[j].0 != refs[j - 1].0 {
                r += 1;
            }
            rank[refs[j].1] = r;
        }
        let ub = rank.split_off(n);
        (rank, ub, r as usize + 1)
    };

    // --- Selected-guess pre-pass (Equation (2)): deterministic ranks. ---
    let mut by_sg: Vec<usize> = (0..n).collect();
    by_sg.sort_unstable_by(|&a, &b| sg_keys[live[a]].cmp(&sg_keys[live[b]]));
    let mut sg_base = vec![0u64; n];
    let mut cum = 0u64;
    let mut i = 0;
    while i < n {
        // Tuples with equal sg keys do not precede each other (Eq. (2)
        // sums over strictly smaller keys), so the whole group shares the
        // cumulative multiplicity seen before it.
        let mut j = i;
        let mut group_mult = 0u64;
        while j < n && sg_keys[live[by_sg[j]]] == sg_keys[live[by_sg[i]]] {
            sg_base[by_sg[j]] = cum;
            group_mult += mult[by_sg[j]].sg;
            j += 1;
        }
        cum += group_mult;
        i = j;
    }

    // --- Main sweep (Algorithm 1). ---
    let mut by_lb: Vec<usize> = (0..n).collect();
    by_lb.sort_unstable_by_key(|&a| (lb_rank[a], a));

    let mut todo: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    let mut rank_lb = 0u64; // Σ k↓ of emitted tuples
    let mut rank_ub = 0u64; // Σ k↑ of processed tuples
                            // Σ k↑ of processed tuples per distinct lower-bound key: emitted upper
                            // bounds must not count tuples whose O↓ merely *ties* the emitted O↑.
                            // Indexed by dense key rank.
    let mut processed_by_lb: Vec<u64> = vec![0; rank_count];
    let mut seq = 0u32;

    let emit = |p: Pending,
                rank_lb: &mut u64,
                rank_ub: u64,
                processed_by_lb: &[u64],
                out: &mut Vec<Position>| {
        let (ubr, _, prow, tau_lb) = p;
        let prow = prow as usize;
        let rmult = mult[prow];
        let tau_sg = sg_base[prow];
        let bucket = processed_by_lb[ubr as usize];
        let self_extra = if lb_rank[prow] != ub_rank[prow] {
            rmult.ub
        } else {
            0
        };
        let tau_ub = rank_ub - bucket - self_extra;
        // Without early termination the bounds are exact and ordered; with
        // top-k early termination the raw sg rank (computed globally) can
        // exceed the partially-computed upper bound — the cap below restores
        // the invariant (both then equal k; see module docs).
        debug_assert!(k.is_some() || (tau_lb <= tau_sg && tau_sg <= tau_ub));
        // split (Algorithm 2): one output row per possible duplicate.
        for i in 0..rmult.ub {
            let (plb, mut psg, mut pub_) = (tau_lb + i, tau_sg + i, tau_ub + i);
            let mut m = if i < rmult.lb {
                Mult3::ONE
            } else if i < rmult.sg {
                Mult3::new(0, 1, 1)
            } else {
                Mult3::new(0, 0, 1)
            };
            if let Some(k) = k {
                // Fused σ_{τ < k} with [24] selection semantics.
                if plb >= k {
                    continue; // certainly out of the top-k
                }
                m = Mult3 {
                    lb: if pub_ < k { m.lb } else { 0 },
                    sg: if psg < k { m.sg } else { 0 },
                    ub: m.ub,
                };
                // Cap positions at k (paper: τ↑ ← min(k, rank↑)).
                psg = psg.min(k);
                pub_ = pub_.min(k);
            }
            if plb > psg {
                psg = plb; // can only happen via capping; keep the invariant
            }
            out.push(Position {
                row: live[prow] as u32,
                dup: i as u32,
                tau_lb: plb,
                tau_sg: psg,
                tau_ub: pub_,
                mult: m,
            });
        }
        *rank_lb += rmult.lb;
    };

    for &r in &by_lb {
        // Emit every pending tuple certainly ordered before the incoming one.
        while let Some(&Reverse(p)) = todo.peek() {
            if p.0 < lb_rank[r] {
                todo.pop();
                emit(p, &mut rank_lb, rank_ub, &processed_by_lb, &mut out);
            } else {
                break;
            }
        }
        if k.is_some_and(|k| rank_lb >= k) {
            // Everything from here on is certainly out of the top-k.
            break;
        }
        rank_ub += mult[r].ub;
        processed_by_lb[lb_rank[r] as usize] += mult[r].ub;
        todo.push(Reverse((ub_rank[r], seq, r as u32, rank_lb)));
        seq += 1;
    }

    // Flush remaining pending tuples (Algorithm 1, lines 10–11).
    while let Some(Reverse(p)) = todo.pop() {
        emit(p, &mut rank_lb, rank_ub, &processed_by_lb, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{sort_ref, topk_ref, AuTuple, CmpSemantics};
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

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
                    Mult3::ONE,
                ),
            ],
        )
    }

    #[test]
    fn matches_reference_on_example_6() {
        let native = sort_native(&example6(), &[0, 1], "pos");
        let reference = sort_ref(&example6(), &[0, 1], "pos", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn topk_matches_reference_with_capping() {
        for k in 0..5u64 {
            let native = topk_native(&example6(), &[0, 1], k, "pos");
            let mut reference = topk_ref(&example6(), &[0, 1], k, CmpSemantics::IntervalLex);
            cap_positions(&mut reference, k);
            assert!(
                native.bag_eq(&reference),
                "k={k}\nnative:\n{native}\nreference:\n{reference}"
            );
        }
    }

    /// Apply the paper's `τ↑ ← min(k, ·)` cap to a reference top-k result
    /// (reference keeps raw Def. 2 positions; native caps during emit).
    fn cap_positions(rel: &mut AuRelation, k: u64) {
        let pos_col = rel.schema.arity() - 1;
        for row in rel.rows_mut() {
            let p = row.tuple.0[pos_col].clone();
            let (lb, sg, ub) = p.as_i64_triple();
            row.tuple.0[pos_col] = RangeValue::from_i64s(lb, sg.min(k as i64), ub.min(k as i64));
        }
    }

    #[test]
    fn certain_relation_sorts_deterministically() {
        use audb_rel::Relation;
        let det = Relation::from_values(Schema::new(["a"]), [[5i64], [1], [3], [2], [4]]);
        let au = AuRelation::certain(&det);
        let native = sort_native(&au, &[0], "pos");
        let reference = sort_ref(&au, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
        for row in native.rows() {
            assert!(row.tuple.get(1).is_certain());
        }
    }

    #[test]
    fn duplicate_multiplicities_split_with_offsets() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([rv(1, 2, 4)]), Mult3::new(2, 2, 3))],
        );
        let native = sort_native(&rel, &[0], "pos");
        let reference = sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference), "{native}\nvs\n{reference}");
        assert_eq!(native.rows().len(), 3);
    }

    #[test]
    fn all_equal_certain_keys() {
        // Equal certain keys collapse to one row of multiplicity 3 after
        // normalization; positions 0,1,2 with certainty.
        let t = AuTuple::new([RangeValue::certain(7i64)]);
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (t.clone(), Mult3::ONE),
                (t.clone(), Mult3::ONE),
                (t.clone(), Mult3::ONE),
            ],
        );
        let native = sort_native(&rel, &[0], "pos");
        let reference = sort_ref(
            &rel.clone().normalize(),
            &[0],
            "pos",
            CmpSemantics::IntervalLex,
        );
        assert!(native.bag_eq(&reference), "{native}\nvs\n{reference}");
    }

    #[test]
    fn prenormalized_input_is_not_renormalized() {
        let rel = example6().normalize();
        assert!(rel.is_normalized());
        let native = sort_native(&rel, &[0, 1], "pos");
        let reference = sort_ref(&rel, &[0, 1], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
    }

    #[test]
    fn empty_input() {
        let rel = AuRelation::empty(Schema::new(["a"]));
        assert!(sort_native(&rel, &[0], "pos").is_empty());
        assert!(topk_native(&rel, &[0], 3, "pos").is_empty());
    }
}
