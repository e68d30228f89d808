//! One-pass ranged windowed aggregation (paper Algorithm 3, with the
//! `compBounds` family of Algorithms 4–6) built on connected heaps.
//!
//! The input rows are first ranked by the sort sweep (`sort::positions`:
//! `τ` ranges per row, every entry's possible multiplicity is 1 — no sorted
//! relation is built), then swept in ascending `τ↓` order:
//!
//! * `openw` — a min-heap on `τ↑` of tuples whose windows are not yet
//!   complete. A tuple `s` closes once the incoming `τ↓` exceeds
//!   `s.τ↑ + u` (no future tuple can possibly belong to its window).
//! * `cert` — the certain tuples (`k↓ ≥ 1`) in arrival order, which is
//!   `τ↓` order: a range scan over `τ↓ ∈ [s.τ↑ + l, s.τ↓ + u]` keeping
//!   `τ↑ ≤ s.τ↓ + u` yields exactly the tuples *certainly* in `s`'s window
//!   (Fig. 6). Tuples below every open window are evicted from the front.
//! * `poss` — a **three-way connected heap** ordered by `τ↑` (eviction),
//!   `A↓` ascending (min-k candidates) and `A↑` descending (max-k
//!   candidates). `compBounds` scans the `A↓`/`A↑` components in sorted
//!   order, skipping tuples that are certain members or outside `s`'s
//!   possible window, and takes at most `possn = size([l,u]) − |certain|`
//!   contributions — the min-k/max-k pools of Sec. 6.1.
//!
//! Two deviations from the paper's pseudocode, both strictly tighter and
//! needed for exact agreement with the Def. 3 reference
//! ([`audb_core::window_ref`]): pool scans filter candidates to tuples
//! actually overlapping `s`'s possible window, and eviction thresholds use
//! the minimum `τ↓` over *all* open windows rather than the closing
//! window's own `τ↓` (later-closing windows may start earlier when position
//! ranges are wide). Selected-guess components are the deterministic
//! window operator over the selected-guess world in the one order
//! [`audb_core::sg_ordered_inputs`] defines, shared with the reference.
//!
//! The copies of one input row (`k↑ > 1`) have no order between them: in a
//! world either may come first, so each takes the hull of the copies'
//! position ranges (`maintain`), which is the reference's rule that a copy
//! counts toward every other copy's possible position and never toward its
//! certain one.
//!
//! `PARTITION BY` runs one sweep per partition value, an extension over
//! the paper's benchmarked configuration. A value that is a range is a
//! value of its own, and then every value's sweep runs over the rows whose
//! value possibly equals it, annotated by the truth of that equality — the
//! `Q_part` join of the rewrite (Fig. 8) — and emits only its own rows
//! (`groups`).
//!
//! ## Performance notes
//!
//! The sweep itself lives in [`crate::maintain`] (its module docs describe
//! the state) and holds no tuple: it reads the aggregated attribute's range
//! from the lanes and leaves, per closed window, the input row's number and
//! the aggregate. The pool compares the prefixes of the aggregated
//! attribute's bounds, and the values only where two prefixes tie; a sorted
//! pool scan visits only the heap nodes it yields. Partitions of point
//! values are index views over the input, not copies (a range value's
//! members are gathered); their sweeps are independent and run in
//! parallel (`audb_par`), their rows concatenated in deterministic
//! partition-value order. Partition values
//! are ordered like every key here: `(prefix, row)` pairs radix-sorted
//! ([`audb_core::sort_prefixes`]), key bytes encoded for the rows of one
//! prefix only.
//!
//! ## One ranking, no tuple
//!
//! The output is normalized without a tuple being sorted — or built: its
//! canonical order ([`audb_core::canonical_order`], what `normalize` would
//! sort by) is taken from the prefixes of the lower-bound corner of the
//! *input* lanes ([`audb_core::prefix_at`]); that corner is encoded only
//! for rows whose prefixes tie, and the aggregate and the other corners
//! only for rows that tie on the whole corner — split duplicates of one
//! hypercube, hypercubes equal on every lower bound — which merge when
//! equal throughout. The result is then the input's lanes gathered in that
//! order plus one aggregate column ([`AuColumns::gather_extended`]),
//! flagged normalized through [`AuColumns::assume_canonical`], which
//! checks the claim in debug builds. The kernel reports where each stage
//! ends to the [`Stages`] sink it is handed, a group's stages from the
//! worker that sweeps it. [`window_native`] is the door for a caller that
//! holds rows and wants rows: it transposes once each way.

use crate::maintain::{WindowMaintain, WindowRow};
use crate::Stages;
use audb_core::{
    canonical_order, prefix_at, sort_prefixes, AuColumn, AuColumns, AuRelation, AuTuple,
    AuWindowSpec, Corner, KeyArena, Mult3, RangeValue, WinAgg,
};

/// `ω[l,u]_{f(A)→X; G; O}(R)` — one-pass equivalent of
/// [`audb_core::window_ref`] — for a caller that holds rows and wants
/// rows: transposed here, once each way, around
/// [`window_columns_native`].
pub fn window_native(
    rel: &AuRelation,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- the row door `benchmark/`'s bench-trace imports (ROADMAP item 5b removes it); no operator calls it
    let out = window_columns_native(&rel.to_columns(), spec, agg, out_name, &());
    // lint: allow(no-transpose-between-operators) -- the same door, on its way out
    out.to_rows()
}

/// Is row `row`'s value of the `partition` attributes a range?
pub(crate) fn ranged(cols: &AuColumns, partition: &[usize], row: usize) -> bool {
    partition.iter().any(|&g| !cols.col(g).certain_at(row))
}

/// The rows of `cols` that exist (`k↑ > 0`), one run per value of the
/// `partition` attributes: `(key of the value, row indices)` in value
/// order, stored order within — sorted by prefix, by key bytes only where
/// prefixes tie. A range is a value of its own, keyed by all its corners.
pub(crate) fn partitions(cols: &AuColumns, partition: &[usize]) -> Vec<(Vec<u8>, Vec<usize>)> {
    let rows: Vec<usize> = (0..cols.len())
        .filter(|&row| !cols.mult(row).is_zero())
        .collect();
    // Without a PARTITION BY the rows are one run as they stand, and their
    // keys — all empty — are not compared (2 ms of an 8 192-row window went
    // into memcmp over nothing).
    if partition.is_empty() {
        return vec![(Vec::new(), rows)];
    }
    // Every sort is stable: stored order within a value.
    let mut refs: Vec<(u64, u32)> = (rows.iter().enumerate())
        .map(|(slot, &row)| (prefix_at(cols, row, Corner::Sg, partition), slot as u32))
        .collect();
    sort_prefixes(&mut refs);
    let mut parts = Vec::new();
    let mut keys = KeyArena::with_capacity(0, 0);
    for run in refs.chunk_by(|a, b| a.0 == b.0) {
        keys.clear();
        for &(_, slot) in run {
            let row = rows[slot as usize];
            keys.extend_corner_at(cols, row, Corner::Sg, partition);
            if ranged(cols, partition, row) {
                keys.extend_corner_at(cols, row, Corner::Lb, partition);
                keys.extend_corner_at(cols, row, Corner::Ub, partition);
            }
            keys.end_key();
        }
        let by_value = keys.sorted_slots();
        for value in by_value.chunk_by(|&a, &b| keys.key(a) == keys.key(b)) {
            let members = value.iter().map(|&at| rows[run[at].1 as usize]).collect();
            parts.push((keys.key(value[0]).to_vec(), members));
        }
    }
    parts
}

/// The rows one sweep of the window runs over (`groups`): indices into
/// the input and, where some partition value is a range, the annotations
/// they take there and how many of them, the first, are the group's own.
type Group = (Vec<usize>, Option<(Vec<Mult3>, usize)>);

/// One group per partition value ([`partitions`]). While every value is a
/// point, a group is its value's rows. Otherwise a group's members are the
/// rows whose value possibly equals its own, annotations filtered by the
/// truth of that equality — `Q_part`'s range-overlap join, filtered as
/// [`audb_core::window_ref`] filters — and only its own rows take its
/// answer.
fn groups(cols: &AuColumns, partition: &[usize]) -> Vec<Group> {
    let parts = partitions(cols, partition);
    let ranges: Vec<usize> = (0..parts.len())
        .filter(|&p| (parts[p].1.first()).is_some_and(|&row| ranged(cols, partition, row)))
        .collect();
    if ranges.is_empty() {
        return parts.into_iter().map(|(_, rows)| (rows, None)).collect();
    }
    let values: Vec<AuTuple> = parts.iter().map(|(_, rows)| cols.tuple(rows[0])).collect();
    let all: Vec<usize> = (0..parts.len()).collect();
    (0..parts.len())
        .map(|p| {
            // Two points are equal or not; a range may equal anything.
            let others = if ranges.binary_search(&p).is_ok() {
                &all
            } else {
                &ranges
            };
            let (mut rows, mut mults) = (Vec::new(), Vec::new());
            for &q in std::iter::once(&p).chain(others.iter().filter(|&&q| q != p)) {
                let truth = values[q].eq_on(&values[p], partition);
                if truth.ub {
                    rows.extend(&parts[q].1);
                    mults.extend(parts[q].1.iter().map(|&r| cols.mult(r).filter(truth)));
                }
            }
            (rows, Some((mults, parts[p].1.len())))
        })
        .collect()
}

/// `ω[l,u]_{f(A)→X; G; O}(R)` over a columnar relation: the one-pass
/// equivalent of [`audb_core::window_ref`], columns in and columns out.
/// Reports `"partition"`, then per group `"rank"`, `"items"`,
/// `"selected-guess"` and `"sweep"` — from the worker that sweeps it —
/// then `"order"` and `"materialise"` to `stages`.
pub fn window_columns_native<S: Stages>(
    cols: &AuColumns,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
    stages: &S,
) -> AuColumns {
    let at = stages.mark();
    // A group restores its own rows' annotations from the input, which
    // must hold them merged: where a partition value is a range, identical
    // rows stored apart are merged first. The engine's output bound counts
    // every merged multiplicity, so none overflows.
    let merged;
    let ranges =
        (0..cols.len()).any(|r| ranged(cols, &spec.partition, r) && !cols.mult(r).is_zero());
    let cols = if cols.is_normalized() || !ranges {
        cols
    } else {
        merged = cols
            .clone()
            .normalize()
            .expect("multiplicities within the output bound");
        &merged
    };
    let groups = groups(cols, &spec.partition);
    stages.stage(at, "partition");
    let inner = AuWindowSpec {
        partition: Vec::new(),
        order: spec.order.clone(),
        lower: spec.lower,
        upper: spec.upper,
    };
    // The one-batch special case of the resumable sweep: construct a
    // `WindowMaintain`, feed it the whole group, flush. Keeping the
    // one-shot operator and the incremental maintenance on the *same* code
    // path is what guarantees they can never disagree. Groups come in
    // deterministic order; their sweeps are embarrassingly parallel.
    let sweep = |(rows, filtered): &Group| {
        let mut m = WindowMaintain::new(inner.clone(), agg);
        let Some((mults, own)) = filtered else {
            m.apply_rows(cols, 0, rows, cols.is_normalized(), stages);
            return m.finish();
        };
        let members = cols.gather(rows, mults);
        let mut m = m.emitting_below(*own as u32);
        m.apply_rows(&members, 0, &Vec::from_iter(0..members.len()), true, stages);
        // The group's own rows, each under its own annotation.
        (m.finish().into_iter().map(|r| {
            let row = rows[r.row as usize];
            let mult = cols.mult(row).copy(u64::from(r.dup));
            WindowRow {
                row: row as u32,
                mult,
                ..r
            }
        }))
        .collect()
    };
    let sweeps = audb_par::par_map(&groups, sweep);
    let at = stages.mark();
    let rows: Vec<WindowRow> = sweeps.into_iter().flatten().collect();
    // The output's canonical order — what `normalize` would sort these rows
    // into — from the lower-bound corner of the input lanes; the aggregate
    // and the other corners are encoded for the rows that tie on it only
    // (split duplicates of one hypercube, hypercubes equal on every lower
    // bound), which merge when equal throughout as they would there.
    let all: Vec<usize> = (0..cols.arity()).collect();
    let order = canonical_order(
        rows.len(),
        |out| rows[out].mult,
        |out| prefix_at(cols, rows[out].row as usize, Corner::Lb, &all),
        |keys, out| keys.extend_corner_at(cols, rows[out].row as usize, Corner::Lb, &all),
        |keys, out| {
            let WindowRow { row, x, .. } = &rows[out];
            keys.extend_value(&x.lb);
            keys.extend_corner_at(cols, *row as usize, Corner::Ub, &all);
            keys.extend_value(&x.ub);
            keys.extend_corner_at(cols, *row as usize, Corner::Sg, &all);
            keys.extend_value(&x.sg);
        },
    )
    .expect("split rows have k↑ = 1, and no more of them than a u64 counts");
    let at = stages.stage(at, "order");
    // The input's lanes in that order, and the aggregates as one column.
    let x = aggregate_column(order.iter().map(|&(out, _)| &rows[out].x));
    let mut idxs = Vec::with_capacity(order.len());
    let mut mults = [0; 3].map(|_| Vec::with_capacity(order.len()));
    for (out, mult) in order {
        idxs.push(rows[out].row as usize);
        mults[0].push(mult.lb);
        mults[1].push(mult.sg);
        mults[2].push(mult.ub);
    }
    let rel = (cols.gather_extended(&idxs, mults, out_name, x)).assume_canonical();
    stages.stage(at, "materialise");
    rel
}

/// The aggregates `xs`, in output order, as the output's last column:
/// three `i64` lanes and their certainty bits written in one pass while
/// every bound is an integer (any aggregate of integer data short of a
/// `SUM` that left `i64`), else whatever layout the values infer.
pub(crate) fn aggregate_column<'a>(
    xs: impl ExactSizeIterator<Item = &'a RangeValue> + Clone,
) -> AuColumn {
    let mut lanes = [0; 3].map(|_| Vec::with_capacity(xs.len()));
    for x in xs.clone() {
        let (Some(lb), Some(sg), Some(ub)) = (x.lb.as_i64(), x.sg.as_i64(), x.ub.as_i64()) else {
            return AuColumns::column_from_values(xs.cloned().collect());
        };
        lanes[0].push(lb);
        lanes[1].push(sg);
        lanes[2].push(ub);
    }
    let [lb, sg, ub] = lanes;
    AuColumn::from_i64_lanes(lb, sg, ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{window_ref, CmpSemantics};
    use audb_rel::{Schema, Value};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn small_rel() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::new([rv(1, 1, 3), rv(5, 7, 7)]), Mult3::ONE),
                (AuTuple::new([rv(2, 2, 2), rv(-3, -3, -3)]), Mult3::ONE),
                (
                    AuTuple::new([rv(4, 5, 6), rv(10, 10, 12)]),
                    Mult3::new(0, 1, 1),
                ),
                (AuTuple::new([rv(8, 8, 8), rv(1, 2, 3)]), Mult3::ONE),
            ],
        )
    }

    #[test]
    fn matches_reference_on_small_relation() {
        for agg in [
            WinAgg::Sum(1),
            WinAgg::Count,
            WinAgg::Min(1),
            WinAgg::Max(1),
            WinAgg::Avg(1),
        ] {
            for (l, u) in [(0i64, 0i64), (-1, 0), (-2, 0), (-1, 1), (0, 2)] {
                let spec = AuWindowSpec::rows(vec![0], l, u);
                let native = window_native(&small_rel(), &spec, agg, "x");
                let reference =
                    window_ref(&small_rel(), &spec, agg, "x", CmpSemantics::IntervalLex);
                assert!(
                    native.bag_eq(&reference),
                    "agg={agg:?} l={l} u={u}\nnative:\n{native}\nreference:\n{reference}"
                );
            }
        }
    }

    /// Rows that tie on `τ_sg` — equal selected guesses on every
    /// attribute — are ordered by content, as `sg_ordered_inputs` says, not
    /// by arrival: `b` arrives first (fewer possible predecessors), `a`
    /// comes first (smaller lower bounds), and which of them is first
    /// decides whose selected-guess sum spans one row and whose two.
    #[test]
    fn tied_selected_guesses_are_ordered_by_content() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::new([rv(4, 5, 6), rv(1, 2, 3)]), Mult3::ONE), // b
                (AuTuple::new([rv(0, 5, 9), rv(2, 2, 2)]), Mult3::ONE), // a
                (AuTuple::new([rv(7, 7, 7), rv(10, 10, 10)]), Mult3::ONE),
            ],
        );
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        let native = window_native(&rel, &spec, WinAgg::Sum(1), "x");
        let sg_of = |o_lb: i64| {
            let row = (native.rows().iter()).find(|r| r.tuple.get(0).lb == Value::Int(o_lb));
            row.expect("one row per input row").tuple.get(2).sg.clone()
        };
        assert_eq!((sg_of(0), sg_of(4)), (Value::Int(2), Value::Int(4)));
        let reference = window_ref(&rel, &spec, WinAgg::Sum(1), "x", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn certain_partition_by_splits_groups() {
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                (
                    AuTuple::new([rv(1, 1, 1), rv(1, 1, 2), rv(10, 10, 10)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(1, 1, 1), rv(2, 3, 3), rv(20, 20, 20)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(2, 2, 2), rv(1, 1, 1), rv(100, 100, 100)]),
                    Mult3::ONE,
                ),
            ],
        );
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let native = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        let reference = window_ref(&rel, &spec, WinAgg::Sum(2), "s", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn many_partitions_parallel_sweep_is_deterministic() {
        // 40 partitions × 6 rows; the parallel sweep must agree with the
        // reference and with itself under a forced single thread.
        let mut rows = Vec::new();
        for g in 0..40i64 {
            for o in 0..6i64 {
                let unc = (g + o) % 3 == 0;
                let (olo, ohi) = if unc { (o, o + 2) } else { (o, o) };
                rows.push((
                    AuTuple::new([
                        rv(g, g, g),
                        rv(olo, o, ohi),
                        rv(g * 10 + o, g * 10 + o, g * 10 + o + 1),
                    ]),
                    if unc { Mult3::new(0, 1, 1) } else { Mult3::ONE },
                ));
            }
        }
        let rel = AuRelation::from_rows(Schema::new(["g", "o", "v"]), rows);
        let spec = AuWindowSpec::rows(vec![1], -2, 0).partition_by(vec![0]);
        let native = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        let reference = window_ref(&rel, &spec, WinAgg::Sum(2), "s", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
        let again = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        assert!(native.bag_eq(&again));
        assert_eq!(native.rows().len(), again.rows().len());
        for (a, b) in native.rows().iter().zip(again.rows()) {
            assert_eq!(a, b, "parallel sweep order must be deterministic");
        }
    }

    /// A range partition value is a group of its own, over the rows whose
    /// value possibly equals it; a point value's group takes in the ranges
    /// that cover it. Each row keeps its own annotation.
    #[test]
    fn uncertain_partition_values_match_reference() {
        let row =
            |g: RangeValue, o: i64, v: i64, m| (AuTuple::new([g, rv(o - 1, o, o), rv(v, v, v)]), m);
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                row(rv(1, 1, 2), 1, 5, Mult3::new(1, 1, 2)),
                row(rv(1, 1, 2), 3, 2, Mult3::ONE),
                row(rv(1, 1, 1), 2, 7, Mult3::ONE),
                row(rv(2, 2, 2), 1, 1, Mult3::new(0, 1, 1)),
                row(rv(3, 3, 3), 2, 9, Mult3::ONE),
            ],
        );
        for agg in [WinAgg::Sum(2), WinAgg::Count, WinAgg::Min(2)] {
            let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
            let native = window_native(&rel, &spec, agg, "x");
            let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
            assert!(
                native.bag_eq(&reference),
                "{agg:?}\nnative:\n{native}\nreference:\n{reference}"
            );
        }
    }

    /// Groups swept in parallel report their stages from their workers:
    /// the whole run's once, a group's once per group — and listening
    /// changes nothing in the output. Five groups: `g` = 0…3 and `[1, 2]`.
    #[test]
    fn a_parallel_window_reports_its_stages() {
        let row = |g, o| (AuTuple::new([g, rv(o, o, o + 1), rv(o, o, o)]), Mult3::ONE);
        let mut rows: Vec<_> = (0..32).map(|i| row(rv(i % 4, i % 4, i % 4), i)).collect();
        rows.push(row(rv(1, 1, 2), 7));
        let cols = AuRelation::from_rows(Schema::new(["g", "o", "v"]), rows).to_columns();
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let heard = std::sync::Mutex::default();
        let listened = window_columns_native(&cols, &spec, WinAgg::Sum(2), "x", &heard);
        let quiet = window_columns_native(&cols, &spec, WinAgg::Sum(2), "x", &());
        assert_eq!(format!("{listened:?}"), format!("{quiet:?}"));
        let names: Vec<&str> = heard.into_inner().unwrap();
        let count = |name| names.iter().filter(|&&n| n == name).count();
        for name in ["partition", "order", "materialise"] {
            assert_eq!(count(name), 1, "{name} in {names:?}");
        }
        for name in ["rank", "items", "selected-guess", "sweep"] {
            assert_eq!(count(name), 5, "{name} in {names:?}");
        }
    }

    #[test]
    fn certain_input_equals_deterministic() {
        use audb_rel::{window_rows, AggFunc, Relation, WindowSpec};
        let det = Relation::from_values(
            Schema::new(["o", "v"]),
            [[1i64, 4], [2, -2], [3, 9], [4, 0], [5, 7]],
        );
        let au = AuRelation::certain(&det);
        let spec = AuWindowSpec::rows(vec![0], -2, 0);
        let native = window_native(&au, &spec, WinAgg::Sum(1), "s");
        let dout = window_rows(
            &det,
            &WindowSpec::rows(vec![0], -2, 0),
            AggFunc::Sum(1),
            "s",
        );
        assert!(native.sg_world().bag_eq(&dout), "{native}\nvs\n{dout}");
        for row in native.rows() {
            assert!(row.tuple.get(2).is_certain());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let rel = AuRelation::empty(Schema::new(["o", "v"]));
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        assert!(window_native(&rel, &spec, WinAgg::Sum(1), "s").is_empty());
    }
}
