//! Row-based windowed aggregation `ω[l,u]_{f(A)→X; G; O}` (paper Fig. 3).
//!
//! Each duplicate of each input tuple defines a window: within the tuple's
//! partition (equal values on the partition-by attributes `G`), rows are
//! ordered by `<total_O` and the window covers the sort positions
//! `[pos + l, pos + u]` of the defining duplicate. The duplicate is extended
//! with `f(A)` computed over the window's rows. Sum-like aggregates are
//! evaluated with prefix sums, min/max with a monotonic deque, so a full
//! pass over a partition of `m` rows costs `O(m log m)` (the sort). The
//! paper's deterministic baseline (`Det` in Sec. 9) does not run here: it
//! is `Imp`'s engine plan over the selected-guess world
//! (`audb_workloads::runner::selected_guess`).

use crate::ops::aggregate::AggFunc;
use crate::ops::sort::total_order;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// A resolved row-based window frame: the `G`, `O`, `l` and `u` of
/// `ω[l,u]_{f(A)→X; G; O}`, Fig. 3's and Def. 3's alike (`audb_core`
/// re-exports it as `AuWindowSpec`, whose operators also require
/// `l ≤ 0 ≤ u`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Partition-by attribute indices (`G`).
    pub partition: Vec<usize>,
    /// Order-by attribute indices (`O`).
    pub order: Vec<usize>,
    /// Window start offset `l` (e.g. `-2` = 2 PRECEDING).
    pub lower: i64,
    /// Window end offset `u` (e.g. `0` = CURRENT ROW, `1` = 1 FOLLOWING).
    pub upper: i64,
}

/// The largest frame offset kept, in rows: `2⁶¹`. A frame reaching further
/// is clamped to it where the frame is constructed, which changes no
/// answer — a position is a count of stored multiplicity, far below `2⁶¹`,
/// so such a frame already holds every row on that side — and leaves
/// `position ± offset` and `size([l,u])` without an `i64` overflow
/// (`… AND 9223372036854775807 FOLLOWING` wrapped to a one-row window).
pub const MAX_FRAME_OFFSET: i64 = 1 << 61;

/// `offset` held to `±`[`MAX_FRAME_OFFSET`].
pub fn clamp_frame_offset(offset: i64) -> i64 {
    offset.clamp(-MAX_FRAME_OFFSET, MAX_FRAME_OFFSET)
}

impl WindowSpec {
    /// `ROWS BETWEEN -l PRECEDING AND u FOLLOWING` ordered on `order`,
    /// offsets clamped to [`MAX_FRAME_OFFSET`].
    pub fn rows(order: Vec<usize>, lower: i64, upper: i64) -> Self {
        WindowSpec {
            partition: Vec::new(),
            order,
            lower: clamp_frame_offset(lower),
            upper: clamp_frame_offset(upper),
        }
    }

    /// Add a PARTITION BY clause.
    pub fn partition_by(mut self, partition: Vec<usize>) -> Self {
        self.partition = partition;
        self
    }

    /// Number of rows a full window holds (`size([l,u])` in the paper).
    pub fn size(&self) -> i64 {
        self.upper - self.lower + 1
    }
}

/// Aggregate `vals[lo(i)..=hi(i)]` for the sliding ranges induced by a
/// `[l, u]` window over `0..n`, clamped to valid indices. Uses prefix sums
/// for sum/count/avg and monotonic deques for min/max. A sum is a `Float`
/// where its frame holds one, as a fold of [`Value::add`] over the frame
/// would be — what one frame answers depends on that frame alone.
///
/// Public because the selected-guess component of the AU-DB window
/// operators is exactly this over the selected-guess world in SG order
/// (`audb_core::sg_ordered_inputs`); they call it on the value slice
/// instead of building a provenance relation for [`window_rows`].
pub fn sliding_aggregate(vals: &[Value], l: i64, u: i64, f: AggFunc) -> Vec<Value> {
    let n = vals.len() as i64;
    let bounds = |i: i64| -> Option<(usize, usize)> {
        let lo = (i + l).max(0);
        let hi = (i + u).min(n - 1);
        (lo <= hi).then_some((lo as usize, hi as usize))
    };
    match f {
        AggFunc::Sum(_) | AggFunc::Avg(_) | AggFunc::Count => {
            // Prefix accumulators over (int sum, float sum, non-null count,
            // float count).
            let mut int_pre = vec![0i128; vals.len() + 1];
            let mut float_pre = vec![0f64; vals.len() + 1];
            let mut nn_pre = vec![0u64; vals.len() + 1];
            let mut floats_pre = vec![0u64; vals.len() + 1];
            for (i, v) in vals.iter().enumerate() {
                let (mut di, mut df, mut dn, mut dfl) = (0i128, 0f64, 0u64, 0u64);
                match v {
                    Value::Int(x) => {
                        di = *x as i128;
                        dn = 1;
                    }
                    Value::Float(x) => {
                        df = *x;
                        dn = 1;
                        dfl = 1;
                    }
                    _ => {}
                }
                int_pre[i + 1] = int_pre[i] + di;
                float_pre[i + 1] = float_pre[i] + df;
                nn_pre[i + 1] = nn_pre[i] + dn;
                floats_pre[i + 1] = floats_pre[i] + dfl;
            }
            (0..n)
                .map(|i| {
                    let Some((lo, hi)) = bounds(i) else {
                        return match f {
                            AggFunc::Count => Value::Int(0),
                            _ => Value::Null,
                        };
                    };
                    let count = (hi - lo + 1) as i64;
                    let nn = nn_pre[hi + 1] - nn_pre[lo];
                    let isum = int_pre[hi + 1] - int_pre[lo];
                    let fsum = float_pre[hi + 1] - float_pre[lo];
                    let floats = floats_pre[hi + 1] > floats_pre[lo];
                    match f {
                        AggFunc::Count => Value::Int(count),
                        AggFunc::Sum(_) if nn == 0 => Value::Null,
                        AggFunc::Sum(_) if floats => Value::Float(fsum + isum as f64),
                        AggFunc::Sum(_) => i64::try_from(isum)
                            .map(Value::Int)
                            .unwrap_or(Value::Float(isum as f64)),
                        AggFunc::Avg(_) if nn == 0 => Value::Null,
                        AggFunc::Avg(_) => Value::Float((fsum + isum as f64) / nn as f64),
                        _ => unreachable!(),
                    }
                })
                .collect()
        }
        AggFunc::Min(_) | AggFunc::Max(_) => {
            let at = sliding_extreme(vals, l, u, matches!(f, AggFunc::Min(_)), Value::is_null);
            (at.into_iter())
                .map(|at| at.map_or(Value::Null, |at| vals[at].clone()))
                .collect()
        }
    }
}

/// Per frame of [`sliding_aggregate`], the index of its least (`min`) or
/// greatest entry that `skip` does not name — `None` where it holds none.
/// A monotonic deque over the two-pointer sweep: both frame ends are
/// non-decreasing in `i`, so each index enters and leaves the deque once.
pub fn sliding_extreme<T: Ord>(
    vals: &[T],
    l: i64,
    u: i64,
    min: bool,
    skip: impl Fn(&T) -> bool,
) -> Vec<Option<usize>> {
    let n = vals.len() as i64;
    let mut out = Vec::with_capacity(vals.len());
    let mut deque = std::collections::VecDeque::new();
    let mut next = 0usize; // first index not yet pushed
    for i in 0..n {
        let (lo, hi) = ((i + l).max(0), (i + u).min(n - 1));
        if lo > hi {
            out.push(None);
            continue;
        }
        while next <= hi as usize {
            if !skip(&vals[next]) {
                let dominated = |&back: &usize| match min {
                    true => vals[back] >= vals[next],
                    false => vals[back] <= vals[next],
                };
                while deque.back().is_some_and(dominated) {
                    deque.pop_back();
                }
                deque.push_back(next);
            }
            next += 1;
        }
        while deque.front().is_some_and(|&f| f < lo as usize) {
            deque.pop_front();
        }
        out.push(deque.front().copied());
    }
    out
}

/// `ω[l,u]_{f(A)→X; G; O}(R)`: row-based windowed aggregation per Fig. 3.
/// The output schema is `Sch(R) ∘ (out_name)`; the result is normalized
/// (duplicates of a tuple whose windows agree merge back together, as the
/// final projection in Fig. 3 does).
pub fn window_rows(rel: &Relation, spec: &WindowSpec, f: AggFunc, out_name: &str) -> Relation {
    let arity = rel.schema.arity();
    let cmp_idxs = total_order(arity, &spec.order);

    // Partition the exploded duplicates.
    let mut partitions: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
    for row in &rel.rows {
        if row.mult == 0 {
            continue;
        }
        let key = row.tuple.project(&spec.partition);
        let bucket = partitions.entry(key).or_default();
        for _ in 0..row.mult {
            bucket.push(&row.tuple);
        }
    }

    let schema = rel.schema.with(out_name);
    let mut rows: Vec<(Tuple, u64)> = Vec::with_capacity(rel.total_mult() as usize);
    for bucket in partitions.values_mut() {
        bucket.sort_by(|a, b| a.cmp_on(b, &cmp_idxs));
        let vals: Vec<Value> = match f.input_col() {
            Some(c) => bucket.iter().map(|t| t.get(c).clone()).collect(),
            None => bucket.iter().map(|_| Value::Int(1)).collect(),
        };
        let aggs = sliding_aggregate(&vals, spec.lower, spec.upper, f);
        for (t, a) in bucket.iter().zip(aggs) {
            rows.push((t.with(a), 1));
        }
    }
    Relation::from_rows(schema, rows).normalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// Paper Example 5: sum(B) over `ROWS BETWEEN 2 PRECEDING AND CURRENT
    /// ROW`, ordered on A. The tuple (a,5,3) has multiplicity 3 and its
    /// three duplicates get sums 5, 10, 15; (b,3,1) gets 13; (b,3,4) gets 11.
    #[test]
    fn example_5_row_windows() {
        let r = Relation::from_rows(
            Schema::new(["a", "b", "c"]),
            [
                (
                    Tuple::new([Value::str("a"), Value::Int(5), Value::Int(3)]),
                    3,
                ),
                (
                    Tuple::new([Value::str("b"), Value::Int(3), Value::Int(1)]),
                    1,
                ),
                (
                    Tuple::new([Value::str("b"), Value::Int(3), Value::Int(4)]),
                    1,
                ),
            ],
        );
        let spec = WindowSpec::rows(vec![0], -2, 0);
        let out = window_rows(&r, &spec, AggFunc::Sum(1), "sum_b");
        let expect = |a: &str, b: i64, c: i64, s: i64, m: u64| {
            let t = Tuple::new([Value::str(a), Value::Int(b), Value::Int(c), Value::Int(s)]);
            assert_eq!(out.mult_of(&t), m, "({a},{b},{c}) -> {s}");
        };
        expect("a", 5, 3, 5, 1);
        expect("a", 5, 3, 10, 1);
        expect("a", 5, 3, 15, 1);
        expect("b", 3, 1, 13, 1);
        expect("b", 3, 4, 11, 1);
    }

    #[test]
    fn partition_by_isolates_groups() {
        let r = Relation::from_values(
            Schema::new(["g", "v"]),
            [[1i64, 10], [1, 20], [2, 100], [2, 200]],
        );
        let spec = WindowSpec::rows(vec![1], -10, 0).partition_by(vec![0]);
        let out = window_rows(&r, &spec, AggFunc::Sum(1), "s");
        assert_eq!(out.mult_of(&Tuple::from([1i64, 20, 30])), 1);
        assert_eq!(out.mult_of(&Tuple::from([2i64, 200, 300])), 1);
    }

    #[test]
    fn min_max_windows_match_bruteforce() {
        let vals: Vec<i64> = vec![5, 1, 4, 4, 8, 2, 7, 3, 6, 0];
        let r = Relation::from_values(
            Schema::new(["i", "v"]),
            vals.iter()
                .enumerate()
                .map(|(i, &v)| [i as i64, v])
                .collect::<Vec<_>>(),
        );
        for (l, u) in [(-2i64, 0i64), (-1, 1), (0, 3), (-5, -1)] {
            let spec = WindowSpec::rows(vec![0], l, u);
            let got_min = window_rows(&r, &spec, AggFunc::Min(1), "m");
            let got_max = window_rows(&r, &spec, AggFunc::Max(1), "m");
            for (i, _) in vals.iter().enumerate() {
                let lo = (i as i64 + l).max(0) as usize;
                let hi = ((i as i64 + u).min(vals.len() as i64 - 1)).max(-1);
                let (emin, emax) = if hi < lo as i64 {
                    (Value::Null, Value::Null)
                } else {
                    let slice = &vals[lo..=hi as usize];
                    (
                        Value::Int(*slice.iter().min().unwrap()),
                        Value::Int(*slice.iter().max().unwrap()),
                    )
                };
                let tmin = Tuple::new([Value::Int(i as i64), Value::Int(vals[i]), emin]);
                let tmax = Tuple::new([Value::Int(i as i64), Value::Int(vals[i]), emax]);
                assert_eq!(got_min.mult_of(&tmin), 1, "min i={i} l={l} u={u}");
                assert_eq!(got_max.mult_of(&tmax), 1, "max i={i} l={l} u={u}");
            }
        }
    }

    #[test]
    fn count_over_clamped_windows() {
        let r = Relation::from_values(Schema::new(["v"]), [[10i64], [20], [30]]);
        let spec = WindowSpec::rows(vec![0], -1, 0);
        let out = window_rows(&r, &spec, AggFunc::Count, "c");
        assert_eq!(out.mult_of(&Tuple::from([10i64, 1])), 1);
        assert_eq!(out.mult_of(&Tuple::from([20i64, 2])), 1);
        assert_eq!(out.mult_of(&Tuple::from([30i64, 2])), 1);
    }

    #[test]
    fn following_windows() {
        let r = Relation::from_values(Schema::new(["v"]), [[1i64], [2], [3]]);
        let spec = WindowSpec::rows(vec![0], 0, 1);
        let out = window_rows(&r, &spec, AggFunc::Sum(0), "s");
        assert_eq!(out.mult_of(&Tuple::from([1i64, 3])), 1);
        assert_eq!(out.mult_of(&Tuple::from([2i64, 5])), 1);
        assert_eq!(out.mult_of(&Tuple::from([3i64, 3])), 1);
    }

    #[test]
    fn window_entirely_out_of_range_is_empty_aggregate() {
        let r = Relation::from_values(Schema::new(["v"]), [[1i64], [2]]);
        let spec = WindowSpec::rows(vec![0], -5, -3);
        let out = window_rows(&r, &spec, AggFunc::Sum(0), "s");
        for row in &out.rows {
            assert!(row.tuple.get(1).is_null());
        }
        let outc = window_rows(&r, &spec, AggFunc::Count, "c");
        for row in &outc.rows {
            assert_eq!(row.tuple.get(1), &Value::Int(0));
        }
    }
}
