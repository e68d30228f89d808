//! Cache-sized batch views over [`AuColumns`] — the unit of work of the
//! engine's batch-streaming executor.
//!
//! A *batch* is a zero-copy **column-slice** view of a contiguous row
//! range of a columnar AU-relation: per attribute, the three bound
//! vectors' sub-slices for that range (one shared slice for
//! certain-collapsed columns), plus the multiplicity sub-slices. The
//! physical operator pipeline (see `audb-engine`'s `exec` module) streams
//! these views through vectorized fused selection/projection kernels one
//! batch at a time, so a pipeline stage's working set stays cache-sized
//! regardless of the relation's total size, and independent batches can be
//! processed morsel-parallel with deterministic output order.
//!
//! The view adds no ownership and no copying — [`AuColumns::batches`] is
//! just a schema-carrying range chunking. The vectorized expression
//! kernels over batches ([`crate::RangeExpr::eval_batch`] /
//! [`crate::RangeExpr::truth_batch`]) live in [`crate::expr`]: they sweep
//! typed lanes through [`AuBatch::corner`], and an expression the lanes
//! cannot carry reads its cells one at a time through
//! `AuBatch::range_value`. The gather steps that materialize a kernel's
//! surviving rows into fresh columns are [`AuBatch::gather`] /
//! [`AuBatch::gather_col`].

use crate::columns::AuColumns;
use crate::mult::Mult3;
use crate::physical::PhysSlice;
use crate::range_value::RangeValue;
use crate::sortkey::Corner;
use crate::tuple::AuTuple;
use audb_rel::Schema;

/// A borrowed, contiguous row range of a columnar AU-relation, exposed as
/// per-attribute column slices: the unit the pipeline executor streams.
/// Carries the batch's ordinal position in its parent relation.
#[derive(Clone, Copy, Debug)]
pub struct AuBatch<'a> {
    rel: &'a AuColumns,
    start: usize,
    len: usize,
    index: usize,
}

impl<'a> AuBatch<'a> {
    /// Schema shared by every row of the batch.
    pub fn schema(&self) -> &'a Schema {
        self.rel.schema()
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the batch holds no rows (only possible for an empty
    /// relation's single batch — interior batches are always full).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 0-based index of this batch within the relation's batch sequence.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.rel.arity()
    }

    /// One corner of attribute `c` over this batch's rows, as a typed
    /// contiguous slice view (zero-copy; certain columns return the same
    /// lanes for all three corners).
    pub fn corner(&self, c: usize, corner: Corner) -> PhysSlice<'a> {
        self.rel
            .col(c)
            .corner(corner)
            .subslice(self.start, self.len)
    }

    /// Attribute `c` of batch-relative row `i` (one cell: the expression
    /// kernels' fallback reads only the cells an expression names).
    pub(crate) fn range_value(&self, c: usize, i: usize) -> RangeValue {
        self.rel.col(c).range_value(self.start + i)
    }

    /// The `ℕ³` annotation of batch-relative row `i`.
    pub fn mult(&self, i: usize) -> Mult3 {
        debug_assert!(i < self.len, "batch-relative index out of range");
        self.rel.mult(self.start + i)
    }

    /// Batch-relative row `i` rebuilt as a range-annotated tuple (the
    /// row-compatibility escape hatch; vectorized kernels never call it).
    pub fn tuple(&self, i: usize) -> AuTuple {
        debug_assert!(i < self.len, "batch-relative index out of range");
        self.rel.tuple(self.start + i)
    }

    /// Materialize the rows at batch-relative `idxs` with fresh
    /// annotations into owned columns (the gather step after a vectorized
    /// selection).
    pub fn gather(&self, idxs: &[usize], mults: &[Mult3]) -> AuColumns {
        let abs: Vec<usize> = idxs.iter().map(|&i| self.start + i).collect();
        self.rel.gather(&abs, mults)
    }

    /// Copy attribute `c`'s cells at batch-relative `idxs` into a fresh
    /// column (the pass-through arm of a vectorized computed projection:
    /// a bare column reference copies the column instead of re-evaluating
    /// it cell by cell).
    pub fn gather_col(&self, c: usize, idxs: &[usize]) -> crate::columns::AuColumn {
        let abs: Vec<usize> = idxs.iter().map(|&i| self.start + i).collect();
        self.rel.col(c).gather(&abs)
    }
}

/// Iterator over the batches of a columnar relation; see
/// [`AuColumns::batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    rel: &'a AuColumns,
    size: usize,
    next_start: usize,
    next_index: usize,
}

impl<'a> Iterator for Batches<'a> {
    type Item = AuBatch<'a>;

    fn next(&mut self) -> Option<AuBatch<'a>> {
        if self.next_start >= self.rel.len() {
            return None;
        }
        let start = self.next_start;
        let len = self.size.min(self.rel.len() - start);
        let index = self.next_index;
        self.next_start += len;
        self.next_index += 1;
        Some(AuBatch {
            rel: self.rel,
            start,
            len,
            index,
        })
    }
}

impl AuColumns {
    /// Iterate the relation as contiguous batches of at most `size` rows
    /// (the last batch may be shorter). Borrowing only — no value is
    /// copied.
    ///
    /// `size` is clamped to at least 1; an empty relation yields no
    /// batches.
    pub fn batches(&self, size: usize) -> Batches<'_> {
        Batches {
            rel: self,
            size: size.max(1),
            next_start: 0,
            next_index: 0,
        }
    }

    /// Number of batches `batches(size)` will yield.
    pub fn batch_count(&self, size: usize) -> usize {
        self.len().div_ceil(size.max(1))
    }

    /// The whole relation as one batch view (index 0).
    pub fn as_batch(&self) -> AuBatch<'_> {
        AuBatch {
            rel: self,
            start: 0,
            len: self.len(),
            index: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range_value::RangeValue;
    use crate::relation::AuRelation;
    use crate::RangeExpr;
    use audb_rel::Value;

    fn rel(n: usize) -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a"]),
            (0..n).map(|i| (AuTuple::new([RangeValue::certain(i as i64)]), Mult3::ONE)),
        )
    }

    #[test]
    fn batches_cover_every_row_in_order() {
        let r = rel(10);
        let cols = r.to_columns();
        for size in [1, 3, 10, 64] {
            let batches: Vec<_> = cols.batches(size).collect();
            assert_eq!(batches.len(), cols.batch_count(size));
            let total: usize = batches.iter().map(AuBatch::len).sum();
            assert_eq!(total, 10);
            let mut flat = 0i64;
            for (bi, b) in batches.iter().enumerate() {
                assert_eq!(b.index(), bi);
                assert_eq!(b.schema(), &r.schema);
                assert!(!b.is_empty());
                for i in 0..b.len() {
                    assert_eq!(b.tuple(i), AuTuple::new([RangeValue::certain(flat)]));
                    assert_eq!(b.corner(0, Corner::Sg).value(i), Value::Int(flat));
                    flat += 1;
                }
            }
        }
    }

    #[test]
    fn empty_relation_and_zero_size_are_safe() {
        let empty = rel(0).to_columns();
        assert_eq!(empty.batches(8).count(), 0);
        assert_eq!(empty.batch_count(8), 0);
        // size 0 clamps to 1 instead of panicking.
        let three = rel(3).to_columns();
        assert_eq!(three.batches(0).count(), 3);
        assert_eq!(three.batch_count(0), 3);
    }

    #[test]
    fn batch_eval_matches_per_row_eval() {
        let r = rel(5);
        let cols = r.to_columns();
        let b = cols.as_batch();
        let e = RangeExpr::col(0).le(RangeExpr::lit(2));
        let truths = e.truth_batch(&b);
        let vals = RangeExpr::col(0).eval_batch(&b);
        assert_eq!(truths.len(), 5);
        for (i, row) in r.rows().iter().enumerate() {
            assert_eq!(truths[i], e.truth(&row.tuple));
            assert_eq!(vals[i], *row.tuple.get(0));
        }
    }

    #[test]
    fn gather_projects_and_filters() {
        let r = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            (0..4).map(|i| {
                (
                    AuTuple::new([
                        RangeValue::certain(i as i64),
                        RangeValue::new(i as i64, i as i64 + 1, i as i64 + 2),
                    ]),
                    Mult3::ONE,
                )
            }),
        );
        let cols = r.to_columns();
        let b = cols.as_batch();
        let picked = b.gather(&[1, 3], &[Mult3::ONE, Mult3::new(0, 1, 1)]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.tuple(0), r.rows()[1].tuple);
        assert_eq!(picked.mult(1), Mult3::new(0, 1, 1));
        let one = b.gather_col(1, &[2]);
        assert_eq!(one.len(), 1);
        assert_eq!(&one.range_value(0), r.rows()[2].tuple.get(1));
    }
}
