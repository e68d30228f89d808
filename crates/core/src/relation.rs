//! AU-DB relations: bags of range-annotated tuples with `ℕ³` annotations.

use crate::mult::Mult3;
use crate::range_value::RangeValue;
use crate::sortkey::SortKey;
use crate::tuple::AuTuple;
use audb_rel::Schema;
use std::borrow::Cow;
use std::fmt;

/// One row: a hypercube tuple and its multiplicity triple.
#[derive(Clone, Debug, PartialEq)]
pub struct AuRow {
    /// The range-annotated tuple.
    pub tuple: AuTuple,
    /// Its `ℕ³` annotation.
    pub mult: Mult3,
}

/// An AU-DB relation (paper Sec. 3.2).
#[derive(Clone, Debug)]
pub struct AuRelation {
    /// Attribute names.
    pub schema: Schema,
    /// Rows; the same hypercube may appear several times (normalize to
    /// merge). Private since the columnar refactor: read through
    /// [`AuRelation::rows`], mutate through [`AuRelation::push`],
    /// [`AuRelation::append`], or [`AuRelation::rows_mut`] — the mutators
    /// clear the normalization flag below, so the historical hazard
    /// (direct mutation leaving a stale `true` flag, silently skipping
    /// `normalize()`/`bag_eq()` passes) is unrepresentable.
    rows: Vec<AuRow>,
    /// True iff this relation is known to be in canonical form (merged,
    /// zero-free, key-sorted). [`AuRelation::normalize`] then returns
    /// immediately. A stale `false` only costs a redundant pass; a stale
    /// `true` is a correctness bug — hence the mutation rule on `rows`.
    normalized: bool,
}

impl AuRelation {
    /// Empty relation (trivially normalized).
    pub fn empty(schema: Schema) -> Self {
        AuRelation {
            schema,
            rows: Vec::new(),
            normalized: true,
        }
    }

    /// Build from `(tuple, mult)` pairs.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = (AuTuple, Mult3)>) -> Self {
        AuRelation {
            schema,
            rows: rows
                .into_iter()
                .map(|(tuple, mult)| AuRow { tuple, mult })
                .collect(),
            normalized: false,
        }
    }

    /// Lift a deterministic relation into a fully certain AU-relation.
    pub fn certain(rel: &audb_rel::Relation) -> Self {
        AuRelation {
            schema: rel.schema.clone(),
            rows: rel
                .rows
                .iter()
                .filter(|r| r.mult > 0)
                .map(|r| AuRow {
                    tuple: AuTuple::certain(&r.tuple),
                    mult: Mult3::certain(r.mult),
                })
                .collect(),
            normalized: false,
        }
    }

    /// Assemble from parts with an explicit normalization flag — the
    /// row↔columnar conversion's way of preserving canonical-form status.
    /// Crate-internal: callers outside `audb-core` cannot forge the flag.
    pub(crate) fn from_parts(schema: Schema, rows: Vec<AuRow>, normalized: bool) -> Self {
        AuRelation {
            schema,
            rows,
            normalized,
        }
    }

    /// The stored rows (read-only; see [`AuRelation::rows_mut`] to
    /// mutate).
    #[inline]
    pub fn rows(&self) -> &[AuRow] {
        &self.rows
    }

    /// Consume the relation into its rows.
    pub fn into_rows(self) -> Vec<AuRow> {
        self.rows
    }

    /// Measured heap footprint in bytes of the row representation: the
    /// row vector, each tuple's `RangeValue` vector, and string payloads.
    /// Compared against [`crate::AuColumns::heap_bytes`] by
    /// `repro bench`'s footprint gate.
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<AuRow>()
            + self
                .rows
                .iter()
                .map(|r| {
                    r.tuple.0.capacity() * std::mem::size_of::<RangeValue>()
                        + r.tuple
                            .0
                            .iter()
                            .map(|rv| {
                                crate::columns::value_heap_bytes(&rv.lb)
                                    + crate::columns::value_heap_bytes(&rv.sg)
                                    + crate::columns::value_heap_bytes(&rv.ub)
                            })
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Append a row. On every operator's inner loop — kept branch-light.
    #[inline]
    pub fn push(&mut self, tuple: AuTuple, mult: Mult3) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        self.normalized = false;
        self.rows.push(AuRow { tuple, mult });
    }

    /// Mutable access to the rows that keeps the normalization fast path
    /// honest: any call conservatively clears the canonical-form flag.
    pub fn rows_mut(&mut self) -> &mut Vec<AuRow> {
        self.normalized = false;
        &mut self.rows
    }

    /// Move every row of `other` to the end of `self`.
    pub fn append(&mut self, other: &mut AuRelation) {
        debug_assert_eq!(self.schema.arity(), other.schema.arity());
        if other.rows.is_empty() {
            return;
        }
        self.normalized = false;
        self.rows.append(&mut other.rows);
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True iff this relation is already in canonical form (a `normalize()`
    /// call would be the identity and is skipped).
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    /// Canonical form: merge identical hypercubes (annotations add), drop
    /// `(0,0,0)` rows, sort deterministically. Bag equality after
    /// `normalize` is row equality.
    ///
    /// Already-normalized inputs return immediately. The sort precomputes
    /// one [`SortKey`] per row — the old implementation materialized three
    /// corner tuples (three `Vec<Value>` allocations) *per comparison*.
    pub fn normalize(mut self) -> Self {
        if self.normalized {
            return self;
        }
        let rows = std::mem::take(&mut self.rows);
        let keyed: Vec<(SortKey, AuRow)> = rows
            .into_iter()
            .filter(|r| !r.mult.is_zero())
            .map(|row| (SortKey::of_row(&row.tuple), row))
            .collect();
        AuRelation {
            schema: self.schema,
            rows: merge_sorted(keyed),
            normalized: true,
        }
    }

    /// Borrow-or-owned normalization: already-canonical relations are
    /// returned as a borrow (zero work, zero allocation); everything else
    /// gets a freshly built canonical copy — cloning only the surviving
    /// merged rows, not the whole input like `rel.clone().normalize()` did.
    pub fn normalized(&self) -> Cow<'_, AuRelation> {
        if self.normalized {
            return Cow::Borrowed(self);
        }
        let keyed: Vec<(SortKey, AuRow)> = self
            .rows
            .iter()
            .filter(|r| !r.mult.is_zero())
            .map(|row| (SortKey::of_row(&row.tuple), row.clone()))
            .collect();
        Cow::Owned(AuRelation {
            schema: self.schema.clone(),
            rows: merge_sorted(keyed),
            normalized: true,
        })
    }

    /// Bag equality up to normalization. Normalized operands are compared
    /// in place — no clone, no re-normalization.
    pub fn bag_eq(&self, other: &AuRelation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        self.normalized().rows == other.normalized().rows
    }

    /// Total possible multiplicity `Σ k↑`.
    pub fn total_possible(&self) -> u64 {
        self.rows.iter().map(|r| r.mult.ub).sum()
    }

    /// The selected-guess world as a deterministic relation.
    pub fn sg_world(&self) -> audb_rel::Relation {
        audb_rel::Relation::from_rows(
            self.schema.clone(),
            self.rows
                .iter()
                .filter(|r| r.mult.sg > 0)
                .map(|r| (r.tuple.sg_tuple(), r.mult.sg)),
        )
    }

    /// Split every row into rows of possible multiplicity ≤ 1, annotating
    /// the `i`-th duplicate `(1,1,1)` / `(0,1,1)` / `(0,0,1)` depending on
    /// whether it certainly / selected-guess / only possibly exists
    /// (the `expand` step of paper Def. 3 and Algorithm 2's `split`).
    pub fn expand(&self) -> AuRelation {
        let mut rows = Vec::with_capacity(self.total_possible() as usize);
        for row in &self.rows {
            for i in 0..row.mult.ub {
                let mult = if i < row.mult.lb {
                    Mult3::ONE
                } else if i < row.mult.sg {
                    Mult3::new(0, 1, 1)
                } else {
                    Mult3::new(0, 0, 1)
                };
                rows.push(AuRow {
                    tuple: row.tuple.clone(),
                    mult,
                });
            }
        }
        AuRelation {
            schema: self.schema.clone(),
            rows,
            normalized: false,
        }
    }
}

/// Canonicalize pre-keyed rows: stable-sort by whole-row [`SortKey`]
/// (computed once per row — the old implementation materialized three
/// corner tuples per *comparison*), then merge adjacent equal keys by
/// adding annotations. Equal keys mean value-equal tuples, so this is the
/// same merge a tuple-keyed hash map performed — without hashing a single
/// tuple, and with the first occurrence as the deterministic representative.
fn merge_sorted(mut keyed: Vec<(SortKey, AuRow)>) -> Vec<AuRow> {
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<AuRow> = Vec::with_capacity(keyed.len());
    let mut last_key: Option<SortKey> = None;
    for (key, row) in keyed {
        match (&last_key, out.last_mut()) {
            (Some(k), Some(last)) if *k == key => {
                last.mult = last.mult + row.mult;
            }
            _ => {
                out.push(row);
                last_key = Some(key);
            }
        }
    }
    out
}

impl fmt::Display for AuRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.rows.len())?;
        for row in &self.rows {
            writeln!(f, "  {} {}", row.tuple, row.mult)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range_value::RangeValue;
    use audb_rel::{Relation, Tuple};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    #[test]
    fn normalize_merges_hypercubes() {
        let t = AuTuple::new([rv(1, 2, 3)]);
        let r = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (t.clone(), Mult3::new(1, 1, 1)),
                (t.clone(), Mult3::new(0, 1, 2)),
                (AuTuple::new([rv(9, 9, 9)]), Mult3::ZERO),
            ],
        )
        .normalize();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].mult, Mult3::new(1, 2, 3));
    }

    #[test]
    fn sg_world_extraction() {
        let r = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (AuTuple::new([rv(1, 2, 3)]), Mult3::new(0, 2, 2)),
                (AuTuple::new([rv(5, 5, 5)]), Mult3::new(0, 0, 1)),
            ],
        );
        let sg = r.sg_world();
        assert_eq!(sg.mult_of(&Tuple::from([2i64])), 2);
        assert_eq!(sg.total_mult(), 2);
    }

    #[test]
    fn expand_splits_multiplicities() {
        let r = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([rv(1, 1, 3)]), Mult3::new(1, 2, 4))],
        );
        let e = r.expand();
        assert_eq!(e.rows.len(), 4);
        assert_eq!(e.rows[0].mult, Mult3::ONE);
        assert_eq!(e.rows[1].mult, Mult3::new(0, 1, 1));
        assert_eq!(e.rows[2].mult, Mult3::new(0, 0, 1));
        assert_eq!(e.rows[3].mult, Mult3::new(0, 0, 1));
    }

    #[test]
    fn certain_lift_roundtrips_sg_world() {
        let det = Relation::from_values(Schema::new(["a", "b"]), [[1i64, 2], [3, 4]]);
        let au = AuRelation::certain(&det);
        assert!(au.sg_world().bag_eq(&det));
        assert!(au.rows.iter().all(|r| r.tuple.is_certain()));
    }
}
