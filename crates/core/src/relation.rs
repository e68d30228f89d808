//! AU-DB relations: bags of range-annotated tuples with `ℕ³` annotations.

use crate::mult::{Mult3, MultOverflow};
use crate::range_value::RangeValue;
use crate::sortkey::{prefix_of, sort_prefixes, Corner, KeyArena};
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
    /// Already-normalized inputs return immediately. The order is
    /// [`canonical_order`]'s: prefixes from the first values, keys where
    /// they tie, the surviving tuples moved. Panics where identical rows
    /// add up past `u64` ([`MultOverflow`]).
    pub fn normalize(mut self) -> Self {
        if self.normalized {
            return self;
        }
        let rows = (self.canonical_order().into_iter())
            .map(|(row, mult)| AuRow {
                tuple: std::mem::replace(&mut self.rows[row].tuple, AuTuple(Vec::new())),
                mult,
            })
            .collect();
        AuRelation::from_parts(self.schema, rows, true)
    }

    /// Borrow-or-owned normalization: already-canonical relations are
    /// returned as a borrow (zero work, zero allocation); everything else
    /// gets a freshly built canonical copy — cloning only the surviving
    /// merged rows, not the whole input like `rel.clone().normalize()` did.
    pub fn normalized(&self) -> Cow<'_, AuRelation> {
        if self.normalized {
            return Cow::Borrowed(self);
        }
        let rows = (self.canonical_order().into_iter())
            .map(|(row, mult)| AuRow {
                tuple: self.rows[row].tuple.clone(),
                mult,
            })
            .collect();
        Cow::Owned(AuRelation::from_parts(self.schema.clone(), rows, true))
    }

    /// [`canonical_order`] of the stored rows, prefixed and keyed from
    /// their tuples.
    fn canonical_order(&self) -> Vec<(usize, Mult3)> {
        let rows = &self.rows;
        let order = canonical_order(
            rows.len(),
            |row| rows[row].mult,
            |row| prefix_of(rows[row].tuple.0.iter().map(|r| &r.lb)),
            |keys, row, corner| {
                (rows[row].tuple.0.iter()).for_each(|r| keys.extend_value(corner.of(r)))
            },
        );
        order.unwrap_or_else(|e| panic!("{e}"))
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
                rows.push(AuRow {
                    tuple: row.tuple.clone(),
                    mult: row.mult.copy(i),
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

/// The corners of the whole-row key, in order: every attribute's `lb`,
/// then every `ub`, then every `sg`. [`canonical_order`] and
/// [`crate::SortKey::of_columns`] read it; nothing else spells it out.
pub(crate) const ROW_KEY: [Corner; 3] = [Corner::Lb, Corner::Ub, Corner::Sg];

/// The canonical order of a bag of `n` rows — the one `normalize` of both
/// layouts and the native window's output share: rows annotated `(0,0,0)`
/// dropped, the rest ascending on the whole-row key (every attribute's
/// `lb`, then every `ub`, then every `sg`: the one order `ROW_KEY`
/// states), rows with equal keys merged into the first stored of them,
/// annotations added. Returns `(representative
/// row, merged annotation)` in that order, or [`MultOverflow`] where a
/// merged annotation would leave `u64`.
///
/// The key is asked for in pieces so that the common case encodes none of
/// it: `prefix` is the first eight bytes of a row's key as a word
/// ([`crate::PrefixReader`] off the lanes: the `lb` corner), and `key`
/// appends one corner of a row's key to an arena. What is sorted are
/// `(prefix, row)` pairs ([`crate::sort_prefixes`]); the `lb` corner is
/// encoded only for rows whose prefixes tie, and the other two only for
/// rows whose `lb` corners do.
pub fn canonical_order(
    n: usize,
    mult: impl Fn(usize) -> Mult3,
    prefix: impl Fn(usize) -> u64,
    mut key: impl FnMut(&mut KeyArena, usize, Corner),
) -> Result<Vec<(usize, Mult3)>, MultOverflow> {
    let mut refs: Vec<(u64, u32)> = (0..n)
        .filter(|&row| !mult(row).is_zero())
        .map(|row| (prefix(row), row as u32))
        .collect();
    sort_prefixes(&mut refs);
    let mut out: Vec<(usize, Mult3)> = Vec::with_capacity(refs.len());
    let (mut heads, mut tails) = (KeyArena::with_capacity(0, 0), KeyArena::with_capacity(0, 0));
    for run in refs.chunk_by(|a, b| a.0 == b.0) {
        if let [(_, row)] = run {
            out.push((*row as usize, mult(*row as usize)));
            continue;
        }
        heads.clear();
        for &(_, row) in run {
            key(&mut heads, row as usize, ROW_KEY[0]);
            heads.end_key();
        }
        let by_head = heads.sorted_slots();
        for tied in by_head.chunk_by(|&a, &b| heads.key(a) == heads.key(b)) {
            if let [slot] = tied {
                let row = run[*slot].1 as usize;
                out.push((row, mult(row)));
                continue;
            }
            // Equal heads: the rest of the key decides, stored order among
            // equal keys (every sort is stable), which then merge.
            tails.clear();
            for &slot in tied {
                for &corner in &ROW_KEY[1..] {
                    key(&mut tails, run[slot].1 as usize, corner);
                }
                tails.end_key();
            }
            let mut last = None;
            for slot in tails.sorted_slots() {
                let row = run[tied[slot]].1 as usize;
                match (last, out.last_mut()) {
                    (Some(prev), Some((_, merged))) if tails.key(prev) == tails.key(slot) => {
                        *merged = merged.checked_add(mult(row)).ok_or(MultOverflow)?;
                    }
                    _ => out.push((row, mult(row))),
                }
                last = Some(slot);
            }
        }
    }
    Ok(out)
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

    /// Rows that tie on every lower bound fall to `ub…`, then `sg…`; equal
    /// throughout they merge into the first stored, a zero row between
    /// them or not — and both `normalize`s and the borrowing one agree.
    #[test]
    fn ties_on_the_lower_bounds_fall_to_the_rest_of_the_key() {
        let row = |a: RangeValue, b: i64, mult| (AuTuple::new([a, RangeValue::certain(b)]), mult);
        let r = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                row(rv(1, 3, 9), 7, Mult3::ONE),
                row(rv(1, 2, 5), 7, Mult3::new(0, 1, 1)),
                row(rv(1, 1, 5), 7, Mult3::ONE),
                row(rv(1, 3, 9), 7, Mult3::ZERO),
                row(rv(0, 0, 0), 9, Mult3::ONE),
                row(rv(1, 2, 5), 7, Mult3::new(1, 1, 2)),
                row(rv(1, 1, 1), 6, Mult3::ONE),
            ],
        );
        let want = [
            row(rv(0, 0, 0), 9, Mult3::ONE),
            row(rv(1, 1, 1), 6, Mult3::ONE),
            row(rv(1, 1, 5), 7, Mult3::ONE),
            row(rv(1, 2, 5), 7, Mult3::new(1, 2, 3)),
            row(rv(1, 3, 9), 7, Mult3::ONE),
        ]
        .map(|(tuple, mult)| AuRow { tuple, mult });
        assert_eq!(r.normalized().rows(), want);
        let cols = r.to_columns().normalize().expect("small multiplicities");
        assert_eq!(cols.to_rows().rows(), want);
        let r = r.normalize();
        assert_eq!(r.rows(), want);
        assert!(r.is_normalized());
    }

    /// Identical rows whose `k↑`s add up past `u64` are refused, not
    /// wrapped; at `u64::MAX` exactly they merge.
    #[test]
    fn a_merge_past_u64_is_refused() {
        let t = AuTuple::new([rv(1, 1, 1)]);
        let rel = |ub: u64| {
            AuRelation::from_rows(
                Schema::new(["a"]),
                [
                    (t.clone(), Mult3::new(0, 0, ub)),
                    (t.clone(), Mult3::new(0, 0, 1)),
                ],
            )
        };
        let fits = rel(u64::MAX - 1).to_columns().normalize().unwrap();
        assert_eq!(fits.mult(0), Mult3::new(0, 0, u64::MAX));
        assert_eq!(
            rel(u64::MAX).to_columns().normalize().unwrap_err(),
            MultOverflow
        );
        let refused = std::panic::catch_unwind(|| rel(u64::MAX).normalize());
        assert!(refused.is_err(), "the row form refuses too");
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
