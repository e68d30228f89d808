//! Columnar (struct-of-arrays) AU-relations: [`AuColumns`].
//!
//! The row layout ([`AuRelation`]) stores one heap `Vec<RangeValue>` per
//! tuple, so every kernel that touches an attribute chases a pointer per
//! row. [`AuColumns`] stores the same bag per *attribute*: three contiguous
//! bound vectors (`lb` / `sg` / `ub`) per column — collapsed to a
//! **single** vector when the column is certain (`lb ≡ sg ≡ ub`, the
//! common case for keys and dimensions) — plus three flat `u64`
//! multiplicity vectors for the `ℕ³` annotations. Batch kernels
//! ([`crate::batch`], `RangeExpr::{eval_batch, truth_batch}`,
//! [`AuColumns::normalize`]) sweep these vectors directly instead of
//! materializing per-row tuples; where an expression's lanes are not
//! typed, it reads the cells it names one at a time, never a whole row.
//!
//! Since PR 6 each bound vector is a *typed physical* vector
//! ([`PhysVec`]): all-integer columns store flat `i64` lanes, numeric
//! columns flat `f64` lanes, string columns dictionary codes into an
//! interned pool, and everything else falls back to the historical
//! `Vec<Value>` — see [`crate::physical`] for the layouts and inference
//! rules. Ranged columns additionally carry a [`CertBitmap`] marking the
//! rows whose range is a single point, so equality kernels answer
//! per-row certainty without re-comparing the lanes.
//!
//! Unlike the historical `pub rows` field on [`AuRelation`], every field
//! here is private: mutation goes through [`AuColumns::push_row`] /
//! [`AuColumns::append`], which keep the canonical-form flag honest, so
//! the "stale normalized flag" hazard documented in `relation.rs` cannot
//! be recreated against the columnar representation.
//!
//! Conversions are cheap and lossless: [`AuRelation::to_columns`] /
//! [`AuColumns::to_rows`] round-trip the exact row sequence **and** the
//! normalized flag (property-tested in `tests/columnar_roundtrip.rs` and
//! `tests/typed_columns.rs`), so the row API remains the compatibility
//! surface for the reference operators while the pipeline executor runs
//! columnar and typed.

use crate::batch::{AuBatch, Kept};
use crate::mult::{Mult3, MultOverflow};
use crate::physical::{CertBitmap, PhysSlice, PhysType, PhysVec, Pick};
use crate::range_value::RangeValue;
use crate::relation::{canonical_order, AuRelation, AuRow};
use crate::sortkey::{Corner, PrefixReader, SortKey};
use crate::tuple::AuTuple;
use audb_rel::{Schema, Value};
use std::fmt;

pub(crate) use crate::physical::value_heap_bytes;

/// One attribute of a columnar AU-relation: the three bound vectors in
/// their typed physical layout, with the certain fast path storing a
/// single vector when `lb ≡ sg ≡ ub` for every row.
// `Ranged` (three lanes + bitmap) is inherently ~4× `Certain`'s size; there
// is exactly one `AuColumn` per attribute, so boxing the large variant would
// buy nothing and add a pointer chase to every kernel dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum AuColumn {
    /// Every row's range is a single point: one vector serves as all three
    /// corners (a 3× memory and sweep saving).
    Certain(PhysVec),
    /// At least one row is uncertain: three parallel bound vectors plus
    /// the per-row certainty bitmap (bit set iff that row is a point).
    Ranged {
        /// Lower bounds `c↓`.
        lb: PhysVec,
        /// Selected guesses `c_sg`.
        sg: PhysVec,
        /// Upper bounds `c↑`.
        ub: PhysVec,
        /// Bit `i` set iff `lb[i] ≡ sg[i] ≡ ub[i]`.
        certain: CertBitmap,
    },
}

impl AuColumn {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            AuColumn::Certain(v) => v.len(),
            AuColumn::Ranged { sg, .. } => sg.len(),
        }
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff the column stores the collapsed certain representation.
    pub fn is_certain(&self) -> bool {
        matches!(self, AuColumn::Certain(_))
    }

    /// True iff row `i`'s range is a single point — free for certain
    /// columns, one bitmap probe otherwise (never re-compares the lanes).
    #[inline]
    pub fn certain_at(&self, i: usize) -> bool {
        match self {
            AuColumn::Certain(_) => true,
            AuColumn::Ranged { certain, .. } => certain.get(i),
        }
    }

    /// The physical layout of the column's lanes; for a ranged column
    /// whose three bounds landed in different layouts, `Generic`.
    pub fn phys_type(&self) -> PhysType {
        match self {
            AuColumn::Certain(v) => v.phys_type(),
            AuColumn::Ranged { lb, sg, ub, .. } => {
                let t = sg.phys_type();
                if lb.phys_type() == t && ub.phys_type() == t {
                    t
                } else {
                    PhysType::Generic
                }
            }
        }
    }

    /// The requested corner as a typed slice view. For a certain column
    /// all three corners are the same vector.
    pub fn corner(&self, corner: Corner) -> PhysSlice<'_> {
        match self {
            AuColumn::Certain(v) => v.slice(),
            AuColumn::Ranged { lb, sg, ub, .. } => match corner {
                Corner::Lb => lb.slice(),
                Corner::Sg => sg.slice(),
                Corner::Ub => ub.slice(),
            },
        }
    }

    /// One cell rebuilt as a [`RangeValue`].
    pub fn range_value(&self, row: usize) -> RangeValue {
        match self {
            AuColumn::Certain(v) => RangeValue::certain(v.value(row)),
            AuColumn::Ranged { lb, sg, ub, .. } => RangeValue {
                lb: lb.value(row),
                sg: sg.value(row),
                ub: ub.value(row),
            },
        }
    }

    /// An integer column from its three bound lanes (the sort's position
    /// column: the sweep fills them) — no `Value` is built. The certainty
    /// bits are read off the lanes in one pass; the column collapses to
    /// the certain fast path when every row is a point.
    pub fn from_i64_lanes(lb: Vec<i64>, sg: Vec<i64>, ub: Vec<i64>) -> AuColumn {
        debug_assert!(lb.len() == sg.len() && sg.len() == ub.len());
        let certain = CertBitmap::from_fn(sg.len(), |i| lb[i] == sg[i] && sg[i] == ub[i]);
        if certain.count_certain() == certain.len() {
            return AuColumn::Certain(PhysVec::I64(sg));
        }
        AuColumn::Ranged {
            lb: PhysVec::I64(lb),
            sg: PhysVec::I64(sg),
            ub: PhysVec::I64(ub),
            certain,
        }
    }

    fn with_capacity(n: usize) -> AuColumn {
        AuColumn::Certain(PhysVec::with_capacity(n))
    }

    /// Append one cell, promoting `Certain → Ranged` on the first
    /// uncertain value.
    fn push(&mut self, rv: &RangeValue) {
        match self {
            AuColumn::Certain(v) => {
                if rv.is_certain() {
                    v.push_value(&rv.sg);
                } else {
                    self.promote();
                    self.push(rv);
                }
            }
            AuColumn::Ranged {
                lb,
                sg,
                ub,
                certain,
            } => {
                lb.push_value(&rv.lb);
                sg.push_value(&rv.sg);
                ub.push_value(&rv.ub);
                certain.push(rv.is_certain());
            }
        }
    }

    /// Split the collapsed representation into three vectors; every
    /// existing row was a point, so the bitmap starts all-certain.
    fn promote(&mut self) {
        if let AuColumn::Certain(v) = self {
            let sg = std::mem::take(v);
            let n = sg.len();
            *self = AuColumn::Ranged {
                lb: sg.clone(),
                sg: sg.clone(),
                ub: sg,
                certain: CertBitmap::all_certain(n),
            };
        }
    }

    /// Re-run layout inference on any `Generic` lanes (the bulk-build
    /// compaction step — a column that collected mixed-looking pushes but
    /// ended up homogeneous gets its typed layout back).
    pub(crate) fn compact(&mut self) {
        match self {
            AuColumn::Certain(v) => v.compact(),
            AuColumn::Ranged { lb, sg, ub, .. } => {
                lb.compact();
                sg.compact();
                ub.compact();
            }
        }
    }

    /// Copy the cells at `idxs` (in order) into a fresh column, keeping
    /// the certain fast path and the physical layout — primitive lanes
    /// copy without constructing a single `Value`.
    pub(crate) fn gather(&self, pick: Pick<'_>) -> AuColumn {
        let mut out = AuColumn::Certain(PhysVec::new());
        out.extend_picked(self, pick, pick.len());
        out
    }

    /// Append the cells of `src` at `pick`, lane by lane as
    /// [`PhysVec::extend_picked`] does (`cap`: the rows the column will
    /// hold); a certain column promotes to ranged before it takes ranged
    /// cells.
    fn extend_picked(&mut self, src: &AuColumn, pick: Pick<'_>, cap: usize) {
        match (&mut *self, src) {
            (AuColumn::Certain(a), AuColumn::Certain(b)) => a.extend_picked(b, pick, cap),
            (
                AuColumn::Ranged {
                    lb,
                    sg,
                    ub,
                    certain,
                },
                AuColumn::Certain(b),
            ) => {
                (0..pick.len()).for_each(|_| certain.push(true));
                for lane in [lb, sg, ub] {
                    lane.extend_picked(b, pick, cap);
                }
            }
            (AuColumn::Certain(_), AuColumn::Ranged { .. }) => {
                self.promote();
                self.extend_picked(src, pick, cap);
            }
            (
                AuColumn::Ranged {
                    lb,
                    sg,
                    ub,
                    certain,
                },
                AuColumn::Ranged {
                    lb: l2,
                    sg: s2,
                    ub: u2,
                    certain: c2,
                },
            ) => {
                certain.extend_picked(c2, pick);
                lb.extend_picked(l2, pick, cap);
                sg.extend_picked(s2, pick, cap);
                ub.extend_picked(u2, pick, cap);
            }
        }
    }

    fn append(&mut self, other: AuColumn) {
        match self {
            AuColumn::Certain(v) if v.is_empty() => *self = other,
            _ => self.extend_picked(&other, Pick::Span(0, other.len()), other.len()),
        }
    }

    /// The same logical column with every lane demoted to the
    /// `Vec<Value>` layout — the parity oracle and the "what the enum tax
    /// cost" baseline of `repro bench`.
    pub fn to_generic(&self) -> AuColumn {
        match self {
            AuColumn::Certain(v) => AuColumn::Certain(v.to_generic()),
            AuColumn::Ranged {
                lb,
                sg,
                ub,
                certain,
            } => AuColumn::Ranged {
                lb: lb.to_generic(),
                sg: sg.to_generic(),
                ub: ub.to_generic(),
                certain: certain.clone(),
            },
        }
    }

    /// Measured heap footprint in bytes: lane capacities plus string
    /// payloads (both the certain fast path's saving and the typed
    /// layout's saving are visible here).
    pub fn heap_bytes(&self) -> usize {
        match self {
            AuColumn::Certain(v) => v.heap_bytes(),
            AuColumn::Ranged {
                lb,
                sg,
                ub,
                certain,
            } => lb.heap_bytes() + sg.heap_bytes() + ub.heap_bytes() + certain.heap_bytes(),
        }
    }
}

/// A column resolved once to what its cells are read from: its three
/// corner lanes `[lb, sg, ub]` when every lane is `i64` — a certain
/// column gives its one lane three times —, else the column itself, a
/// cell at a time ([`AuColumns::to_rows`], the window sweep's items).
#[derive(Clone, Copy)]
pub enum Lanes<'a> {
    /// Integer lanes, one per corner.
    I64([&'a [i64]; 3]),
    /// Any other layout.
    Values(&'a AuColumn),
}

impl<'a> Lanes<'a> {
    /// Resolve `col`'s layout.
    pub fn of(col: &'a AuColumn) -> Self {
        match col {
            AuColumn::Certain(PhysVec::I64(v)) => Lanes::I64([v, v, v]),
            AuColumn::Ranged {
                lb: PhysVec::I64(lb),
                sg: PhysVec::I64(sg),
                ub: PhysVec::I64(ub),
                ..
            } => Lanes::I64([lb, sg, ub]),
            other => Lanes::Values(other),
        }
    }

    /// Cell `i` as a [`RangeValue`].
    #[inline]
    pub fn range_value(&self, i: usize) -> RangeValue {
        match self {
            Lanes::I64(lanes) => int_cell(lanes, i),
            Lanes::Values(col) => col.range_value(i),
        }
    }
}

#[inline]
fn int_cell([lb, sg, ub]: &[&[i64]; 3], i: usize) -> RangeValue {
    RangeValue {
        lb: Value::Int(lb[i]),
        sg: Value::Int(sg[i]),
        ub: Value::Int(ub[i]),
    }
}

/// A columnar AU-relation: the same bag an [`AuRelation`] holds, stored
/// struct-of-arrays. See the module docs for the layout and the
/// encapsulation contract.
#[derive(Clone, Debug)]
pub struct AuColumns {
    schema: Schema,
    len: usize,
    cols: Vec<AuColumn>,
    mult_lb: Vec<u64>,
    mult_sg: Vec<u64>,
    mult_ub: Vec<u64>,
    normalized: bool,
}

impl AuColumns {
    /// Empty columnar relation (trivially normalized).
    pub fn empty(schema: Schema) -> Self {
        let cols = (0..schema.arity())
            .map(|_| AuColumn::Certain(PhysVec::new()))
            .collect();
        AuColumns {
            schema,
            len: 0,
            cols,
            mult_lb: Vec::new(),
            mult_sg: Vec::new(),
            mult_ub: Vec::new(),
            normalized: true,
        }
    }

    /// Empty columnar relation with row capacity `n` reserved.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let cols = (0..schema.arity())
            .map(|_| AuColumn::with_capacity(n))
            .collect();
        AuColumns {
            schema,
            len: 0,
            cols,
            mult_lb: Vec::with_capacity(n),
            mult_sg: Vec::with_capacity(n),
            mult_ub: Vec::with_capacity(n),
            normalized: true,
        }
    }

    /// Columnarize a row relation in a single row sweep: every cell is
    /// pushed onto its column, which starts certain-collapsed and promotes
    /// to three vectors on the first uncertain cell (amortized — the
    /// certain prefix is cloned once). Each lane adopts the layout of its
    /// first value and demotes on mismatch; a final compaction pass
    /// re-infers typed layouts for lanes that ended up homogeneous.
    /// Preserves the normalized flag — the stored bag and its
    /// canonical-form status are unchanged by the transposition.
    pub fn from_relation(rel: &AuRelation) -> Self {
        let rows = rel.rows();
        let n = rows.len();
        let mut cols: Vec<AuColumn> = (0..rel.schema.arity())
            .map(|_| AuColumn::with_capacity(n))
            .collect();
        let mut mult_lb = Vec::with_capacity(n);
        let mut mult_sg = Vec::with_capacity(n);
        let mut mult_ub = Vec::with_capacity(n);
        for r in rows {
            for (col, rv) in cols.iter_mut().zip(&r.tuple.0) {
                col.push(rv);
            }
            mult_lb.push(r.mult.lb);
            mult_sg.push(r.mult.sg);
            mult_ub.push(r.mult.ub);
        }
        for col in &mut cols {
            col.compact();
        }
        AuColumns {
            schema: rel.schema.clone(),
            len: n,
            cols,
            mult_lb,
            mult_sg,
            mult_ub,
            normalized: rel.is_normalized(),
        }
    }

    /// Materialize back to the row representation, preserving the
    /// normalized flag (the inverse of [`AuColumns::from_relation`]).
    /// Row-major: each tuple is allocated at its arity and filled once, in
    /// one pass over the row, from [`Lanes`] resolved before the first
    /// row. Where every lane is `i64` — a sort's or a window's answer over
    /// integers, positions included — one loop reads them with no
    /// per-cell layout dispatch, which costs more than the reads.
    pub fn to_rows(&self) -> AuRelation {
        let lanes: Vec<Lanes<'_>> = self.cols.iter().map(Lanes::of).collect();
        let ints: Vec<[&[i64]; 3]> = (lanes.iter())
            .filter_map(|l| match l {
                Lanes::I64(l) => Some(*l),
                Lanes::Values(_) => None,
            })
            .collect();
        let row = |i, tuple| AuRow {
            tuple: AuTuple(tuple),
            mult: self.mult(i),
        };
        let rows = match ints.len() == lanes.len() {
            true => (0..self.len)
                .map(|i| row(i, ints.iter().map(|l| int_cell(l, i)).collect()))
                .collect(),
            false => (0..self.len)
                .map(|i| row(i, lanes.iter().map(|l| l.range_value(i)).collect()))
                .collect(),
        };
        AuRelation::from_parts(self.schema.clone(), rows, self.normalized)
    }

    /// Attribute names.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The attribute column at index `c`.
    pub fn col(&self, c: usize) -> &AuColumn {
        &self.cols[c]
    }

    /// The physical layout of every column, in schema order (the `lanes`
    /// of `repro bench`'s footprint lines).
    pub fn col_phys_types(&self) -> Vec<PhysType> {
        self.cols.iter().map(AuColumn::phys_type).collect()
    }

    /// The `ℕ³` annotation of row `i`.
    pub fn mult(&self, i: usize) -> Mult3 {
        Mult3 {
            lb: self.mult_lb[i],
            sg: self.mult_sg[i],
            ub: self.mult_ub[i],
        }
    }

    /// The certain-multiplicity vector `k↓`.
    pub fn mult_lb(&self) -> &[u64] {
        &self.mult_lb
    }

    /// The selected-guess multiplicity vector `k_sg`.
    pub fn mult_sg(&self) -> &[u64] {
        &self.mult_sg
    }

    /// The possible-multiplicity vector `k↑`.
    pub fn mult_ub(&self) -> &[u64] {
        &self.mult_ub
    }

    /// Row `i` rebuilt as a range-annotated tuple.
    pub fn tuple(&self, i: usize) -> AuTuple {
        AuTuple(self.cols.iter().map(|c| c.range_value(i)).collect())
    }

    /// True iff every attribute of row `i` is a point — bitmap probes,
    /// no lane is compared ([`AuTuple::is_certain`] of [`AuColumns::tuple`]).
    pub fn row_is_certain(&self, i: usize) -> bool {
        self.cols.iter().all(|c| c.certain_at(i))
    }

    /// True iff this relation is known to be in canonical form.
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    /// Append a row. Clears the canonical-form flag — there is no way to
    /// mutate the stored bag around this bookkeeping (all fields are
    /// private).
    pub fn push_row(&mut self, tuple: &AuTuple, mult: Mult3) {
        debug_assert_eq!(tuple.arity(), self.arity());
        self.normalized = false;
        for (col, rv) in self.cols.iter_mut().zip(&tuple.0) {
            col.push(rv);
        }
        self.mult_lb.push(mult.lb);
        self.mult_sg.push(mult.sg);
        self.mult_ub.push(mult.ub);
        self.len += 1;
    }

    /// Move every row of `other` to the end of `self` (a table's tail
    /// taking an appended batch, a subscription's drained rows).
    pub fn append(&mut self, other: AuColumns) {
        debug_assert_eq!(self.arity(), other.arity());
        if other.len == 0 {
            return;
        }
        self.normalized = false;
        for (a, b) in self.cols.iter_mut().zip(other.cols) {
            a.append(b);
        }
        self.mult_lb.extend(other.mult_lb);
        self.mult_sg.extend(other.mult_sg);
        self.mult_ub.extend(other.mult_ub);
        self.len += other.len;
    }

    /// Build a new columnar relation from the rows at `idxs` with fresh
    /// annotations (the gather step of a vectorized selection: `idxs` are
    /// the surviving rows, `mults` their filtered triples). Typed lanes
    /// gather as primitive copies — no `Value` is cloned.
    pub fn gather(&self, idxs: &[usize], mults: &[Mult3]) -> AuColumns {
        let cols = self
            .cols
            .iter()
            .map(|c| c.gather(Pick::At(0, idxs)))
            .collect();
        AuColumns::from_cols(self.schema.clone(), cols, mults)
    }

    /// The rows each batch of `parts` kept, batch after batch, copied once
    /// into one relation under `schema` — what gathering each batch and
    /// appending the gathers builds, layouts included. A batch that kept
    /// [`Kept::All`] extends every lane by its slice.
    pub fn gather_kept<'a>(
        schema: Schema,
        parts: impl IntoIterator<Item = (AuBatch<'a>, &'a Kept)>,
    ) -> AuColumns {
        let parts: Vec<(AuBatch<'a>, &Kept)> = (parts.into_iter())
            .filter(|(b, kept)| kept.len(b) > 0)
            .collect();
        let len = parts.iter().map(|(b, kept)| kept.len(b)).sum();
        let pick = |b: &AuBatch<'_>, kept: &'a Kept| match kept {
            Kept::All => Pick::Span(b.start, b.len),
            Kept::Rows(idxs, _) => Pick::At(b.start, idxs),
        };
        let cols = (0..schema.arity())
            .map(|c| {
                let mut col = AuColumn::Certain(PhysVec::new());
                for (b, kept) in &parts {
                    col.extend_picked(b.rel.col(c), pick(b, kept), len);
                }
                col
            })
            .collect();
        let [mut mult_lb, mut mult_sg, mut mult_ub] = [(); 3].map(|_| Vec::with_capacity(len));
        for (b, kept) in &parts {
            match kept {
                Kept::All => {
                    let rows = b.start..b.start + b.len;
                    mult_lb.extend_from_slice(&b.rel.mult_lb[rows.clone()]);
                    mult_sg.extend_from_slice(&b.rel.mult_sg[rows.clone()]);
                    mult_ub.extend_from_slice(&b.rel.mult_ub[rows]);
                }
                Kept::Rows(_, ms) => ms.iter().for_each(|m| {
                    mult_lb.push(m.lb);
                    mult_sg.push(m.sg);
                    mult_ub.push(m.ub);
                }),
            }
        }
        AuColumns {
            schema,
            len,
            cols,
            mult_lb,
            mult_sg,
            mult_ub,
            normalized: len == 0,
        }
    }

    /// Build one output column by **moving** per-row [`RangeValue`]s into
    /// columnar form (the materialization step of a vectorized computed
    /// projection — no value is cloned), collapsing to the certain fast
    /// path when every cell is a point and inferring the lanes' physical
    /// layout.
    pub fn column_from_values(vals: Vec<RangeValue>) -> AuColumn {
        if vals.iter().all(RangeValue::is_certain) {
            AuColumn::Certain(PhysVec::from_values(
                vals.into_iter().map(|rv| rv.sg).collect(),
            ))
        } else {
            let n = vals.len();
            let mut lb = Vec::with_capacity(n);
            let mut sg = Vec::with_capacity(n);
            let mut ub = Vec::with_capacity(n);
            let mut certain = CertBitmap::new();
            for rv in vals {
                certain.push(rv.is_certain());
                lb.push(rv.lb);
                sg.push(rv.sg);
                ub.push(rv.ub);
            }
            AuColumn::Ranged {
                lb: PhysVec::from_values(lb),
                sg: PhysVec::from_values(sg),
                ub: PhysVec::from_values(ub),
                certain,
            }
        }
    }

    /// Assemble a columnar relation from already-built columns and
    /// per-row annotations (the fused executor's computed projection).
    /// Every column must have exactly `mults.len()` rows.
    pub fn from_cols(schema: Schema, cols: Vec<AuColumn>, mults: &[Mult3]) -> AuColumns {
        debug_assert_eq!(schema.arity(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == mults.len()));
        AuColumns {
            schema,
            len: mults.len(),
            cols,
            mult_lb: mults.iter().map(|m| m.lb).collect(),
            mult_sg: mults.iter().map(|m| m.sg).collect(),
            mult_ub: mults.iter().map(|m| m.ub).collect(),
            normalized: false,
        }
    }

    /// What an order-based operator emits: the rows at `idxs` (in that
    /// order, repeats allowed — a split row appears once per duplicate)
    /// under the annotation lanes `mults` (`[k↓, k_sg, k↑]`, moved in),
    /// extended by the one attribute the operator computes. Typed lanes
    /// gather as primitive copies; no tuple is built.
    pub fn gather_extended(
        &self,
        idxs: &[usize],
        mults: [Vec<u64>; 3],
        name: &str,
        extra: AuColumn,
    ) -> AuColumns {
        debug_assert!(mults.iter().all(|lane| lane.len() == idxs.len()));
        debug_assert_eq!(extra.len(), idxs.len());
        let [mult_lb, mult_sg, mult_ub] = mults;
        let mut cols: Vec<AuColumn> = Vec::with_capacity(self.arity() + 1);
        cols.extend(self.cols.iter().map(|c| c.gather(Pick::At(0, idxs))));
        cols.push(extra);
        AuColumns {
            schema: self.schema.with(name),
            len: idxs.len(),
            cols,
            mult_lb,
            mult_sg,
            mult_ub,
            normalized: false,
        }
    }

    /// Columns already in canonical form — ascending on the whole-row key
    /// ([`SortKey::of_columns`]), no two rows equal, none annotated
    /// `(0,0,0)` — flagged normalized without the pass: the door for an
    /// operator that emits in that order (the native window). Debug builds
    /// check the claim.
    pub fn assume_canonical(mut self) -> AuColumns {
        debug_assert!((0..self.len).all(|i| !self.mult(i).is_zero()));
        debug_assert!(SortKey::of_columns(&self).windows(2).all(|w| w[0] < w[1]));
        self.normalized = true;
        self
    }

    /// Canonical form, computed entirely columnar: the prefixes of
    /// [`canonical_order`] are read off the typed lanes, its keys — for
    /// tied prefixes only — encoded from them (no per-row tuple is ever
    /// materialized), and the surviving rows gathered.
    /// Produces exactly the row sequence [`AuRelation::normalize`] produces
    /// (property-tested) — or [`MultOverflow`] where identical rows add up
    /// to a multiplicity past `u64`.
    pub fn normalize(self) -> Result<AuColumns, MultOverflow> {
        if self.normalized {
            return Ok(self);
        }
        let all: Vec<usize> = (0..self.arity()).collect();
        let prefix = PrefixReader::new(&self, Corner::Lb, &all);
        let (idxs, mults): (Vec<usize>, Vec<Mult3>) = canonical_order(
            self.len,
            |row| self.mult(row),
            |row| prefix.at(row),
            |keys, row| keys.extend_corner_at(&self, row, Corner::Lb, &all),
            |keys, row| {
                keys.extend_corner_at(&self, row, Corner::Ub, &all);
                keys.extend_corner_at(&self, row, Corner::Sg, &all);
            },
        )?
        .into_iter()
        .unzip();
        let mut out = self.gather(&idxs, &mults);
        out.normalized = true;
        Ok(out)
    }

    /// The same logical relation with every lane demoted to the
    /// `Vec<Value>` fallback layout — the within-run oracle the typed
    /// kernels are property-tested and benchmarked against.
    pub fn to_generic(&self) -> AuColumns {
        AuColumns {
            schema: self.schema.clone(),
            len: self.len,
            cols: self.cols.iter().map(AuColumn::to_generic).collect(),
            mult_lb: self.mult_lb.clone(),
            mult_sg: self.mult_sg.clone(),
            mult_ub: self.mult_ub.clone(),
            normalized: self.normalized,
        }
    }

    /// Measured heap footprint in bytes: every column's vectors (one for
    /// certain columns, three otherwise) plus the three multiplicity
    /// vectors. `repro bench`'s footprint lines print this
    /// divided by the row count, beside
    /// [`AuRelation::heap_bytes`] and the demoted
    /// [`AuColumns::to_generic`] layout.
    pub fn heap_bytes(&self) -> usize {
        self.cols.iter().map(AuColumn::heap_bytes).sum::<usize>()
            + (self.mult_lb.capacity() + self.mult_sg.capacity() + self.mult_ub.capacity())
                * std::mem::size_of::<u64>()
    }
}

impl AuRelation {
    /// Columnarize this relation (see [`AuColumns::from_relation`]).
    pub fn to_columns(&self) -> AuColumns {
        AuColumns::from_relation(self)
    }
}

impl fmt::Display for AuColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows, columnar]", self.schema, self.len)?;
        for i in 0..self.len {
            writeln!(f, "  {} {}", self.tuple(i), self.mult(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::Value;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn sample() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([rv(1, 2, 3), RangeValue::certain(10i64)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([RangeValue::certain(5i64), RangeValue::certain(20i64)]),
                    Mult3::new(0, 1, 2),
                ),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_rows_and_flag() {
        let rel = sample();
        let cols = rel.to_columns();
        assert_eq!(cols.len(), 2);
        assert!(!cols.is_normalized());
        assert!(!cols.col(0).is_certain());
        assert!(cols.col(1).is_certain());
        // All-integer lanes adopt the typed layout.
        assert_eq!(cols.col(0).phys_type(), PhysType::I64);
        assert_eq!(cols.col(1).phys_type(), PhysType::I64);
        let back = cols.to_rows();
        assert_eq!(back.rows(), rel.rows());
        assert!(!back.is_normalized());

        let norm = rel.normalize();
        let cols = norm.to_columns();
        assert!(cols.is_normalized());
        assert!(cols.to_rows().is_normalized());
        assert_eq!(cols.to_rows().rows(), norm.rows());
    }

    #[test]
    fn push_row_promotes_and_clears_flag() {
        let mut cols = AuColumns::empty(Schema::new(["a"]));
        assert!(cols.is_normalized());
        cols.push_row(&AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE);
        assert!(cols.col(0).is_certain());
        assert!(!cols.is_normalized());
        cols.push_row(&AuTuple::new([rv(1, 2, 3)]), Mult3::ONE);
        assert!(!cols.col(0).is_certain());
        match cols.col(0).corner(Corner::Lb) {
            PhysSlice::I64(v) => assert_eq!(v, &[1, 1]),
            other => panic!("expected typed i64 lanes, got {other:?}"),
        }
        match cols.col(0).corner(Corner::Ub) {
            PhysSlice::I64(v) => assert_eq!(v, &[1, 3]),
            other => panic!("expected typed i64 lanes, got {other:?}"),
        }
        // The certainty bitmap tracks per-row pointness through promotion.
        assert!(cols.col(0).certain_at(0));
        assert!(!cols.col(0).certain_at(1));
        assert_eq!(cols.tuple(1), AuTuple::new([rv(1, 2, 3)]));
    }

    #[test]
    fn append_promotes_on_mixed_columns() {
        let certain = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE)],
        );
        let ranged = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([rv(4, 5, 6)]), Mult3::new(0, 0, 1))],
        );
        // Certain ← Ranged promotes; Ranged ← Certain broadcasts.
        for (first, second) in [(&certain, &ranged), (&ranged, &certain)] {
            let mut cols = first.to_columns();
            cols.append(second.to_columns());
            assert_eq!(cols.len(), 2);
            let mut expect = first.clone();
            expect.append(&mut second.clone());
            assert!(cols.to_rows().bag_eq(&expect));
            for i in 0..cols.len() {
                let want = cols.col(0).range_value(i).is_certain();
                assert_eq!(cols.col(0).certain_at(i), want, "bitmap row {i}");
            }
        }
    }

    #[test]
    fn normalize_matches_row_normalize() {
        let t = AuTuple::new([rv(1, 2, 3)]);
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (t.clone(), Mult3::new(1, 1, 1)),
                (AuTuple::new([rv(0, 0, 9)]), Mult3::new(0, 1, 1)),
                (t.clone(), Mult3::new(0, 1, 2)),
                (AuTuple::new([rv(7, 7, 7)]), Mult3::ZERO),
            ],
        );
        let cols = rel.to_columns().normalize().expect("small multiplicities");
        assert!(cols.is_normalized());
        let rows = rel.normalize();
        assert_eq!(cols.to_rows().rows(), rows.rows());
        // Idempotent: a second normalize is the identity fast path.
        let again = cols.clone().normalize().expect("normalized already");
        assert_eq!(again.to_rows().rows(), rows.rows());
    }

    /// What a breaker emits: the input gathered by an index with repeats,
    /// fresh annotation lanes, one computed column — the position column
    /// from its `i64` lanes, collapsed when every row is a point.
    #[test]
    fn gather_extended_appends_the_computed_column() {
        let cols = sample().to_columns();
        let lanes = |v: [i64; 3]| v.to_vec();
        let pos = AuColumn::from_i64_lanes(lanes([0, 1, 3]), lanes([0, 2, 3]), lanes([0, 2, 3]));
        assert!(!pos.is_certain() && pos.certain_at(0) && !pos.certain_at(1) && pos.certain_at(2));
        let mults = [vec![1, 0, 0], vec![1, 1, 0], vec![1, 1, 1]];
        let out = cols.gather_extended(&[1, 1, 0], mults, "pos", pos);
        assert!(!out.is_normalized());
        assert_eq!(out.schema().cols(), &["a", "b", "pos"]);
        let rows = out.to_rows();
        assert_eq!(rows.rows()[1].tuple.get(0), &RangeValue::certain(5i64));
        assert_eq!(rows.rows()[1].tuple.get(2), &rv(1, 2, 2));
        assert_eq!(rows.rows()[1].mult, Mult3::new(0, 1, 1));
        assert_eq!(rows.rows()[2].tuple.get(0), &rv(1, 2, 3));
        assert_eq!(rows.rows()[2].mult, Mult3::new(0, 0, 1));
        let all = AuColumn::from_i64_lanes(lanes([4, 5, 6]), lanes([4, 5, 6]), lanes([4, 5, 6]));
        assert!(all.is_certain());
        assert_eq!(all.range_value(2), RangeValue::certain(6i64));
    }

    /// `assume_canonical` takes the caller's word in release builds and
    /// checks it in debug builds: canonical columns pass and are flagged…
    #[test]
    fn assume_canonical_flags_canonical_columns() {
        let canonical = sample().normalize();
        let mut unflagged = AuColumns::empty(canonical.schema.clone());
        for row in canonical.rows() {
            unflagged.push_row(&row.tuple, row.mult);
        }
        assert!(!unflagged.is_normalized());
        let flagged = unflagged.assume_canonical();
        assert!(flagged.is_normalized());
        assert_eq!(flagged.to_rows().rows(), canonical.rows());
    }

    /// …and each way of not being canonical panics there.
    #[cfg(debug_assertions)]
    mod assume_canonical_checks_its_claim {
        use super::*;

        fn of(rows: [(i64, Mult3); 2]) -> AuColumns {
            let mut cols = AuColumns::empty(Schema::new(["a"]));
            for (a, mult) in rows {
                cols.push_row(&AuTuple::new([RangeValue::certain(a)]), mult);
            }
            cols
        }

        #[test]
        #[should_panic]
        fn out_of_order() {
            of([(2, Mult3::ONE), (1, Mult3::ONE)]).assume_canonical();
        }

        #[test]
        #[should_panic]
        fn duplicate() {
            of([(1, Mult3::ONE), (1, Mult3::ONE)]).assume_canonical();
        }

        #[test]
        #[should_panic]
        fn zero_annotated() {
            of([(1, Mult3::ONE), (2, Mult3::ZERO)]).assume_canonical();
        }
    }

    #[test]
    fn certain_fast_path_is_smaller() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            (0..100).map(|i| (AuTuple::new([RangeValue::certain(i as i64)]), Mult3::ONE)),
        );
        let cols = rel.to_columns();
        assert!(cols.col(0).is_certain());
        assert!(cols.heap_bytes() < rel.heap_bytes());
        // …and the typed i64 lanes undercut even the generic columnar
        // layout (8 B/cell vs 16 B/cell enum slots).
        assert!(cols.heap_bytes() < cols.to_generic().heap_bytes());
        assert_eq!(cols.to_generic().to_rows().rows(), cols.to_rows().rows());
    }

    #[test]
    fn mixed_type_column_falls_back_generic() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE),
                (
                    AuTuple::new([RangeValue::certain(Value::str("x"))]),
                    Mult3::ONE,
                ),
                (AuTuple::new([RangeValue::certain(Value::Null)]), Mult3::ONE),
            ],
        );
        let cols = rel.to_columns();
        assert_eq!(cols.col(0).phys_type(), PhysType::Generic);
        assert_eq!(cols.to_rows().rows(), rel.rows());
    }

    #[test]
    fn string_columns_dictionary_encode() {
        let rel = AuRelation::from_rows(
            Schema::new(["s"]),
            (0..60).map(|i| {
                (
                    AuTuple::new([RangeValue::certain(Value::str(["lo", "hi", "mid"][i % 3]))]),
                    Mult3::ONE,
                )
            }),
        );
        let cols = rel.to_columns();
        assert_eq!(cols.col(0).phys_type(), PhysType::Str);
        assert!(cols.heap_bytes() < cols.to_generic().heap_bytes());
        assert_eq!(cols.to_rows().rows(), rel.rows());
    }
}
