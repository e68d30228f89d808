//! Range expressions: the bound-preserving expression semantics `⟦e⟧_t`
//! of \[24\] over range-annotated tuples.
//!
//! Mirrors [`audb_rel::Expr`] but evaluates every sub-expression to a
//! [`RangeValue`], and predicates to a [`TruthRange`]. For any deterministic
//! tuple `t ⊑ t` the deterministic result `⟦e⟧_t` is guaranteed to lie
//! within the range result `⟦e⟧_t` (paper Sec. 3.2).
//!
//! ## Vectorized evaluation: typed lanes, else the row semantics
//!
//! The row semantics is written once, as a recursion over a cell reader
//! (`eval_with` / `truth_with`): [`RangeExpr::eval`] and
//! [`RangeExpr::truth`] read a tuple's cells, and it is the oracle.
//!
//! The batch kernels (`eval_batch` / `truth_batch` / `eval_batch_at` /
//! `eval_batch_column`) try a **typed fast path** first: when every
//! attribute the expression touches has typed physical lanes
//! ([`crate::physical`]) and every node is expressible over them, the
//! whole expression lowers to monomorphic sweeps over `i64` / `f64` /
//! dictionary-code slices — comparisons are branch-predictable primitive
//! compares, bound arithmetic never constructs a [`Value`], and truth
//! triples come straight off the lanes. Whenever *any* node cannot stay
//! typed (a `Generic` column, a boolean literal, `Mul`'s four-corner
//! extrema, `i64` overflow that the `Value` semantics would promote to
//! float, a comparison of predicates), the whole expression falls back to
//! the **row semantics, cell by cell**: per selected row, the same
//! recursion reads only the cells the expression names
//! (`AuBatch::range_value`). Typed ≡ row parity is property-pinned in
//! `tests/typed_columns.rs`; the exact `Value` semantics the typed loops
//! must reproduce (NaN ordering, `-0.0`, int–float cross comparison) are
//! [`audb_rel::cmp_float_float`] / [`audb_rel::cmp_int_float`].

use crate::batch::AuBatch;
use crate::columns::{AuColumn, AuColumns};
use crate::physical::{CertBitmap, PhysSlice, PhysVec, StrPool};
use crate::range_value::{RangeValue, TruthRange};
use crate::sortkey::Corner;
use crate::tuple::AuTuple;
use audb_rel::{cmp_float_float, cmp_int_float, CmpOp, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// An expression over range-annotated tuples.
#[derive(Clone, Debug, PartialEq)]
pub enum RangeExpr {
    /// Attribute reference.
    Col(usize),
    /// Constant range (usually certain).
    Lit(RangeValue),
    /// Addition.
    Add(Box<RangeExpr>, Box<RangeExpr>),
    /// Subtraction.
    Sub(Box<RangeExpr>, Box<RangeExpr>),
    /// Multiplication.
    Mul(Box<RangeExpr>, Box<RangeExpr>),
    /// Numeric negation.
    Neg(Box<RangeExpr>),
    /// Comparison producing a boolean range.
    Cmp(CmpOp, Box<RangeExpr>, Box<RangeExpr>),
    /// Conjunction of predicates.
    And(Box<RangeExpr>, Box<RangeExpr>),
    /// Disjunction of predicates.
    Or(Box<RangeExpr>, Box<RangeExpr>),
    /// Negation of a predicate.
    Not(Box<RangeExpr>),
}

impl RangeExpr {
    /// Attribute reference.
    pub fn col(i: usize) -> Self {
        RangeExpr::Col(i)
    }

    /// Certain literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        RangeExpr::Lit(RangeValue::certain(v))
    }

    /// `self op other`.
    pub fn cmp(self, op: CmpOp, other: RangeExpr) -> Self {
        RangeExpr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: RangeExpr) -> Self {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: RangeExpr) -> Self {
        self.cmp(CmpOp::Le, other)
    }

    /// `self = other`.
    pub fn eq(self, other: RangeExpr) -> Self {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: RangeExpr) -> Self {
        RangeExpr::And(Box::new(self), Box::new(other))
    }

    /// Call `f` on every node, pre-order: a node before its operands, the
    /// left operand's whole subtree before the right's.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a RangeExpr)) {
        f(self);
        match self {
            RangeExpr::Col(_) | RangeExpr::Lit(_) => {}
            RangeExpr::Neg(a) | RangeExpr::Not(a) => a.visit(f),
            RangeExpr::Add(a, b)
            | RangeExpr::Sub(a, b)
            | RangeExpr::Mul(a, b)
            | RangeExpr::And(a, b)
            | RangeExpr::Or(a, b)
            | RangeExpr::Cmp(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }

    /// The same expression with every `Col(i)` replaced by `Col(map(i))`;
    /// `None` as soon as `map` has no answer for a referenced column.
    pub fn map_cols(&self, map: &impl Fn(usize) -> Option<usize>) -> Option<RangeExpr> {
        let sub = |e: &RangeExpr| e.map_cols(map).map(Box::new);
        Some(match self {
            RangeExpr::Col(i) => RangeExpr::Col(map(*i)?),
            RangeExpr::Lit(v) => RangeExpr::Lit(v.clone()),
            RangeExpr::Neg(a) => RangeExpr::Neg(sub(a)?),
            RangeExpr::Not(a) => RangeExpr::Not(sub(a)?),
            RangeExpr::Add(a, b) => RangeExpr::Add(sub(a)?, sub(b)?),
            RangeExpr::Sub(a, b) => RangeExpr::Sub(sub(a)?, sub(b)?),
            RangeExpr::Mul(a, b) => RangeExpr::Mul(sub(a)?, sub(b)?),
            RangeExpr::And(a, b) => RangeExpr::And(sub(a)?, sub(b)?),
            RangeExpr::Or(a, b) => RangeExpr::Or(sub(a)?, sub(b)?),
            RangeExpr::Cmp(op, a, b) => RangeExpr::Cmp(*op, sub(a)?, sub(b)?),
        })
    }

    /// Evaluate to a range value. Predicates evaluate to boolean ranges
    /// (`lb/sg/ub ∈ {false, true}` with `false < true`).
    pub fn eval(&self, t: &AuTuple) -> RangeValue {
        self.eval_with(&|i| t.get(i).clone())
    }

    /// Evaluate as a predicate.
    pub fn truth(&self, t: &AuTuple) -> TruthRange {
        self.truth_with(&|i| t.get(i).clone())
    }

    /// The row semantics, written once: `cell(i)` reads attribute `i` of
    /// the row at hand — a tuple's cell for [`RangeExpr::eval`], one batch
    /// cell for the batch kernels' fallback, a zone's bound box for
    /// [`crate::stats::zone_truth`].
    fn eval_with(&self, cell: &impl Fn(usize) -> RangeValue) -> RangeValue {
        match self {
            RangeExpr::Col(i) => cell(*i),
            RangeExpr::Lit(v) => v.clone(),
            RangeExpr::Add(a, b) => a.eval_with(cell).add(&b.eval_with(cell)),
            RangeExpr::Sub(a, b) => a.eval_with(cell).sub(&b.eval_with(cell)),
            RangeExpr::Mul(a, b) => a.eval_with(cell).mul(&b.eval_with(cell)),
            RangeExpr::Neg(a) => a.eval_with(cell).neg(),
            RangeExpr::Cmp(op, a, b) => {
                truth_to_range(eval_cmp(*op, &a.eval_with(cell), &b.eval_with(cell)))
            }
            RangeExpr::And(a, b) => truth_to_range(a.truth_with(cell).and(b.truth_with(cell))),
            RangeExpr::Or(a, b) => truth_to_range(a.truth_with(cell).or(b.truth_with(cell))),
            RangeExpr::Not(a) => truth_to_range(a.truth_with(cell).not()),
        }
    }

    /// [`RangeExpr::eval_with`] as a predicate.
    pub(crate) fn truth_with(&self, cell: &impl Fn(usize) -> RangeValue) -> TruthRange {
        let v = self.eval_with(cell);
        TruthRange {
            lb: v.lb.is_true(),
            sg: v.sg.is_true(),
            ub: v.ub.is_true(),
        }
    }

    /// Evaluate the expression over every row of a columnar batch,
    /// producing one [`RangeValue`] per row (in row order).
    ///
    /// This is the vectorized twin of [`RangeExpr::eval`]: typed lanes
    /// evaluate monomorphically, anything else runs the row semantics
    /// cell by cell (see the module docs). Row/columnar parity is pinned
    /// by property tests in `tests/columnar_roundtrip.rs` and
    /// `tests/typed_columns.rs`.
    pub fn eval_batch(&self, b: &AuBatch<'_>) -> Vec<RangeValue> {
        self.eval_batch_sel(b, Sel::All(b.len()))
    }

    /// Evaluate the expression over the rows of a columnar batch at the
    /// given batch-relative indices only, producing one [`RangeValue`]
    /// per index (aligned with `idxs`). The fused executor uses this to
    /// compute projections only for the rows a preceding selection kept.
    pub fn eval_batch_at(&self, b: &AuBatch<'_>, idxs: &[usize]) -> Vec<RangeValue> {
        self.eval_batch_sel(b, Sel::At(idxs))
    }

    fn eval_batch_sel(&self, b: &AuBatch<'_>, sel: Sel<'_>) -> Vec<RangeValue> {
        let n = sel.count();
        if let Some(tv) = self.eval_typed(b, sel) {
            return tv.into_range_values(n, sel);
        }
        (0..n)
            .map(|k| self.eval_with(&|i| b.range_value(i, sel.abs(k))))
            .collect()
    }

    /// Evaluate the expression as a predicate over every row of a
    /// columnar batch, producing one [`TruthRange`] per row (in row
    /// order). On typed lanes, predicate roots (comparisons, boolean
    /// connectives) stay in truth-triple form end to end — no boolean is
    /// ever boxed into a [`Value`] — and comparisons are monomorphic
    /// primitive sweeps; anything else runs [`RangeExpr::truth`]'s
    /// recursion cell by cell.
    pub fn truth_batch(&self, b: &AuBatch<'_>) -> Vec<TruthRange> {
        self.truth_batch_sel(b, Sel::All(b.len()))
    }

    /// Evaluate the predicate over the rows at the given batch-relative
    /// indices only, producing one [`TruthRange`] per index (aligned with
    /// `idxs`) — the fused executor's path for a selection chained after
    /// another selection, so already-dropped rows are never re-evaluated.
    pub fn truth_batch_at(&self, b: &AuBatch<'_>, idxs: &[usize]) -> Vec<TruthRange> {
        self.truth_batch_sel(b, Sel::At(idxs))
    }

    fn truth_batch_sel(&self, b: &AuBatch<'_>, sel: Sel<'_>) -> Vec<TruthRange> {
        let n = sel.count();
        if let Some(tv) = self.eval_typed(b, sel) {
            return tv.into_truth_vec(n, sel);
        }
        (0..n)
            .map(|k| self.truth_with(&|i| b.range_value(i, sel.abs(k))))
            .collect()
    }

    /// Evaluate a computed projection straight into an output
    /// [`AuColumn`] for the rows at `idxs`: the typed path builds typed
    /// lanes (and the certainty bitmap) directly — no [`RangeValue`] is
    /// ever materialized between the kernel and the output column — and
    /// the fallback routes through [`AuColumns::column_from_values`].
    /// Collapses to the certain fast path exactly when every produced
    /// cell is a point, matching the fallback's rule.
    pub fn eval_batch_column(&self, b: &AuBatch<'_>, idxs: &[usize]) -> AuColumn {
        let sel = Sel::At(idxs);
        if let Some(tv) = self.eval_typed(b, sel) {
            return tv.into_column(idxs.len(), sel);
        }
        AuColumns::column_from_values(self.eval_batch_at(b, idxs))
    }

    /// Typed evaluation core: `Some` iff this node (and its whole
    /// subtree) is expressible over typed physical lanes; `None` sends
    /// the **entire expression** to the row semantics, so a partially
    /// typed tree never mixes semantics mid-expression.
    fn eval_typed<'a>(&'a self, b: &AuBatch<'a>, sel: Sel<'_>) -> Option<TypedVals<'a>> {
        let n = sel.count();
        match self {
            RangeExpr::Col(i) => match (
                b.corner(*i, Corner::Lb),
                b.corner(*i, Corner::Sg),
                b.corner(*i, Corner::Ub),
            ) {
                (PhysSlice::I64(l), PhysSlice::I64(s), PhysSlice::I64(u)) => {
                    Some(TypedVals::I64(TriLanes {
                        lb: Lane::Slice(l),
                        sg: Lane::Slice(s),
                        ub: Lane::Slice(u),
                    }))
                }
                (PhysSlice::F64(l), PhysSlice::F64(s), PhysSlice::F64(u)) => {
                    Some(TypedVals::F64(TriLanes {
                        lb: Lane::Slice(l),
                        sg: Lane::Slice(s),
                        ub: Lane::Slice(u),
                    }))
                }
                (
                    PhysSlice::Str {
                        codes: lc,
                        pool: lp,
                    },
                    PhysSlice::Str {
                        codes: sc,
                        pool: sp,
                    },
                    PhysSlice::Str {
                        codes: uc,
                        pool: up,
                    },
                ) => Some(TypedVals::Str(TriStr {
                    lb: StrLane::Dict {
                        codes: lc,
                        pool: lp,
                    },
                    sg: StrLane::Dict {
                        codes: sc,
                        pool: sp,
                    },
                    ub: StrLane::Dict {
                        codes: uc,
                        pool: up,
                    },
                })),
                // A Generic lane — or a ranged column whose three bounds
                // landed in different layouts — leaves the typed tier.
                _ => None,
            },
            RangeExpr::Lit(v) => match (&v.lb, &v.sg, &v.ub) {
                (Value::Int(l), Value::Int(s), Value::Int(u)) => Some(TypedVals::I64(TriLanes {
                    lb: Lane::Const(*l),
                    sg: Lane::Const(*s),
                    ub: Lane::Const(*u),
                })),
                (Value::Float(l), Value::Float(s), Value::Float(u)) => {
                    Some(TypedVals::F64(TriLanes {
                        lb: Lane::Const(*l),
                        sg: Lane::Const(*s),
                        ub: Lane::Const(*u),
                    }))
                }
                (Value::Str(l), Value::Str(s), Value::Str(u)) => Some(TypedVals::Str(TriStr {
                    lb: StrLane::Const(l),
                    sg: StrLane::Const(s),
                    ub: StrLane::Const(u),
                })),
                _ => None,
            },
            // Addition and subtraction: i64 lanes use checked arithmetic —
            // an overflow is exactly the case where the Value semantics
            // promote that element to float, so the whole node bails to
            // the row semantics. Mixed i64/f64 promotes unconditionally via
            // `as f64`, precisely what `numeric_binop` does for a genuine
            // Int-class/Float-class pair.
            RangeExpr::Add(x, y) => {
                let a = x.eval_typed(b, sel)?;
                let c = y.eval_typed(b, sel)?;
                match (a, c) {
                    (TypedVals::I64(p), TypedVals::I64(q)) => Some(TypedVals::I64(TriLanes {
                        lb: zip_lanes(n, sel, &p.lb, &q.lb, i64::checked_add)?,
                        sg: zip_lanes(n, sel, &p.sg, &q.sg, i64::checked_add)?,
                        ub: zip_lanes(n, sel, &p.ub, &q.ub, i64::checked_add)?,
                    })),
                    (p, q) => {
                        let p = tri_to_f64(p, n, sel)?;
                        let q = tri_to_f64(q, n, sel)?;
                        Some(TypedVals::F64(TriLanes {
                            lb: zip_lanes(n, sel, &p.lb, &q.lb, |s, t| Some(s + t))?,
                            sg: zip_lanes(n, sel, &p.sg, &q.sg, |s, t| Some(s + t))?,
                            ub: zip_lanes(n, sel, &p.ub, &q.ub, |s, t| Some(s + t))?,
                        }))
                    }
                }
            }
            // Subtraction is antitone in its right argument (mirrors
            // RangeValue::sub): lb = a↓ − c↑, ub = a↑ − c↓.
            RangeExpr::Sub(x, y) => {
                let a = x.eval_typed(b, sel)?;
                let c = y.eval_typed(b, sel)?;
                match (a, c) {
                    (TypedVals::I64(p), TypedVals::I64(q)) => Some(TypedVals::I64(TriLanes {
                        lb: zip_lanes(n, sel, &p.lb, &q.ub, i64::checked_sub)?,
                        sg: zip_lanes(n, sel, &p.sg, &q.sg, i64::checked_sub)?,
                        ub: zip_lanes(n, sel, &p.ub, &q.lb, i64::checked_sub)?,
                    })),
                    (p, q) => {
                        let p = tri_to_f64(p, n, sel)?;
                        let q = tri_to_f64(q, n, sel)?;
                        Some(TypedVals::F64(TriLanes {
                            lb: zip_lanes(n, sel, &p.lb, &q.ub, |s, t| Some(s - t))?,
                            sg: zip_lanes(n, sel, &p.sg, &q.sg, |s, t| Some(s - t))?,
                            ub: zip_lanes(n, sel, &p.ub, &q.lb, |s, t| Some(s - t))?,
                        }))
                    }
                }
            }
            // Four-corner extrema over mixed-sign ranges: rare enough on
            // hot paths that it stays with the row semantics.
            RangeExpr::Mul(..) => None,
            RangeExpr::Neg(x) => match x.eval_typed(b, sel)? {
                // Value::neg is wrapping for ints; negation swaps bounds.
                TypedVals::I64(p) => Some(TypedVals::I64(TriLanes {
                    lb: map_lane(&p.ub, n, sel, i64::wrapping_neg),
                    sg: map_lane(&p.sg, n, sel, i64::wrapping_neg),
                    ub: map_lane(&p.lb, n, sel, i64::wrapping_neg),
                })),
                TypedVals::F64(p) => Some(TypedVals::F64(TriLanes {
                    lb: map_lane(&p.ub, n, sel, |v| -v),
                    sg: map_lane(&p.sg, n, sel, |v| -v),
                    ub: map_lane(&p.lb, n, sel, |v| -v),
                })),
                _ => None,
            },
            RangeExpr::Cmp(op, x, y) => {
                let a = x.eval_typed(b, sel)?;
                let c = y.eval_typed(b, sel)?;
                cmp_typed(*op, a, c, n, sel).map(TypedVals::Truths)
            }
            RangeExpr::And(x, y) => {
                let a = x.eval_typed(b, sel)?.into_truth_vec(n, sel);
                let c = y.eval_typed(b, sel)?.into_truth_vec(n, sel);
                Some(TypedVals::Truths(
                    a.into_iter().zip(c).map(|(s, t)| s.and(t)).collect(),
                ))
            }
            RangeExpr::Or(x, y) => {
                let a = x.eval_typed(b, sel)?.into_truth_vec(n, sel);
                let c = y.eval_typed(b, sel)?.into_truth_vec(n, sel);
                Some(TypedVals::Truths(
                    a.into_iter().zip(c).map(|(s, t)| s.or(t)).collect(),
                ))
            }
            RangeExpr::Not(x) => {
                let a = x.eval_typed(b, sel)?.into_truth_vec(n, sel);
                Some(TypedVals::Truths(
                    a.into_iter().map(TruthRange::not).collect(),
                ))
            }
        }
    }
}

/// The row subset an expression sweep covers: every row of the batch, or
/// an explicit batch-relative index list (the surviving rows of a pending
/// selection). Borrowed column slices index through [`Sel::abs`]; owned
/// per-node vectors are aligned with the selection positions.
#[derive(Clone, Copy)]
enum Sel<'r> {
    /// All `n` rows, in order.
    All(usize),
    /// The rows at these batch-relative indices.
    At(&'r [usize]),
}

impl Sel<'_> {
    fn count(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::At(idxs) => idxs.len(),
        }
    }

    #[inline]
    fn abs(&self, k: usize) -> usize {
        match self {
            Sel::All(_) => k,
            Sel::At(idxs) => idxs[k],
        }
    }
}

/// One bound vector of a typed node: a borrowed physical lane
/// (batch-absolute, indexed through [`Sel::abs`]), an owned computed lane
/// (selection-aligned), or a broadcast literal corner.
enum Lane<'a, T: Copy> {
    Slice(&'a [T]),
    Owned(Vec<T>),
    Const(T),
}

impl<T: Copy> Lane<'_, T> {
    #[inline]
    fn at(&self, k: usize, sel: Sel<'_>) -> T {
        match self {
            Lane::Slice(s) => s[sel.abs(k)],
            Lane::Owned(v) => v[k],
            Lane::Const(c) => *c,
        }
    }
}

/// Three bound lanes of a numeric typed node.
struct TriLanes<'a, T: Copy> {
    lb: Lane<'a, T>,
    sg: Lane<'a, T>,
    ub: Lane<'a, T>,
}

/// One bound vector of a string-typed node: dictionary codes into an
/// interned pool, or a broadcast literal. (No operator *computes* new
/// strings, so there is no owned lane.)
enum StrLane<'a> {
    Dict { codes: &'a [u32], pool: &'a StrPool },
    Const(&'a Arc<str>),
}

impl<'a> StrLane<'a> {
    #[inline]
    fn at(&self, k: usize, sel: Sel<'_>) -> &'a str {
        match self {
            StrLane::Dict { codes, pool } => pool.get(codes[sel.abs(k)]),
            StrLane::Const(s) => s,
        }
    }

    fn arc_at(&self, k: usize, sel: Sel<'_>) -> Arc<str> {
        match self {
            StrLane::Dict { codes, pool } => pool.arc(codes[sel.abs(k)]).clone(),
            StrLane::Const(s) => Arc::clone(s),
        }
    }
}

/// Three bound lanes of a string-typed node.
struct TriStr<'a> {
    lb: StrLane<'a>,
    sg: StrLane<'a>,
    ub: StrLane<'a>,
}

/// The typed column-level value of one expression node over a batch.
enum TypedVals<'a> {
    I64(TriLanes<'a, i64>),
    F64(TriLanes<'a, f64>),
    Str(TriStr<'a>),
    /// Predicate node: per-row truth triples.
    Truths(Vec<TruthRange>),
}

impl TypedVals<'_> {
    /// This node as per-row truth triples: predicate nodes pass through;
    /// numeric and string lanes are never `Bool(true)`, so their
    /// truth-lowering (`Value::is_true` per corner) is constant `false`.
    fn into_truth_vec(self, n: usize, _sel: Sel<'_>) -> Vec<TruthRange> {
        match self {
            TypedVals::Truths(ts) => ts,
            _ => vec![TruthRange::FALSE; n],
        }
    }

    /// Materialize per-row [`RangeValue`]s (the root of `eval_batch` on
    /// the typed path — the only place the typed kernels box a `Value`).
    fn into_range_values(self, n: usize, sel: Sel<'_>) -> Vec<RangeValue> {
        match self {
            TypedVals::I64(t) => (0..n)
                .map(|k| RangeValue {
                    lb: Value::Int(t.lb.at(k, sel)),
                    sg: Value::Int(t.sg.at(k, sel)),
                    ub: Value::Int(t.ub.at(k, sel)),
                })
                .collect(),
            TypedVals::F64(t) => (0..n)
                .map(|k| RangeValue {
                    lb: Value::Float(t.lb.at(k, sel)),
                    sg: Value::Float(t.sg.at(k, sel)),
                    ub: Value::Float(t.ub.at(k, sel)),
                })
                .collect(),
            TypedVals::Str(t) => (0..n)
                .map(|k| RangeValue {
                    lb: Value::Str(t.lb.arc_at(k, sel)),
                    sg: Value::Str(t.sg.arc_at(k, sel)),
                    ub: Value::Str(t.ub.arc_at(k, sel)),
                })
                .collect(),
            TypedVals::Truths(ts) => ts.into_iter().map(truth_to_range).collect(),
        }
    }

    /// Build the output [`AuColumn`] of a computed projection directly
    /// from the typed lanes, with the certainty bitmap computed in the
    /// same sweep. Per-row certainty uses the type's `Value`-equality
    /// (`cmp_float_float == Equal` for floats — NaN ≡ NaN, `-0.0 ≡ 0.0`),
    /// so the certain-collapse decision matches
    /// [`AuColumns::column_from_values`] exactly.
    fn into_column(self, n: usize, sel: Sel<'_>) -> AuColumn {
        match self {
            TypedVals::I64(t) => tri_column(n, sel, &t, |a, b| a == b, PhysVec::I64),
            TypedVals::F64(t) => tri_column(
                n,
                sel,
                &t,
                |a, b| cmp_float_float(a, b) == Ordering::Equal,
                PhysVec::F64,
            ),
            TypedVals::Str(t) => {
                let mut lp = StrPool::new();
                let mut sp = StrPool::new();
                let mut up = StrPool::new();
                let mut lc = Vec::with_capacity(n);
                let mut sc = Vec::with_capacity(n);
                let mut uc = Vec::with_capacity(n);
                let mut certain = CertBitmap::new();
                let mut all = true;
                for k in 0..n {
                    let (l, s, u) = (
                        t.lb.arc_at(k, sel),
                        t.sg.arc_at(k, sel),
                        t.ub.arc_at(k, sel),
                    );
                    let c = l == s && s == u;
                    all &= c;
                    certain.push(c);
                    lc.push(lp.intern(&l));
                    sc.push(sp.intern(&s));
                    uc.push(up.intern(&u));
                }
                if all {
                    AuColumn::Certain(PhysVec::Str {
                        codes: sc,
                        pool: sp,
                    })
                } else {
                    AuColumn::Ranged {
                        lb: PhysVec::Str {
                            codes: lc,
                            pool: lp,
                        },
                        sg: PhysVec::Str {
                            codes: sc,
                            pool: sp,
                        },
                        ub: PhysVec::Str {
                            codes: uc,
                            pool: up,
                        },
                        certain,
                    }
                }
            }
            TypedVals::Truths(ts) => {
                AuColumns::column_from_values(ts.into_iter().map(truth_to_range).collect())
            }
        }
    }
}

/// Sweep three bound lanes into an output column, collapsing to the
/// certain representation when every row is a point under `eq`.
fn tri_column<T: Copy>(
    n: usize,
    sel: Sel<'_>,
    t: &TriLanes<'_, T>,
    eq: impl Fn(T, T) -> bool,
    mk: impl Fn(Vec<T>) -> PhysVec,
) -> AuColumn {
    let mut lb = Vec::with_capacity(n);
    let mut sg = Vec::with_capacity(n);
    let mut ub = Vec::with_capacity(n);
    let mut certain = CertBitmap::new();
    let mut all = true;
    for k in 0..n {
        let (l, s, u) = (t.lb.at(k, sel), t.sg.at(k, sel), t.ub.at(k, sel));
        let c = eq(l, s) && eq(s, u);
        all &= c;
        certain.push(c);
        lb.push(l);
        sg.push(s);
        ub.push(u);
    }
    if all {
        AuColumn::Certain(mk(sg))
    } else {
        AuColumn::Ranged {
            lb: mk(lb),
            sg: mk(sg),
            ub: mk(ub),
            certain,
        }
    }
}

/// Zip two lanes element-wise; `None` from `f` (i64 overflow) aborts the
/// typed path for the whole expression.
fn zip_lanes<T: Copy>(
    n: usize,
    sel: Sel<'_>,
    a: &Lane<'_, T>,
    b: &Lane<'_, T>,
    f: impl Fn(T, T) -> Option<T>,
) -> Option<Lane<'static, T>> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(f(a.at(k, sel), b.at(k, sel))?);
    }
    Some(Lane::Owned(out))
}

/// Map a lane element-wise (constants stay constants).
fn map_lane<T: Copy, U: Copy>(
    lane: &Lane<'_, T>,
    n: usize,
    sel: Sel<'_>,
    f: impl Fn(T) -> U,
) -> Lane<'static, U> {
    match lane {
        Lane::Const(c) => Lane::Const(f(*c)),
        l => Lane::Owned((0..n).map(|k| f(l.at(k, sel))).collect()),
    }
}

/// Promote a numeric node to `f64` lanes for mixed arithmetic — the
/// unconditional `as f64` promotion `numeric_binop` applies to a genuine
/// Int/Float pair.
fn tri_to_f64<'a>(t: TypedVals<'a>, n: usize, sel: Sel<'_>) -> Option<TriLanes<'a, f64>> {
    match t {
        TypedVals::F64(x) => Some(x),
        TypedVals::I64(x) => Some(TriLanes {
            lb: map_lane(&x.lb, n, sel, |v| v as f64),
            sg: map_lane(&x.sg, n, sel, |v| v as f64),
            ub: map_lane(&x.ub, n, sel, |v| v as f64),
        }),
        _ => None,
    }
}

/// Corner access shared by numeric and string typed triples, so the
/// comparison kernel is written once and monomorphized per lane-type
/// pair.
trait TriView {
    type Item: Copy;
    fn lb_at(&self, k: usize, sel: Sel<'_>) -> Self::Item;
    fn sg_at(&self, k: usize, sel: Sel<'_>) -> Self::Item;
    fn ub_at(&self, k: usize, sel: Sel<'_>) -> Self::Item;
}

impl<T: Copy> TriView for TriLanes<'_, T> {
    type Item = T;
    #[inline]
    fn lb_at(&self, k: usize, sel: Sel<'_>) -> T {
        self.lb.at(k, sel)
    }
    #[inline]
    fn sg_at(&self, k: usize, sel: Sel<'_>) -> T {
        self.sg.at(k, sel)
    }
    #[inline]
    fn ub_at(&self, k: usize, sel: Sel<'_>) -> T {
        self.ub.at(k, sel)
    }
}

impl<'a> TriView for TriStr<'a> {
    type Item = &'a str;
    #[inline]
    fn lb_at(&self, k: usize, sel: Sel<'_>) -> &'a str {
        self.lb.at(k, sel)
    }
    #[inline]
    fn sg_at(&self, k: usize, sel: Sel<'_>) -> &'a str {
        self.sg.at(k, sel)
    }
    #[inline]
    fn ub_at(&self, k: usize, sel: Sel<'_>) -> &'a str {
        self.ub.at(k, sel)
    }
}

/// Typed comparison dispatch: canonicalizes `Gt`/`Ge` by swapping sides,
/// then monomorphizes the truth-triple sweep per physical pair. `None`
/// for pairs the typed layer does not cover (cross-class like
/// string-vs-number, or comparisons of predicates).
fn cmp_typed(
    op: CmpOp,
    a: TypedVals<'_>,
    c: TypedVals<'_>,
    n: usize,
    sel: Sel<'_>,
) -> Option<Vec<TruthRange>> {
    let eq_f = |p: f64, q: f64| cmp_float_float(p, q) == Ordering::Equal;
    let (op, a, c) = match op {
        CmpOp::Gt => (CmpOp::Lt, c, a),
        CmpOp::Ge => (CmpOp::Le, c, a),
        op => (op, a, c),
    };
    Some(match (&a, &c) {
        (TypedVals::I64(x), TypedVals::I64(y)) => cmp_lanes(
            op,
            n,
            sel,
            x,
            y,
            |p, q| p < q,
            |p, q| p <= q,
            |p, q| p == q,
            |p, q| p == q,
            |p, q| p == q,
        ),
        (TypedVals::F64(x), TypedVals::F64(y)) => cmp_lanes(
            op,
            n,
            sel,
            x,
            y,
            |p, q| cmp_float_float(p, q) == Ordering::Less,
            |p, q| cmp_float_float(p, q) != Ordering::Greater,
            eq_f,
            eq_f,
            eq_f,
        ),
        (TypedVals::I64(x), TypedVals::F64(y)) => cmp_lanes(
            op,
            n,
            sel,
            x,
            y,
            |p, q| cmp_int_float(p, q) == Ordering::Less,
            |p, q| cmp_int_float(p, q) != Ordering::Greater,
            |p, q| cmp_int_float(p, q) == Ordering::Equal,
            |p, q| p == q,
            eq_f,
        ),
        (TypedVals::F64(x), TypedVals::I64(y)) => cmp_lanes(
            op,
            n,
            sel,
            x,
            y,
            |p, q| cmp_int_float(q, p) == Ordering::Greater,
            |p, q| cmp_int_float(q, p) != Ordering::Less,
            |p, q| cmp_int_float(q, p) == Ordering::Equal,
            eq_f,
            |p, q| p == q,
        ),
        (TypedVals::Str(x), TypedVals::Str(y)) => cmp_lanes(
            op,
            n,
            sel,
            x,
            y,
            |p, q| p < q,
            |p, q| p <= q,
            |p, q| p == q,
            |p, q| p == q,
            |p, q| p == q,
        ),
        _ => return None,
    })
}

/// The monomorphic truth-triple sweep (mirrors [`eval_cmp`] /
/// `RangeValue::{lt, le, eq_range}`): `Gt`/`Ge` must be canonicalized
/// away by the caller. The `eq` upper bound uses the total order:
/// `y↓ ≤ x↑ ⇔ ¬(x↑ < y↓)`.
#[allow(clippy::too_many_arguments)]
fn cmp_lanes<X: TriView, Y: TriView>(
    op: CmpOp,
    n: usize,
    sel: Sel<'_>,
    x: &X,
    y: &Y,
    lt: impl Fn(X::Item, Y::Item) -> bool,
    le: impl Fn(X::Item, Y::Item) -> bool,
    eq: impl Fn(X::Item, Y::Item) -> bool,
    eq_x: impl Fn(X::Item, X::Item) -> bool,
    eq_y: impl Fn(Y::Item, Y::Item) -> bool,
) -> Vec<TruthRange> {
    match op {
        CmpOp::Lt => (0..n)
            .map(|k| TruthRange {
                lb: lt(x.ub_at(k, sel), y.lb_at(k, sel)),
                sg: lt(x.sg_at(k, sel), y.sg_at(k, sel)),
                ub: lt(x.lb_at(k, sel), y.ub_at(k, sel)),
            })
            .collect(),
        CmpOp::Le => (0..n)
            .map(|k| TruthRange {
                lb: le(x.ub_at(k, sel), y.lb_at(k, sel)),
                sg: le(x.sg_at(k, sel), y.sg_at(k, sel)),
                ub: le(x.lb_at(k, sel), y.ub_at(k, sel)),
            })
            .collect(),
        CmpOp::Eq | CmpOp::Ne => {
            let ts = (0..n).map(|k| {
                let (xl, xs, xu) = (x.lb_at(k, sel), x.sg_at(k, sel), x.ub_at(k, sel));
                let (yl, ys, yu) = (y.lb_at(k, sel), y.sg_at(k, sel), y.ub_at(k, sel));
                let cx = eq_x(xl, xs) && eq_x(xs, xu);
                let cy = eq_y(yl, ys) && eq_y(ys, yu);
                TruthRange {
                    lb: cx && cy && eq(xl, yl),
                    sg: eq(xs, ys),
                    ub: le(xl, yu) && !lt(xu, yl),
                }
            });
            if op == CmpOp::Ne {
                ts.map(TruthRange::not).collect()
            } else {
                ts.collect()
            }
        }
        CmpOp::Gt | CmpOp::Ge => unreachable!("canonicalized to Lt/Le before dispatch"),
    }
}

fn truth_to_range(t: TruthRange) -> RangeValue {
    RangeValue {
        lb: Value::Bool(t.lb),
        sg: Value::Bool(t.sg),
        ub: Value::Bool(t.ub),
    }
}

fn eval_cmp(op: CmpOp, a: &RangeValue, b: &RangeValue) -> TruthRange {
    match op {
        CmpOp::Lt => a.lt(b),
        CmpOp::Le => a.le(b),
        CmpOp::Gt => b.lt(a),
        CmpOp::Ge => b.le(a),
        CmpOp::Eq => a.eq_range(b),
        CmpOp::Ne => a.eq_range(b).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::Mult3;
    use crate::relation::AuRelation;
    use audb_rel::{Schema, Tuple};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    #[test]
    fn arithmetic_over_ranges() {
        let t = AuTuple::new([rv(1, 2, 3), rv(10, 10, 20)]);
        let e = RangeExpr::col(0).cmp(CmpOp::Lt, RangeExpr::col(1));
        assert_eq!(e.truth(&t), TruthRange::TRUE);
        let sum = RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1)));
        assert_eq!(sum.eval(&t), rv(11, 12, 23));
    }

    #[test]
    fn predicate_truth_triples() {
        let t = AuTuple::new([rv(1, 2, 5)]);
        // col0 <= 3: certainly? ub=5 > 3 no. sg? 2<=3 yes. possibly? lb=1<=3 yes.
        let e = RangeExpr::col(0).le(RangeExpr::lit(3));
        let tr = e.truth(&t);
        assert!(!tr.lb && tr.sg && tr.ub);
        // Negation flips.
        let n = RangeExpr::Not(Box::new(e)).truth(&t);
        assert!(!n.lb && !n.sg && n.ub);
    }

    /// `(c2 + 7) < (-(c0))`, then `AND NOT c1`: the walk sees a node
    /// before its operands and the left operand before the right.
    #[test]
    fn visit_is_preorder_left_to_right() {
        let sum = RangeExpr::Add(Box::new(RangeExpr::col(2)), Box::new(RangeExpr::lit(7)));
        let neg = RangeExpr::Neg(Box::new(RangeExpr::col(0)));
        let e = sum.lt(neg).and(RangeExpr::Not(Box::new(RangeExpr::col(1))));
        let mut seen = Vec::new();
        e.visit(&mut |n| {
            seen.push(match n {
                RangeExpr::Col(i) => format!("c{i}"),
                RangeExpr::Lit(v) => format!("{}", v.sg),
                RangeExpr::Add(..) => "+".into(),
                RangeExpr::Neg(_) => "neg".into(),
                RangeExpr::Cmp(..) => "<".into(),
                RangeExpr::And(..) => "and".into(),
                RangeExpr::Not(_) => "not".into(),
                other => panic!("not in this expression: {other:?}"),
            })
        });
        assert_eq!(seen, ["and", "<", "+", "c2", "7", "neg", "c0", "not", "c1"]);
    }

    #[test]
    fn map_cols_renumbers_columns_and_nothing_else() {
        let uncertain = RangeExpr::Lit(rv(1, 2, 3));
        let e = RangeExpr::Mul(Box::new(RangeExpr::col(2)), Box::new(uncertain.clone()))
            .le(RangeExpr::col(0));
        let m = [Some(1), None, Some(0)];
        let at = |i: usize| m.get(i).copied().flatten();
        assert_eq!(
            e.map_cols(&at),
            Some(
                RangeExpr::Mul(Box::new(RangeExpr::col(0)), Box::new(uncertain))
                    .le(RangeExpr::col(1))
            )
        );
        // One unmapped reference anywhere — pruned (1) or past the map (3)
        // — and there is no answer.
        assert_eq!(e.clone().and(RangeExpr::col(1)).map_cols(&at), None);
        assert_eq!(
            RangeExpr::Neg(Box::new(RangeExpr::col(3))).map_cols(&at),
            None
        );
        // Literals never consult the map.
        assert_eq!(
            RangeExpr::lit(5).map_cols(&|_| None),
            Some(RangeExpr::lit(5))
        );
    }

    /// Property smoke: for every deterministic tuple bounded by the range
    /// tuple, deterministic evaluation stays inside the range result.
    #[test]
    fn expression_bound_preservation() {
        let at = AuTuple::new([rv(-2, 0, 2), rv(1, 3, 4)]);
        let range_e =
            RangeExpr::Mul(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1))).eval(&at);
        for x in -2..=2i64 {
            for y in 1..=4i64 {
                let det = Tuple::from([x, y]);
                assert!(at.bounds(&det));
                assert!(
                    range_e.bounds(&Value::Int(x * y)),
                    "{x}*{y} not in {range_e}"
                );
            }
        }
    }

    /// Typed kernels agree with the per-row oracle on awkward floats:
    /// NaN sorts above everything and equals itself; `-0.0 ≡ 0.0`.
    #[test]
    fn typed_float_kernels_handle_nan_and_negzero() {
        let rel = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([
                        RangeValue::certain(Value::Float(f64::NAN)),
                        RangeValue::certain(Value::Float(1.0)),
                    ]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([
                        RangeValue::certain(Value::Float(-0.0)),
                        RangeValue::certain(Value::Float(0.0)),
                    ]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([
                        RangeValue::new(Value::Float(0.5), Value::Float(1.0), Value::Float(2.0)),
                        RangeValue::certain(Value::Float(1.0)),
                    ]),
                    Mult3::ONE,
                ),
            ],
        );
        let cols = rel.to_columns();
        assert!(!cols.col(0).is_certain());
        let b = cols.as_batch();
        for e in [
            RangeExpr::col(0).lt(RangeExpr::col(1)),
            RangeExpr::col(0).le(RangeExpr::col(1)),
            RangeExpr::col(0).eq(RangeExpr::col(1)),
            RangeExpr::col(0).cmp(CmpOp::Gt, RangeExpr::col(1)),
            RangeExpr::col(0).cmp(CmpOp::Ne, RangeExpr::col(1)),
        ] {
            let truths = e.truth_batch(&b);
            for (i, row) in rel.rows().iter().enumerate() {
                assert_eq!(truths[i], e.truth(&row.tuple), "{e:?} row {i}");
            }
        }
    }

    /// `eval_batch_column` produces the same logical column as the
    /// generic materialization, including the certain collapse, for
    /// typed and fallback expressions alike.
    #[test]
    fn eval_batch_column_matches_generic_materialization() {
        let rel = AuRelation::from_rows(
            Schema::new(["a", "b"]),
            (0..8).map(|i| {
                (
                    AuTuple::new([
                        RangeValue::certain(i as i64),
                        RangeValue::new(i as i64, i as i64 + 1, i as i64 + 2),
                    ]),
                    Mult3::ONE,
                )
            }),
        );
        let cols = rel.to_columns();
        let b = cols.as_batch();
        let idxs: Vec<usize> = (0..8).step_by(2).collect();
        for e in [
            RangeExpr::col(0),
            RangeExpr::col(1),
            RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1))),
            RangeExpr::Mul(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1))),
            RangeExpr::col(0).lt(RangeExpr::col(1)),
        ] {
            let typed = e.eval_batch_column(&b, &idxs);
            let generic = AuColumns::column_from_values(e.eval_batch_at(&b, &idxs));
            assert_eq!(typed.is_certain(), generic.is_certain(), "{e:?}");
            for k in 0..idxs.len() {
                assert_eq!(typed.range_value(k), generic.range_value(k), "{e:?} @ {k}");
            }
        }
    }

    /// i64 overflow falls back to the row semantics, which promote the
    /// overflowing element to float — exactly what per-row eval does.
    #[test]
    fn overflow_falls_back_to_value_semantics() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (AuTuple::new([RangeValue::certain(i64::MAX)]), Mult3::ONE),
                (AuTuple::new([RangeValue::certain(1i64)]), Mult3::ONE),
            ],
        );
        let cols = rel.to_columns();
        let b = cols.as_batch();
        let e = RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::lit(1)));
        let vals = e.eval_batch(&b);
        for (i, row) in rel.rows().iter().enumerate() {
            assert_eq!(vals[i], e.eval(&row.tuple), "row {i}");
        }
        assert_eq!(vals[0].sg, Value::Float(i64::MAX as f64 + 1.0));
        assert_eq!(vals[1].sg, Value::Int(2));
    }
}
