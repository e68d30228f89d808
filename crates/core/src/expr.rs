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
//! The batch kernels — one value door, [`RangeExpr::eval_batch_column`],
//! and the predicate doors [`RangeExpr::truth_batch`] /
//! [`RangeExpr::truth_batch_at`] — try a **typed fast path** first: when
//! every attribute the expression touches has typed physical lanes
//! ([`crate::physical`]) and every node is expressible over them, the
//! whole expression lowers to monomorphic sweeps over `i64` / `f64` /
//! dictionary-code slices. Every lane of a typed node follows the
//! selection — element `k` is the `k`-th selected row: a column borrows
//! its batch slice when every row is selected and gathers the selected
//! rows once otherwise, a literal is broadcast once per node — so
//! arithmetic and comparisons are loops over plain slices and bound
//! arithmetic never constructs a [`Value`]. A predicate's truth triples
//! are three bit masks ([`TruthMasks`]): a comparison writes 64 rows per
//! word, `AND` / `OR` combine words, `NOT` swaps and complements them.
//! The typed tier costs in proportion to uncertainty: a node whose rows
//! are all points (a certain column, a literal whose bounds are the same
//! bits, arithmetic over such nodes) carries one lane for its three
//! bounds; any other carries three and the mask of the rows that may not
//! be points — a ranged column's certainty bitmap, or the union of its
//! operands'. On a point row a comparison's `lb`, `sg` and `ub` are one
//! bit, so it packs `sg` once and evaluates `lb` and `ub` at the masked
//! rows only.
//! Whenever *any* node cannot stay typed (a `Generic` column, a boolean
//! literal, `Mul`'s four-corner extrema, `i64` overflow that the `Value`
//! semantics would promote to float, a comparison of predicates), the
//! whole expression falls back to the **row semantics, cell by cell**:
//! per selected row, the same recursion reads only the cells the
//! expression names (`AuBatch::range_value`); a value's cells become a
//! column through [`AuColumns::column_from_values`] and a predicate's
//! triples are packed into the same masks. Typed ≡ row parity is
//! property-pinned in `tests/typed_columns.rs`; the exact `Value`
//! semantics the typed loops must reproduce (NaN ordering, `-0.0`,
//! int–float cross comparison) are [`audb_rel::cmp_float_float`] /
//! [`audb_rel::cmp_int_float`].

use crate::batch::AuBatch;
use crate::columns::{AuColumn, AuColumns};
use crate::physical::{pack_bits, CertBitmap, PhysSlice, PhysVec, StrPool};
use crate::range_value::{RangeValue, TruthRange};
use crate::sortkey::Corner;
use crate::tuple::AuTuple;
use audb_rel::{cmp_float_float, cmp_int_float, CmpOp, Value};
use std::borrow::Cow;
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

    /// Evaluate the expression as a predicate over every row of a
    /// columnar batch: bit `i` of the masks is row `i`'s truth triple. On
    /// typed lanes, predicate roots (comparisons, boolean connectives)
    /// stay masks end to end — a comparison writes 64 rows per word, a
    /// connective combines words, no boolean is ever boxed into a
    /// [`Value`]; anything else runs [`RangeExpr::truth`]'s recursion
    /// cell by cell and packs its triples into the same masks.
    pub fn truth_batch(&self, b: &AuBatch<'_>) -> TruthMasks {
        self.truth_batch_sel(b, Sel::All(b.len()))
    }

    /// Evaluate the predicate over the rows at the given batch-relative
    /// indices only (bit `k` is the row at `idxs[k]`) — the fused
    /// executor's path for a selection chained after another selection,
    /// so already-dropped rows are never re-evaluated.
    pub fn truth_batch_at(&self, b: &AuBatch<'_>, idxs: &[usize]) -> TruthMasks {
        self.truth_batch_sel(b, Sel::At(idxs))
    }

    fn truth_batch_sel(&self, b: &AuBatch<'_>, sel: Sel<'_>) -> TruthMasks {
        match self.eval_typed(b, sel) {
            Some(tv) => tv.into_truths(sel.count()),
            None => TruthMasks::pack(&sel.map(|i| self.truth_with(&|c| b.range_value(c, i)))),
        }
    }

    /// Evaluate the expression over the rows of a columnar batch at the
    /// given batch-relative indices, into one [`AuColumn`] whose row `k`
    /// is the row at `idxs[k]` — the one value door of the batch kernels
    /// (the fused executor's computed projections). Numeric typed lanes
    /// become the column's lanes, certainty bits read off them
    /// ([`AuColumn::from_lanes`]), with no [`RangeValue`] built; strings,
    /// a predicate's truths and the row semantics' values go through
    /// [`AuColumns::column_from_values`]. Either way the column collapses
    /// to the certain fast path exactly when every cell is a point.
    pub fn eval_batch_column(&self, b: &AuBatch<'_>, idxs: &[usize]) -> AuColumn {
        match self.eval_typed(b, Sel::At(idxs)) {
            Some(tv) => tv.into_column(idxs.len()),
            None => AuColumns::column_from_values(
                (idxs.iter())
                    .map(|&i| self.eval_with(&|c| b.range_value(c, i)))
                    .collect(),
            ),
        }
    }

    /// Typed evaluation core: `Some` iff this node (and its whole
    /// subtree) is expressible over typed physical lanes; `None` sends
    /// the **entire expression** to the row semantics, so a partially
    /// typed tree never mixes semantics mid-expression. Every lane of the
    /// result follows `sel`: element `k` is the `k`-th selected row.
    fn eval_typed<'a>(&self, b: &AuBatch<'a>, sel: Sel<'_>) -> Option<TypedVals<'a>> {
        let n = sel.count();
        match self {
            RangeExpr::Col(i) => {
                let wide = || b.cert_bits(*i).map(|(bits, start)| sel.ranged(bits, start));
                match [Corner::Lb, Corner::Sg, Corner::Ub].map(|c| b.corner(*i, c)) {
                    [PhysSlice::I64(l), PhysSlice::I64(s), PhysSlice::I64(u)] => {
                        Some(TypedVals::I64(Bounds::of(wide(), [l, s, u], |x| {
                            sel.lane(x)
                        })))
                    }
                    [PhysSlice::F64(l), PhysSlice::F64(s), PhysSlice::F64(u)] => {
                        Some(TypedVals::F64(Bounds::of(wide(), [l, s, u], |x| {
                            sel.lane(x)
                        })))
                    }
                    [PhysSlice::Str {
                        codes: lc,
                        pool: lp,
                    }, PhysSlice::Str {
                        codes: sc,
                        pool: sp,
                    }, PhysSlice::Str {
                        codes: uc,
                        pool: up,
                    }] => Some(TypedVals::Str(Box::new(Bounds::of(
                        wide(),
                        [(lc, lp), (sc, sp), (uc, up)],
                        |(codes, pool)| Dict::of(sel, codes, pool),
                    )))),
                    // A Generic lane — or a ranged column whose three bounds
                    // landed in different layouts — leaves the typed tier.
                    _ => None,
                }
            }
            // A literal is a point when its bounds are the same bits.
            RangeExpr::Lit(v) => match (&v.lb, &v.sg, &v.ub) {
                (Value::Int(l), Value::Int(s), Value::Int(u)) => Some(TypedVals::I64(
                    Bounds::splat(n, [*l, *s, *u], |a, b| a == b, |x| Cow::Owned(vec![x; n])),
                )),
                (Value::Float(l), Value::Float(s), Value::Float(u)) => {
                    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
                    let lane = |x| Cow::Owned(vec![x; n]);
                    Some(TypedVals::F64(Bounds::splat(n, [*l, *s, *u], same, lane)))
                }
                (Value::Str(l), Value::Str(s), Value::Str(u)) => Some(TypedVals::Str(Box::new(
                    Bounds::splat(n, [l, s, u], |a, b| a == b, |x| Dict::splat(n, x)),
                ))),
                _ => None,
            },
            // Addition and subtraction: an i64 overflow is exactly the
            // case where the Value semantics promote that element to
            // float, so the whole node bails to the row semantics. Mixed
            // i64/f64 promotes unconditionally via `as f64`, precisely what
            // `numeric_binop` does for a genuine Int-class/Float-class pair.
            // Subtraction is antitone in its right argument (mirrors
            // RangeValue::sub): lb = a↓ − c↑, ub = a↑ − c↓.
            RangeExpr::Add(x, y) => arith(
                x.eval_typed(b, sel)?,
                y.eval_typed(b, sel)?,
                false,
                i64::overflowing_add,
                |s, t| s + t,
            ),
            RangeExpr::Sub(x, y) => arith(
                x.eval_typed(b, sel)?,
                y.eval_typed(b, sel)?,
                true,
                i64::overflowing_sub,
                |s, t| s - t,
            ),
            // Four-corner extrema over mixed-sign ranges: rare enough on
            // hot paths that it stays with the row semantics.
            RangeExpr::Mul(..) => None,
            // Value::neg is wrapping for ints; negation swaps bounds.
            RangeExpr::Neg(x) => match x.eval_typed(b, sel)? {
                TypedVals::I64(p) => Some(TypedVals::I64(p.neg(i64::wrapping_neg))),
                TypedVals::F64(p) => Some(TypedVals::F64(p.neg(|v: f64| -v))),
                _ => None,
            },
            RangeExpr::Cmp(op, x, y) => {
                cmp_typed(*op, x.eval_typed(b, sel)?, y.eval_typed(b, sel)?, n)
                    .map(TypedVals::Truths)
            }
            RangeExpr::And(x, y) => {
                let a = x.eval_typed(b, sel)?.into_truths(n);
                let c = y.eval_typed(b, sel)?.into_truths(n);
                Some(TypedVals::Truths(a.zip(&c, |s, t| s & t)))
            }
            RangeExpr::Or(x, y) => {
                let a = x.eval_typed(b, sel)?.into_truths(n);
                let c = y.eval_typed(b, sel)?.into_truths(n);
                Some(TypedVals::Truths(a.zip(&c, |s, t| s | t)))
            }
            RangeExpr::Not(x) => Some(TypedVals::Truths(
                x.eval_typed(b, sel)?.into_truths(n).not(),
            )),
        }
    }
}

/// A predicate's truth triples over the `n` rows a batch kernel covers,
/// as three bit masks: bit `k % 64` of word `k / 64` is the `k`-th row's
/// bound. No bit at or past `n` is set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TruthMasks {
    /// Certainly true.
    lb: Vec<u64>,
    /// True in the selected-guess world.
    sg: Vec<u64>,
    /// Possibly true.
    ub: Vec<u64>,
    n: usize,
}

impl TruthMasks {
    /// Per-row triples, 64 rows to a word.
    fn pack(ts: &[TruthRange]) -> TruthMasks {
        let n = ts.len();
        TruthMasks {
            lb: pack_bits(n, |k| ts[k].lb),
            sg: pack_bits(n, |k| ts[k].sg),
            ub: pack_bits(n, |k| ts[k].ub),
            n,
        }
    }

    /// A comparison's masks from its `sg` words: where both operands are
    /// points, `lb`, `sg` and `ub` are one bit — the three bound pairs
    /// compared are equal under the total order. So `lb` and `ub` copy
    /// `sg` and are re-evaluated at the set bits of `wide` only (`None`:
    /// every row a point).
    fn patched(
        sg: Vec<u64>,
        n: usize,
        wide: Option<&[u64]>,
        lb: impl Fn(usize) -> bool,
        ub: impl Fn(usize) -> bool,
    ) -> TruthMasks {
        let (mut l, mut u) = (sg.clone(), sg.clone());
        for (w, &rows) in wide.unwrap_or_default().iter().enumerate() {
            let (mut left, mut lbits, mut ubits) = (rows, 0, 0);
            while left != 0 {
                let j = left.trailing_zeros();
                lbits |= u64::from(lb(w * 64 + j as usize)) << j;
                ubits |= u64::from(ub(w * 64 + j as usize)) << j;
                left &= left - 1;
            }
            l[w] = sg[w] & !rows | lbits;
            u[w] = sg[w] & !rows | ubits;
        }
        TruthMasks {
            lb: l,
            sg,
            ub: u,
            n,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `lb`, `sg` and `ub` words, `n.div_ceil(64)` each.
    pub fn words(&self) -> [&[u64]; 3] {
        [&self.lb, &self.sg, &self.ub]
    }

    /// Row `k`'s truth triple.
    pub fn get(&self, k: usize) -> TruthRange {
        debug_assert!(k < self.n, "row past the masks");
        let bit = |ws: &[u64]| ws[k / 64] >> (k % 64) & 1 == 1;
        TruthRange {
            lb: bit(&self.lb),
            sg: bit(&self.sg),
            ub: bit(&self.ub),
        }
    }

    /// The rows with some bound true, in order, with their triples —
    /// the set bits of `lb | sg | ub`. A selection filters every other
    /// row's annotation to zero, so it visits these only.
    pub fn any_true(&self) -> impl Iterator<Item = (usize, TruthRange)> + '_ {
        (0..self.lb.len())
            .flat_map(move |w| {
                let mut any = self.lb[w] | self.sg[w] | self.ub[w];
                std::iter::from_fn(move || {
                    let j = any.trailing_zeros() as usize;
                    any &= any.wrapping_sub(1);
                    (j < 64).then_some(w * 64 + j)
                })
            })
            .map(|k| (k, self.get(k)))
    }

    /// `f` of every pair of words (`AND`: `&`, `OR`: `|`).
    fn zip(mut self, other: &TruthMasks, f: impl Fn(u64, u64) -> u64) -> TruthMasks {
        for (a, b) in [
            (&mut self.lb, &other.lb),
            (&mut self.sg, &other.sg),
            (&mut self.ub, &other.ub),
        ] {
            a.iter_mut().zip(b).for_each(|(s, &t)| *s = f(*s, t));
        }
        self
    }

    /// Negation swaps and complements the bounds (`¬[l/s/u] =
    /// [¬u/¬s/¬l]`); the complement's bits past `n` are cleared.
    fn not(self) -> TruthMasks {
        let n = self.n;
        let neg = |mut ws: Vec<u64>| {
            ws.iter_mut().for_each(|w| *w = !*w);
            if let (Some(last), 1..) = (ws.last_mut(), n % 64) {
                *last &= (1 << (n % 64)) - 1;
            }
            ws
        };
        TruthMasks {
            lb: neg(self.ub),
            sg: neg(self.sg),
            ub: neg(self.lb),
            n,
        }
    }
}

/// The row subset an expression sweep covers: every row of the batch, or
/// an explicit batch-relative index list (the surviving rows of a pending
/// selection). Every lane of a typed node follows it: element `k` is the
/// `k`-th selected row.
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

    /// `f` of every selected batch row, in selection order.
    fn map<T>(self, mut f: impl FnMut(usize) -> T) -> Vec<T> {
        match self {
            Sel::All(n) => (0..n).map(f).collect(),
            Sel::At(idxs) => idxs.iter().map(|&i| f(i)).collect(),
        }
    }

    /// A batch lane as the selection sees it: borrowed whole, or
    /// gathered once.
    fn lane<T: Copy>(self, s: &[T]) -> Cow<'_, [T]> {
        match self {
            Sel::All(_) => Cow::Borrowed(s),
            Sel::At(_) => Cow::Owned(self.map(|i| s[i])),
        }
    }

    /// The selected rows a ranged column may not hold points at, read off
    /// its certainty bits from the batch's first row `start`.
    fn ranged(self, bits: &CertBitmap, start: usize) -> Vec<u64> {
        match self {
            Sel::All(n) => bits.ranged_words(start, n),
            Sel::At(idxs) => pack_bits(idxs.len(), |k| !bits.get(start + idxs[k])),
        }
    }
}

/// The three bounds of a typed node.
struct Tri<L> {
    lb: L,
    sg: L,
    ub: L,
}

impl<L> Tri<L> {
    fn map<'s, M>(&'s self, mut f: impl FnMut(&'s L) -> M) -> Tri<M> {
        Tri {
            lb: f(&self.lb),
            sg: f(&self.sg),
            ub: f(&self.ub),
        }
    }
}

/// A typed node's lanes. Where every row is a point (`lb ≡ sg ≡ ub`) one
/// lane serves as all three bounds; otherwise three lanes, and the words
/// of the rows that may not be points (bit `k % 64` of word `k / 64` is
/// the `k`-th selected row; no bit past the last).
enum Bounds<L> {
    Point(L),
    Ranged(Tri<L>, Vec<u64>),
}

impl<L> Bounds<L> {
    /// Three lanes read through `lane`, or one when no row is `wide`.
    fn of<X>(wide: Option<Vec<u64>>, [l, s, u]: [X; 3], lane: impl Fn(X) -> L) -> Self {
        match wide {
            None => Bounds::Point(lane(s)),
            Some(wide) => Bounds::Ranged(
                Tri {
                    lb: lane(l),
                    sg: lane(s),
                    ub: lane(u),
                },
                wide,
            ),
        }
    }

    /// A literal's bounds broadcast to `n` rows through `lane`: one lane
    /// when they are `same`, else three with every row ranged.
    fn splat<X: Copy>(
        n: usize,
        [l, s, u]: [X; 3],
        same: impl Fn(X, X) -> bool,
        lane: impl Fn(X) -> L,
    ) -> Self {
        let point = same(l, s) && same(s, u);
        Bounds::of((!point).then(|| pack_bits(n, |_| true)), [l, s, u], lane)
    }

    fn sg(&self) -> &L {
        match self {
            Bounds::Point(l) => l,
            Bounds::Ranged(t, _) => &t.sg,
        }
    }

    /// The three bounds, one lane thrice for a point node.
    fn tri(&self) -> Tri<&L> {
        match self {
            Bounds::Point(l) => Tri {
                lb: l,
                sg: l,
                ub: l,
            },
            Bounds::Ranged(t, _) => t.map(|l| l),
        }
    }

    /// The rows that may not be points; `None` when every row is.
    fn wide(&self) -> Option<&[u64]> {
        match self {
            Bounds::Point(_) => None,
            Bounds::Ranged(_, wide) => Some(wide),
        }
    }

    fn map<M>(&self, mut f: impl FnMut(&L) -> M) -> Bounds<M> {
        match self {
            Bounds::Point(l) => Bounds::Point(f(l)),
            Bounds::Ranged(t, wide) => Bounds::Ranged(t.map(f), wide.clone()),
        }
    }
}

impl<T: Copy> Bounds<Cow<'_, [T]>> {
    /// The three bounds as slices.
    fn slices(&self) -> Tri<&[T]> {
        let t = self.tri();
        Tri {
            lb: t.lb,
            sg: t.sg,
            ub: t.ub,
        }
    }

    /// Negation swaps the bounds.
    fn neg(self, f: impl Fn(T) -> T) -> Bounds<Cow<'static, [T]>> {
        match self {
            Bounds::Point(l) => Bounds::Point(map_lane(&l, f)),
            Bounds::Ranged(t, wide) => Bounds::Ranged(
                Tri {
                    lb: map_lane(&t.ub, &f),
                    sg: map_lane(&t.sg, &f),
                    ub: map_lane(&t.lb, &f),
                },
                wide,
            ),
        }
    }
}

/// The rows either of two nodes may leave ranged; `None` when both are
/// points throughout.
fn union<'w>(a: Option<&'w [u64]>, b: Option<&'w [u64]>) -> Option<Cow<'w, [u64]>> {
    match (a, b) {
        (None, None) => None,
        (Some(w), None) | (None, Some(w)) => Some(Cow::Borrowed(w)),
        (Some(a), Some(b)) => Some(Cow::Owned(a.iter().zip(b).map(|(x, y)| x | y).collect())),
    }
}

/// One bound of a string node: dictionary codes and the pool they index
/// (a literal's own pool holds its one string).
struct Dict<'a> {
    codes: Cow<'a, [u32]>,
    pool: Cow<'a, StrPool>,
}

impl<'a> Dict<'a> {
    fn of(sel: Sel<'_>, codes: &'a [u32], pool: &'a StrPool) -> Dict<'a> {
        Dict {
            codes: sel.lane(codes),
            pool: Cow::Borrowed(pool),
        }
    }

    fn splat(n: usize, s: &Arc<String>) -> Dict<'a> {
        let mut pool = StrPool::new();
        let code = pool.intern(s);
        Dict {
            codes: Cow::Owned(vec![code; n]),
            pool: Cow::Owned(pool),
        }
    }

    fn codes(&self) -> (&[u32], &StrPool) {
        (&self.codes, &self.pool)
    }

    fn arc(&self, k: usize) -> Arc<String> {
        Arc::clone(self.pool.arc(self.codes[k]))
    }
}

/// The typed column-level value of one expression node over a batch.
enum TypedVals<'a> {
    I64(Bounds<Cow<'a, [i64]>>),
    F64(Bounds<Cow<'a, [f64]>>),
    /// Boxed: a literal's bounds own their one-string pools.
    Str(Box<Bounds<Dict<'a>>>),
    /// Predicate node.
    Truths(TruthMasks),
}

impl TypedVals<'_> {
    /// The rows this node may leave ranged (predicates: none asked).
    fn wide(&self) -> Option<&[u64]> {
        match self {
            TypedVals::I64(t) => t.wide(),
            TypedVals::F64(t) => t.wide(),
            TypedVals::Str(t) => t.wide(),
            TypedVals::Truths(_) => None,
        }
    }

    /// This node as truth masks: predicate nodes pass through; numeric
    /// and string lanes are never `Bool(true)`, so their truth-lowering
    /// (`Value::is_true` per corner) is constant `false`.
    fn into_truths(self, n: usize) -> TruthMasks {
        match self {
            TypedVals::Truths(ts) => ts,
            _ => TruthMasks::pack(&vec![TruthRange::FALSE; n]),
        }
    }

    /// Build the output [`AuColumn`] of a computed projection: numeric
    /// lanes become its lanes ([`AuColumn::from_lanes`]; a point node is
    /// the certain representation); strings and truths are cells for
    /// [`AuColumns::column_from_values`].
    fn into_column(self, n: usize) -> AuColumn {
        fn lanes<T: Copy>(t: Bounds<Cow<'_, [T]>>, lane: fn(Vec<T>) -> PhysVec) -> AuColumn {
            match t {
                Bounds::Point(l) => AuColumn::Certain(lane(l.into_owned())),
                Bounds::Ranged(t, _) => {
                    AuColumn::from_lanes([t.lb, t.sg, t.ub].map(|l| lane(l.into_owned())))
                }
            }
        }
        let cells: Vec<RangeValue> = match self {
            TypedVals::I64(t) => return lanes(t, PhysVec::I64),
            TypedVals::F64(t) => return lanes(t, PhysVec::F64),
            TypedVals::Str(t) => {
                let t = t.tri();
                (0..n)
                    .map(|k| RangeValue {
                        lb: Value::Str(t.lb.arc(k)),
                        sg: Value::Str(t.sg.arc(k)),
                        ub: Value::Str(t.ub.arc(k)),
                    })
                    .collect()
            }
            TypedVals::Truths(ts) => (0..n).map(|k| truth_to_range(ts.get(k))).collect(),
        };
        AuColumns::column_from_values(cells)
    }
}

/// Zip two lanes element-wise; `f` answers the value and whether it
/// overflowed, and one overflow anywhere aborts the typed path for the
/// whole expression.
fn zip_lanes<T: Copy>(
    a: &[T],
    b: &[T],
    f: impl Fn(T, T) -> (T, bool),
) -> Option<Cow<'static, [T]>> {
    let mut over = false;
    let out: Vec<T> = (a.iter().zip(b))
        .map(|(&s, &t)| {
            let (v, o) = f(s, t);
            over |= o;
            v
        })
        .collect();
    (!over).then_some(Cow::Owned(out))
}

/// Map a lane element-wise.
fn map_lane<T: Copy, U: Copy>(a: &[T], f: impl Fn(T) -> U) -> Cow<'static, [U]> {
    Cow::Owned(a.iter().map(|&v| f(v)).collect())
}

/// Promote a numeric node to `f64` lanes for mixed arithmetic — the
/// unconditional `as f64` promotion `numeric_binop` applies to a genuine
/// Int/Float pair.
fn tri_to_f64(t: TypedVals<'_>) -> Option<Bounds<Cow<'_, [f64]>>> {
    match t {
        TypedVals::F64(x) => Some(x),
        TypedVals::I64(x) => Some(x.map(|l| map_lane(l, |v| v as f64))),
        _ => None,
    }
}

/// `x + y` or `x − y` of two numeric nodes; `None` on any `i64` overflow
/// and for a node that is not numeric.
fn arith<'a>(
    x: TypedVals<'a>,
    y: TypedVals<'a>,
    anti: bool,
    int: fn(i64, i64) -> (i64, bool),
    float: fn(f64, f64) -> f64,
) -> Option<TypedVals<'a>> {
    match (x, y) {
        (TypedVals::I64(p), TypedVals::I64(q)) => zip_bounds(&p, &q, anti, int).map(TypedVals::I64),
        (p, q) => {
            let (p, q) = (tri_to_f64(p)?, tri_to_f64(q)?);
            zip_bounds(&p, &q, anti, |s, t| (float(s, t), false)).map(TypedVals::F64)
        }
    }
}

/// `f` of two nodes lane by lane: the selected guesses always, the bounds
/// only when some row may be ranged — a point `∘` a point is a point.
/// `anti` pairs each bound with the other side's opposite one
/// (subtraction).
fn zip_bounds<T: Copy>(
    x: &Bounds<Cow<'_, [T]>>,
    y: &Bounds<Cow<'_, [T]>>,
    anti: bool,
    f: impl Fn(T, T) -> (T, bool) + Copy,
) -> Option<Bounds<Cow<'static, [T]>>> {
    let sg = zip_lanes(x.sg(), y.sg(), f)?;
    let Some(wide) = union(x.wide(), y.wide()) else {
        return Some(Bounds::Point(sg));
    };
    let (p, q) = (x.slices(), y.slices());
    let (ql, qu) = if anti { (q.ub, q.lb) } else { (q.lb, q.ub) };
    let tri = Tri {
        lb: zip_lanes(p.lb, ql, f)?,
        sg,
        ub: zip_lanes(p.ub, qu, f)?,
    };
    Some(Bounds::Ranged(tri, wide.into_owned()))
}

/// Positional reads of one selection-aligned bound — a numeric slice, or
/// dictionary codes through their pool — so the comparison kernel is
/// written once and monomorphized per pair.
trait Elems: Copy {
    type Item: Copy;
    fn get(self, k: usize) -> Self::Item;
    /// Elements `lo..hi`.
    fn window(self, lo: usize, hi: usize) -> Self;
}

impl<T: Copy> Elems for &[T] {
    type Item = T;
    #[inline]
    fn get(self, k: usize) -> T {
        self[k]
    }
    #[inline]
    fn window(self, lo: usize, hi: usize) -> Self {
        &self[lo..hi]
    }
}

/// A string bound: its codes and the pool they index.
impl<'s> Elems for (&'s [u32], &'s StrPool) {
    type Item = &'s str;
    #[inline]
    fn get(self, k: usize) -> &'s str {
        self.1.get(self.0[k])
    }
    #[inline]
    fn window(self, lo: usize, hi: usize) -> Self {
        (&self.0[lo..hi], self.1)
    }
}

/// `f` of the `k`-th elements of `x` and `y` as bit `k`, for every `k <
/// n`, a word at a time: each word reads two windows of at most 64
/// elements, last to first, so the inner loop indexes within bounds it
/// knows and shifts by one.
fn pack_pairs<X: Elems, Y: Elems>(
    n: usize,
    x: X,
    y: Y,
    f: impl Fn(X::Item, Y::Item) -> bool,
) -> Vec<u64> {
    (0..n.div_ceil(64))
        .map(|w| {
            let (lo, hi) = (w * 64, n.min(w * 64 + 64));
            let (x, y) = (x.window(lo, hi), y.window(lo, hi));
            (0..hi - lo)
                .rev()
                .fold(0u64, |word, j| word << 1 | u64::from(f(x.get(j), y.get(j))))
        })
        .collect()
}

/// Typed comparison dispatch: canonicalizes `Gt`/`Ge` by swapping sides,
/// then monomorphizes the mask sweep per physical pair. `None` for pairs
/// the typed layer does not cover (cross-class like string-vs-number, or
/// comparisons of predicates).
fn cmp_typed(op: CmpOp, a: TypedVals<'_>, c: TypedVals<'_>, n: usize) -> Option<TruthMasks> {
    let eq_f = |p: f64, q: f64| cmp_float_float(p, q) == Ordering::Equal;
    let (op, a, c) = match op {
        CmpOp::Gt => (CmpOp::Lt, c, a),
        CmpOp::Ge => (CmpOp::Le, c, a),
        op => (op, a, c),
    };
    let wide = union(a.wide(), c.wide());
    let wide = wide.as_deref();
    Some(match (&a, &c) {
        (TypedVals::I64(x), TypedVals::I64(y)) => cmp_masks(
            op,
            n,
            wide,
            x.slices(),
            y.slices(),
            |p, q| p < q,
            |p, q| p <= q,
            |p, q| p == q,
            |p, q| p == q,
            |p, q| p == q,
        ),
        (TypedVals::F64(x), TypedVals::F64(y)) => cmp_masks(
            op,
            n,
            wide,
            x.slices(),
            y.slices(),
            |p, q| cmp_float_float(p, q) == Ordering::Less,
            |p, q| cmp_float_float(p, q) != Ordering::Greater,
            eq_f,
            eq_f,
            eq_f,
        ),
        (TypedVals::I64(x), TypedVals::F64(y)) => cmp_masks(
            op,
            n,
            wide,
            x.slices(),
            y.slices(),
            |p, q| cmp_int_float(p, q) == Ordering::Less,
            |p, q| cmp_int_float(p, q) != Ordering::Greater,
            |p, q| cmp_int_float(p, q) == Ordering::Equal,
            |p, q| p == q,
            eq_f,
        ),
        (TypedVals::F64(x), TypedVals::I64(y)) => cmp_masks(
            op,
            n,
            wide,
            x.slices(),
            y.slices(),
            |p, q| cmp_int_float(q, p) == Ordering::Greater,
            |p, q| cmp_int_float(q, p) != Ordering::Less,
            |p, q| cmp_int_float(q, p) == Ordering::Equal,
            eq_f,
            |p, q| p == q,
        ),
        (TypedVals::Str(x), TypedVals::Str(y)) => cmp_masks(
            op,
            n,
            wide,
            x.tri().map(|d| d.codes()),
            y.tri().map(|d| d.codes()),
            |p, q| p < q,
            |p, q| p <= q,
            |p, q| p == q,
            |p, q| p == q,
            |p, q| p == q,
        ),
        _ => return None,
    })
}

/// The monomorphic mask sweep (mirrors [`eval_cmp`] /
/// `RangeValue::{lt, le, eq_range}`), 64 rows to a word: `Gt`/`Ge` must
/// be canonicalized away by the caller. The `sg` bit is evaluated on every
/// row, `lb` and `ub` only on the rows `wide` marks
/// ([`TruthMasks::patched`]). The `eq` upper bound uses the total order:
/// `y↓ ≤ x↑ ⇔ ¬(x↑ < y↓)`.
#[allow(clippy::too_many_arguments)]
fn cmp_masks<X: Elems, Y: Elems>(
    op: CmpOp,
    n: usize,
    wide: Option<&[u64]>,
    x: Tri<X>,
    y: Tri<Y>,
    lt: impl Fn(X::Item, Y::Item) -> bool,
    le: impl Fn(X::Item, Y::Item) -> bool,
    eq: impl Fn(X::Item, Y::Item) -> bool,
    eq_x: impl Fn(X::Item, X::Item) -> bool,
    eq_y: impl Fn(Y::Item, Y::Item) -> bool,
) -> TruthMasks {
    let (xl, xs, xu, yl, ys, yu) = (x.lb, x.sg, x.ub, y.lb, y.sg, y.ub);
    match op {
        CmpOp::Lt => TruthMasks::patched(
            pack_pairs(n, xs, ys, &lt),
            n,
            wide,
            |k| lt(xu.get(k), yl.get(k)),
            |k| lt(xl.get(k), yu.get(k)),
        ),
        CmpOp::Le => TruthMasks::patched(
            pack_pairs(n, xs, ys, &le),
            n,
            wide,
            |k| le(xu.get(k), yl.get(k)),
            |k| le(xl.get(k), yu.get(k)),
        ),
        CmpOp::Eq | CmpOp::Ne => {
            let certain = |k| {
                eq_x(xl.get(k), xs.get(k))
                    && eq_x(xs.get(k), xu.get(k))
                    && eq_y(yl.get(k), ys.get(k))
                    && eq_y(ys.get(k), yu.get(k))
            };
            let ts = TruthMasks::patched(
                pack_pairs(n, xs, ys, &eq),
                n,
                wide,
                |k| certain(k) && eq(xl.get(k), yl.get(k)),
                |k| le(xl.get(k), yu.get(k)) && !lt(xu.get(k), yl.get(k)),
            );
            if op == CmpOp::Ne {
                ts.not()
            } else {
                ts
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
                assert_eq!(truths.get(i), e.truth(&row.tuple), "{e:?} row {i}");
            }
        }
    }

    /// The patch path: `sg` packed once, `lb` and `ub` re-evaluated only
    /// at the rows an operand leaves ranged — here every 13th row of `a`
    /// and every 5th of `f`, whose point rows hold `-0.0` beside `0.0` —
    /// agrees with the row semantics bit for bit at every batch offset,
    /// word-aligned or not, and under a selection.
    #[test]
    fn comparisons_patch_only_ranged_rows() {
        let n = 150;
        let rel = AuRelation::from_rows(
            Schema::new(["a", "c", "f"]),
            (0..n as i64).map(|i| {
                let a = match i % 13 {
                    0 => rv(i - 4, i, i + 4),
                    _ => RangeValue::certain(i),
                };
                let f = match i % 5 {
                    0 => RangeValue::new(Value::Float(-1.0), Value::Float(0.5), Value::Float(2.0)),
                    _ => RangeValue::new(Value::Float(-0.0), Value::Float(0.0), Value::Float(0.0)),
                };
                let tuple = AuTuple::new([a, RangeValue::certain((i * 7) % 150), f]);
                (tuple, Mult3::ONE)
            }),
        );
        let cols = rel.to_columns();
        assert!(!cols.col(0).is_certain() && cols.col(1).is_certain());
        let bits = match cols.col(0) {
            AuColumn::Ranged { certain, .. } => certain,
            AuColumn::Certain(_) => unreachable!("asserted ranged"),
        };
        for start in [0, 1, 63, 64, 65, 100] {
            for len in [0, 1, 49, 50] {
                let words = bits.ranged_words(start, len);
                assert_eq!(words.len(), len.div_ceil(64));
                let want = pack_bits(len, |k| !bits.get(start + k));
                assert_eq!(words, want, "rows {start}..+{len}");
            }
        }
        let (col, lit) = (RangeExpr::col, RangeExpr::lit);
        let exprs = [
            col(0).lt(col(1)),
            col(0).le(col(1)),
            col(1).cmp(CmpOp::Gt, col(0)),
            col(0).eq(col(1)),
            col(0).cmp(CmpOp::Ne, col(1)),
            col(0).lt(lit(70)),
            col(0).lt(RangeExpr::Lit(rv(60, 70, 80))),
            RangeExpr::Add(Box::new(col(0)), Box::new(col(1))).le(lit(150)),
            col(2).le(RangeExpr::lit(Value::Float(0.0))),
            col(2).eq(RangeExpr::lit(Value::Float(0.0))),
        ];
        for size in [1, 7, 64, 65, 150] {
            for b in cols.batches(size) {
                let idxs: Vec<usize> = (0..b.len()).filter(|i| i % 3 != 1).collect();
                for e in &exprs {
                    let row = |i: usize| e.truth(&rel.rows()[b.index() * size + i].tuple);
                    let truths = e.truth_batch(&b);
                    for i in 0..b.len() {
                        assert_eq!(truths.get(i), row(i), "{e:?} batch {size}·{}", b.index());
                    }
                    let at = e.truth_batch_at(&b, &idxs);
                    for (k, &i) in idxs.iter().enumerate() {
                        assert_eq!(at.get(k), row(i), "{e:?} at {i}");
                    }
                }
            }
        }
    }

    /// `eval_batch_column` builds the same logical column from typed lanes
    /// as from the same lanes demoted to values, the certain collapse
    /// included, and each cell is the row semantics' value — for typed
    /// and fallback expressions alike, over every row and a selection.
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
        let generic = cols.to_generic();
        let (b, gb) = (cols.as_batch(), generic.as_batch());
        let strs = RangeValue::new(Value::str("a"), Value::str("ab"), Value::str("b"));
        for idxs in [(0..8).collect::<Vec<usize>>(), (0..8).step_by(2).collect()] {
            for e in [
                RangeExpr::col(0),
                RangeExpr::col(1),
                RangeExpr::Add(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1))),
                RangeExpr::Mul(Box::new(RangeExpr::col(0)), Box::new(RangeExpr::col(1))),
                RangeExpr::col(0).lt(RangeExpr::col(1)),
                RangeExpr::Lit(strs.clone()),
            ] {
                let typed = e.eval_batch_column(&b, &idxs);
                let demoted = e.eval_batch_column(&gb, &idxs);
                assert_eq!(typed.is_certain(), demoted.is_certain(), "{e:?}");
                for (k, &i) in idxs.iter().enumerate() {
                    let want = e.eval(&rel.rows()[i].tuple);
                    assert_eq!(typed.range_value(k), want, "{e:?} @ {k}");
                    assert_eq!(demoted.range_value(k), want, "{e:?} @ {k}");
                }
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
        let vals = e.eval_batch_column(&b, &[0, 1]);
        for (i, row) in rel.rows().iter().enumerate() {
            assert_eq!(vals.range_value(i), e.eval(&row.tuple), "row {i}");
        }
        assert!(matches!(vals.range_value(0).sg, Value::Float(f) if f == i64::MAX as f64 + 1.0));
        assert!(matches!(vals.range_value(1).sg, Value::Int(2)));
    }
}
