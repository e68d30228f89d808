//! Typed physical column storage: the layer below [`crate::columns`].
//!
//! A bound vector of an [`crate::AuColumn`] used to be a `Vec<Value>` —
//! every cell paying the enum tag + padding (16 bytes for an `i64`) and
//! every kernel dispatching on the variant per cell. A [`PhysVec`] stores
//! the same logical value sequence in one of four *physical* layouts,
//! chosen at load/columnarize time:
//!
//! * [`PhysVec::I64`] — all cells are `Value::Int`: one flat `Vec<i64>`
//!   (8 bytes/cell, branch-free comparisons the autovectorizer can chew
//!   on);
//! * [`PhysVec::F64`] — all cells are `Value::Float`: one `Vec<f64>`
//!   (mixed int/float columns deliberately stay `Generic` — rewriting an
//!   `Int` as a double would silently change *arithmetic* over it, since
//!   `Value` arithmetic adds `i64`s exactly while `f64` sums round past
//!   2⁵³; the csv loader may still choose `F64` for mixed numeric
//!   *text*, where it owns the load boundary and can reject
//!   non-representable integers);
//! * [`PhysVec::Str`] — all cells are strings: dictionary encoding, a
//!   flat `Vec<u32>` of codes into an interned [`StrPool`] (4 bytes/cell
//!   plus each distinct string once);
//! * [`PhysVec::Generic`] — anything else (nulls, booleans, mixed types):
//!   the historical `Vec<Value>`, kept as the always-correct fallback and
//!   as the parity oracle for the monomorphic kernels.
//!
//! Physical typing is an *encoding*, never a semantic change: `value(i)`
//! rebuilds exactly the `Value` that went in (property-pinned in
//! `tests/typed_columns.rs`), and every operation demotes to `Generic`
//! rather than lose information (a mismatched push, an append of unlike
//! layouts). [`CertBitmap`] is the per-row certainty companion of a
//! ranged column: bit `i` set iff `lb ≡ sg ≡ ub` at row `i`, so equality
//! kernels answer "is this cell a point?" without touching the lanes.

use audb_rel::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Integers in `(-2⁵³, 2⁵³)` are exactly representable as `f64`, so a
/// loader that stores one in an [`PhysVec::F64`] lane preserves the total
/// value order (and the sort-key encoding) bit for bit. Used by the csv
/// loader's column-type inference; [`PhysVec::from_values`] itself never
/// rewrites an `Int` (see the module docs).
pub fn int_fits_f64(i: i64) -> bool {
    const LIM: i64 = 1 << 53;
    -LIM < i && i < LIM
}

/// The physical layout of one bound vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhysType {
    /// Flat `i64` lanes.
    I64,
    /// Flat `f64` lanes.
    F64,
    /// Dictionary-encoded strings.
    Str,
    /// `Vec<Value>` fallback.
    Generic,
}

impl fmt::Display for PhysType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysType::I64 => write!(f, "i64"),
            PhysType::F64 => write!(f, "f64"),
            PhysType::Str => write!(f, "str"),
            PhysType::Generic => write!(f, "generic"),
        }
    }
}

/// An interned string dictionary: each distinct string once, rows hold its
/// `u32` code in first-appearance order (equal sequences, equal pools). A
/// read ([`StrPool::get`], [`StrPool::bytes`]) is one hop into one arena cut
/// at `ends`; the handles ([`StrPool::arc`], a second copy) mint [`Value::Str`]s.
#[derive(Clone, Debug, Default)]
pub struct StrPool {
    arena: String,
    ends: Vec<usize>,
    handles: Vec<Arc<String>>,
    index: HashMap<Arc<String>, u32>,
}

impl StrPool {
    /// Empty pool.
    pub fn new() -> StrPool {
        StrPool::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff no string is interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The code of `s`, interning it on first appearance.
    pub fn intern(&mut self, s: &Arc<String>) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        // lint: allow(no-panic-hot-path) -- a >4B-string dictionary exceeds the u32 code space by design; overflow here is unrepresentable data, not a recoverable state
        let c = u32::try_from(self.ends.len()).expect("string dictionary overflow");
        self.arena.push_str(s);
        self.ends.push(self.arena.len());
        self.handles.push(s.clone());
        self.index.insert(s.clone(), c);
        c
    }

    /// The string behind `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.arena[start..self.ends[c]]
    }

    /// The bytes of [`StrPool::get`], without a `str` slice's boundary checks.
    #[inline]
    pub fn bytes(&self, code: u32) -> &[u8] {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.arena.as_bytes()[start..self.ends[c]]
    }

    /// The interned handle behind `code` (clones are reference bumps).
    pub fn arc(&self, code: u32) -> &Arc<String> {
        &self.handles[code as usize]
    }

    /// Measured heap footprint: the arena and its cuts, the handles (each
    /// distinct string's `Arc` header and payload once) and the
    /// intern index.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<usize>()
            + self.handles.capacity() * std::mem::size_of::<Arc<String>>()
            + self.handles.iter().map(str_heap_bytes).sum::<usize>()
            + self.index.capacity() * (std::mem::size_of::<(Arc<String>, u32)>() + 8)
    }
}

impl PartialEq for StrPool {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

/// Bit `i % 64` of word `i / 64` is `bit(i)`, for every `i < n`: one
/// tight loop per word, no bit past `n`.
pub(crate) fn pack_bits(n: usize, bit: impl Fn(usize) -> bool) -> Vec<u64> {
    (0..n.div_ceil(64))
        .map(|w| {
            let rows = w * 64..n.min(w * 64 + 64);
            rows.fold(0u64, |word, i| word | u64::from(bit(i)) << (i % 64))
        })
        .collect()
}

/// Per-row certainty bits of a ranged column: bit `i` set iff row `i`'s
/// range is a single point (`lb ≡ sg ≡ ub`). Maintained by construction
/// everywhere a ranged column is built, so kernels (and the storage
/// summary) never re-derive it from the lanes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CertBitmap {
    bits: Vec<u64>,
    len: usize,
}

impl CertBitmap {
    /// Empty bitmap.
    pub fn new() -> CertBitmap {
        CertBitmap::default()
    }

    /// An all-certain bitmap of `n` rows (a just-promoted column: every
    /// existing row was a point).
    pub fn all_certain(n: usize) -> CertBitmap {
        let mut bits = vec![!0u64; n.div_ceil(64)];
        if let Some(last) = bits.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        CertBitmap { bits, len: n }
    }

    /// The bitmap of `n` rows whose bit `i` is `certain(i)`, a word at a
    /// time (a producer that holds its lanes whole asks once, in one tight
    /// loop, instead of pushing a bit per row as it goes).
    pub fn from_fn(n: usize, certain: impl Fn(usize) -> bool) -> CertBitmap {
        CertBitmap {
            bits: pack_bits(n, certain),
            len: n,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's certainty bit.
    pub fn push(&mut self, certain: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.bits.push(0);
        }
        if certain {
            self.bits[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    /// Row `i`'s certainty bit.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of certain rows.
    pub fn count_certain(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The rows `start..start + n` that are *not* points, 64 to a word:
    /// bit `k % 64` of word `k / 64` is `!get(start + k)` — the bitmap's
    /// words shifted down to `start` and complemented, no bit past `n`.
    pub(crate) fn ranged_words(&self, start: usize, n: usize) -> Vec<u64> {
        debug_assert!(start + n <= self.len, "rows past the bitmap");
        let (q, r) = (start / 64, start % 64);
        let mut out: Vec<u64> = (0..n.div_ceil(64))
            .map(|w| {
                let high = match (r, self.bits.get(q + w + 1)) {
                    (1.., Some(&next)) => next << (64 - r),
                    _ => 0,
                };
                !(self.bits[q + w] >> r | high)
            })
            .collect();
        if let (Some(last), 1..) = (out.last_mut(), n % 64) {
            *last &= (1 << (n % 64)) - 1;
        }
        out
    }

    /// Append the bits of `src` at `pick`: a span that starts a word on
    /// both sides as whole words, anything else bit by bit.
    pub(crate) fn extend_picked(&mut self, src: &CertBitmap, pick: Pick<'_>) {
        match pick {
            Pick::Span(start, len) if start.is_multiple_of(64) && self.len.is_multiple_of(64) => {
                let words = &src.bits[start / 64..(start + len).div_ceil(64)];
                self.bits.extend_from_slice(words);
                self.len += len;
                if let (Some(last), 1..) = (self.bits.last_mut(), self.len % 64) {
                    *last &= (1 << (self.len % 64)) - 1;
                }
            }
            _ => pick.each(|i| self.push(src.get(i))),
        }
    }

    /// Measured heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }
}

/// The rows of a stored lane to copy: `len` rows from `start`, or the row
/// `start + i` for each batch-relative `i`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pick<'r> {
    Span(usize, usize),
    At(usize, &'r [usize]),
}

impl Pick<'_> {
    /// Number of rows picked.
    pub(crate) fn len(&self) -> usize {
        match self {
            Pick::Span(_, len) => *len,
            Pick::At(_, idxs) => idxs.len(),
        }
    }

    /// `f` of every picked row, in order.
    fn each(self, mut f: impl FnMut(usize)) {
        match self {
            Pick::Span(start, len) => (start..start + len).for_each(f),
            Pick::At(start, idxs) => idxs.iter().for_each(|&i| f(start + i)),
        }
    }

    /// Append the picked elements of `src` to `dst`: a span in one copy.
    fn copy<T: Copy>(self, dst: &mut Vec<T>, src: &[T]) {
        match self {
            Pick::Span(start, len) => dst.extend_from_slice(&src[start..start + len]),
            Pick::At(start, idxs) => dst.extend(idxs.iter().map(|&i| src[start + i])),
        }
    }
}

/// One bound vector in its chosen physical layout. See the module docs
/// for the four layouts and the demotion rules.
#[derive(Clone, Debug)]
pub enum PhysVec {
    /// All-integer lanes.
    I64(Vec<i64>),
    /// Numeric lanes with floats (plus exactly-representable integers).
    F64(Vec<f64>),
    /// Dictionary-encoded strings.
    Str {
        /// Per-row codes into `pool`.
        codes: Vec<u32>,
        /// The interned dictionary.
        pool: StrPool,
    },
    /// The `Vec<Value>` fallback.
    Generic(Vec<Value>),
}

impl Default for PhysVec {
    fn default() -> Self {
        PhysVec::Generic(Vec::new())
    }
}

impl PhysVec {
    /// Empty, untyped (the first push decides the layout).
    pub fn new() -> PhysVec {
        PhysVec::default()
    }

    /// Empty with row capacity reserved.
    pub fn with_capacity(n: usize) -> PhysVec {
        PhysVec::Generic(Vec::with_capacity(n))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            PhysVec::I64(v) => v.len(),
            PhysVec::F64(v) => v.len(),
            PhysVec::Str { codes, .. } => codes.len(),
            PhysVec::Generic(v) => v.len(),
        }
    }

    /// True iff no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical layout tag.
    pub fn phys_type(&self) -> PhysType {
        match self {
            PhysVec::I64(_) => PhysType::I64,
            PhysVec::F64(_) => PhysType::F64,
            PhysVec::Str { .. } => PhysType::Str,
            PhysVec::Generic(_) => PhysType::Generic,
        }
    }

    /// The logical value at `i`, rebuilt exactly as stored (`Int`s stay
    /// `Int`s in `I64` lanes; `F64` lanes return `Float` — admission
    /// guarantees the logical value is unchanged under the total order).
    pub fn value(&self, i: usize) -> Value {
        match self {
            PhysVec::I64(v) => Value::Int(v[i]),
            PhysVec::F64(v) => Value::Float(v[i]),
            PhysVec::Str { codes, pool } => Value::Str(pool.arc(codes[i]).clone()),
            PhysVec::Generic(v) => v[i].clone(),
        }
    }

    /// Borrowed view of the whole vector.
    pub fn slice(&self) -> PhysSlice<'_> {
        match self {
            PhysVec::I64(v) => PhysSlice::I64(v),
            PhysVec::F64(v) => PhysSlice::F64(v),
            PhysVec::Str { codes, pool } => PhysSlice::Str { codes, pool },
            PhysVec::Generic(v) => PhysSlice::Generic(v),
        }
    }

    /// Choose a layout for `vals` (the columnarize-time inference):
    /// all-`Int` → `I64`; all-`Float` → `F64`; all-`Str` → dictionary;
    /// anything else — nulls, booleans, mixed classes (including mixed
    /// int/float, see the module docs) — stays `Generic`. The chosen
    /// layout stores every value *exactly* as it came in.
    pub fn from_values(vals: Vec<Value>) -> PhysVec {
        if vals.is_empty() {
            return PhysVec::Generic(vals);
        }
        let mut all_int = true;
        let mut all_float = true;
        let mut all_str = true;
        for v in &vals {
            match v {
                Value::Int(_) => {
                    all_str = false;
                    all_float = false;
                }
                Value::Float(_) => {
                    all_str = false;
                    all_int = false;
                }
                Value::Str(_) => {
                    all_int = false;
                    all_float = false;
                }
                _ => return PhysVec::Generic(vals),
            }
        }
        if all_int {
            // lint: allow(no-panic-hot-path) -- the layout scan above proved every value is Int
            PhysVec::I64(vals.iter().map(|v| v.as_i64().unwrap()).collect())
        } else if all_float {
            // lint: allow(no-panic-hot-path) -- the layout scan above proved every value is Float
            PhysVec::F64(vals.iter().map(|v| v.as_f64().unwrap()).collect())
        } else if all_str {
            let mut pool = StrPool::new();
            let codes = vals
                .iter()
                .map(|v| match v {
                    Value::Str(s) => pool.intern(s),
                    _ => unreachable!("all_str scanned"),
                })
                .collect();
            PhysVec::Str { codes, pool }
        } else {
            PhysVec::Generic(vals)
        }
    }

    /// Re-run layout inference on a `Generic` vector in place (the
    /// columnarize-time compaction step: a column that collected mixed
    /// pushes but ended up homogeneous gets its typed layout back).
    pub fn compact(&mut self) {
        if let PhysVec::Generic(v) = self {
            if !v.is_empty() {
                *self = PhysVec::from_values(std::mem::take(v));
            }
        }
    }

    /// Append one value, keeping the layout when it matches and demoting
    /// to `Generic` when it does not. An empty vector adopts the value's
    /// layout.
    pub fn push_value(&mut self, v: &Value) {
        if self.is_empty() {
            let cap = match self {
                PhysVec::Generic(g) => g.capacity(),
                _ => 0,
            };
            *self = match v {
                Value::Int(_) => PhysVec::I64(Vec::with_capacity(cap)),
                Value::Float(_) => PhysVec::F64(Vec::with_capacity(cap)),
                Value::Str(_) => PhysVec::Str {
                    codes: Vec::with_capacity(cap),
                    pool: StrPool::new(),
                },
                _ => PhysVec::Generic(Vec::with_capacity(cap)),
            };
        }
        match (&mut *self, v) {
            (PhysVec::I64(lanes), Value::Int(i)) => lanes.push(*i),
            (PhysVec::F64(lanes), Value::Float(f)) => lanes.push(*f),
            (PhysVec::Str { codes, pool }, Value::Str(s)) => codes.push(pool.intern(s)),
            (PhysVec::Generic(vals), v) => vals.push(v.clone()),
            _ => {
                self.demote();
                match self {
                    PhysVec::Generic(vals) => vals.push(v.clone()),
                    _ => unreachable!("demote() produces Generic"),
                }
            }
        }
    }

    /// Rewrite in place as the `Generic` layout (same logical values).
    pub fn demote(&mut self) {
        *self = PhysVec::Generic(self.to_values());
    }

    /// The same logical sequence in the `Generic` layout (the parity
    /// oracle the typed kernels are benchmarked and property-tested
    /// against).
    pub fn to_generic(&self) -> PhysVec {
        PhysVec::Generic(self.to_values())
    }

    /// Materialize every value (used by demotion and the row boundary).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Append the values of `src` at `pick`: an empty vector adopts the
    /// source's layout — `cap` rows reserved, a dictionary starting from
    /// the source's pool —, like layouts extend lane-wise (a dictionary
    /// re-interns the source's strings), unlike ones demote to `Generic`.
    pub(crate) fn extend_picked(&mut self, src: &PhysVec, pick: Pick<'_>, cap: usize) {
        let fresh = self.is_empty();
        if fresh {
            *self = match src {
                PhysVec::I64(_) => PhysVec::I64(Vec::with_capacity(cap)),
                PhysVec::F64(_) => PhysVec::F64(Vec::with_capacity(cap)),
                PhysVec::Str { pool, .. } => PhysVec::Str {
                    codes: Vec::with_capacity(cap),
                    pool: pool.clone(),
                },
                PhysVec::Generic(_) => PhysVec::Generic(Vec::with_capacity(cap)),
            };
        }
        match (&mut *self, src) {
            (PhysVec::I64(a), PhysVec::I64(b)) => pick.copy(a, b),
            (PhysVec::F64(a), PhysVec::F64(b)) => pick.copy(a, b),
            (PhysVec::Str { codes, .. }, PhysVec::Str { codes: bc, .. }) if fresh => {
                pick.copy(codes, bc)
            }
            (
                PhysVec::Str { codes, pool },
                PhysVec::Str {
                    codes: bc,
                    pool: bp,
                },
            ) => pick.each(|i| codes.push(pool.intern(bp.arc(bc[i])))),
            (PhysVec::Generic(a), PhysVec::Generic(b)) => pick.each(|i| a.push(b[i].clone())),
            _ => {
                self.demote();
                if let PhysVec::Generic(a) = self {
                    pick.each(|i| a.push(src.value(i)));
                }
            }
        }
    }

    /// Measured heap footprint in bytes: lane capacities (8 B/row for
    /// primitives, 4 B/row codes + the pool once for dictionaries) plus
    /// string payloads — the quantity the `bytes_per_row` bench column
    /// reports.
    pub fn heap_bytes(&self) -> usize {
        match self {
            PhysVec::I64(v) => v.capacity() * 8,
            PhysVec::F64(v) => v.capacity() * 8,
            PhysVec::Str { codes, pool } => codes.capacity() * 4 + pool.heap_bytes(),
            PhysVec::Generic(v) => {
                v.capacity() * std::mem::size_of::<Value>()
                    + v.iter().map(value_heap_bytes).sum::<usize>()
            }
        }
    }
}

impl PartialEq for PhysVec {
    /// Logical equality: the same value sequence, regardless of layout
    /// (an `I64` lane equals the `Generic` vector holding the same ints).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.value(i) == other.value(i))
    }
}

/// Bytes a value owns outside its inline representation.
pub(crate) fn value_heap_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => str_heap_bytes(s),
        _ => 0,
    }
}

/// Bytes one string handle owns: its `Arc` block (counts, `String`), payload.
fn str_heap_bytes(s: &Arc<String>) -> usize {
    std::mem::size_of::<[usize; 2]>() + std::mem::size_of::<String>() + s.capacity()
}

/// A borrowed view of (a contiguous range of) one bound vector, in its
/// physical layout — what [`crate::AuBatch::corner`] hands the kernels.
#[derive(Clone, Copy, Debug)]
pub enum PhysSlice<'a> {
    /// Integer lanes.
    I64(&'a [i64]),
    /// Float lanes.
    F64(&'a [f64]),
    /// Dictionary codes plus the pool they index.
    Str {
        /// Per-row codes.
        codes: &'a [u32],
        /// The dictionary the codes index.
        pool: &'a StrPool,
    },
    /// Fallback values.
    Generic(&'a [Value]),
}

impl<'a> PhysSlice<'a> {
    /// Number of rows in view.
    pub fn len(&self) -> usize {
        match self {
            PhysSlice::I64(v) => v.len(),
            PhysSlice::F64(v) => v.len(),
            PhysSlice::Str { codes, .. } => codes.len(),
            PhysSlice::Generic(v) => v.len(),
        }
    }

    /// True iff the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical layout tag.
    pub fn phys_type(&self) -> PhysType {
        match self {
            PhysSlice::I64(_) => PhysType::I64,
            PhysSlice::F64(_) => PhysType::F64,
            PhysSlice::Str { .. } => PhysType::Str,
            PhysSlice::Generic(_) => PhysType::Generic,
        }
    }

    /// The logical value at `i` (owned; an `Arc` bump for strings).
    pub fn value(&self, i: usize) -> Value {
        match self {
            PhysSlice::I64(v) => Value::Int(v[i]),
            PhysSlice::F64(v) => Value::Float(v[i]),
            PhysSlice::Str { codes, pool } => Value::Str(pool.arc(codes[i]).clone()),
            PhysSlice::Generic(v) => v[i].clone(),
        }
    }

    /// The sub-view over `start..start + len`.
    pub fn subslice(&self, start: usize, len: usize) -> PhysSlice<'a> {
        match self {
            PhysSlice::I64(v) => PhysSlice::I64(&v[start..start + len]),
            PhysSlice::F64(v) => PhysSlice::F64(&v[start..start + len]),
            PhysSlice::Str { codes, pool } => PhysSlice::Str {
                codes: &codes[start..start + len],
                pool,
            },
            PhysSlice::Generic(v) => PhysSlice::Generic(&v[start..start + len]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_picks_typed_layouts() {
        let ints = PhysVec::from_values(vec![Value::Int(1), Value::Int(-2)]);
        assert_eq!(ints.phys_type(), PhysType::I64);
        let floats = PhysVec::from_values(vec![Value::Float(0.5), Value::Float(-1.0)]);
        assert_eq!(floats.phys_type(), PhysType::F64);
        // Mixed int/float stays Generic: conversion never rewrites an Int
        // as a double (exact i64 arithmetic must survive the layout).
        let mixed_num = PhysVec::from_values(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(mixed_num.phys_type(), PhysType::Generic);
        let strs = PhysVec::from_values(vec![Value::str("a"), Value::str("a"), Value::str("b")]);
        assert_eq!(strs.phys_type(), PhysType::Str);
        match &strs {
            PhysVec::Str { codes, pool } => {
                assert_eq!(codes, &[0, 0, 1]);
                assert_eq!(pool.len(), 2);
            }
            _ => unreachable!(),
        }
        let mixed = PhysVec::from_values(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(mixed.phys_type(), PhysType::Generic);
        let nullable = PhysVec::from_values(vec![Value::Int(1), Value::Null]);
        assert_eq!(nullable.phys_type(), PhysType::Generic);
        // Huge integers are no obstacle to the all-int layout.
        let big = (1i64 << 53) + 1;
        let v = PhysVec::from_values(vec![Value::Int(big), Value::Int(0)]);
        assert_eq!(v.phys_type(), PhysType::I64);
        assert_eq!(v.value(0), Value::Int(big));
    }

    #[test]
    fn values_roundtrip_through_every_layout() {
        for vals in [
            vec![Value::Int(3), Value::Int(-1)],
            vec![Value::Float(0.5), Value::Float(2.0)],
            vec![Value::str("x"), Value::str(""), Value::str("x")],
            vec![Value::Null, Value::Bool(true), Value::Int(1)],
        ] {
            let pv = PhysVec::from_values(vals.clone());
            assert_eq!(pv.len(), vals.len());
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&pv.value(i), v, "{vals:?} @ {i}");
            }
            assert_eq!(pv, pv.to_generic());
            // A gather keeps the layout and the values.
            let mut g = PhysVec::new();
            g.extend_picked(&pv, Pick::At(0, &[vals.len() - 1, 0]), 2);
            assert_eq!(g.phys_type(), pv.phys_type());
            assert_eq!(g.value(0), vals[vals.len() - 1]);
            assert_eq!(g.value(1), vals[0]);
        }
    }

    #[test]
    fn push_types_then_demotes_on_mismatch() {
        let mut v = PhysVec::with_capacity(4);
        v.push_value(&Value::Int(1));
        assert_eq!(v.phys_type(), PhysType::I64);
        v.push_value(&Value::Int(2));
        // A float does not fit the i64 lanes: the vector demotes, values
        // intact.
        v.push_value(&Value::Float(0.5));
        assert_eq!(v.phys_type(), PhysType::Generic);
        assert_eq!(
            v.to_values(),
            vec![Value::Int(1), Value::Int(2), Value::Float(0.5)]
        );
        // Mixed numeric stays Generic even through compaction (exactness
        // over typing); a homogeneous Generic vector re-types.
        v.compact();
        assert_eq!(v.phys_type(), PhysType::Generic);
        let mut f = PhysVec::Generic(vec![Value::Float(1.5), Value::Float(2.5)]);
        f.compact();
        assert_eq!(f.phys_type(), PhysType::F64);
        f.push_value(&Value::Float(7.0));
        assert_eq!(f.value(2), Value::Float(7.0));
    }

    #[test]
    fn append_reinterns_and_demotes() {
        let mut a = PhysVec::from_values(vec![Value::str("x"), Value::str("y")]);
        let b = PhysVec::from_values(vec![Value::str("y"), Value::str("z")]);
        a.extend_picked(&b, Pick::Span(0, 2), 0);
        match &a {
            PhysVec::Str { codes, pool } => {
                assert_eq!(codes, &[0, 1, 1, 2]);
                assert_eq!(pool.len(), 3);
            }
            _ => panic!("dictionary append stays dictionary"),
        }
        let mut a = PhysVec::from_values(vec![Value::Int(1)]);
        a.extend_picked(
            &PhysVec::from_values(vec![Value::str("s")]),
            Pick::Span(0, 1),
            0,
        );
        assert_eq!(a.phys_type(), PhysType::Generic);
        assert_eq!(a.to_values(), vec![Value::Int(1), Value::str("s")]);
        // Appending into an empty vector adopts the incoming layout.
        let mut e = PhysVec::new();
        e.extend_picked(
            &PhysVec::from_values(vec![Value::Int(9)]),
            Pick::Span(0, 1),
            1,
        );
        assert_eq!(e.phys_type(), PhysType::I64);
    }

    #[test]
    fn bitmap_push_get_gather_append() {
        let mut bm = CertBitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_certain(), (0..130).filter(|i| i % 3 == 0).count());
        assert_eq!(CertBitmap::from_fn(130, |i| i % 3 == 0), bm);
        assert_eq!(
            CertBitmap::from_fn(64, |_| true),
            CertBitmap::all_certain(64)
        );
        assert_eq!(CertBitmap::from_fn(0, |_| true), CertBitmap::new());
        let mut g = CertBitmap::new();
        g.extend_picked(&bm, Pick::At(0, &[0, 1, 129]));
        assert_eq!((g.get(0), g.get(1), g.get(2)), (true, false, true));
        let mut all = CertBitmap::all_certain(70);
        assert_eq!(all.count_certain(), 70);
        all.extend_picked(&g, Pick::Span(0, 3));
        assert_eq!(all.len(), 73);
        assert!(!all.get(71));
        assert_eq!(CertBitmap::all_certain(64).count_certain(), 64);
        assert_eq!(CertBitmap::all_certain(0).len(), 0);
        // A span copies whole words where both sides start one — cut at
        // its end —, else bit by bit; either way the picked bits, no more.
        for (pre, start, len) in [
            (0, 0, 100),
            (0, 64, 66),
            (64, 0, 130),
            (0, 3, 70),
            (5, 64, 10),
        ] {
            let mut out = CertBitmap::from_fn(pre, |_| true);
            out.extend_picked(&bm, Pick::Span(start, len));
            let want = CertBitmap::from_fn(pre + len, |i| i < pre || bm.get(start + i - pre));
            assert_eq!(out, want, "{start}..+{len} after {pre}");
        }
        let mut out = CertBitmap::new();
        out.extend_picked(&bm, Pick::At(1, &[0, 2, 128]));
        assert_eq!(out, CertBitmap::from_fn(3, |i| i > 0), "rows 1, 3 and 129");
    }

    #[test]
    fn typed_lanes_are_smaller_than_generic() {
        let ints = PhysVec::from_values((0..100).map(Value::Int).collect());
        assert!(ints.heap_bytes() < ints.to_generic().heap_bytes());
        let strs = PhysVec::from_values((0..100).map(|i| Value::str(["a", "b"][i % 2])).collect());
        assert!(strs.heap_bytes() < strs.to_generic().heap_bytes());
    }

    #[test]
    fn a_string_handle_counts_its_header_and_payload() {
        // "héllo": six bytes behind an `Arc` of two counts and a `String`.
        let v = Value::str("héllo");
        let header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<String>();
        assert_eq!(value_heap_bytes(&v), header + 6);
        assert_eq!(value_heap_bytes(&Value::Int(7)), 0);
        // A pool counts each distinct handle once, beside its arena copy.
        let Value::Str(s) = &v else { unreachable!() };
        let mut pool = StrPool::new();
        pool.intern(s);
        let once = pool.heap_bytes();
        assert!(once >= header + 6 + 6);
        pool.intern(&Arc::new("héllo".to_owned()));
        assert_eq!((pool.len(), pool.heap_bytes()), (1, once));
        assert_eq!(pool.get(0), "héllo");
        assert_eq!(pool.bytes(0), "héllo".as_bytes());
    }
}
